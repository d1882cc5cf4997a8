"""One rule for every scalar at the public boundary: a value put in place of
one scalar argument of a public callable, of one element or the whole of
an array argument, of a whole map or sequence argument, or of a state or a
coin, gives a result or a CoinWalkError whose message is under 300 bytes,
never any other exception. Reals are checked by ``state._real``, integers by
``state._integer``, arrays by ``state._column`` with the same rules, maps from
position to number by ``state._map_column``, anything but a Mapping in place
of a map, anything not iterable in place of a sequence and anything but a
WalkerState in place of a state is a DomainError naming the argument, a numpy
bool is read as the bool it equals, and a message quotes each value through
``errors._quote``."""

import math
from dataclasses import replace
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coinwalk import fileio
from coinwalk.errors import CoinWalkError, DomainError, _quote
from coinwalk.measure import (extract_bits, pair_density, purity_criterion, shannon_entropy,
                              similarity)
from coinwalk.noise import (NoiseModel, bootstrap_errorbars, detected_event_budget, expected_counts,
                            lossy_distribution, sample_counts)
from coinwalk.pulses import (ARM_CCW, Calibration, PulseSchedule, TimingModel, arrival_time,
                             compile_schedule, decompile_schedule)
from coinwalk.state import (HADAMARD, AngleRows, CoinOp, CoinProgram, DistributionSchedule,
                            GeneralCoinOp, WalkerState, check_distribution, localized_state)
from coinwalk.synth import AmplitudePlan, synthesize_coins, uniform_program
from coinwalk.walk import apply_coin_layer, apply_shift, circular_initial, hadamard_program, step

PROGRAM = uniform_program(3)
DISENTANGLED = localized_state(1, 0)  # coin factored to |0>
EVENTS = list(compile_schedule(hadamard_program(2, circular_initial())).events)
CAL = Calibration()
TM = TimingModel()


def decompile_with(field, index):
    def call(v):
        events = list(EVENTS)
        events[index] = replace(events[index], **{field: v})
        return decompile_schedule(PulseSchedule(events=tuple(events)))
    return call


def timing_with(field):
    return lambda v: TimingModel(**{field: v})


def noise_with(field):
    return lambda v: NoiseModel(**{field: v})


def angle_rows(theta):
    return CoinProgram(steps=2, cells=AngleRows(theta), initial=DISENTANGLED)


def plan(a):
    """The program synthesized from a T = 1 plan whose a rows are ``a``."""
    return synthesize_coins(AmplitudePlan(1, a, ([0.0], [0.0, 0.0])))


# Each whole-map site puts a value in place of a whole map argument: a map
# from position to number, or a map of coins.
WHOLE_MAPS = {
    "sample_counts.p": lambda v: sample_counts(v, 10, 0),
    "bootstrap_errorbars.counts": lambda v: bootstrap_errorbars(v, 100, 0),
    "bootstrap_errorbars.theory": lambda v: bootstrap_errorbars({0: 5, 2: 5}, 100, 0, v),
    "similarity.p": lambda v: similarity(v, {0: 1.0}),
    "similarity.q": lambda v: similarity({0: 1.0}, v),
    "shannon_entropy.p": shannon_entropy,
    "check_distribution.p": lambda v: check_distribution(v, "p"),
    "purity_criterion.source": purity_criterion,
    "pair_density.source": lambda v: pair_density(v, 0),
    "WalkerState.amplitudes": lambda v: WalkerState(0, v),
    "DistributionSchedule.rows": lambda v: DistributionSchedule(1, v),
    "CoinProgram.cells": lambda v: CoinProgram(steps=1, cells=v, initial=DISENTANGLED),
    "CoinProgram.final_layer": lambda v: CoinProgram(steps=1, cells={(0, 0): HADAMARD},
                                                     initial=DISENTANGLED, final_layer=v),
    "apply_coin_layer.layer": lambda v: apply_coin_layer(DISENTANGLED, v),
}

# Each whole-sequence site puts a value in place of a whole sequence argument.
WHOLE_SEQUENCES = {
    "extract_bits.samples": lambda v: extract_bits(v, 3),
    "Calibration.anchors": Calibration,
    "PulseSchedule.events": lambda v: PulseSchedule(events=v),
}

# Each state site puts a value in place of a WalkerState argument.
STATES = {
    "apply_coin_layer.s": lambda v: apply_coin_layer(v, {0: HADAMARD}),
    "apply_shift.s": apply_shift,
    "step.s": lambda v: step(v, {0: HADAMARD}),
}

# Each site puts a value in one scalar argument (or one value or key of a
# mapping argument, or one element of an array argument, or in place of the
# whole array or map) of a public callable; every other argument is valid. No
# site takes a large valid resamples, which would allocate.
SITES = {
    "CoinOp.theta": CoinOp,
    "GeneralCoinOp.m00": lambda v: GeneralCoinOp(v, 0.0, 0.0, -1.0),
    "GeneralCoinOp.m11": lambda v: GeneralCoinOp(1.0, 0.0, 0.0, v),
    **{f"NoiseModel.{f}": noise_with(f) for f in ("round_trip_survival", "outcoupling_fraction",
                                                  "coin_angle_jitter_rad", "right_move_loss",
                                                  "seed")},
    "expected_counts.step": lambda v: expected_counts(PROGRAM, NoiseModel(), v, 100),
    "expected_counts.total_events": lambda v: expected_counts(PROGRAM, NoiseModel(), 3, v),
    "lossy_distribution.step": lambda v: lossy_distribution(PROGRAM, v, 0.1),
    "lossy_distribution.right_move_loss": lambda v: lossy_distribution(PROGRAM, 3, v),
    **{f"TimingModel.{f}": timing_with(f) for f in ("t_ns", "dt_ns", "sagnac_delay_ns",
                                                    "pulse_width_ns", "rep_period_ns")},
    "Calibration.phase": lambda v: Calibration(((0.1, 0.1), (v, 0.2))),
    "Calibration.voltage": lambda v: Calibration(((0.1, 0.1), (0.2, v))),
    "Calibration.anchor": lambda v: Calibration(((0.1, 0.1), v)),
    "phase_to_voltage": CAL.phase_to_voltage,
    "voltage_to_phase": CAL.voltage_to_phase,
    "compile_schedule.launch_offset_ns": lambda v: compile_schedule(PROGRAM, launch_offset_ns=v),
    "decompile_schedule.time_ns": decompile_with("time_ns", 0),
    "decompile_schedule.voltage_v": decompile_with("voltage_v", 2),
    "decompile_schedule.step": decompile_with("step", 1),
    "decompile_schedule.position": decompile_with("position", 2),
    "decompile_schedule.arm": decompile_with("arm", 1),
    "arrival_time.t": lambda v: arrival_time(v, 0, ARM_CCW, TM),
    "arrival_time.x": lambda v: arrival_time(2, v, ARM_CCW, TM),
    "arrival_time.arm": lambda v: arrival_time(0, 0, v, TM),
    "arrival_time.launch_offset_ns": lambda v: arrival_time(0, 0, ARM_CCW, TM, v),
    "detected_event_budget.launches": lambda v: detected_event_budget(NoiseModel(), v, 3),
    "detected_event_budget.step": lambda v: detected_event_budget(NoiseModel(), 1e6, v),
    "sample_counts.n": lambda v: sample_counts({0: 0.5, 2: 0.5}, v, 0),
    "sample_counts.weight": lambda v: sample_counts({0: v, 2: 0.5}, 10, 0),
    "sample_counts.key": lambda v: sample_counts({v: 0.5, 2: 0.5}, 10, 0),
    "bootstrap_errorbars.resamples": lambda v: bootstrap_errorbars({0: 5, 2: 5}, v, 0),
    "bootstrap_errorbars.count": lambda v: bootstrap_errorbars({0: v, 2: 5}, 100, 0),
    "purity_criterion.gamma": lambda v: purity_criterion(DISENTANGLED, v),
    "purity_criterion.tol": lambda v: purity_criterion(DISENTANGLED, tol=v),
    "purity_criterion.amplitude": lambda v: purity_criterion({0: v, 2: 0.0}),
    "pair_density.gamma": lambda v: pair_density(DISENTANGLED, 0, v),
    "pair_density.x": lambda v: pair_density(DISENTANGLED, v),
    "localized_state.a": lambda v: localized_state(v, 0),
    "localized_state.b": lambda v: localized_state(0, v),
    "WalkerState.position": lambda v: WalkerState(0, {v: (1, 0)}),
    "WalkerState.pair": lambda v: WalkerState(0, {0: v}),
    "similarity.key": lambda v: similarity({v: 1.0}, {0: 1.0}),
    "similarity.value": lambda v: similarity({0: 1.0}, {0: v}),
    "shannon_entropy.value": lambda v: shannon_entropy({0: v}),
    "DistributionSchedule.value": lambda v: DistributionSchedule(1, {0: {0: v},
                                                                     1: {-1: 0.5, 1: 0.5}}),
    "DistributionSchedule.row": lambda v: DistributionSchedule(1, {0: {0: 1.0}, 1: v}),
    "extract_bits.sample": lambda v: extract_bits([v], 3),
    "extract_bits.t": lambda v: extract_bits([0], v),
    "CoinProgram.layer": PROGRAM.layer,
    "apply_coin_layer.coin": lambda v: apply_coin_layer(DISENTANGLED, {0: v}),
    "AngleRows.angle": lambda v: angle_rows([0.5, v, 0.5]),
    "AngleRows.whole": lambda v: CoinProgram(steps=1, cells=AngleRows(v), initial=DISENTANGLED),
    "DistributionSchedule.from_rows.value": lambda v: DistributionSchedule.from_rows([1.0, v, 0.5]),
    "DistributionSchedule.from_rows.whole": DistributionSchedule.from_rows,
    "WalkerState.from_rows.a": lambda v: WalkerState.from_rows(1, [v, 0.6], [0.0, 0.8]),
    "WalkerState.from_rows.b": lambda v: WalkerState.from_rows(1, [0.6, 0.0], [0.0, v]),
    "WalkerState.from_rows.whole": lambda v: WalkerState.from_rows(0, v, [0.0]),
    "AmplitudePlan.amplitude": lambda v: plan(([1.0], [v, 1.0])),
    "AmplitudePlan.whole": plan,
    **WHOLE_MAPS,
    **WHOLE_SEQUENCES,
    **STATES,
    **{f"fileio.{reader.__name__}": reader for reader in (
        fileio.program_from_text, fileio.distribution_from_text,
        fileio.schedule_targets_from_text, fileio.calibration_from_text,
        fileio.pulse_schedule_from_text)},
}

PROBES = ["a", b"a", None, True, math.nan, math.inf, -math.inf, 1.5, -1, 10**400, 10**5000,
          np.float32(0.5), np.int64(3), np.True_]


def outcome(site, value):
    """Call the site; a CoinWalkError must quote at most 300 bytes."""
    try:
        SITES[site](value)
    except CoinWalkError as exc:
        message = str(exc)
        assert len(message.encode()) < 300, message[:400]
        return type(exc)
    return None


@pytest.mark.parametrize("site", sorted(SITES))
def test_every_probe_in_every_scalar_gives_a_result_or_a_short_coinwalk_error(site):
    for value in PROBES:
        outcome(site, value)


SORTED_KEYS = {"sample_counts.p", "bootstrap_errorbars.counts", "bootstrap_errorbars.theory",
               "similarity.p", "similarity.q", "shannon_entropy.p", "check_distribution.p"}

# Each probe that ended in a raw exception or was taken in silence before the
# one rule, as (site, value).
LEAKS = [
    ("CoinOp.theta", "a"), ("CoinOp.theta", 10**400), ("NoiseModel.right_move_loss", "a"),
    ("NoiseModel.right_move_loss", 10**400), ("expected_counts.total_events", 10**400),
    ("TimingModel.t_ns", 10**5000), ("lossy_distribution.step", 10**5000),
    ("lossy_distribution.right_move_loss", 10**400), ("GeneralCoinOp.m00", 10**400),
    ("sample_counts.n", 10**400), ("purity_criterion.gamma", 10**400),
    ("arrival_time.arm", "x" * 10**6), ("localized_state.a", "1"), ("localized_state.a", None),
    ("similarity.key", "a"), ("similarity.value", 10**400), ("similarity.value", "1"),
    ("DistributionSchedule.value", "1.0"), ("sample_counts.weight", "0.5"),
    ("sample_counts.weight", 10**400), ("purity_criterion.tol", "a"),
    ("purity_criterion.tol", None), ("bootstrap_errorbars.resamples", 10**400),
    ("extract_bits.sample", 10**5000), ("extract_bits.sample", 1.0),
    ("decompile_schedule.time_ns", "1.5"), ("decompile_schedule.time_ns", None),
    ("decompile_schedule.voltage_v", "a"), ("decompile_schedule.voltage_v", None),
    ("decompile_schedule.voltage_v", "0.2"), ("compile_schedule.launch_offset_ns", -10**5000),
    ("CoinOp.theta", "0.5"), ("decompile_schedule.step", 2**63),
    ("decompile_schedule.step", 2**70), ("decompile_schedule.position", -(2**63) - 1),
    ("sample_counts.weight", [0.5]), ("decompile_schedule.time_ns", (0.5,)),
    ("Calibration.anchor", (0.1, 0.2, 0.3)), ("arrival_time.launch_offset_ns", "a"),
    ("detected_event_budget.launches", "a"), ("detected_event_budget.step", 10**400),
    ("detected_event_budget.step", -5000),
    # Array elements that numpy's dtype= coercion took, or that ended in a raw exception.
    *((site, v) for site in ("AngleRows.angle", "DistributionSchedule.from_rows.value",
                             "AmplitudePlan.amplitude")
      for v in ("0.5", b"0.5", Decimal("0.5"), 0.5j, [0.5])),
    *(("WalkerState.from_rows.a", v) for v in ("1", "1+2j", b"1", Decimal(1))),
    ("WalkerState.from_rows.b", "1"), ("AmplitudePlan.amplitude", None),
    ("AmplitudePlan.amplitude", math.nan), ("AmplitudePlan.amplitude", math.inf),
    ("AngleRows.whole", [[0.5]]), ("AngleRows.whole", None),
    ("DistributionSchedule.from_rows.whole", [[1.0, 0.5, 0.5]]),
    ("DistributionSchedule.from_rows.whole", None), ("AmplitudePlan.whole", None),
    # Mapping values that are no pair or no row, which ended in a raw exception.
    ("WalkerState.pair", 5), ("WalkerState.pair", (1,)), ("DistributionSchedule.row", 5),
    # Sequences in place of a whole map: read by position as a map (sample_counts and
    # bootstrap_errorbars took [1, 0]), or a raw IndexError, AttributeError or TypeError.
    # Where the keys were sorted first, the 0.5 of [0.5] was already no position.
    *((site, v) for site in WHOLE_MAPS for v in ([1, 0], bytearray(b"\x01\x02"))),
    *((site, [0.5]) for site in WHOLE_MAPS if site not in SORTED_KEYS),
    # A number in place of a whole sequence, a state or a coin, or a str of no events:
    # a raw TypeError or AttributeError.
    *((site, 5) for site in (*WHOLE_SEQUENCES, *STATES, "apply_coin_layer.coin")),
    *((site, None) for site in STATES), ("PulseSchedule.events", "a"),
]


def examples(cases):
    """Hypothesis's @example for each (site, value) of ``cases``."""
    def decorate(test):
        for site, value in cases:
            test = example(site=site, value=value)(test)
        return test
    return decorate


@settings(max_examples=300, deadline=None)
@given(site=st.sampled_from(sorted(SITES)),
       value=st.one_of(st.sampled_from(PROBES), st.none(), st.booleans(),
                       st.integers(max_value=99), st.floats(), st.text(max_size=3),
                       st.binary(max_size=3), st.complex_numbers()))
@examples([*LEAKS, ("fileio.distribution_from_text", b"0 1.0\n")])
def test_any_value_in_any_scalar_gives_a_result_or_a_short_coinwalk_error(site, value):
    outcome(site, value)


@pytest.mark.parametrize("site, value", LEAKS,
                         ids=[f"{site}={_quote(value)[:12]}" for site, value in LEAKS])
def test_each_probe_that_leaked_or_was_accepted_is_a_domain_error(site, value):
    assert outcome(site, value) is DomainError


@pytest.mark.parametrize("site", sorted(SITES))
def test_a_numpy_bool_gives_the_outcome_of_the_bool_it_equals(site):
    assert outcome(site, np.True_) is outcome(site, True)
    assert outcome(site, np.False_) is outcome(site, False)


@pytest.mark.parametrize("site", WHOLE_MAPS)
def test_a_sequence_in_place_of_a_whole_map_is_named_by_its_argument(site):
    argument = "q" if site == "bootstrap_errorbars.theory" else site.rpartition(".")[2]
    with pytest.raises(DomainError) as info:
        SITES[site]([1, 0])
    assert str(info.value) == f"{argument} must be a map, got [1, 0]"


@pytest.mark.parametrize("make, message", [
    (lambda: extract_bits(5, 3), "samples must be a sequence, got 5"),
    (lambda: Calibration(anchors=5), "anchors must be a sequence, got 5"),
    (lambda: PulseSchedule(events=5), "events must be a sequence, got 5"),
    (lambda: PulseSchedule(events=["a"]), "events[0] must be a PulseEvent, got 'a'"),
    (lambda: apply_shift(None), "s must be a WalkerState, got None"),
    (lambda: step(5, {0: HADAMARD}), "s must be a WalkerState, got 5"),
    (lambda: apply_coin_layer(DISENTANGLED, {0: 5}), "layer coin at position 0 is a int, not a "
                                                     "CoinOp or GeneralCoinOp"),
], ids=["samples", "anchors", "events", "event", "shift-state", "step-state", "coin"])
def test_a_value_in_place_of_a_sequence_state_or_coin_is_named_by_its_argument(make, message):
    with pytest.raises(DomainError) as info:
        make()
    assert str(info.value) == message


def test_a_layer_may_hold_coins_at_unoccupied_positions_and_samples_any_iterable():
    # step(s, p.layer(t)) on a sparse state passes every coin of step t.
    sparse = WalkerState(2, {0: (1, 0)})
    assert step(sparse, PROGRAM.layer(2)).positions() == [-1, 1]
    assert extract_bits(iter([-3, 3]), 3) == extract_bits([-3, 3], 3)


@pytest.mark.parametrize("make, message", [
    (lambda: angle_rows([0.5, None, 0.5]), "coin angle at step 1, position -1 must be a real "
                                           "number, got None"),
    (lambda: DistributionSchedule.from_rows([1.0, 0.5, None]), "P(1,1) must be a real number, "
                                                               "got None"),
    (lambda: WalkerState.from_rows(1, [0.6, 0.0], [None, 0.8]), "amplitude b(-1,1) must be a "
                                                                "complex number, got None"),
    (lambda: plan(([1.0], [0.0, None])), "amplitude a(1,1) must be a real number, got None"),
    (lambda: angle_rows([0.5, [0.5, 0.5], 0.5]), "coin angle at step 1, position -1 must be a "
                                                 "real number, got [0.5, 0.5]"),
    (lambda: WalkerState.from_rows(0, [0.6], 5), "b must be a sequence, got 5"),
    (lambda: plan(1.5), "a must be a sequence, got 1.5"),
    (lambda: plan(([1.0], "ab")), "a[1] must be a sequence, got 'ab'"),
], ids=["angle-none", "schedule-none", "state-none", "plan-none", "angle-ragged", "state-whole",
        "plan-whole", "plan-row-str"])
def test_an_array_value_is_named_by_its_cell(make, message):
    # None was read as NaN, and a ragged or scalar array ended in a raw exception.
    with pytest.raises(DomainError) as info:
        make()
    assert str(info.value) == message


@pytest.mark.parametrize("a, message", [
    (([1.0], [math.nan, 1.0]), "amplitude a(-1,1) must have finite components, got nan"),
    (([1.0], [0.0, math.inf]), "amplitude a(1,1) must have finite components, got inf"),
], ids=["nan", "inf"])
def test_a_plan_amplitude_that_is_not_finite_is_named_by_its_cell(a, message):
    # Under warnings as errors, so numpy's invalid-value warning would fail it too.
    with pytest.raises(DomainError) as info:
        plan(a)
    assert str(info.value) == message


@pytest.mark.parametrize("key", [5, (0.5, 0), "ab", (1, 2, 3), (0, 2), (-1, 0), (2**70, 0), None])
def test_program_cells_read_any_key_that_is_no_cell_as_missing(key):
    cells = PROGRAM.cells
    assert key not in cells and cells.get(key) is None
    with pytest.raises(KeyError):
        cells[key]
    assert (0, 0) in cells and cells.get((2, 2)) == PROGRAM.layer(2)[2]


@pytest.mark.parametrize("reader", sorted(s for s in SITES if s.startswith("fileio.")))
def test_a_reader_rejects_text_that_is_not_a_str(reader):
    with pytest.raises(CoinWalkError, match="^text must be a str, got a bytes$"):
        SITES[reader](b"0 1.0\n")


def test_a_calibration_names_its_first_bad_anchor_in_a_short_message():
    anchors = tuple((i * 1e-5, i * 1e-5) for i in range(10**5)) + ((2.0, math.nan),)
    with pytest.raises(DomainError, match="^anchor must be finite, got nan$"):
        Calibration(anchors)


def test_an_int_too_long_for_repr_is_quoted_by_its_bit_length():
    assert _quote(10**5000) == "<int of 16610 bits>"
    assert _quote(-(10**400)) == "-1" + "0" * 78 + "..."
    assert _quote("x" * 100) == "'" + "x" * 79 + "..."


def test_real_arguments_of_any_numeric_type_give_the_same_result():
    assert CoinOp(np.float32(0.5)).theta == np.float32(0.5)
    assert (sample_counts({0: 1, 2: np.float32(1.0)}, 10, 3)
            == sample_counts({0: 0.5, 2: 0.5}, 10, 3))
    assert similarity({np.int64(0): 1}, {0: 1.0}) == 1.0
    f32 = {0: np.float32(0.25), 2: np.float32(0.75)}
    assert repr(shannon_entropy(f32)) == repr(shannon_entropy({0: 0.25, 2: 0.75}))
    assert lossy_distribution(PROGRAM, 3, np.float32(0.0)) == lossy_distribution(PROGRAM, 3, 0)


@pytest.mark.parametrize("strays, named", [
    ({"x": HADAMARD}, "'x'"),
    ({(0,): HADAMARD}, "(0,)"),
    ({(0, 5): HADAMARD, "x": HADAMARD}, "cell (0,5) at step 0, position 5"),
    ({"x": HADAMARD, (0,): HADAMARD}, "'x'"),
    ({(0,): HADAMARD, "x": HADAMARD}, "(0,)"),
    ({"y" * 1000: HADAMARD}, "'" + "y" * 79 + "..."),
], ids=["str", "one-tuple", "pair-and-str", "str-first", "one-tuple-first", "long-str"])
def test_a_stray_cell_key_that_is_no_pair_is_named_whole(strays, named):
    # The smallest stray integer pair is named, or else the first stray in the dict's order.
    with pytest.raises(DomainError) as info:
        CoinProgram(steps=1, cells={(0, 0): HADAMARD, **strays}, initial=localized_state(1, 0))
    message = str(info.value)
    assert message == f"program has a coin for {named}, outside its support"
    assert len(message.encode()) < 300


def test_a_stray_final_coin_key_that_is_no_position_is_named_whole():
    coin = GeneralCoinOp(1.0, 0.0, 0.0, -1.0)
    final = {-1: coin, 1: coin, (0, 1): coin, 3: coin}
    with pytest.raises(DomainError, match=r"^final layer has a coin for position 3, outside"):
        CoinProgram(steps=1, cells={(0, 0): HADAMARD}, initial=localized_state(1, 0),
                    final_layer=final)
    del final[3]
    with pytest.raises(DomainError, match=r"^final layer has a coin for \(0, 1\), outside"):
        CoinProgram(steps=1, cells={(0, 0): HADAMARD}, initial=localized_state(1, 0),
                    final_layer=final)
    # A 1-tuple is no position either, alone or beside an int stray.
    for final in ({-1: coin, 1: coin, (5,): coin},
                  {-1: coin, 1: coin, (5,): coin, 3: coin}):
        with pytest.raises(DomainError, match=r"^final layer has a coin for "
                           + (r"position 3," if 3 in final else r"\(5,\),") + " outside"):
            CoinProgram(steps=1, cells={(0, 0): HADAMARD}, initial=localized_state(1, 0),
                        final_layer=final)
