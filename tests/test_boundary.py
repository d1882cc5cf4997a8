"""One rule for every scalar at the public boundary: a value put in place of
one scalar argument of a public callable gives a result or a CoinWalkError
whose message is under 300 bytes, never any other exception. Reals are
checked by ``state._real``, integers by ``state._integer``, and a message
quotes each value through ``errors._quote``."""

import math
from dataclasses import replace

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
from coinwalk.state import (CoinOp, DistributionSchedule, GeneralCoinOp, WalkerState,
                            localized_state)
from coinwalk.synth import uniform_program
from coinwalk.walk import circular_initial, hadamard_program

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


# Each site puts a value in one scalar argument (or one value or key of a
# mapping argument) of a public callable; every other argument is valid. No
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
    "similarity.key": lambda v: similarity({v: 1.0}, {0: 1.0}),
    "similarity.value": lambda v: similarity({0: 1.0}, {0: v}),
    "shannon_entropy.value": lambda v: shannon_entropy({0: v}),
    "DistributionSchedule.value": lambda v: DistributionSchedule(1, {0: {0: v},
                                                                     1: {-1: 0.5, 1: 0.5}}),
    "extract_bits.sample": lambda v: extract_bits([v], 3),
    "extract_bits.t": lambda v: extract_bits([0], v),
    "CoinProgram.layer": PROGRAM.layer,
    **{f"fileio.{reader.__name__}": reader for reader in (
        fileio.program_from_text, fileio.distribution_from_text,
        fileio.schedule_targets_from_text, fileio.calibration_from_text,
        fileio.pulse_schedule_from_text)},
}

PROBES = ["a", b"a", None, True, math.nan, math.inf, -math.inf, 1.5, -1, 10**400, 10**5000,
          np.float32(0.5), np.int64(3)]


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
    assert lossy_distribution(PROGRAM, 3, np.float32(0.0)) == lossy_distribution(PROGRAM, 3, 0)
