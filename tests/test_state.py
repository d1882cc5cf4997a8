import math
import re
from dataclasses import replace
from itertools import repeat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from coinwalk import walk
from coinwalk.errors import DomainError, IncompleteLayerError, NormalizationError
from coinwalk.measure import extract_bits, purity_criterion
from coinwalk.noise import bootstrap_errorbars, lossy_distribution, sample_counts
from coinwalk.state import (
    AngleRows,
    CoinOp,
    CoinProgram,
    DistributionSchedule,
    GeneralCoinOp,
    HADAMARD,
    Row,
    WalkerState,
    _check_rows,
    _floats,
    _integers,
    _masses,
    check_distribution,
    localized_state,
    norm,
    position_distribution,
)
from coinwalk.synth import uniform_program

R = 1.0 / math.sqrt(2.0)


class TestCheckRows:
    @pytest.mark.parametrize("bad_row", [
        [0.5, math.nan, 0.5], [1.1, -0.1, 0.0], [0.5, 0.5, 0.1], [0.5, math.inf, 0.5],
    ])
    def test_first_failing_row_raises_what_check_distribution_raises(self, bad_row):
        xs = [-2, 0, 2]
        rows = np.array([[0.25, 0.5, 0.25], bad_row, [0.5, 0.5, 1.0]])
        with pytest.raises((DomainError, NormalizationError)) as expected:
            check_distribution(dict(zip(xs, rows[1].tolist())), "p")
        with pytest.raises(expected.type) as got:
            _check_rows(xs, rows, "p")
        assert str(got.value) == str(expected.value)
        assert "np." not in str(got.value)  # it quotes Python floats

    @pytest.mark.parametrize("column, xs", [
        ([1.1, -0.1, 0.0], None), ([0.5, 0.5, 0.1], None), ([0.5, 0.25, 0.75], [-2, 2]),
        ([0.2, -0.3, 1.1], [0]), ([1.0, 0.0, 0.0], []),
    ], ids=["negative", "off-norm", "sparse-off-norm", "sparse-negative", "no-keys"])
    def test_unchecked_row_raises_what_its_dict_raises(self, column, xs):
        row = Row(2, (np.array(column),), xs)
        with pytest.raises((DomainError, NormalizationError)) as expected:
            check_distribution(dict(row), "p")
        with pytest.raises(expected.type) as got:
            check_distribution(row, "p")
        assert str(got.value) == str(expected.value)

    def test_accepts_rows_within_tolerance(self):
        _check_rows([0, 2], np.array([[1.0, 0.0], [0.5 + 5e-10, 0.5], [1.0, -5e-10]]), "p")


class TestLocalizedState:
    def test_basis_zero(self):
        s = localized_state(1, 0)
        assert s.step == 0
        assert s.pair(0) == (1 + 0j, 0j)

    def test_basis_one(self):
        s = localized_state(0, 1)
        assert s.pair(0) == (0j, 1 + 0j)

    def test_circular(self):
        s = localized_state(R, R * 1j)
        a, b = s.pair(0)
        assert a == pytest.approx(R)
        assert b == pytest.approx(R * 1j)

    def test_rejects_unnormalized(self):
        with pytest.raises(NormalizationError):
            localized_state(1, 1)

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            localized_state(math.nan, 0)


class TestWalkerState:
    def test_parity_violation_detected(self):
        with pytest.raises(DomainError):
            WalkerState(step=1, amplitudes={0: (1 + 0j, 0j)})

    def test_position_out_of_range_detected(self):
        with pytest.raises(DomainError):
            WalkerState(step=1, amplitudes={3: (1 + 0j, 0j)})

    def test_nonfinite_amplitude_named(self):
        with pytest.raises(DomainError, match=r"amplitude b\(2,2\) must have finite"):
            WalkerState(step=2, amplitudes={0: (0j, 0j), 2: (1 + 0j, complex(math.inf))})

    def test_several_bad_entries_name_a_stray_key_first(self):
        amps = {1: (complex(math.nan), 0j), 5: (1 + 0j, 0j), -1: (complex(math.inf), 0j)}
        with pytest.raises(DomainError, match="position 5 is outside the step-1 support"):
            WalkerState(step=1, amplitudes=amps)
        # Without a stray key, the first non-finite position in x order is named.
        del amps[5]
        with pytest.raises(DomainError, match=r"amplitude a\(-1,1\) must have finite"):
            WalkerState(step=1, amplitudes=amps)

    def test_from_rows_matches_public_constructor(self):
        a, b = np.array([0.6, 0.0]), np.array([0.0, 0.8j])
        s = WalkerState.from_rows(1, a, b)
        assert s == WalkerState(step=1, amplitudes={-1: (0.6, 0), 1: (0, 0.8j)})
        assert repr(s.amplitudes) == "{-1: ((0.6+0j), 0j), 1: (0j, 0.8j)}"

    def test_from_rows_names_first_nonfinite_amplitude(self):
        a = np.array([0j, 1 + 0j, complex(math.nan)])
        b = np.array([0j, complex(0, math.inf), 0j])
        with pytest.raises(DomainError, match=r"amplitude b\(0,2\) must have finite"):
            WalkerState.from_rows(2, a, b)

    def test_from_rows_requires_one_pair_per_support_position(self):
        with pytest.raises(DomainError, match="step-2 rows must hold 3 amplitudes"):
            WalkerState.from_rows(2, np.zeros(2, complex), np.zeros(2, complex))

    def test_norm_of_localized(self):
        assert norm(localized_state(1, 0)) == 1.0

    def test_norm_of_scaled_fixture(self):
        s = WalkerState(step=0, amplitudes={0: (0.5, 0.0)}, require_normalized=False)
        assert norm(s) == pytest.approx(0.25, abs=1e-15)


class TestPositionDistribution:
    def test_point_mass(self):
        assert position_distribution(localized_state(1, 0)) == {0: 1.0}

    def test_sums_to_one(self):
        s = WalkerState(step=1, amplitudes={-1: (0j, R), 1: (R, 0j)})
        d = position_distribution(s)
        assert d == pytest.approx({-1: 0.5, 1: 0.5})
        assert sum(d.values()) == pytest.approx(1.0, abs=1e-12)


def _scalar_masses(a, b):
    """oracle's abs(a) ** 2 + abs(b) ** 2 of each pair, in order."""
    return list(oracle.position_distribution(dict(enumerate(zip(a.tolist(), b.tolist())))).values())


class TestMasses:
    """``_masses`` bit for bit against the scalar formula of ``oracle``: a
    platform whose numpy hypot or float_power differs from CPython's abs and
    ** fails here instead of drifting."""

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_random_entries_are_the_scalar_masses(self, seed):
        rng = np.random.default_rng(seed)
        # Magnitudes from e^-340 to e^340, up to where a square nears the
        # largest float (10^154.1 squared is 1.6e308) and down through the
        # subnormals, at random phases; then parts that are subnormal or +-0.
        r = np.concatenate([np.exp(rng.uniform(-340.0, 340.0, 4000)),
                            10.0 ** rng.uniform(150.0, 154.1, 500),
                            10.0 ** rng.uniform(-330.0, -150.0, 500)])
        z = r * np.exp(1j * rng.uniform(0.0, 2 * math.pi, r.size))
        parts = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-320, 1e-160, 1.0]
        z = np.concatenate([z, [complex(x, y) for x in parts for y in parts]])
        rng.shuffle(z)
        a, b = z[:z.size // 2], z[z.size // 2:2 * (z.size // 2)]
        assert repr(_masses(a, b).tolist()) == repr(_scalar_masses(a, b))

    @pytest.mark.parametrize("a, b, first", [
        ([0.6, 2e154, 1e300j], [0.8, 0.0, 0.0], 2e154),  # ** overflows, abs does not
        ([0.6, 1.0, 0.0], [0.8, complex(1e308, 1e308), 3e200], complex(1e308, 1e308)),  # abs does
        ([0.6, 0.1, 1e200j], [0.8, 3e160j, 0.0], 3e160j),  # b1 comes before a2
        ([0.6, 4e160, 0.0], [0.8j, 3e160j, 0.0], 4e160),  # and a1 before b1
    ], ids=["square", "abs", "b-before-next-a", "a-before-b"])
    def test_the_first_square_that_overflows_is_named(self, a, b, first):
        a, b = np.array(a, dtype=complex), np.array(b, dtype=complex)
        scalar = []
        for z in np.ravel([a, b], order="F").tolist():  # a0, b0, a1, b1, ...
            try:
                abs(z) ** 2
            except OverflowError:
                scalar.append(z)
        assert scalar[0] == first
        with pytest.raises(DomainError, match=re.escape(f"amplitude {complex(first)!r} is too large")):
            _masses(a, b)

    def test_a_sum_of_finite_squares_that_overflows_is_inf(self):
        a, b = np.array([0.6, 1.2e154, 0.0]), np.array([0.8j, -1.2e154j, 0.0])
        got = _masses(a, b).tolist()
        assert repr(got) == repr(_scalar_masses(a, b))
        assert got[1] == math.inf and math.isfinite(1.2e154 ** 2)


class TestCoinOp:
    @given(st.floats(min_value=0.0, max_value=math.pi))
    def test_matrix_orthogonal_det_minus_one(self, theta):
        m = CoinOp(theta).matrix
        assert np.allclose(m.T @ m, np.eye(2), atol=1e-12)
        assert np.linalg.det(m) == pytest.approx(-1.0, abs=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            CoinOp(-0.1)
        with pytest.raises(DomainError):
            CoinOp(math.pi + 0.1)


class TestGeneralCoinOp:
    def test_disentangling_form_is_orthogonal(self):
        op = GeneralCoinOp(0.6, 0.8, 0.8, -0.6)
        assert np.allclose(op.matrix.T @ op.matrix, np.eye(2), atol=1e-12)

    def test_rejects_non_orthogonal(self):
        with pytest.raises(DomainError):
            GeneralCoinOp(1.0, 1.0, 0.0, 1.0)

    def test_orthogonality_tolerance_edge(self):
        with pytest.raises(DomainError, match="is not orthogonal"):
            GeneralCoinOp(1.0, 2e-12, 0.0, -1.0)
        GeneralCoinOp(1.0, 5e-13, 0.0, -1.0)


class TestCoinProgram:
    def test_requires_complete_cells(self):
        with pytest.raises(IncompleteLayerError):
            CoinProgram(
                steps=2,
                cells={(0, 0): CoinOp(math.pi / 4)},
                initial=localized_state(1, 0),
            )

    def test_missing_cell_of_a_huge_program_is_named_at_once(self):
        # The cells a huge step count would need are never listed in full.
        with pytest.raises(IncompleteLayerError, match="step 1, position -1"):
            CoinProgram(steps=10 ** 9, cells={(0, 0): HADAMARD}, initial=localized_state(1, 0))

    @pytest.mark.parametrize("stray", [(7, 1), (1, 3), (0, 1), (-1, 1)])
    def test_rejects_stray_cell(self, stray):
        cells = {(0, 0): CoinOp(0.3), (1, -1): CoinOp(0.4), (1, 1): CoinOp(0.5)}
        cells[stray] = CoinOp(0.6)
        with pytest.raises(DomainError, match=f"step {stray[0]}, position {stray[1]}"):
            CoinProgram(steps=2, cells=cells, initial=localized_state(1, 0))

    def test_names_first_stray_cell(self):
        cells = {(0, 0): CoinOp(0.3), (5, 1): CoinOp(0.1), (2, 0): CoinOp(0.2)}
        with pytest.raises(DomainError, match="step 2, position 0"):
            CoinProgram(steps=1, cells=cells, initial=localized_state(1, 0))

    def test_rejects_angle_coin_in_final_layer(self):
        final = {-1: CoinOp(0.3), 1: GeneralCoinOp(1.0, 0.0, 0.0, -1.0)}
        with pytest.raises(DomainError, match="position -1 is a CoinOp"):
            CoinProgram(steps=1, cells={(0, 0): HADAMARD},
                        initial=localized_state(1, 0), final_layer=final)

    def test_empty_initial_state(self):
        empty = WalkerState(step=0, amplitudes={}, require_normalized=False)
        p = CoinProgram(steps=1, cells={(0, 0): HADAMARD}, initial=empty)
        assert p.layer(0) == {0: HADAMARD}

    def test_layer_is_row_t(self):
        rng = np.random.default_rng(8)
        steps = 9
        cells = {
            (t, x): CoinOp(float(rng.uniform(0, math.pi)))
            for t in rng.permutation(steps).tolist()
            for x in range(-t, t + 1, 2)
        }
        p = CoinProgram(steps=steps, cells=cells, initial=localized_state(1, 0))
        for t in range(steps):
            row = {x: op for (tt, x), op in cells.items() if tt == t}
            assert p.layer(t) == row
            assert sorted(p.layer(t)) == list(range(-t, t + 1, 2))
        with pytest.raises(DomainError):
            p.layer(steps)

    def test_stored_angle_rows_are_read_only(self):
        angles = np.array([0.1, 0.2, 0.3])
        p = CoinProgram(steps=2, cells=AngleRows(angles), initial=localized_state(1, 0))
        angles[0] = 3.0  # the program keeps its own copy
        assert p.cells[(0, 0)].theta == 0.1
        with pytest.raises(ValueError, match="read-only"):
            p.cells.rows[1][0] = 0.5
        with pytest.raises(ValueError, match="read-only"):
            p.cells.theta[2] = 0.5

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1e-3, math.pi + 1e-9])
    def test_angle_rows_name_the_first_bad_angle(self, bad):
        cells = AngleRows([0.1, 0.2, bad, 0.4, bad, 0.6])
        with pytest.raises(DomainError, match=f"step 1, position 1 is {bad}"):
            CoinProgram(steps=3, cells=cells, initial=localized_state(1, 0))

    def test_angle_rows_must_fill_every_step(self):
        with pytest.raises(DomainError, match="3-step program has 3 coin angles"):
            replace(uniform_program(2), steps=3, final_layer=None)


def test_benchmark_entry_points_keep_working():
    # perfbench builds, reads, counts and compares programs through these names.
    rows = [[0.1 * (t + i + 1) for i in range(t + 1)] for t in range(4)]
    cells = {(t, 2 * i - t): CoinOp(theta) for t, row in enumerate(rows)
             for i, theta in enumerate(row)}
    p = CoinProgram(steps=4, cells=cells, initial=localized_state(1.0, 0.0))
    assert dict(p.cells) == cells and p.cells == cells
    assert [[p.cells[(t, 2 * i - t)].theta for i in range(t + 1)] for t in range(4)] == rows
    assert len(p.cells) == 10
    q = CoinProgram(steps=4, cells=dict(p.cells), initial=p.initial)
    assert q.cells == p.cells and q == p
    assert "layer" in CoinProgram.__dict__ and "__post_init__" in CoinProgram.__dict__
    s = walk.apply_shift(walk.apply_coin_layer(p.initial, p.layer(0)))
    assert s.step == 1
    u = uniform_program(3)
    bare = replace(u, final_layer=None)
    assert bare.final_layer is None and bare.cells == u.cells


class TestDistributionSchedule:
    def test_rejects_unnormalized_row(self):
        with pytest.raises(NormalizationError):
            DistributionSchedule(steps=1, rows={0: {0: 1.0}, 1: {-1: 0.3, 1: 0.3}})

    def test_rejects_support_violation(self):
        with pytest.raises(DomainError):
            DistributionSchedule(steps=1, rows={0: {0: 1.0}, 1: {3: 1.0}})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.5])
    def test_rejects_entry_that_is_not_a_probability(self, bad):
        with pytest.raises(DomainError, match=f"row 1 at x = 1 is {bad!r}"):
            DistributionSchedule(steps=1, rows={0: {0: 1.0}, 1: {-1: 1.0, 1: bad}})

    def test_rejects_missing_row(self):
        with pytest.raises(DomainError):
            DistributionSchedule(steps=2, rows={0: {0: 1.0}, 2: {0: 1.0}})

    def test_names_smallest_stray_row(self):
        rows = {0: {0: 1.0}, 1: {-1: 0.5, 1: 0.5}, 5: {0: 3.0}, -2: {1: -4.0}}
        with pytest.raises(DomainError, match=r"row for step -2, outside 0\.\.1"):
            DistributionSchedule(steps=1, rows=rows)
        del rows[-2]
        with pytest.raises(DomainError, match=r"row for step 5, outside 0\.\.1"):
            DistributionSchedule(steps=1, rows=rows)


HUGE = "9" * 4000  # a position int takes, quoted clipped by every message


@pytest.mark.parametrize("make, match", [
    (lambda: CoinProgram(steps=2, cells={**uniform_program(2).cells, (1, int(HUGE)): HADAMARD},
                         initial=localized_state(1, 0)), "outside its support"),
    (lambda: check_distribution({int(HUGE): math.nan}, "p"), "is nan, not a probability"),
    (lambda: WalkerState(1, {int(HUGE): (1, 0)}), "outside the step-1 support"),
    (lambda: DistributionSchedule(1, {0: {0: 1.0}, 1: {-1: 0.5, int(HUGE): 0.5}}),
     "lies outside the step-1 support"),
    (lambda: DistributionSchedule(1, {0: {0: 1.0}, 1: {-1: 1.0}, -int(HUGE): {0: 1.0}}),
     r"outside 0\.\.1"),
    (lambda: sample_counts({int(HUGE): math.nan}, 10, 0), "not finite and >= 0"),
    (lambda: bootstrap_errorbars({int(HUGE): 0.5}, 100, 0), "not a finite whole number"),
    (lambda: extract_bits([int(HUGE)], 1), "outside the step-1 support"),
    (lambda: WalkerState(0, {HUGE: (1, 0)}), "position must be an integer"),
], ids=["program-cell", "distribution", "state", "schedule-entry", "schedule-row",
        "sample-weight", "bootstrap-count", "extract-bits", "state-string-key"])
def test_message_quoting_a_huge_position_stays_short(make, match):
    with pytest.raises(DomainError, match=match) as info:
        make()
    message = str(info.value)
    assert len(message) < 200 and "9" * 40 in message and "..." in message


def test_a_stray_cell_key_too_long_for_repr_is_quoted_by_its_bit_length():
    cells = {**uniform_program(1).cells, (0, 10**5000): HADAMARD}
    match = (r"^program has a coin for cell \(0,<int of 16610 bits>\) at step 0, "
             r"position <int of 16610 bits>, outside its support$")
    with pytest.raises(DomainError, match=match):
        CoinProgram(steps=1, cells=cells, initial=localized_state(1, 0))


@pytest.mark.parametrize("make, message", [
    (lambda: WalkerState(1, {1.7: (0.6, 0), -1.2: (0.8, 0)}),
     "position must be an integer, got 1.7"),
    (lambda: WalkerState(0, {"0": (1, 0)}), "position must be an integer, got '0'"),
    (lambda: WalkerState(1.0, {-1: (0.6, 0), 1: (0.8, 0)}), "step must be an integer, got 1.0"),
    (lambda: WalkerState.from_rows(1.0, [0.6, 0], [0, 0.8]), "step must be an integer, got 1.0"),
    (lambda: DistributionSchedule(1, {0.4: {0: 1.0}, 1: {-1.2: 0.5, 1.7: 0.5}}),
     "schedule row must be an integer, got 0.4"),
    (lambda: DistributionSchedule(1, {0: {0: 1.0}, 1: {-1.2: 0.5, 1.7: 0.5}}),
     "position must be an integer, got -1.2"),
    (lambda: DistributionSchedule(steps=1.5, rows={0: {0: 1.0}, 1: {-1: 0.5, 1: 0.5}}),
     "steps must be an integer, got 1.5"),
    (lambda: CoinProgram(2.0, uniform_program(2).cells, localized_state(1, 0)),
     "steps must be an integer, got 2.0"),
    (lambda: purity_criterion({0.5: 1.0, 2: 0.0}), "position must be an integer, got 0.5"),
    (lambda: extract_bits([0], 1.5), "step count must be an integer, got 1.5"),
    (lambda: uniform_program(2).layer(1.0), "step must be an integer, got 1.0"),
    (lambda: lossy_distribution(uniform_program(2), 1.5, 0.0), "step must be an integer, got 1.5"),
    (lambda: walk.hadamard_program(1.5, walk.circular_initial()),
     "steps must be an integer, got 1.5"),
    (lambda: walk.hadamard_program("3", walk.circular_initial()),
     "steps must be an integer, got '3'"),
    (lambda: sample_counts({"a": 1.0, 0: 1.0}, 10, 0), "position must be an integer, got 'a'"),
    (lambda: sample_counts({0: 1.0, 0.5: 1.0}, 10, 0), "position must be an integer, got 0.5"),
    (lambda: bootstrap_errorbars({0: 10, 0.5: 5}, 100, 0),
     "position must be an integer, got 0.5"),
], ids=["state-float-keys", "state-string-key", "state-step", "state-from-rows-step",
        "schedule-row", "schedule-position", "schedule-steps", "program-steps", "purity-position",
        "extract-bits-steps", "program-layer", "lossy-step", "hadamard-float-steps",
        "hadamard-string-steps", "sample-string-key", "sample-float-key", "bootstrap-float-key"])
def test_a_coordinate_that_is_not_an_integer_is_named(make, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        make()


def test_integer_coordinates_of_any_integer_type_are_taken_as_ints():
    s = WalkerState(np.int64(1), {np.int64(-1): (0.6, 0), np.int16(1): (0.8, 0)})
    assert type(s.step) is int and [type(x) for x in s.amplitudes] == [int, int]
    sched = DistributionSchedule(np.int64(1), {np.int64(0): {np.int8(0): 1.0},
                                               1: {-1: 0.5, np.int64(1): 0.5}})
    assert type(sched.steps) is int and sched.rows == {0: {0: 1.0}, 1: {-1: 0.5, 1: 0.5}}
    program = CoinProgram(np.int64(2), uniform_program(2).cells, localized_state(1, 0))
    assert type(program.steps) is int


@pytest.mark.parametrize("values", [[0, -3, 2], [True, 2], (np.int32(4), 5), [np.uint64(7)],
                                    [2**63 - 1, -(2**63)], []])
def test_integers_read_a_column_as_its_values_one_by_one(values):
    column = _integers(values, "step")
    assert column.dtype == np.int64 and column.tolist() == [int(v) for v in values]


@pytest.mark.parametrize("values, message", [
    ([0, 2**63], "step at index 1 must fit int64, got 9223372036854775808"),
    ([-(2**63) - 1, 0], "step at index 0 must fit int64, got -9223372036854775809"),
    ([0, 1.0], "step must be an integer, got 1.0"),
    ([[3], 4], "step must be an integer, got [3]"),  # ragged: numpy rejects it
    ([[3], [4]], "step must be an integer, got [3]"),  # numpy reads a matrix
])
def test_integers_name_the_first_value_that_is_no_int64(values, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        _integers(values, "step")


@pytest.mark.parametrize("values", [[0.5, [0.5]], [[0.5], [0.5]], [(0.5,)]])
def test_floats_name_a_value_that_is_a_sequence(values):
    with pytest.raises(DomainError, match=r"^p must be a real number, got [\[(]0\.5"):
        _floats(values, repeat("p"))
