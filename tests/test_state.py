import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from coinwalk.errors import DomainError, IncompleteLayerError, NormalizationError
from coinwalk.state import (
    CoinOp,
    CoinProgram,
    DistributionSchedule,
    GeneralCoinOp,
    HADAMARD,
    WalkerState,
    localized_state,
    norm,
    position_distribution,
)

R = 1.0 / math.sqrt(2.0)


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


class TestCoinProgram:
    def test_requires_complete_cells(self):
        with pytest.raises(IncompleteLayerError):
            CoinProgram(
                steps=2,
                cells={(0, 0): CoinOp(math.pi / 4)},
                initial=localized_state(1, 0),
            )

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


class TestDistributionSchedule:
    def test_rejects_unnormalized_row(self):
        with pytest.raises(NormalizationError):
            DistributionSchedule(steps=1, rows={0: {0: 1.0}, 1: {-1: 0.3, 1: 0.3}})

    def test_rejects_support_violation(self):
        with pytest.raises(DomainError):
            DistributionSchedule(steps=1, rows={0: {0: 1.0}, 1: {3: 1.0}})

    def test_rejects_missing_row(self):
        with pytest.raises(DomainError):
            DistributionSchedule(steps=2, rows={0: {0: 1.0}, 2: {0: 1.0}})
