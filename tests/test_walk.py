import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from coinwalk import walk
from coinwalk.errors import DomainError, IncompleteLayerError
from coinwalk.noise import NoiseModel, lossy_distribution, perturb_program
from coinwalk.state import (
    HADAMARD,
    AngleRows,
    CoinOp,
    CoinProgram,
    GeneralCoinOp,
    WalkerState,
    localized_state,
    norm,
    position_distribution,
)
from coinwalk.synth import gaussian_program, uniform_program
from coinwalk.walk import (
    apply_coin_layer,
    apply_shift,
    circular_initial,
    hadamard_program,
    mirror_program,
    run_program,
    step,
)

R = 1.0 / math.sqrt(2.0)


class TestApplyCoinLayer:
    def test_theta_zero_acts_as_z(self):
        s = localized_state(1, 0)
        out = apply_coin_layer(s, {0: CoinOp(0.0)})
        assert out.pair(0) == (1 + 0j, 0j)

    def test_hadamard_column(self):
        out = apply_coin_layer(localized_state(1, 0), {0: CoinOp(math.pi / 4)})
        a, b = out.pair(0)
        assert a == pytest.approx(R, abs=1e-15)
        assert b == pytest.approx(R, abs=1e-15)

    def test_disentangling_coin_factors_to_zero(self):
        a, b = 0.6, 0.8
        s = WalkerState(step=0, amplitudes={0: (a, b)})
        coin = GeneralCoinOp(a, b, b, -a)
        out = apply_coin_layer(s, {0: coin})
        aa, bb = out.pair(0)
        assert aa == pytest.approx(1.0, abs=1e-15)
        assert bb == pytest.approx(0.0, abs=1e-15)

    def test_missing_coin_raises(self):
        with pytest.raises(IncompleteLayerError):
            apply_coin_layer(localized_state(1, 0), {2: CoinOp(0.0)})

    def test_norm_preserved(self):
        s = localized_state(R, R * 1j)
        out = apply_coin_layer(s, {0: CoinOp(1.0)})
        assert abs(norm(out) - 1.0) < 1e-12


class TestApplyShift:
    def test_splits_components(self):
        s = WalkerState(step=0, amplitudes={0: (R, R)})
        out = apply_shift(s)
        assert out.step == 1
        assert out.pair(1) == (R, 0j)
        assert out.pair(-1) == (0j, R)

    def test_single_mover(self):
        out = apply_shift(localized_state(1, 0))
        assert out.pair(1) == (1 + 0j, 0j)

    def test_norm_is_permutation_invariant(self):
        rng = np.random.default_rng(7)
        raw = rng.normal(size=6) + 1j * rng.normal(size=6)
        raw /= np.linalg.norm(raw)
        s = WalkerState(
            step=2,
            amplitudes={-2: (raw[0], raw[1]), 0: (raw[2], raw[3]), 2: (raw[4], raw[5])},
        )
        assert abs(norm(apply_shift(s)) - norm(s)) < 1e-12


class TestStep:
    def test_hadamard_step_from_zero(self):
        out = step(localized_state(1, 0), {0: CoinOp(math.pi / 4)})
        assert out.pair(1)[0] == pytest.approx(R, abs=1e-15)
        assert out.pair(-1)[1] == pytest.approx(R, abs=1e-15)

    def test_theta_half_pi_swaps(self):
        out = step(localized_state(1, 0), {0: CoinOp(math.pi / 2)})
        assert out.pair(-1)[1] == pytest.approx(1.0, abs=1e-15)
        assert abs(out.pair(1)[0]) < 1e-15

    def test_parity_flips(self):
        s = localized_state(1, 0)
        for _ in range(3):
            layer = {x: CoinOp(0.3) for x in range(-s.step, s.step + 1, 2)}
            s2 = step(s, layer)
            assert all((x - s2.step) % 2 == 0 for x in s2.positions())
            s = s2


class TestRunProgram:
    def test_report_count_and_monitoring(self):
        p = hadamard_program(5, circular_initial())
        reports = run_program(p)
        assert len(reports) == 6
        for r in reports:
            from coinwalk.state import position_distribution

            assert r.distribution == position_distribution(r.state)

    def test_norm_conserved_every_step(self):
        reports = run_program(hadamard_program(11, circular_initial()))
        for r in reports:
            assert abs(norm(r.state) - 1.0) < 1e-12 * max(r.step, 1)

    def test_support_growth(self):
        reports = run_program(hadamard_program(11, circular_initial()))
        for r in reports:
            assert len(r.state.positions()) <= r.step + 1

    def test_empty_initial_state_reports_zero_pairs(self):
        empty = WalkerState(step=0, amplitudes={}, require_normalized=False)
        cells = {(t, x): HADAMARD for t in range(3) for x in range(-t, t + 1, 2)}
        reports = run_program(CoinProgram(steps=3, cells=cells, initial=empty))
        assert reports[0].state is empty
        for r in reports[1:]:
            assert r.state.amplitudes == {x: (0j, 0j) for x in range(-r.step, r.step + 1, 2)}
            assert r.distribution == {x: 0.0 for x in range(-r.step, r.step + 1, 2)}

    @pytest.mark.parametrize("final", [True, False], ids=["final-layer", "no-final-layer"])
    def test_an_overflowing_walk_fails_without_a_warning(self, final):
        big = WalkerState(step=0, amplitudes={0: (1.7e308, 1.7e308)}, require_normalized=False)
        p = replace(uniform_program(6), initial=big)
        if not final:
            p = replace(p, final_layer=None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # The first amplitude that overflows is named, whether a final layer follows or not.
            with pytest.raises(DomainError, match=r"^amplitude a\(1,1\) must have finite "):
                run_program(p)
            with pytest.raises(DomainError, match="is too large"):
                lossy_distribution(p, 6, 0.0)

    @pytest.mark.parametrize("entries, plain, final", [
        ({("a", 1): math.nan, ("a", 4): 1e200},
         "amplitude a(-1,1) must have finite components, got (nan+0j)",
         "amplitude a(-1,1) must have finite components, got (nan+0j)"),
        ({("a", 1): 1e200, ("b", 4): math.nan},
         "amplitude b(0,2) must have finite components, got (nan+0j)",
         "amplitude a(0,2) must have finite components, got (nan+nanj)"),
        ({("b", 4): math.nan},
         "amplitude b(0,2) must have finite components, got (nan+0j)",
         "amplitude a(0,2) must have finite components, got (nan+nanj)"),
        ({("b", 2): 1e200},
         "amplitude (1e+200+0j) is too large: its squared magnitude overflows a float",
         "amplitude (1e+200+0j) is too large: its squared magnitude overflows a float"),
        ({("a", 5): 1.2e154, ("b", 5): 1.2e154},
         None, "amplitude (1.68e+154+0j) is too large: its squared magnitude overflows a float"),
    ], ids=["nan-then-overflow", "overflow-then-nan", "nan-alone", "overflow-alone", "sum-overflow"])
    def test_an_amplitude_that_is_not_finite_is_named_before_a_square_that_overflows(
            self, monkeypatch, entries, plain, final):
        """The amplitudes of a T = 2 run, laid end to end in (t, x) order, set entry by entry;
        the final layer mixes the last row's a and b."""
        def rows(p, steps, right_damping=1.0):
            a, b = np.zeros((2, 6), dtype=complex)
            a[0] = 1.0
            for (name, i), value in entries.items():
                (a if name == "a" else b)[i] = value
            return a, b

        monkeypatch.setattr(walk, "_rows", rows)
        layer = {x: GeneralCoinOp(0.6, 0.8, 0.8, -0.6) for x in (-2, 0, 2)}
        for message, final_layer in ((plain, None), (final, layer)):
            p = CoinProgram(2, AngleRows([math.pi / 4] * 3), localized_state(1, 0), final_layer)
            if message is None:  # only a sum overflows: the row is inf there and not checked
                reports = run_program(p)
                assert reports[-1].distribution == {-2: 0.0, 0: 0.0, 2: math.inf}
                assert not reports[-1].distribution._checked
                continue
            with pytest.raises(DomainError) as info:
                run_program(p)
            assert str(info.value) == message

    def test_a_final_layer_of_rotations_and_reflections_is_applied_entry_by_entry(self):
        # Rotations [[c, -s], [s, c]] tell m01 from m10, which the disentangling
        # coins do not; reflections [[c, s], [s, -c]] tell m00 from m11.
        angles = dict(zip(range(-6, 7, 2), np.linspace(0.1, 3.0, 7).tolist()))
        final = {x: GeneralCoinOp(math.cos(a), -math.sin(a), math.sin(a), math.cos(a))
                 if x % 4 else GeneralCoinOp(math.cos(a), math.sin(a), math.sin(a), -math.cos(a))
                 for x, a in angles.items()}
        p = uniform_program(6)
        last = run_program(replace(p, final_layer=final))[-1].state
        expected = apply_coin_layer(run_program(replace(p, final_layer=None))[-1].state, final)
        assert all(map(np.array_equal, last.rows, expected.rows))

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_iterated_public_step(self, seed):
        rng = np.random.default_rng(seed)
        steps = int(rng.integers(1, 10))
        cells = {
            (t, x): CoinOp(float(rng.uniform(0, math.pi)))
            for t in range(steps)
            for x in range(-t, t + 1, 2)
        }
        a = math.cos(rng.uniform(0, math.pi / 2))
        b = math.sqrt(1 - a * a) * complex(np.exp(1j * rng.uniform(0, 2 * math.pi)))
        p = CoinProgram(steps=steps, cells=cells, initial=localized_state(a, b))
        s = p.initial
        for r in run_program(p):
            assert r.step == s.step
            assert r.state.amplitudes.keys() == s.amplitudes.keys()
            for x, (ea, eb) in s.amplitudes.items():
                ga, gb = r.state.pair(x)
                assert abs(ga - ea) <= 1e-15
                assert abs(gb - eb) <= 1e-15
            if s.step < steps:
                s = step(s, p.layer(s.step))


class TestRollingRows:
    @pytest.mark.parametrize("steps", [0, 1, 2, 3, 63, 64, 65, 128, 129])
    def test_two_rolling_rows_end_in_the_triangles_last_row_bit_for_bit(self, steps):
        # Row 2 takes the cells of row 0, whose initial a must not be left under
        # row 2's leftmost a, which is zero.
        p = replace(uniform_program(max(steps, 1)), initial=circular_initial())
        whole = walk._rows(p, steps, 0.9)
        rolling = walk._rows(p, steps, 0.9, True)
        assert whole[0].size == (steps + 1) * (steps + 2) // 2
        for z, w in zip(whole, rolling):
            assert w.size <= 2 * (steps + 1) + 1
            assert z[-steps - 1:].tobytes() == w[-steps - 1:].tobytes()


class TestFinalState:
    # gaussian_program raises ZeroCellError past T = 50 (ROADMAP item 1).
    @pytest.mark.parametrize("kind, steps", [
        (kind, steps) for kind in ("gaussian", "uniform", "hadamard", "perturbed")
        for steps in (1, 2, 9, 11, 63, 64, 65, 128) if kind != "gaussian" or steps <= 50])
    def test_the_two_row_final_state_is_the_runs_last_bit_for_bit(self, kind, steps):
        p = {
            "gaussian": gaussian_program,
            "uniform": uniform_program,
            "hadamard": lambda t: hadamard_program(t, circular_initial()),
            "perturbed": lambda t: perturb_program(
                uniform_program(t), NoiseModel(coin_angle_jitter_rad=0.01, seed=t)),
        }[kind](steps)
        last = run_program(p)[-1]
        final = walk._final_state(p)
        assert final.step == last.step == steps
        for got, want in zip(final.rows, last.state.rows):
            assert got.tobytes() == want.tobytes()
        dist = position_distribution(final)
        assert dist == last.distribution
        assert dist.columns[0].tobytes() == last.distribution.columns[0].tobytes()

    def test_the_final_state_keeps_two_rows_not_every_step(self):
        p = uniform_program(2000)
        tracemalloc.start()
        try:
            walk._final_state(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Every step's a and b rows would take 64 MB; two rows and a block of angles fit in 5 MB.
        assert peak < 5 << 20


class TestOracleEquivalence:
    def test_hadamard_matches_direct_recursion(self):
        steps = 11
        reports = run_program(hadamard_program(steps, circular_initial()))
        ref = oracle.evolve(lambda t, x: math.pi / 4, (R, R * 1j), steps)
        for t in range(steps + 1):
            got = reports[t].state.amplitudes
            for x, (ea, eb) in ref[t].items():
                ga, gb = got.get(x, (0j, 0j))
                assert abs(ga - ea) < 1e-12
                assert abs(gb - eb) < 1e-12

    def test_uniform_t300_matches_direct_recursion(self):
        steps = 300
        p = replace(uniform_program(steps), final_layer=None)
        reports = run_program(p)
        ref = oracle.evolve(lambda t, x: p.cells[(t, x)].theta, (1.0, 0.0), steps)
        for t in range(steps + 1):
            got = reports[t].state.amplitudes
            assert got.keys() == ref[t].keys()
            for x, (ea, eb) in ref[t].items():
                ga, gb = got[x]
                assert abs(ga - ea) < 1e-12
                assert abs(gb - eb) < 1e-12

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    def test_random_programs_match_direct_recursion(self, seed):
        rng = np.random.default_rng(seed)
        steps = int(rng.integers(1, 7))
        thetas = {}

        def theta_of(t, x):
            if (t, x) not in thetas:
                thetas[(t, x)] = float(rng.uniform(0, math.pi))
            return thetas[(t, x)]

        ref = oracle.evolve(theta_of, (R, R * 1j), steps)
        from coinwalk.state import CoinProgram

        cells = {key: CoinOp(th) for key, th in thetas.items()}
        for t in range(steps):
            for x in range(-t, t + 1, 2):
                cells.setdefault((t, x), CoinOp(theta_of(t, x)))
        p = CoinProgram(steps=steps, cells=cells, initial=circular_initial())
        reports = run_program(p)
        for t in range(steps + 1):
            for x, (ea, eb) in ref[t].items():
                ga, gb = reports[t].state.amplitudes.get(x, (0j, 0j))
                assert abs(ga - ea) < 1e-12
                assert abs(gb - eb) < 1e-12


class TestReversibility:
    def test_transpose_layers_undo_the_walk(self):
        steps = 8
        p = hadamard_program(steps, circular_initial())
        reports = run_program(p)
        s = reports[-1].state
        # Inverse shift then transposed coin layer, in reverse step order.
        for t in reversed(range(steps)):
            amps = {}
            for x, (a, b) in s.amplitudes.items():
                amps.setdefault(x - 1, [0j, 0j])[0] = a
                amps.setdefault(x + 1, [0j, 0j])[1] = b
            # Drop the padding positions the inverse shift creates.
            amps = {x: (a, b) for x, (a, b) in amps.items() if abs(x) <= t}
            s = WalkerState(
                step=t,
                amplitudes=amps,
                require_normalized=False,
            )
            s = apply_coin_layer(s, {x: p.cells[(t, x)] for x in s.positions()})
        a0, b0 = s.pair(0)
        ia, ib = circular_initial().pair(0)
        assert abs(a0 - ia) < 1e-10
        assert abs(b0 - ib) < 1e-10


class TestMirror:
    def test_mirror_reflects_distribution(self):
        rng = np.random.default_rng(3)
        steps = 6
        from coinwalk.state import CoinProgram

        cells = {
            (t, x): CoinOp(float(rng.uniform(0, math.pi)))
            for t in range(steps)
            for x in range(-t, t + 1, 2)
        }
        p = CoinProgram(steps=steps, cells=cells, initial=localized_state(0.6, 0.8))
        d = run_program(p)[-1].distribution
        dm = run_program(mirror_program(p))[-1].distribution
        for x, v in d.items():
            assert dm[-x] == pytest.approx(v, abs=1e-12)

    def test_mirror_carries_the_final_layer(self):
        p = gaussian_program(6)
        m = mirror_program(p)
        assert m.final_layer == {-x: GeneralCoinOp(op.m11, op.m10, op.m01, op.m00)
                                 for x, op in p.final_layer.items()}
        last, mirrored = run_program(p)[-1], run_program(m)[-1]
        for x, v in last.distribution.items():
            assert mirrored.distribution[-x] == pytest.approx(v, abs=1e-12)
        for x, (a, b) in last.state.amplitudes.items():  # the coin components swap
            ma, mb = mirrored.state.pair(-x)
            assert abs(ma - b) <= 1e-12 and abs(mb - a) <= 1e-12
