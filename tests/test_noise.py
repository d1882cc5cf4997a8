import math
import re
from dataclasses import replace
from functools import reduce
from operator import add

import numpy as np
import pytest

import oracle
from coinwalk import measure, noise
from coinwalk.errors import DomainError, NormalizationError
from coinwalk.measure import similarity
from coinwalk.noise import (
    BootstrapResult,
    NoiseModel,
    bootstrap_errorbars,
    detected_event_budget,
    expected_counts,
    lossy_distribution,
    perturb_program,
    sample_counts,
)
from coinwalk.state import CoinOp, CoinProgram, WalkerState, localized_state, norm
from coinwalk.synth import gaussian_program, uniform_program
from coinwalk.walk import _rows, circular_initial, hadamard_program, run_program


class TestNoiseModel:
    def test_defaults(self):
        nm = NoiseModel()
        assert nm.round_trip_survival == 0.43
        assert nm.outcoupling_fraction == 0.01

    def test_rejects_bad_probability(self):
        with pytest.raises(DomainError):
            NoiseModel(round_trip_survival=1.5)

    @pytest.mark.parametrize("jitter", [math.inf, math.nan, -0.1])
    def test_rejects_jitter_that_is_not_finite_and_nonnegative(self, jitter):
        with pytest.raises(DomainError, match=f"coin_angle_jitter_rad .* got {jitter}"):
            NoiseModel(coin_angle_jitter_rad=jitter)


@pytest.mark.parametrize("seed, match", [
    (-1, "seed must be >= 0, got -1"),
    (1.0, "seed must be an integer, got 1.0"),
    ("3", "seed must be an integer, got '3'"),
    (None, "seed must be an integer, got None"),
], ids=["negative", "float", "string", "none"])
def test_a_seed_that_is_not_an_integer_at_least_0_is_rejected(seed, match):
    with pytest.raises(DomainError, match=re.escape(match)):
        NoiseModel(coin_angle_jitter_rad=0.01, seed=seed)
    with pytest.raises(DomainError, match=re.escape(match)):
        sample_counts({0: 1.0}, 10, seed)
    with pytest.raises(DomainError, match=re.escape(match)):
        bootstrap_errorbars({0: 10}, 100, seed)


def test_bootstrap_counts_without_an_event_are_rejected():
    with pytest.raises(DomainError, match="^counts must contain at least one event$"):
        bootstrap_errorbars({0: 0, 2: 0.0}, 100, 0)


def test_any_integer_seed_at_least_0_is_taken():
    p = uniform_program(3)
    for seed in (0, np.int64(3), 2**70):
        perturb_program(p, NoiseModel(coin_angle_jitter_rad=0.01, seed=seed))
        assert sum(sample_counts({0: 1.0}, 10, seed).values()) == 10
        assert bootstrap_errorbars({0: 10}, 100, seed).sigma_p == {0: 0.0}


class TestExpectedCounts:
    def test_uniform_split(self):
        counts = expected_counts(uniform_program(7), NoiseModel(), 7, 8000)
        assert counts == pytest.approx({x: 1000.0 for x in range(-7, 8, 2)}, abs=1e-6)

    def test_zero_events(self):
        counts = expected_counts(uniform_program(3), NoiseModel(), 3, 0)
        assert all(v == 0.0 for v in counts.values())

    def test_flat_loss_leaves_shape(self):
        prog = uniform_program(5)
        ideal = run_program(prog)[5].distribution
        counts = expected_counts(prog, NoiseModel(), 5, 12345)
        for x, c in counts.items():
            assert c / 12345 == pytest.approx(ideal[x], abs=1e-12)

    def test_budget_scaling(self):
        nm = NoiseModel()
        assert detected_event_budget(nm, 1e6, 0) == pytest.approx(1e4)
        assert detected_event_budget(nm, 1e6, 2) == pytest.approx(1e4 * 0.43 ** 2)

    def test_asymmetric_loss_tilts_left(self):
        prog = uniform_program(5)
        tilted = lossy_distribution(prog, 5, right_move_loss=0.2)
        ideal = run_program(prog)[5].distribution
        assert tilted[-5] > ideal[-5]
        assert tilted[5] < ideal[5]
        assert sum(tilted.values()) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("loss", [0.05, 0.3])
    def test_lossy_matches_damped_recursion(self, loss):
        rng = np.random.default_rng(17)
        for _ in range(10):
            steps = int(rng.integers(1, 9))
            thetas = {
                (t, x): float(rng.uniform(0, math.pi))
                for t in range(steps)
                for x in range(-t, t + 1, 2)
            }
            a = math.cos(rng.uniform(0, math.pi / 2))
            b = math.sqrt(1 - a * a) * complex(np.exp(1j * rng.uniform(0, 2 * math.pi)))
            prog = CoinProgram(
                steps=steps,
                cells={key: CoinOp(th) for key, th in thetas.items()},
                initial=localized_state(a, b),
            )
            ref = oracle.distribution(oracle.evolve(
                lambda t, x: thetas[(t, x)], (a, b), steps, math.sqrt(1 - loss)
            )[steps])
            total = sum(ref.values())
            got = lossy_distribution(prog, steps, loss)
            assert got.keys() == ref.keys()
            for x, v in ref.items():
                assert abs(got[x] - v / total) < 1e-12

    def test_lossy_t300_matches_damped_recursion(self):
        steps, loss = 300, 0.3
        prog = uniform_program(steps)
        ref = oracle.distribution(oracle.evolve(
            lambda t, x: prog.cells[(t, x)].theta, (1.0, 0.0), steps, math.sqrt(1 - loss)
        )[steps])
        total = sum(ref.values())
        got = lossy_distribution(prog, steps, loss)
        assert got.keys() == ref.keys()
        for x, v in ref.items():
            assert abs(got[x] - v / total) < 1e-12

    @pytest.mark.parametrize("loss", [0.0, 0.3])
    def test_lossy_counts_run_one_walk(self, monkeypatch, loss):
        prog = uniform_program(5)
        expected = lossy_distribution(prog, 5, loss)
        noise_rows = noise._rows
        walks = []

        def counted_rows(*args):
            walks.append(args)
            return noise_rows(*args)

        monkeypatch.setattr(noise, "_rows", counted_rows)
        counts = expected_counts(prog, NoiseModel(right_move_loss=loss), 5, 1000)
        assert len(walks) == 1
        assert counts == {x: v * 1000 for x, v in expected.items()}

    def test_unnormalized_initial_state_counts_sum_to_total(self):
        initial = WalkerState(step=0, amplitudes={0: (0.5, 0.5j)}, require_normalized=False)
        prog = replace(uniform_program(5), initial=initial)
        counts = expected_counts(prog, NoiseModel(), 5, 1000)
        assert sum(counts.values()) == pytest.approx(1000, rel=1e-12)

    def test_initial_state_whose_mass_overflows_is_rejected(self):
        initial = WalkerState(step=0, amplitudes={0: (1e200, 0)}, require_normalized=False)
        prog = replace(uniform_program(5), initial=initial)
        with pytest.raises(DomainError, match=r"amplitude \(1e\+200\+0j\) is too large"):
            lossy_distribution(prog, 5, 0.0)
        with pytest.raises(DomainError, match=r"amplitude \(1e\+200\+0j\) is too large"):
            run_program(prog)

    def test_masses_whose_total_overflows_are_rejected(self):
        # Every mass at step 3 is finite, but their total is not.
        initial = WalkerState(step=0, amplitudes={0: (1.2e154, 1.2e154)}, require_normalized=False)
        prog = replace(uniform_program(3), initial=initial)
        with pytest.raises(DomainError, match="masses at step 3 sum to inf"):
            lossy_distribution(prog, 3, 0.0)
        with pytest.raises(DomainError, match="masses at step 3 sum to inf"):
            expected_counts(prog, NoiseModel(), 3, 1000)

    def test_counts_and_norms_add_masses_left_to_right(self):
        # From CPython 3.12 builtin sum compensates, as math.fsum does; every
        # total must add the masses left to right from 0.0, in ascending x.
        programs = [uniform_program(60), gaussian_program(40),
                    hadamard_program(60, circular_initial())]
        compensated = 0
        for p in programs:
            for r in run_program(p):
                masses = [abs(a) ** 2 + abs(b) ** 2 for a, b in r.state.amplitudes.values()]
                assert norm(r.state) == reduce(add, masses, 0.0)
                compensated += math.fsum(masses) != norm(r.state)
            for loss in (0.0, 0.05, 0.3):
                a, b = _rows(p, p.steps, math.sqrt(1.0 - loss))
                masses = [abs(z) ** 2 + abs(w) ** 2
                          for z, w in zip(a[-p.steps - 1:].tolist(), b[-p.steps - 1:].tolist())]
                total = reduce(add, masses, 0.0)
                counts = expected_counts(p, NoiseModel(right_move_loss=loss), p.steps, 10**6)
                assert list(counts.values()) == [m / total * 10**6 for m in masses]
        assert compensated  # so the test tells the two sums apart

    def test_zero_norm_initial_state_is_rejected(self):
        initial = WalkerState(step=0, amplitudes={0: (0, 0)}, require_normalized=False)
        prog = replace(uniform_program(5), initial=initial)
        with pytest.raises(DomainError, match="initial state has zero norm"):
            expected_counts(prog, NoiseModel(), 5, 1000)


class TestBoundaryChecks:
    @pytest.mark.parametrize("loss", [0.0, 0.05])
    @pytest.mark.parametrize("step", [-1, 6])
    def test_expected_counts_rejects_step_outside_program(self, step, loss):
        with pytest.raises(DomainError, match=rf"\[0, 5\], got {step}"):
            expected_counts(uniform_program(5), NoiseModel(right_move_loss=loss), step, 100)

    @pytest.mark.parametrize("total", [math.nan, math.inf, -1])
    def test_expected_counts_rejects_total_that_is_not_finite_and_nonnegative(self, total):
        with pytest.raises(DomainError, match=f"total_events .* got {total}"):
            expected_counts(uniform_program(3), NoiseModel(), 3, total)

    @pytest.mark.parametrize("step", [-1, 6])
    def test_lossy_rejects_step_outside_program(self, step):
        with pytest.raises(DomainError, match=rf"\[0, 5\], got {step}"):
            lossy_distribution(uniform_program(5), step, 0.05)

    @pytest.mark.parametrize("loss", [1.5, -0.5, math.nan])
    def test_lossy_rejects_loss_outside_unit_interval(self, loss):
        with pytest.raises(DomainError, match=f"got {loss}"):
            lossy_distribution(uniform_program(3), 3, loss)

    def test_lossy_rejects_zero_surviving_mass(self):
        # theta = 0 keeps the coin in |0>, so every amplitude moves right.
        cells = {(t, x): CoinOp(0.0) for t in range(3) for x in range(-t, t + 1, 2)}
        prog = CoinProgram(steps=3, cells=cells, initial=localized_state(1, 0))
        with pytest.raises(DomainError, match="no amplitude survives 3 steps"):
            lossy_distribution(prog, 3, 1.0)
        with pytest.raises(DomainError, match="no amplitude survives 3 steps"):
            expected_counts(prog, NoiseModel(right_move_loss=1.0), 3, 1000)
        assert lossy_distribution(prog, 0, 1.0) == {0: 1.0}


class TestSampleCounts:
    def test_point_mass(self):
        assert sample_counts({3: 1.0}, 100, seed=1) == {3: 100}

    def test_single_event(self):
        counts = sample_counts({-1: 0.5, 1: 0.5}, 1, seed=2)
        assert sum(counts.values()) == 1
        assert sum(1 for v in counts.values() if v) == 1

    def test_reproducible(self):
        p = {x: 0.125 for x in range(-7, 8, 2)}
        assert sample_counts(p, 1000, seed=7) == sample_counts(p, 1000, seed=7)

    def test_renormalizes_raw_counts(self):
        counts = {-1: 3000, 1: 7000}
        assert sample_counts(counts, 500, seed=4) == sample_counts(
            {-1: 0.3, 1: 0.7}, 500, seed=4
        )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.25])
    def test_rejects_weight_that_is_not_finite_and_nonnegative(self, bad):
        with pytest.raises(DomainError, match=f"x = 1 is {bad!r}"):
            sample_counts({-1: 0.5, 1: bad, 3: 0.5}, 10, seed=0)

    def test_rejects_zero_total(self):
        with pytest.raises(DomainError, match="sum to 0.0"):
            sample_counts({-1: 0.0, 1: 0.0}, 10, seed=0)

    @pytest.mark.parametrize("n", [10.5, math.nan, math.inf, -1, 2**63, 2.0**63])
    def test_rejects_event_total_that_is_not_a_whole_number_below_2_63(self, n):
        message = rf"^n must be a whole number in \[0, 2\*\*63\), got {re.escape(repr(n))}$"
        with pytest.raises(DomainError, match=message):
            sample_counts({0: 0.5, 2: 0.5}, n, seed=0)

    def test_accepts_whole_float_and_largest_event_total(self):
        p = {0: 0.5, 2: 0.5}
        assert sample_counts(p, 10.0, seed=0) == sample_counts(p, 10, seed=0)
        assert sum(sample_counts(p, 2**63 - 1, seed=0).values()) == 2**63 - 1

    def test_uniform_within_five_sigma(self):
        p = {x: 0.125 for x in range(-7, 8, 2)}
        counts = sample_counts(p, 100_000, seed=3)
        sigma = math.sqrt(100_000 * 0.125 * 0.875)
        for v in counts.values():
            assert abs(v - 12500) < 5 * sigma


class TestBootstrap:
    def test_point_mass_has_zero_error(self):
        res = bootstrap_errorbars({0: 10 ** 6}, 200, seed=1)
        assert res.sigma_p == {0: 0.0}
        assert res.sigma_entropy == 0.0

    def test_matches_binomial_sigma(self):
        counts = {x: 1250 for x in range(-7, 8, 2)}
        res = bootstrap_errorbars(counts, 1000, seed=4)
        n = 10_000
        expected = math.sqrt(0.125 * 0.875 / n)
        for s in res.sigma_p.values():
            assert abs(s - expected) / expected < 0.2

    def test_similarity_error_at_experiment_scale(self):
        ideal = run_program(uniform_program(11))[-1].distribution
        counts = sample_counts(ideal, 10_000, seed=5)
        res = bootstrap_errorbars(counts, 1000, seed=6, theory=ideal)
        assert res.sigma_similarity is not None
        assert res.sigma_similarity <= 0.003

    def test_deterministic(self):
        counts = {0: 600, 2: 400}
        a = bootstrap_errorbars(counts, 300, seed=9)
        b = bootstrap_errorbars(counts, 300, seed=9)
        assert a == b

    def test_requires_enough_resamples(self):
        with pytest.raises(DomainError):
            bootstrap_errorbars({0: 10}, 10, seed=0)

    @pytest.mark.parametrize("counts, resamples, theory, error, match", [
        ({0: 5, 2: -1}, 100, None, DomainError, "count at x = 2 is -1,"),
        ({0: 5, 2: math.nan}, 100, None, DomainError, "count at x = 2 is nan,"),
        ({0: math.inf, 2: 5}, 100, None, DomainError, "count at x = 0 is inf,"),
        ({0: 2.5, 2: 1}, 100, None, DomainError, "count at x = 0 is 2.5,"),
        ({0: 5, 2: 5}, 100.5, None, DomainError, "resamples .* got 100.5"),
        ({0: 5, 2: 5}, math.nan, None, DomainError, "resamples .* got nan"),
        ({0: 5, 2: 5}, 99, None, DomainError, "resamples .* got 99"),
        ({0: 5, 2: 5}, 100, {0: 0.6, 2: 0.5}, NormalizationError, "q sums to 1.1,"),
    ])
    def test_rejects_bad_input(self, counts, resamples, theory, error, match):
        with pytest.raises(error, match=match):
            bootstrap_errorbars(counts, resamples, seed=0, theory=theory)

    def test_rejects_event_total_of_2_63(self):
        with pytest.raises(DomainError, match=r"^the event total must be a whole number "
                                              r"in \[0, 2\*\*63\), got 9223372036854775808$"):
            bootstrap_errorbars({0: 2**62, 2: 2**62}, 100, seed=0)

    def test_event_total_is_exact_in_any_key_order(self):
        # Added as floats, 2**53 + 1.0 + 1.0 is 2**53 and 1.0 + 1.0 + 2**53 is 2**53 + 2.
        counts = [(0, 2.0**53), (2, 1.0), (4, 1.0)]
        results = [bootstrap_errorbars(dict(c), 100, seed=0) for c in (counts, counts[::-1])]
        assert results[0] == results[1]

    @pytest.mark.parametrize("program", [
        uniform_program(3), uniform_program(20), uniform_program(120),
        gaussian_program(11), hadamard_program(17, circular_initial()),
    ], ids=["uniform-3", "uniform-20", "uniform-120", "gaussian-11", "hadamard-17"])
    @pytest.mark.parametrize("events, seed", [(1, 3), (40, 11), (10_000, 12345)])
    def test_matches_scalar_measures_on_every_resample(self, program, events, seed):
        ideal = run_program(program)[-1].distribution
        counts = sample_counts(ideal, events, seed)
        flat = {x: 1 / len(ideal) for x in ideal}
        # Zero-count positions, and a theory with positions missing from the counts.
        cases = [(counts, None), (counts, ideal), ({x: c for x, c in counts.items() if c}, flat)]
        for c, theory in cases:
            got = bootstrap_errorbars(c, 150, seed + 1, theory=theory)
            xs = sorted(c)
            n = sum(c.values())
            phat = np.array([c[x] for x in xs], dtype=float) / n
            draws = np.random.default_rng(seed + 1).multinomial(n, phat, size=150) / n
            rows = [dict(zip(xs, row)) for row in draws]
            # The reference measures are the loops in oracle, which share no code with measure.
            sims = None if theory is None else [oracle.similarity(r, theory) for r in rows]
            ref = BootstrapResult(
                sigma_p={x: float(s) for x, s in zip(xs, draws.std(axis=0))},
                sigma_entropy=float(np.array([oracle.shannon_entropy(r) for r in rows]).std()),
                sigma_similarity=None if sims is None else float(np.array(sims).std()),
            )
            assert got == ref

    def test_makes_no_scalar_measure_calls(self, monkeypatch):
        calls = []
        for name in ("similarity", "shannon_entropy"):
            original = getattr(measure, name)

            def counted(*args, _original=original, _name=name):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(measure, name, counted)
            monkeypatch.setattr(noise, name, counted, raising=False)
        ideal = run_program(uniform_program(11))[-1].distribution
        res = bootstrap_errorbars(sample_counts(ideal, 10_000, 5), 200, seed=6, theory=ideal)
        assert res.sigma_similarity > 0.0
        assert calls == []


class TestPerturbProgram:
    def test_zero_jitter_is_identity(self):
        p = uniform_program(5)
        assert perturb_program(p, NoiseModel(coin_angle_jitter_rad=0.0)) is p

    def test_small_jitter_keeps_high_similarity(self):
        p = uniform_program(11)
        ideal = run_program(p)[-1].distribution
        sims = []
        for seed in range(100):
            nm = NoiseModel(coin_angle_jitter_rad=0.01, seed=seed)
            noisy = run_program(perturb_program(p, nm))[-1].distribution
            sims.append(similarity(noisy, ideal))
        assert float(np.median(sims)) >= 0.98

    @pytest.mark.parametrize("seed", [0, 3, 12345])
    def test_matches_one_scalar_draw_per_cell_in_cell_order(self, seed):
        p = uniform_program(40)
        nm = NoiseModel(coin_angle_jitter_rad=0.5, seed=seed)
        rng = np.random.default_rng(seed)
        expected = {}
        for key in sorted(p.cells):
            theta = p.cells[key].theta + rng.normal(0.0, 0.5)
            expected[key] = CoinOp(min(max(theta, 0.0), math.pi))
        out = perturb_program(p, nm)
        assert dict(out.cells) == expected
        assert out.initial == p.initial and out.final_layer == p.final_layer

    def test_degenerate_jitter_still_valid(self):
        p = uniform_program(4)
        out = perturb_program(p, NoiseModel(coin_angle_jitter_rad=math.pi, seed=1))
        for op in out.cells.values():
            assert 0.0 <= op.theta <= math.pi

    def test_large_sample_similarity_converges(self):
        ideal = run_program(uniform_program(11))[-1].distribution
        counts = sample_counts(ideal, 10 ** 6, seed=8)
        n = sum(counts.values())
        sampled = {x: c / n for x, c in counts.items()}
        assert similarity(sampled, ideal) > 0.999
