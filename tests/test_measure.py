import math

import numpy as np
import pytest
from scipy import stats

from coinwalk import measure
from coinwalk.errors import DomainError, MustDisentangleError, NormalizationError
from coinwalk.measure import (
    extract_bits,
    pair_density,
    purity_criterion,
    shannon_entropy,
    similarity,
)
from coinwalk.state import WalkerState
from coinwalk.synth import gaussian_program, uniform_program
from coinwalk.walk import circular_initial, hadamard_program, run_program


class TestSimilarity:
    def test_identical(self):
        p = {-1: 0.5, 1: 0.5}
        assert similarity(p, p) == 1.0

    def test_disjoint(self):
        assert similarity({-1: 1.0}, {1: 1.0}) == 0.0

    def test_half_overlap(self):
        f = similarity({-1: 0.5, 1: 0.5}, {-1: 1.0})
        assert f == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = rng.dirichlet(np.ones(6))
            q = rng.dirichlet(np.ones(6))
            dp = dict(enumerate(p))
            dq = dict(enumerate(q))
            f = similarity(dp, dq)
            assert 0.0 <= f <= 1.0
            assert f == pytest.approx(similarity(dq, dp), abs=1e-12)

    def test_unnormalized_rejected(self):
        with pytest.raises(NormalizationError):
            similarity({0: 0.6}, {0: 1.0})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.5])
    def test_entry_that_is_not_a_probability_rejected(self, bad):
        with pytest.raises(DomainError, match="q at x = 1"):
            similarity({-1: 1.0}, {-1: 1.0, 1: bad})


class TestShannonEntropy:
    def test_uniform_eight_is_three_bits(self):
        p = {x: 0.125 for x in range(-7, 8, 2)}
        assert shannon_entropy(p) == 3.0

    def test_point_mass(self):
        assert shannon_entropy({0: 1.0}) == 0.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.5])
    def test_entry_that_is_not_a_probability_rejected(self, bad):
        with pytest.raises(DomainError, match="p at x = 0"):
            shannon_entropy({0: bad, 2: 1.0})

    @pytest.mark.parametrize("n", [2, 16, 64, 256, 1024])
    def test_uniform_is_log2_n(self, n):
        p = {i: 1.0 / n for i in range(n)}
        assert shannon_entropy(p) == pytest.approx(math.log2(n), abs=1e-12)

    def test_hadamard_below_uniform(self):
        d = run_program(hadamard_program(11, circular_initial()))[-1].distribution
        assert shannon_entropy(d) < math.log2(12)


class TestPairDensity:
    def test_uniform_nine_step(self):
        final = run_program(uniform_program(9))[-1].state
        pd = pair_density(final, -9)
        assert pd.rho[0, 0] == pytest.approx(0.1, abs=1e-9)
        assert pd.rho[1, 1] == pytest.approx(0.1, abs=1e-9)
        assert abs(pd.rho[0, 1]) ** 2 == pytest.approx(0.01, abs=1e-9)

    def test_two_level_pure_algebra(self):
        amps = {0: math.sqrt(0.6), 2: math.sqrt(0.4)}
        pd = pair_density(amps, 0)
        assert abs(pd.rho[0, 1]) ** 2 == pytest.approx(0.24, abs=1e-12)

    def test_fully_dephased(self):
        amps = {0: math.sqrt(0.5), 2: math.sqrt(0.5)}
        pd = pair_density(amps, 0, gamma=0.0)
        assert pd.rho[0, 1] == 0.0

    def test_out_of_support(self):
        with pytest.raises(DomainError):
            pair_density({0: 1.0}, 4)

    def test_requires_disentangled_state(self):
        s = WalkerState(step=0, amplitudes={0: (0.6, 0.8)})
        with pytest.raises(MustDisentangleError):
            pair_density(s, 0)

    @pytest.mark.parametrize("call", [lambda s: pair_density(s, -1), purity_criterion],
                             ids=["pair-density", "purity"])
    def test_a_state_amplitude_above_modulus_one_is_named_as_a_map_amplitude(self, call):
        s = WalkerState(step=1, amplitudes={-1: (2.0, 0), 1: (0.5, 0)}, require_normalized=False)
        message = r"^amplitude at x = -1 is \(2\+0j\), not of modulus <= 1$"
        with pytest.raises(DomainError, match=message):
            call(s)
        with pytest.raises(DomainError, match=message):
            call({-1: 2.0, 1: 0.5})


class TestPurityCriterion:
    @pytest.mark.parametrize("make", [uniform_program, gaussian_program])
    def test_ideal_states_pass_with_equality(self, make):
        final = run_program(make(9))[-1].state
        records = purity_criterion(final)
        assert len(records) == 9
        for r in records:
            assert r.passed
            assert r.lhs == pytest.approx(r.rhs, abs=1e-12)

    def test_dephased_state_fails_every_pair(self):
        final = run_program(uniform_program(9))[-1].state
        for r in purity_criterion(final, gamma=0.5):
            assert not r.passed
            assert r.lhs / r.rhs == pytest.approx(0.25, abs=1e-9)

    def test_coherence_scaling(self):
        amps = {0: math.sqrt(0.5), 2: math.sqrt(0.5)}
        base = purity_criterion(amps)[0]
        for gamma in (0.9, 0.5, 0.2):
            r = purity_criterion(amps, gamma=gamma)[0]
            assert r.lhs == pytest.approx(gamma ** 2 * base.lhs, abs=1e-12)
            assert r.rhs == pytest.approx(base.rhs, abs=1e-12)

    def test_a_pair_with_a_gap_between_its_positions_is_skipped(self):
        records = purity_criterion({0: 0.6, 2: 0.0, 6: 0.8})
        assert [r.x for r in records] == [0]

    def test_each_pair_reads_only_its_two_amplitudes(self, monkeypatch):
        amps = {x: 1 / math.sqrt(2001) for x in range(-2000, 2001, 2)}
        walker_amplitudes = measure._walker_amplitudes
        received = []

        def counted(source):
            received.append(len(source))
            return walker_amplitudes(source)

        monkeypatch.setattr(measure, "_walker_amplitudes", counted)
        records = purity_criterion(amps)
        assert len(records) == 2000 and all(r.passed for r in records)
        assert sum(received) <= 3 * 2001


class TestExtractBits:
    def test_first_and_last_index(self):
        assert extract_bits([-7], 7).bits == "000"
        assert extract_bits([7], 7).bits == "111"

    def test_power_of_two_accepts_everything(self):
        result = extract_bits(list(range(-7, 8, 2)), 7)
        assert result.n_rejected == 0
        assert result.bits_per_sample == 3
        assert len(result.bits) == 8 * 3

    def test_non_power_of_two_rejects_tail(self):
        # t = 5: six positions, four usable patterns of two bits.
        result = extract_bits(list(range(-5, 6, 2)), 5)
        assert result.bits_per_sample == 2
        assert result.n_accepted == 4
        assert result.n_rejected == 2

    def test_out_of_support(self):
        with pytest.raises(DomainError):
            extract_bits([0], 7)

    def test_uniform_input_is_unbiased(self):
        rng = np.random.default_rng(99)
        xs = rng.choice(np.arange(-7, 8, 2), size=100_000)
        result = extract_bits([int(x) for x in xs], 7)
        assert result.n_rejected == 0
        patterns = [result.bits[i:i + 3] for i in range(0, len(result.bits), 3)]
        counts = np.bincount([int(p, 2) for p in patterns], minlength=8)
        chi = stats.chisquare(counts)
        assert chi.pvalue > 0.01
