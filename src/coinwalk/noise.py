"""Finite-statistics and imperfection emulation of the loop experiment.

Losses in the loop are position-independent to first order, so they
rescale the event budget rather than the distribution shape; the optional
asymmetric right-move loss knob models the residual long/short path
imbalance. Expected counts always come from one walk, damped only when
the right-move loss is positive, renormalized at detection. All
randomness flows through explicit seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from numbers import Integral
from typing import Mapping

import numpy as np

from .errors import DomainError, _quote
from .measure import _entropy_rows, _similarity_rows
from .state import (AngleRows, CoinProgram, _at_least, _check_rows, _held, _integer, _left_sum,
                    _map_column, _masses, _real, check_distribution, norm, support)
from .walk import _rows


@dataclass(frozen=True)
class NoiseModel:
    round_trip_survival: float = 0.43  # detection probability per round trip
    outcoupling_fraction: float = 0.01  # tap ratio toward the detector
    coin_angle_jitter_rad: float = 0.0
    right_move_loss: float = 0.0  # asymmetric per-right-move loss, off by default
    seed: int = 0

    def __post_init__(self):
        for name in ("round_trip_survival", "outcoupling_fraction", "right_move_loss"):
            _real(getattr(self, name), name, 0.0, 1.0, "lie in [0, 1]")
        _real(self.coin_angle_jitter_rad, "coin_angle_jitter_rad", 0.0, rule="be finite and >= 0")
        _at_least(self.seed, 0, "seed")  # numpy's default_rng takes an integer >= 0


def expected_counts(
    p: CoinProgram, nm: NoiseModel, step: int, total_events: int
) -> dict[int, float]:
    """P(x, step) scaled to ``total_events`` detected events.

    Flat losses rescale the budget, not the shape (see detected_event_budget).
    The distribution comes from one walk (see lossy_distribution), damped
    only when ``right_move_loss > 0`` and renormalized, so the counts sum
    to ``total_events``.
    """
    _real(total_events, "total_events", 0.0, rule="be finite and >= 0")
    dist = lossy_distribution(p, step, nm.right_move_loss)
    return {x: prob * total_events for x, prob in dist.items()}


def detected_event_budget(nm: NoiseModel, launches: float, step: int) -> float:
    """Expected detections at a step: launches * survival^step * tap ratio.

    Whether the per-round-trip survival already includes the tap is
    ambiguous in practice; the two knobs are exposed separately so either
    reading can be configured. ``launches`` is a finite real >= 0 and
    ``step`` an integer >= 0 that fits a float: else DomainError.
    """
    launches = _real(launches, "launches", 0.0, rule="be finite and >= 0")
    step = _real(_at_least(step, 0, "step"), "step")  # float ** int takes float(int)
    return launches * nm.round_trip_survival ** step * nm.outcoupling_fraction


def lossy_distribution(p: CoinProgram, step: int, right_move_loss: float) -> dict[int, float]:
    """Distribution at a step with amplitude damping on every right-move,
    renormalized at detection."""
    if not 0 <= (step := _integer(step, "step")) <= p.steps:
        raise DomainError(f"step must lie in [0, {p.steps}], got {_quote(step)}")
    loss = _real(right_move_loss, "right_move_loss", 0.0, 1.0, "lie in [0, 1]")
    if norm(p.initial) == 0.0:
        raise DomainError("initial state has zero norm")
    a, b = _rows(p, step, math.sqrt(1.0 - loss))
    raw = _masses(a[-step - 1:], b[-step - 1:]).tolist()  # the last row
    total = _left_sum(raw)
    if total == 0.0:
        raise DomainError(
            f"no amplitude survives {step} steps at right_move_loss {_quote(right_move_loss)}"
        )
    if not math.isfinite(total):
        raise DomainError(f"the masses at step {step} sum to {total!r}, not a finite float")
    return {x: v / total for x, v in zip(support(step), raw)}


def _require_event_total(n, what: str) -> None:
    """Require a whole event total in [0, 2**63), the 64-bit integer range
    numpy's multinomial takes."""
    rule = "be a whole number in [0, 2**63)"
    _real(n, what, 0.0, rule=rule)
    n = _held(n)  # a Python value: numpy cannot compare its bool with 2**63
    if not (n < 2**63 and n == math.floor(n)):
        raise DomainError(f"{what} must {rule}, got {_quote(n)}")


def sample_counts(p: Mapping[int, float], n: int, seed: int) -> dict[int, int]:
    """Multinomial draw of n events from nonnegative weights, renormalized,
    reproducible per seed, an integer >= 0; n must be a whole number in [0, 2**63)."""
    _require_event_total(n, "n")
    _at_least(seed, 0, "seed")
    xs, probs = _map_column(p, float, "p", "weight")
    bad = ~np.isfinite(probs) | (probs < 0.0)
    if bad.any():
        x = xs[int(np.argmax(bad))]
        raise DomainError(f"weight at x = {_quote(x)} is {_quote(p[x])}, not finite and >= 0")
    total = probs.sum()
    if not 0.0 < total < math.inf:
        raise DomainError(f"weights sum to {float(total)!r}, need a positive finite total")
    probs = probs / total
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(int(n), probs)  # n is whole; numpy takes no 0-d float array
    return {x: int(c) for x, c in zip(xs, counts)}


@dataclass(frozen=True)
class BootstrapResult:
    sigma_p: dict[int, float]
    sigma_entropy: float
    sigma_similarity: float | None


def bootstrap_errorbars(
    counts: Mapping[int, int],
    resamples: int,
    seed: int,
    theory: Mapping[int, float] | None = None,
) -> BootstrapResult:
    """Multinomial-resampled standard deviations of P(x), entropy, and,
    when a theory distribution is given, the similarity against it.

    ``counts`` must be finite whole numbers >= 0 with 1 to 2**63 - 1 events,
    ``resamples`` an integer >= 100 and ``seed`` an integer >= 0. The resamples are drawn as one
    (resamples, positions) matrix, columns in ascending x, checked as
    distributions in one pass, and every row's entropy and similarity is
    evaluated on the matrix at once. Each value equals, bit for bit,
    shannon_entropy and similarity applied to that row as a map in any
    order; ``theory`` is checked once, as similarity's q.
    """
    if not (isinstance(resamples := _held(resamples), Integral) and 100 <= resamples < 2**63):
        raise DomainError(f"resamples must be an integer in [100, 2**63), got {_quote(resamples)}")
    _at_least(seed, 0, "seed")
    xs, values = _map_column(counts, float, "counts", "count")
    bad = ~(np.isfinite(values) & (values >= 0.0) & (values == np.floor(values)))
    if bad.any():
        x = xs[int(np.argmax(bad))]
        raise DomainError(f"count at x = {_quote(x)} is {_quote(counts[x])}, "
                          "not a finite whole number >= 0")
    n = sum(int(counts[x]) for x in xs)  # exact, in any key order
    if n < 1:
        raise DomainError("counts must contain at least one event")
    _require_event_total(n, "the event total")
    rng = np.random.default_rng(seed)
    draws = rng.multinomial(n, values / n, size=resamples) / n
    _check_rows(xs, draws, "p")
    sigma_p = {x: float(s) for x, s in zip(xs, draws.std(axis=0))}
    sigma_f = None
    if theory is not None:
        check_distribution(theory, "q")
        q = np.array([theory.get(x, 0.0) for x in xs], dtype=float)  # aligned on the columns
        sigma_f = float(_similarity_rows(draws, q).std())
    return BootstrapResult(
        sigma_p=sigma_p,
        sigma_entropy=float(_entropy_rows(draws).std()),
        sigma_similarity=sigma_f,
    )


def perturb_program(p: CoinProgram, nm: NoiseModel) -> CoinProgram:
    """Jitter every stepped coin angle by the model's std-dev, clamped to
    [0, pi]; the initial state and final layer are left untouched."""
    if nm.coin_angle_jitter_rad == 0.0:
        return p
    rng = np.random.default_rng(nm.seed)
    # One draw in (t, x) order: the same numbers as one scalar draw per cell.
    theta = p.cells.theta + rng.normal(0.0, nm.coin_angle_jitter_rad, len(p.cells))
    return replace(p, cells=AngleRows._of(np.clip(theta, 0.0, math.pi)))
