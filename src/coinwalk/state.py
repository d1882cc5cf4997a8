"""Core value types for one-dimensional coin-walker lattices.

The walker lives on the integer line; the coin is a two-level degree of
freedom. Amplitudes are stored sparsely, keyed by position, so parity
violations are detectable instead of silently absorbed by a dense array.

Tolerance policy: user-facing construction checks run at 1e-9, internal
evolution invariants are asserted at 1e-12.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass

import numpy as np

from .errors import DomainError, IncompleteLayerError, NormalizationError

CONSTRUCTION_TOL = 1e-9
EVOLUTION_TOL = 1e-12

AmplitudePair = tuple[complex, complex]


def support(t: int) -> range:
    """Positions -t, -t+2, ..., t the walker can occupy after t steps."""
    return range(-t, t + 1, 2)


def _require_finite(z: complex, what: str) -> None:
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"{what} must have finite components, got {z!r}")


@dataclass(frozen=True)
class WalkerState:
    """Coin-walker wavefunction at a fixed step.

    ``amplitudes`` maps each occupied position x to the pair (a, b) of
    coin-|0> and coin-|1> amplitudes. Occupied positions must share the
    parity of ``step`` and lie in [-step, step].
    """

    step: int
    amplitudes: dict[int, AmplitudePair]
    require_normalized: InitVar[bool] = True

    def __post_init__(self, require_normalized: bool):
        if self.step < 0:
            raise DomainError(f"step must be >= 0, got {self.step}")
        amps = {int(x): (complex(a), complex(b)) for x, (a, b) in self.amplitudes.items()}
        object.__setattr__(self, "amplitudes", amps)
        positions = support(self.step)
        for x, (a, b) in amps.items():
            _require_finite(a, f"amplitude a({x},{self.step})")
            _require_finite(b, f"amplitude b({x},{self.step})")
            if x not in positions:
                raise DomainError(
                    f"position {x} is outside the step-{self.step} support "
                    f"{{-t, -t+2, ..., t}}"
                )
        if require_normalized:
            n = norm(self)
            if abs(n - 1.0) > CONSTRUCTION_TOL:
                raise NormalizationError(
                    f"state norm is {n!r}, expected 1 within {CONSTRUCTION_TOL}"
                )

    def pair(self, x: int) -> AmplitudePair:
        """Amplitude pair at position x (implicit zeros off support)."""
        return self.amplitudes.get(x, (0j, 0j))

    def positions(self) -> list[int]:
        return sorted(self.amplitudes)


def localized_state(coin_amp0: complex, coin_amp1: complex) -> WalkerState:
    """State at t = 0 with the walker localized at x = 0.

    The coin starts in coin_amp0 |0> + coin_amp1 |1>; the pair must be
    normalized within 1e-9.
    """
    a, b = complex(coin_amp0), complex(coin_amp1)
    _require_finite(a, "coin_amp0")
    _require_finite(b, "coin_amp1")
    n = abs(a) ** 2 + abs(b) ** 2
    if abs(n - 1.0) > CONSTRUCTION_TOL:
        raise NormalizationError(
            f"|amp0|^2 + |amp1|^2 = {n!r}, expected 1 within {CONSTRUCTION_TOL}"
        )
    return WalkerState(step=0, amplitudes={0: (a, b)})


def norm(s: WalkerState) -> float:
    """Total probability carried by the state (1 for any valid state)."""
    return float(sum(abs(a) ** 2 + abs(b) ** 2 for a, b in s.amplitudes.values()))


def position_distribution(s: WalkerState) -> dict[int, float]:
    """P(x) = |a(x)|^2 + |b(x)|^2 over the occupied positions."""
    return {x: abs(a) ** 2 + abs(b) ** 2 for x, (a, b) in sorted(s.amplitudes.items())}


@dataclass(frozen=True)
class CoinOp:
    """Real-orthogonal coin [[cos t, sin t], [sin t, -cos t]], determinant -1."""

    theta: float

    def __post_init__(self):
        if not math.isfinite(self.theta):
            raise DomainError(f"theta must be finite, got {self.theta!r}")
        if not 0.0 <= self.theta <= math.pi:
            raise DomainError(f"theta must lie in [0, pi], got {self.theta!r}")

    @property
    def matrix(self) -> np.ndarray:
        c, s = math.cos(self.theta), math.sin(self.theta)
        return np.array([[c, s], [s, -c]])

    def apply(self, pair: AmplitudePair) -> AmplitudePair:
        a, b = pair
        c, s = math.cos(self.theta), math.sin(self.theta)
        return (c * a + s * b, s * a - c * b)


HADAMARD = CoinOp(math.pi / 4)


@dataclass(frozen=True)
class GeneralCoinOp:
    """Arbitrary real-orthogonal 2x2 coin, row-major entries.

    Houses the disentangling coins (1/N)[[a, b], [b, -a]], which only fit
    the angle form after normalization.
    """

    m00: float
    m01: float
    m10: float
    m11: float

    def __post_init__(self):
        m = self.matrix
        if not np.all(np.isfinite(m)):
            raise DomainError("coin entries must be finite")
        if not np.allclose(m.T @ m, np.eye(2), atol=EVOLUTION_TOL, rtol=0.0):
            raise DomainError(f"coin matrix {m.tolist()} is not orthogonal")

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.m00, self.m01], [self.m10, self.m11]])

    def apply(self, pair: AmplitudePair) -> AmplitudePair:
        a, b = pair
        return (self.m00 * a + self.m01 * b, self.m10 * a + self.m11 * b)


@dataclass(frozen=True)
class CoinProgram:
    """Full assignment of a coin to every (step, position) cell.

    ``cells`` covers exactly the positions reachable at each step t < steps;
    ``final_layer``, when present, is the coin-only disentangling layer
    applied after the last shift and covers exactly ``support(steps)``.
    """

    steps: int
    cells: dict[tuple[int, int], CoinOp]
    initial: WalkerState
    final_layer: dict[int, GeneralCoinOp] | None = None

    def __post_init__(self):
        if self.steps < 1:
            raise DomainError(f"steps must be >= 1, got {self.steps}")
        if self.initial.step != 0:
            raise DomainError("initial state must be at step 0")
        expected = 0
        for t in range(self.steps):
            for x in support(t):
                if (t, x) not in self.cells:
                    raise IncompleteLayerError(
                        f"program is missing a coin at step {t}, position {x}"
                    )
                expected += 1
        if len(self.cells) != expected:
            t, x = min(
                (t, x) for t, x in self.cells
                if not (0 <= t < self.steps and x in support(t))
            )
            raise DomainError(
                f"program has a coin at step {t}, position {x}, outside its "
                f"{self.steps}-step support"
            )
        if self.final_layer is not None:
            last = support(self.steps)
            for x in last:
                if x not in self.final_layer:
                    raise IncompleteLayerError(
                        f"final layer is missing a coin at position {x}"
                    )
            if len(self.final_layer) != len(last):
                x = min(x for x in self.final_layer if x not in last)
                raise DomainError(
                    f"final layer has a coin at position {x}, outside the "
                    f"step-{self.steps} support"
                )

    def layer(self, t: int) -> dict[int, CoinOp]:
        """The coins of step t, keyed by position."""
        if not 0 <= t < self.steps:
            raise DomainError(f"step {t} outside program range [0, {self.steps})")
        return {x: self.cells[(t, x)] for x in support(t)}


@dataclass(frozen=True)
class DistributionSchedule:
    """Target position distribution P(x, t) for every step t = 0..steps."""

    steps: int
    rows: dict[int, dict[int, float]]

    def __post_init__(self):
        if self.steps < 1:
            raise DomainError(f"steps must be >= 1, got {self.steps}")
        rows = {int(t): {int(x): float(p) for x, p in row.items()}
                for t, row in self.rows.items()}
        object.__setattr__(self, "rows", rows)
        for t in range(self.steps + 1):
            row = rows.get(t)
            if row is None:
                raise DomainError(f"schedule is missing the row for step {t}")
            total = 0.0
            positions = support(t)
            for x, p in row.items():
                if not math.isfinite(p) or p < -CONSTRUCTION_TOL:
                    raise DomainError(f"P({x},{t}) = {p!r} is not a probability")
                if p > CONSTRUCTION_TOL and x not in positions:
                    raise DomainError(
                        f"P({x},{t}) = {p!r} lies outside the step-{t} support"
                    )
                total += p
            if abs(total - 1.0) > CONSTRUCTION_TOL:
                raise NormalizationError(
                    f"row {t} sums to {total!r}, expected 1 within {CONSTRUCTION_TOL}"
                )

    def prob(self, t: int, x: int) -> float:
        return self.rows[t].get(x, 0.0)
