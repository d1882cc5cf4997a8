"""Core value types for one-dimensional coin-walker lattices.

The walker lives on the integer line; the coin is a two-level degree of
freedom. Amplitudes are stored sparsely, keyed by position, so parity
violations are detectable instead of silently absorbed by a dense array.
Coin programs are held as read-only angle rows, row t holding the t+1
angles at x = 2i - t, which synthesis, the walk, the compiler and the
program file all read directly.

Tolerance policy: user-facing construction checks run at 1e-9, internal
evolution invariants are asserted at 1e-12.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Mapping, Sequence
from dataclasses import InitVar, dataclass
from itertools import islice

import numpy as np

from .errors import DomainError, IncompleteLayerError, NormalizationError

CONSTRUCTION_TOL = 1e-9
EVOLUTION_TOL = 1e-12

AmplitudePair = tuple[complex, complex]


def support(t: int) -> range:
    """Positions -t, -t+2, ..., t the walker can occupy after t steps."""
    return range(-t, t + 1, 2)


def check_distribution(p: Mapping[int, float], name: str) -> None:
    """Require a probability row: every entry finite and >= -1e-9
    (DomainError), the entries summing to 1 within 1e-9 (NormalizationError)."""
    total = 0.0
    for x, v in p.items():
        if not math.isfinite(v) or v < -CONSTRUCTION_TOL:
            raise DomainError(f"{name} at x = {x} is {v!r}, not a probability")
        total += v
    if abs(total - 1.0) > CONSTRUCTION_TOL:
        raise NormalizationError(
            f"{name} sums to {total!r}, expected 1 within {CONSTRUCTION_TOL}"
        )


def _check_rows(xs: Sequence[int], rows: np.ndarray, name: str) -> None:
    """check_distribution on every row of a matrix whose columns are the
    positions ``xs``: the first failing row raises what it raises alone."""
    bad = ~np.isfinite(rows) | (rows < -CONSTRUCTION_TOL)
    # cumsum adds each row left to right, as check_distribution does.
    totals = np.cumsum(rows, axis=1)[:, -1]
    failed = bad.any(axis=1) | (abs(totals - 1.0) > CONSTRUCTION_TOL)
    if failed.any():
        check_distribution(dict(zip(xs, rows[int(np.argmax(failed))])), name)


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
            if not (cmath.isfinite(a) and cmath.isfinite(b)):
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

    @classmethod
    def from_rows(cls, step: int, a: np.ndarray, b: np.ndarray) -> WalkerState:
        """Unnormalized state at ``step`` from dense rows a, b at x = 2i - step,
        checked once per row: one entry per support position, every one finite."""
        if step < 0:
            raise DomainError(f"step must be >= 0, got {step}")
        a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
        if a.shape != (step + 1,) or b.shape != (step + 1,):
            raise DomainError(f"step-{step} rows must hold {step + 1} amplitudes, "
                              f"got {a.shape} and {b.shape}")
        finite = np.isfinite(a) & np.isfinite(b)
        if not finite.all():
            i = int(np.argmin(finite))
            x = 2 * i - step
            _require_finite(complex(a[i]), f"amplitude a({x},{step})")
            _require_finite(complex(b[i]), f"amplitude b({x},{step})")
        s = object.__new__(cls)
        object.__setattr__(s, "step", step)
        object.__setattr__(s, "amplitudes", dict(zip(support(step), zip(a.tolist(), b.tolist()))))
        return s

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
    return WalkerState(step=0, amplitudes={0: (coin_amp0, coin_amp1)})


def norm(s: WalkerState) -> float:
    """Total probability carried by the state (1 for any valid state)."""
    return float(sum(abs(a) ** 2 + abs(b) ** 2 for a, b in s.amplitudes.values()))


def position_distribution(s: WalkerState) -> dict[int, float]:
    """P(x) = |a(x)|^2 + |b(x)|^2 over the occupied positions."""
    return {x: abs(a) ** 2 + abs(b) ** 2 for x, (a, b) in sorted(s.amplitudes.items())}


def check_angle(theta: float) -> float:
    """Require a coin angle finite and in [0, pi] (DomainError); returns it."""
    if not 0.0 <= theta <= math.pi:  # NaN fails too
        if not math.isfinite(theta):
            raise DomainError(f"theta must be finite, got {theta!r}")
        raise DomainError(f"theta must lie in [0, pi], got {theta!r}")
    return theta


@dataclass(frozen=True)
class CoinOp:
    """Real-orthogonal coin [[cos t, sin t], [sin t, -cos t]], determinant -1."""

    theta: float

    def __post_init__(self):
        check_angle(self.theta)

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
        m00, m01, m10, m11 = self.m00, self.m01, self.m10, self.m11
        if not all(map(math.isfinite, (m00, m01, m10, m11))):
            raise DomainError("coin entries must be finite")
        # The entries of m^T m - I: column norms minus one and the column product.
        residuals = (m00 * m00 + m10 * m10 - 1.0, m01 * m01 + m11 * m11 - 1.0,
                     m00 * m01 + m10 * m11)
        if max(map(abs, residuals)) > EVOLUTION_TOL:
            raise DomainError(f"coin matrix {self.matrix.tolist()} is not orthogonal")

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.m00, self.m01], [self.m10, self.m11]])

    def apply(self, pair: AmplitudePair) -> AmplitudePair:
        a, b = pair
        return (self.m00 * a + self.m01 * b, self.m10 * a + self.m11 * b)


def cell_at(i: int) -> tuple[int, int]:
    """Cell (t, x) at index i of the angle rows laid end to end."""
    t = (math.isqrt(8 * i + 1) - 1) // 2
    return t, 2 * (i - t * (t + 1) // 2) - t


class AngleRows(Mapping):
    """Read-only coin angles laid end to end in (t, x) order; ``rows[t]`` is a
    view of the t+1 angles of step t at x = 2i - t. As a mapping, each cell
    (t, x) gives its CoinOp."""

    def __init__(self, theta):
        self.theta = np.array(theta, dtype=float)
        self.theta.flags.writeable = False
        steps = cell_at(self.theta.size)[0]  # whole rows; CoinProgram checks the count
        starts = [t * (t + 1) // 2 for t in range(steps + 1)]
        self.rows = tuple(self.theta[i:j] for i, j in zip(starts, starts[1:]))

    def __getitem__(self, key: tuple[int, int]) -> CoinOp:
        t, x = key
        if not (0 <= t < len(self.rows) and x in support(t)):
            raise KeyError(key)
        return CoinOp(float(self.rows[t][(x + t) // 2]))

    def __iter__(self):
        return ((t, x) for t in range(len(self.rows)) for x in support(t))

    def __len__(self) -> int:
        return self.theta.size


def _coins_at(given: Mapping, keys: Sequence, kind: type, owner: str, where) -> list:
    """The coins of ``given`` at exactly ``keys``, in key order, each a ``kind``:
    else IncompleteLayerError or DomainError naming the first bad key."""
    coins = []
    for key in keys:
        coin = given.get(key)
        if coin is None:
            raise IncompleteLayerError(f"{owner} is missing the coin for {where(key)}")
        if not isinstance(coin, kind):
            raise DomainError(f"{owner} coin for {where(key)} is a "
                              f"{type(coin).__name__}, not a {kind.__name__}")
        coins.append(coin)
    if len(given) != len(keys):
        key = min(given.keys() - set(keys))
        raise DomainError(f"{owner} has a coin for {where(key)}, outside its support")
    return coins


def program_cells(cells: Mapping, steps: int, kind: type) -> list:
    """The values of ``cells`` at exactly the cells (t, x) of a ``steps``-step
    program, in (t, x) order, each a ``kind``: else IncompleteLayerError or
    DomainError naming the first missing or mistyped cell, or the smallest stray one."""
    if steps < 1:
        raise DomainError(f"steps must be >= 1, got {steps}")
    # A cell past the dict's length is missing, so no more keys are needed.
    keys = ((t, x) for t in range(steps) for x in support(t))
    keys = list(islice(keys, len(cells) + 1))
    return _coins_at(cells, keys, kind, "program",
                     "cell ({0[0]},{0[1]}) at step {0[0]}, position {0[1]}".format)


@dataclass(frozen=True)
class CoinProgram:
    """Full assignment of a coin to every (step, position) cell.

    ``cells`` holds the angles of the positions reachable at each step
    t < steps as AngleRows (a dict of CoinOps at exactly those cells is
    converted once); ``final_layer``, when present, is the coin-only
    disentangling layer applied after the last shift and holds a
    GeneralCoinOp at exactly the positions of ``support(steps)``.
    """

    steps: int
    cells: Mapping[tuple[int, int], CoinOp]
    initial: WalkerState
    final_layer: dict[int, GeneralCoinOp] | None = None

    def __post_init__(self):
        if self.steps < 1:
            raise DomainError(f"steps must be >= 1, got {self.steps}")
        if self.initial.step != 0:
            raise DomainError("initial state must be at step 0")
        if isinstance(self.cells, AngleRows):
            theta = self.cells.theta
            if theta.size != self.steps * (self.steps + 1) // 2:
                raise DomainError(f"{self.steps}-step program has {theta.size} coin angles")
            bad = np.flatnonzero(~((theta >= 0.0) & (theta <= math.pi)))  # NaN fails both
            if bad.size:
                t, x = cell_at(int(bad[0]))
                raise DomainError(f"coin angle at step {t}, position {x} is "
                                  f"{float(theta[bad[0]])!r}, not in [0, pi]")
        else:
            coins = program_cells(self.cells, self.steps, CoinOp)
            object.__setattr__(self, "cells", AngleRows([op.theta for op in coins]))
        if self.final_layer is not None:
            _coins_at(self.final_layer, support(self.steps), GeneralCoinOp,
                      "final layer", "position {}".format)

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
        stray = [t for t in rows if not 0 <= t <= self.steps]
        if stray:
            raise DomainError(f"schedule has a row for step {min(stray)}, "
                              f"outside 0..{self.steps}")
        for t in range(self.steps + 1):
            row = rows.get(t)
            if row is None:
                raise DomainError(f"schedule is missing the row for step {t}")
            check_distribution(row, f"row {t}")
            for x in sorted(row.keys() - set(support(t))):
                if row[x] > CONSTRUCTION_TOL:
                    raise DomainError(
                        f"P({x},{t}) = {row[x]!r} lies outside the step-{t} support"
                    )
