"""Forward evolution: coin layers, the conditional shift, and program runs.

Shift convention: the coin-|0> amplitude a(x, t) feeds position x+1 and the
coin-|1> amplitude b(x, t) feeds x-1. The mirror convention (a moves left)
is available through :func:`mirror_program`. States, coin layers, shifts
and whole programs all run on the dense rows at x = 2i - t; ``_rows`` is
the one kernel that steps a program, on one preallocated triangle each for
the a and b rows of every step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, IncompleteLayerError, _quote
from .state import (
    AngleRows,
    CoinOp,
    CoinProgram,
    GeneralCoinOp,
    Row,
    WalkerState,
    _at_least,
    _mapping,
    _masses,
    _require_finite_rows,
    _row_stack,
    _row_views,
    localized_state,
    position_distribution,
    support,
)


@dataclass(frozen=True)
class StepReport:
    """Per-step monitoring record: state plus its position distribution."""

    step: int
    state: WalkerState
    distribution: Row


def _walker(s) -> WalkerState:
    """``s`` if it is a WalkerState: else DomainError naming it."""
    if not isinstance(s, WalkerState):
        raise DomainError(f"s must be a WalkerState, got {_quote(s)}")
    return s


def apply_coin_layer(
    s: WalkerState, layer: dict[int, CoinOp | GeneralCoinOp]
) -> WalkerState:
    """Apply a position-dependent coin to every occupied position.

    Raises IncompleteLayerError if the layer misses an occupied position,
    and DomainError if ``s`` is no WalkerState, the layer is no map, or its
    coin at an occupied position is no CoinOp or GeneralCoinOp.
    """
    s, entries, layer = _walker(s), [], _mapping(layer, "layer")
    for x in s.amplitudes.xs:
        coin = layer.get(x)
        if coin is None:
            raise IncompleteLayerError(
                f"layer has no coin at occupied position {x} (step {s.step})"
            )
        if not isinstance(coin, (CoinOp, GeneralCoinOp)):
            raise DomainError(f"layer coin at position {x} is a {type(coin).__name__}, "
                              "not a CoinOp or GeneralCoinOp")
        entries.append(coin.matrix.ravel())
    # A zero coin at the other positions keeps their zero amplitudes.
    m = np.zeros((s.step + 1, 4))
    if entries:
        m[s.amplitudes.index()] = entries
    (m00, m01, m10, m11), (a, b) = m.T, s.rows
    rows = m00 * a + m01 * b, m10 * a + m11 * b
    return WalkerState(s.step, Row(s.step, rows, s.amplitudes.xs), require_normalized=False)


def apply_shift(s: WalkerState) -> WalkerState:
    """Conditional shift: a(x) -> a(x+1), b(x) -> b(x-1), step t -> t+1."""
    s = _walker(s)
    xs = None  # every position of the next step
    if not s.amplitudes.dense:
        xs = sorted({x + d for x in s.amplitudes.xs for d in (-1, 1)})
    (a, b), t = s.rows, s.step + 1
    shifted = np.append(0j, a), np.append(b, 0j)
    return WalkerState(t, Row(t, shifted, xs), require_normalized=False)


def step(s: WalkerState, coins_at_t: dict[int, CoinOp]) -> WalkerState:
    """One full evolution step: coin layer followed by the shift."""
    return apply_shift(apply_coin_layer(s, coins_at_t))


def _rows(p: CoinProgram, steps: int, right_damping: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Rows a, b at x = 2i - t for t = 0..steps, laid end to end in one
    triangle each, every right-move scaled by ``right_damping``."""
    a, b = np.zeros((2, (steps + 1) * (steps + 2) // 2), dtype=complex)
    a[:1], b[:1] = p.initial.rows
    theta = p.cells.theta[:steps * (steps + 1) // 2]
    cos, sin = np.cos(theta), np.sin(theta)
    for t in range(steps):
        i, j, k = t * (t + 1) // 2, (t + 1) * (t + 2) // 2, (t + 2) * (t + 3) // 2
        c, s, x, y = cos[i:j], sin[i:j], a[i:j], b[i:j]
        # Each step is written straight into row t+1; the product with 1.0 sets signed zeros.
        np.multiply(right_damping, c * x + s * y, out=a[j + 1:k])
        np.subtract(s * x, c * y, out=b[j:k - 1])
    return a, b


def run_program(p: CoinProgram) -> list[StepReport]:
    """Run a program from its initial state, reporting every step.

    Returns steps+1 reports including t = 0. A final disentangling layer
    is applied (coin only, no shift) to the last row, so the last state has
    every pair of the form (r, 0). Steps 1..steps are views of one array of
    the run, their masses taken in one pass. An amplitude that overflows
    raises DomainError naming the first non-finite one in step order.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is named below
        a, b = _rows(p, p.steps)
        if p.final_layer is not None:
            coins = map(p.final_layer.__getitem__, support(p.steps))
            m00, m01, m10, m11 = np.array([(c.m00, c.m01, c.m10, c.m11) for c in coins]).T
            x, y = a[-p.steps - 1:], b[-p.steps - 1:]
            x[:], y[:] = m00 * x + m01 * y, m10 * x + m11 * y
    rows = list(zip(_row_views(a, p.steps + 1), _row_views(b, p.steps + 1)))
    # An amplitude that is not finite is named before one whose square overflows.
    try:
        masses = _masses(a, b)
    except DomainError:
        _require_finite_rows(a, b)
        raise
    if not np.isfinite(masses).all():
        _require_finite_rows(a, b)
    dists = _row_stack(masses, p.steps + 1)
    return [StepReport(0, p.initial, position_distribution(p.initial))] + [
        StepReport(t, WalkerState._of(Row(t, rows[t])), dists[t]) for t in range(1, p.steps + 1)]


def hadamard_program(steps: int, initial: WalkerState) -> CoinProgram:
    """Homogeneous walk with theta = pi/4 everywhere, no final layer."""
    steps = _at_least(steps, 1, "steps")
    cells = AngleRows._of(np.full(steps * (steps + 1) // 2, math.pi / 4))
    return CoinProgram(steps=steps, cells=cells, initial=initial)


def circular_initial() -> WalkerState:
    """The symmetric-walk input (|0> + i|1>)/sqrt(2) at x = 0."""
    r = 1.0 / math.sqrt(2.0)
    return localized_state(r, r * 1j)


def mirror_state(s: WalkerState) -> WalkerState:
    """Spatial mirror x -> -x, which also swaps the coin components."""
    a, b = s.rows
    xs = [-x for x in reversed(s.amplitudes.xs)]
    return WalkerState(s.step, Row(s.step, (b[::-1], a[::-1]), xs), require_normalized=False)


def mirror_program(p: CoinProgram) -> CoinProgram:
    """The same dynamics under the opposite shift convention (a moves left).

    Running the mirrored program reproduces the original run with every
    position negated.
    """
    cells = AngleRows._of(np.concatenate([math.pi - row[::-1] for row in p.cells.rows]))
    final = None
    if p.final_layer is not None:
        final = {
            -x: GeneralCoinOp(op.m11, op.m10, op.m01, op.m00)
            for x, op in p.final_layer.items()
        }
    return CoinProgram(
        steps=p.steps,
        cells=cells,
        initial=mirror_state(p.initial),
        final_layer=final,
    )
