"""Forward evolution: coin layers, the conditional shift, and program runs.

Shift convention: the coin-|0> amplitude a(x, t) feeds position x+1 and the
coin-|1> amplitude b(x, t) feeds x-1. The mirror convention (a moves left)
is available through :func:`mirror_program`. States, coin layers, shifts
and whole programs all run on the dense rows at x = 2i - t; ``_rows`` is
the one kernel that steps a program.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IncompleteLayerError
from .state import (
    AngleRows,
    CoinOp,
    CoinProgram,
    GeneralCoinOp,
    Row,
    WalkerState,
    _masses,
    cell_at,
    localized_state,
    position_distribution,
    row_stack,
)


@dataclass(frozen=True)
class StepReport:
    """Per-step monitoring record: state plus its position distribution."""

    step: int
    state: WalkerState
    distribution: Row


def apply_coin_layer(
    s: WalkerState, layer: dict[int, CoinOp | GeneralCoinOp]
) -> WalkerState:
    """Apply a position-dependent coin to every occupied position.

    Raises IncompleteLayerError if the layer misses an occupied position.
    """
    entries = []
    for x in s.amplitudes.xs:
        coin = layer.get(x)
        if coin is None:
            raise IncompleteLayerError(
                f"layer has no coin at occupied position {x} (step {s.step})"
            )
        entries.append(_entries(coin))
    # A zero coin at the other positions keeps their zero amplitudes.
    m = np.zeros((s.step + 1, 4))
    if entries:
        m[s.amplitudes.index()] = entries
    (m00, m01, m10, m11), (a, b) = m.T, s.rows
    rows = m00 * a + m01 * b, m10 * a + m11 * b
    return WalkerState(s.step, Row(s.step, rows, s.amplitudes.xs), require_normalized=False)


def _entries(coin: CoinOp | GeneralCoinOp) -> tuple[float, float, float, float]:
    """The coin's matrix entries m00, m01, m10, m11, as in its ``matrix``."""
    if isinstance(coin, CoinOp):
        c, s = math.cos(coin.theta), math.sin(coin.theta)
        return c, s, s, -c
    return coin.m00, coin.m01, coin.m10, coin.m11


def _shift(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows at step t+1 of the conditional shift of rows a, b at step t."""
    return np.append(0j, a), np.append(b, 0j)


def apply_shift(s: WalkerState) -> WalkerState:
    """Conditional shift: a(x) -> a(x+1), b(x) -> b(x-1), step t -> t+1."""
    xs = None  # every position of the next step
    if not s.amplitudes.dense:
        xs = sorted({x + d for x in s.amplitudes.xs for d in (-1, 1)})
    t = s.step + 1
    return WalkerState(t, Row(t, _shift(*s.rows), xs), require_normalized=False)


def step(s: WalkerState, coins_at_t: dict[int, CoinOp]) -> WalkerState:
    """One full evolution step: coin layer followed by the shift."""
    return apply_shift(apply_coin_layer(s, coins_at_t))


def _rows(p: CoinProgram, steps: int, right_damping: float = 1.0):
    """Rows a, b at x = 2i - t for t = 0..steps, every right-move scaled by ``right_damping``."""
    a, b = p.initial.rows
    yield a, b
    for t in range(steps):
        theta = p.cells.rows[t]
        c, s = np.cos(theta), np.sin(theta)
        a, b = _shift(right_damping * (c * a + s * b), s * a - c * b)
        yield a, b


def run_program(p: CoinProgram) -> list[StepReport]:
    """Run a program from its initial state, reporting every step.

    Returns steps+1 reports including t = 0. When the program carries a
    final disentangling layer, it is applied (coin only, no shift) before
    the last report, so the last state has every pair of the form (r, 0).
    The states and distributions of steps 1..steps are views of one array
    of the run, and the masses of all steps are taken in one pass.
    """
    rows = list(_rows(p, p.steps))
    if p.final_layer is not None:
        rows[-1] = apply_coin_layer(WalkerState.from_rows(p.steps, *rows[-1]), p.final_layer).rows
    a, b = (np.concatenate(r) for r in zip(*rows))
    a.flags.writeable = b.flags.writeable = False
    finite = np.isfinite(a) & np.isfinite(b)
    if not finite.all():
        t = cell_at(int(np.argmin(finite)))[0]
        WalkerState.from_rows(t, *rows[t])  # names the first amplitude that overflowed
    real = not (np.count_nonzero(a.imag) or np.count_nonzero(b.imag))
    # Real parts give the same masses, from cheaper floats.
    dists = row_stack(np.fromiter(_masses(*((a.real, b.real) if real else (a, b))), float, a.size))
    reports = [StepReport(0, p.initial, position_distribution(p.initial))]
    for t in range(1, p.steps + 1):
        i, j = t * (t + 1) // 2, (t + 1) * (t + 2) // 2
        s = WalkerState._of(Row(t, (a[i:j], b[i:j])))
        reports.append(StepReport(t, s, dists[t]))
    return reports


def hadamard_program(steps: int, initial: WalkerState) -> CoinProgram:
    """Homogeneous walk with theta = pi/4 everywhere, no final layer."""
    cells = AngleRows(np.full(steps * (steps + 1) // 2, math.pi / 4))
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
    cells = AngleRows(np.concatenate([math.pi - row[::-1] for row in p.cells.rows]))
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
