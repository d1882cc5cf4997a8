"""Forward evolution: coin layers, the conditional shift, and program runs.

Shift convention: the coin-|0> amplitude a(x, t) feeds position x+1 and the
coin-|1> amplitude b(x, t) feeds x-1. The mirror convention (a moves left)
is available through :func:`mirror_program`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import IncompleteLayerError
from .state import (
    CoinOp,
    CoinProgram,
    GeneralCoinOp,
    WalkerState,
    localized_state,
    position_distribution,
    support,
)


@dataclass(frozen=True)
class StepReport:
    """Per-step monitoring record: state plus its position distribution."""

    step: int
    state: WalkerState
    distribution: dict[int, float]


def apply_coin_layer(
    s: WalkerState, layer: dict[int, CoinOp | GeneralCoinOp]
) -> WalkerState:
    """Apply a position-dependent coin to every occupied position.

    Raises IncompleteLayerError if the layer misses an occupied position.
    """
    new_amps = {}
    for x, pair in s.amplitudes.items():
        coin = layer.get(x)
        if coin is None:
            raise IncompleteLayerError(
                f"layer has no coin at occupied position {x} (step {s.step})"
            )
        new_amps[x] = coin.apply(pair)
    return WalkerState(step=s.step, amplitudes=new_amps, require_normalized=False)


def apply_shift(s: WalkerState) -> WalkerState:
    """Conditional shift: a(x) -> a(x+1), b(x) -> b(x-1), step t -> t+1."""
    new_amps: dict[int, list[complex]] = {}
    for x, (a, b) in s.amplitudes.items():
        new_amps.setdefault(x + 1, [0j, 0j])[0] = a
        new_amps.setdefault(x - 1, [0j, 0j])[1] = b
    amps = {x: (a, b) for x, (a, b) in new_amps.items()}
    return WalkerState(step=s.step + 1, amplitudes=amps, require_normalized=False)


def step(s: WalkerState, coins_at_t: dict[int, CoinOp]) -> WalkerState:
    """One full evolution step: coin layer followed by the shift."""
    return apply_shift(apply_coin_layer(s, coins_at_t))


def _damped_step(
    s: WalkerState, coins_at_t: dict[int, CoinOp], right_damping: float
) -> WalkerState:
    """:func:`step` with every right-moving (coin-|0>) amplitude scaled by
    ``right_damping`` between the coin layer and the shift."""
    s = apply_coin_layer(s, coins_at_t)
    damped = {x: (right_damping * a, b) for x, (a, b) in s.amplitudes.items()}
    return apply_shift(WalkerState(step=s.step, amplitudes=damped, require_normalized=False))


def run_program(p: CoinProgram) -> list[StepReport]:
    """Run a program from its initial state, reporting every step.

    Returns steps+1 reports including t = 0. When the program carries a
    final disentangling layer, it is applied (coin only, no shift) before
    the last report, so the last state has every pair of the form (r, 0).
    """
    s = p.initial
    reports = [StepReport(0, s, position_distribution(s))]
    for t in range(p.steps):
        s = step(s, p.layer(t))
        if t == p.steps - 1 and p.final_layer is not None:
            s = apply_coin_layer(s, p.final_layer)
        reports.append(StepReport(t + 1, s, position_distribution(s)))
    return reports


def hadamard_program(steps: int, initial: WalkerState) -> CoinProgram:
    """Homogeneous walk with theta = pi/4 everywhere, no final layer."""
    theta = math.pi / 4
    cells = {(t, x): CoinOp(theta) for t in range(steps) for x in support(t)}
    return CoinProgram(steps=steps, cells=cells, initial=initial)


def circular_initial() -> WalkerState:
    """The symmetric-walk input (|0> + i|1>)/sqrt(2) at x = 0."""
    r = 1.0 / math.sqrt(2.0)
    return localized_state(r, r * 1j)


def mirror_state(s: WalkerState) -> WalkerState:
    """Spatial mirror x -> -x, which also swaps the coin components."""
    return WalkerState(
        step=s.step,
        amplitudes={-x: (b, a) for x, (a, b) in s.amplitudes.items()},
        require_normalized=False,
    )


def mirror_program(p: CoinProgram) -> CoinProgram:
    """The same dynamics under the opposite shift convention (a moves left).

    Running the mirrored program reproduces the original run with every
    position negated.
    """
    cells = {(t, -x): CoinOp(math.pi - op.theta) for (t, x), op in p.cells.items()}
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
