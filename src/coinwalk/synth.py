"""Inverse design: from a target distribution schedule to a coin program.

The forward recursion sends a(x, t) to position x+1 and b(x, t) to x-1,
so each child amplitude has exactly one parent cell and the squared
amplitudes obey flux conservation:

    a^2(x+1, t+1) + b^2(x-1, t+1) = a^2(x, t) + b^2(x, t) = P(x, t).

That identity forces a unique nonnegative amplitude plan for any feasible
schedule. Rows are dense arrays indexed by i = (x + t) / 2: each row of
b^2 is one prefix sum of target differences, and the coin angles of all
cells follow from one arctan2. The built-in Gaussian (binomial) and uniform programs are
synthesized from their schedules like any other, and every schedule
program ends in a disentangling layer that factors the coin out to |0>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    ClosureError,
    DomainError,
    InconsistentPlanError,
    InfeasibleScheduleError,
    UnsupportedStateError,
    ZeroCellError,
)
from .state import (
    CoinOp,
    CoinProgram,
    DistributionSchedule,
    GeneralCoinOp,
    WalkerState,
    localized_state,
    support,
)

PLAN_TOL = 1e-12
CLOSURE_TOL = 1e-9
PYTHAGOREAN_TOL = 1e-6

# Coin assigned to cells carrying zero probability: any unitary acts
# trivially there, a fixed choice keeps outputs byte-stable.
ZERO_CELL_ANGLE = math.pi / 4


@dataclass(frozen=True)
class AmplitudePlan:
    """Real amplitude rows a[t][i], b[t][i] at x = 2i - t, t = 0..steps,
    with a^2 + b^2 = P(x, t)."""

    steps: int
    a: tuple[np.ndarray, ...]
    b: tuple[np.ndarray, ...]

    def __post_init__(self):
        a = tuple(np.asarray(row, dtype=float) for row in self.a)
        b = tuple(np.asarray(row, dtype=float) for row in self.b)
        shapes = [(t + 1,) for t in range(self.steps + 1)]
        if [r.shape for r in a] != shapes or [r.shape for r in b] != shapes:
            raise DomainError(f"plan rows must have lengths 1..{self.steps + 1}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def pair(self, t: int, x: int) -> tuple[float, float]:
        if not (0 <= t <= self.steps and x in support(t)):
            return (0.0, 0.0)
        i = (x + t) // 2
        return (float(self.a[t][i]), float(self.b[t][i]))

    def mass(self, t: int, x: int) -> float:
        a, b = self.pair(t, x)
        return a * a + b * b


def _row(sched: DistributionSchedule, t: int) -> np.ndarray:
    return np.array([sched.prob(t, x) for x in support(t)])


def plan_amplitudes(sched: DistributionSchedule) -> AmplitudePlan:
    """Solve the unique nonnegative amplitude flow realizing a schedule.

    The leftmost position of step t+1 is reachable only by left-movers,
    and flux conservation at each parent fixes the next a and the target
    row the next b, so each row of b^2 is one prefix sum of differences:

        b^2 = cumsum(q - [0, p]),   a^2 = [0, p - b^2[:-1]]

    with p, q the target rows of steps t and t+1. Raises
    InfeasibleScheduleError at the first negative square in (t, x)
    order, or ClosureError if the right edge misses the target row.
    """
    # Step 0 is localized at x = 0 with the coin in |0>; the entry angle
    # theta(0, 0) absorbs any split, so a = sqrt(P(0,0)) = 1, b = 0.
    p = _row(sched, 0)
    a_rows, b_rows = [np.sqrt(p)], [np.zeros(1)]
    for t in range(1, sched.steps + 1):
        q = _row(sched, t)
        b_sq = np.cumsum(q - np.concatenate(([0.0], p)))
        a_sq = np.concatenate(([0.0], p - b_sq[:-1]))
        # Rightmost position is reachable only by right-movers.
        b_sq[-1] = 0.0
        if min(a_sq.min(), b_sq.min()) < -PLAN_TOL:
            i = int(np.argmax((a_sq < -PLAN_TOL) | (b_sq < -PLAN_TOL)))
            name, value = ("a", a_sq[i]) if a_sq[i] < -PLAN_TOL else ("b", b_sq[i])
            x = 2 * i - t
            raise InfeasibleScheduleError(
                f"no nonnegative flow: {name}^2({x},{t}) = {float(value)!r}",
                cell=(t, x),
            )
        a_sq = np.maximum(a_sq, 0.0)
        if abs(a_sq[-1] - q[-1]) > CLOSURE_TOL:
            raise ClosureError(
                f"right-edge closure at step {t}: "
                f"a^2({t},{t}) = {float(a_sq[-1])!r} but P = {float(q[-1])!r}",
                cell=(t, t),
            )
        a_rows.append(np.sqrt(a_sq))
        b_rows.append(np.sqrt(np.maximum(b_sq, 0.0)))
        p = q
    return AmplitudePlan(steps=sched.steps, a=tuple(a_rows), b=tuple(b_rows))


def synthesize_coins(plan: AmplitudePlan) -> CoinProgram:
    """Coin program reproducing an amplitude plan under the forward walk.

    Each cell angle follows from the plan and its two child amplitudes,
    one vectorized formula over every cell:

        cos theta = (a a' - b b'') / (a^2 + b^2),
        sin theta = (b a' + a b'') / (a^2 + b^2),

    with a' = a(x+1, t+1) and b'' = b(x-1, t+1). Flux conservation makes
    every pair satisfy cos^2 + sin^2 = 1; a violation beyond 1e-6 means
    the plan is inconsistent and raises InconsistentPlanError.
    """
    a0, b0 = plan.pair(0, 0)
    initial = localized_state(a0, b0)
    keys = [(t, x) for t in range(plan.steps) for x in support(t)]
    # Every cell of steps 0..steps-1 next to its children, row after row.
    a, b = np.concatenate(plan.a[:-1]), np.concatenate(plan.b[:-1])
    a_child = np.concatenate([row[1:] for row in plan.a[1:]])
    b_child = np.concatenate([row[:-1] for row in plan.b[1:]])
    m = a * a + b * b
    empty = m < 1e-15
    m[empty] = 1.0
    c = (a * a_child - b * b_child) / m
    s = (b * a_child + a * b_child) / m
    r = c * c + s * s
    orphan = empty & ((np.abs(a_child) > 1e-9) | (np.abs(b_child) > 1e-9))
    bad = orphan | (~empty & (np.abs(r - 1.0) > PYTHAGOREAN_TOL))
    if bad.any():
        i = int(np.argmax(bad))
        t, x = keys[i]
        if orphan[i]:
            raise ZeroCellError(
                f"cell ({t},{x}) carries no probability but feeds "
                f"nonzero children"
            )
        raise InconsistentPlanError(
            f"cell ({t},{x}): cos^2 + sin^2 = {float(r[i])!r}; the plan "
            f"violates flux conservation"
        )
    theta = np.clip(np.arctan2(s, c), 0.0, math.pi)
    theta[empty] = ZERO_CELL_ANGLE
    cells = {key: CoinOp(th) for key, th in zip(keys, theta.tolist())}
    return CoinProgram(steps=plan.steps, cells=cells, initial=initial)


def disentangle_layer(s: WalkerState) -> dict[int, GeneralCoinOp]:
    """Per-position coins (1/N)[[a, b], [b, -a]] sending each pair to (N, 0).

    Requires real amplitudes (within 1e-9). A zero-norm position
    (N <= 1e-12) gets the diagonal coin diag(1, -1), since any orthogonal
    coin leaves a zero pair at zero. Applying the layer leaves walker-only
    amplitudes sqrt(P(x, t)).
    """
    layer = {}
    for x, (a, b) in s.amplitudes.items():
        if abs(a.imag) > 1e-9 or abs(b.imag) > 1e-9:
            raise UnsupportedStateError(
                f"position {x} has complex amplitudes; disentangling coins "
                f"are defined for real-amplitude states"
            )
        ar, br = a.real, b.real
        n = math.hypot(ar, br)
        if n <= 1e-12:
            layer[x] = GeneralCoinOp(1.0, 0.0, 0.0, -1.0)
        else:
            layer[x] = GeneralCoinOp(ar / n, br / n, br / n, -ar / n)
    return layer


def schedule_program(sched: DistributionSchedule) -> CoinProgram:
    """Synthesized program realizing a schedule, ending in the
    disentangling layer that leaves walker amplitudes sqrt(P(x, steps))."""
    plan = plan_amplitudes(sched)
    t = plan.steps
    last = WalkerState(
        step=t,
        amplitudes=dict(zip(support(t), zip(plan.a[t].tolist(), plan.b[t].tolist()))),
        require_normalized=False,
    )
    return replace(synthesize_coins(plan), final_layer=disentangle_layer(last))


def binomial_schedule(steps: int) -> DistributionSchedule:
    """Rows P(x, t) = C(t, (t+x)/2) / 2^t, the classical-walk profile."""
    rows = {}
    for t in range(steps + 1):
        rows[t] = {x: math.comb(t, (t + x) // 2) / 2.0 ** t
                   for x in range(-t, t + 1, 2)}
    return DistributionSchedule(steps=steps, rows=rows)


def uniform_schedule(steps: int) -> DistributionSchedule:
    """Rows P(x, t) = 1/(t+1) over the t+1 admissible positions."""
    rows = {}
    for t in range(steps + 1):
        rows[t] = {x: 1.0 / (t + 1) for x in range(-t, t + 1, 2)}
    return DistributionSchedule(steps=steps, rows=rows)


def gaussian_program(steps: int) -> CoinProgram:
    """Program steering |0>|0> to the binomial distribution at every step."""
    return schedule_program(binomial_schedule(steps))


def uniform_program(steps: int) -> CoinProgram:
    """Program steering |0>|0> to the flat distribution 1/(t+1) at every step."""
    return schedule_program(uniform_schedule(steps))
