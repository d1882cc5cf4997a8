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
from dataclasses import dataclass
from itertools import count

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
    AngleRows,
    CoinProgram,
    DistributionSchedule,
    GeneralCoinOp,
    Row,
    WalkerState,
    _at_least,
    _column,
    _iterable,
    _require_finite_rows,
    cell_at,
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
        for n, rows in (("a", self.a), ("b", self.b)):
            rows = tuple(_column(r, float, f"{n}[{t}]",
                                 (f"amplitude {n}({x},{t})" for x in count(-t, 2)))
                         for t, r in enumerate(_iterable(rows, n)))
            if [r.size for r in rows] != list(range(1, self.steps + 2)):
                raise DomainError(f"plan rows must have lengths 1..{self.steps + 1}")
            object.__setattr__(self, n, rows)
        _require_finite_rows(np.concatenate(self.a), np.concatenate(self.b))

    @classmethod
    def _of(cls, steps: int, a: list[np.ndarray], b: list[np.ndarray]) -> AmplitudePlan:
        """The plan of the rows plan_amplitudes made: read-only, checked finite, not read again."""
        for row in (*a, *b):
            row.flags.writeable = False
        _require_finite_rows(np.concatenate(a), np.concatenate(b))
        plan = object.__new__(cls)
        vars(plan).update(steps=steps, a=tuple(a), b=tuple(b))  # frozen: no __setattr__
        return plan

    def pair(self, t: int, x: int) -> tuple[float, float]:
        if not (0 <= t <= self.steps and x in support(t)):
            return (0.0, 0.0)
        i = (x + t) // 2
        return (float(self.a[t][i]), float(self.b[t][i]))

    def mass(self, t: int, x: int) -> float:
        a, b = self.pair(t, x)
        return a * a + b * b


def _row(sched: DistributionSchedule, t: int) -> np.ndarray:
    """Row t of the schedule at x = 2i - t, zero where it has no entry."""
    row = sched.rows[t]
    if isinstance(row, Row):
        return row.columns[0]
    return np.array([row.get(x, 0.0) for x in support(t)])


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
    return AmplitudePlan._of(sched.steps, a_rows, b_rows)


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
    return _synthesized(plan, None)


def _synthesized(plan: AmplitudePlan, final_layer: dict[int, GeneralCoinOp] | None) -> CoinProgram:
    """synthesize_coins, its program ending in ``final_layer``: built and checked once."""
    a0, b0 = plan.pair(0, 0)
    initial = localized_state(a0, b0)
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
        t, x = cell_at(i)
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
    return CoinProgram(plan.steps, AngleRows(theta), initial, final_layer)


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
    last = Row(plan.steps, (plan.a[-1].astype(complex), plan.b[-1].astype(complex)))
    return _synthesized(plan, disentangle_layer(WalkerState._of(last)))


def binomial_schedule(steps: int) -> DistributionSchedule:
    """Rows P(x, t) = C(t, (t+x)/2) / 2^t, the classical-walk profile."""
    steps = _at_least(steps, 1, "steps")
    values = []
    comb = [1]  # C(t, k) for k = 0..t, exact, one Pascal row per step
    for t in range(steps + 1):
        # int / int is correctly rounded and, unlike 2.0 ** t, finite for t >= 1024.
        values += [c / (1 << t) for c in comb]
        comb = [a + b for a, b in zip([0, *comb], [*comb, 0])]
    return DistributionSchedule.from_rows(values)


def uniform_schedule(steps: int) -> DistributionSchedule:
    """Rows P(x, t) = 1/(t+1) over the t+1 admissible positions."""
    steps = _at_least(steps, 1, "steps")
    n = np.arange(1, steps + 2)
    return DistributionSchedule.from_rows(np.repeat(1.0 / n, n))


def gaussian_program(steps: int) -> CoinProgram:
    """Program steering |0>|0> to the binomial distribution at every step."""
    return schedule_program(binomial_schedule(steps))


def uniform_program(steps: int) -> CoinProgram:
    """Program steering |0>|0> to the flat distribution 1/(t+1) at every step."""
    return schedule_program(uniform_schedule(steps))
