"""Inverse design: from a target distribution schedule to a coin program.

The forward recursion sends a(x, t) to position x+1 and b(x, t) to x-1,
so each child amplitude has exactly one parent cell and the squared
amplitudes obey flux conservation:

    a^2(x+1, t+1) + b^2(x-1, t+1) = a^2(x, t) + b^2(x, t) = P(x, t).

That identity forces a unique nonnegative amplitude plan for any feasible
schedule. Rows are dense arrays indexed by i = (x + t) / 2, the rows of
each amplitude views of one array that holds them end to end, swept in
blocks of steps with one 2-D cumsum per block: each row of b^2 is its own
left-to-right prefix sum of target differences, and the coin angles of a
block's cells follow from one arctan2. The built-in Gaussian (binomial) and uniform programs are
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
    _PLAN_BLOCK,
    _at_least,
    _column,
    _iterable,
    _require_finite_rows,
    _row_stack,
    _row_views,
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
    with a^2 + b^2 = P(x, t). The rows of each amplitude are read-only
    views of one array that holds them end to end in (t, x) order."""

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
        a, b = np.concatenate(self.a), np.concatenate(self.b)
        _require_finite_rows(a, b)
        vars(self).update(vars(AmplitudePlan._of(self.steps, a, b)))  # the rows as views of a, b

    @classmethod
    def _of(cls, steps: int, a: np.ndarray, b: np.ndarray) -> AmplitudePlan:
        """The plan of the rows end to end that ``_plan`` made and checked, not read again."""
        plan = object.__new__(cls)
        rows = (tuple(_row_views(flat, steps + 1)) for flat in (a, b))
        vars(plan).update(zip("ab", rows), steps=steps, _flat=(a, b))  # frozen: no __setattr__
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

    with p, q the target rows of steps t and t+1. The steps are swept in
    row blocks of ``_PLAN_BLOCK``, each one zero-padded matrix and one 2-D
    cumsum, in which every row is its own left-to-right sum. Raises
    InfeasibleScheduleError at the first negative square in (t, x)
    order, or ClosureError if the right edge misses the target row.
    """
    return AmplitudePlan._of(sched.steps, *_plan(sched))


def _plan(sched: DistributionSchedule) -> tuple[np.ndarray, np.ndarray]:
    """The rows a, b of plan_amplitudes laid end to end, checked finite: new, writable arrays."""
    n = (sched.steps + 1) * (sched.steps + 2) // 2
    a, b = np.empty(n), np.zeros(n)
    # Step 0 is localized at x = 0 with the coin in |0>; the entry angle
    # theta(0, 0) absorbs any split, so a = sqrt(P(0,0)) = 1, b = 0.
    np.sqrt(_row(sched, 0), out=a[:1])
    for t0 in range(1, sched.steps + 1, _PLAN_BLOCK):
        ts = np.arange(t0 - 1, min(t0 + _PLAN_BLOCK, sched.steps + 1))
        inside = np.arange(ts[-1] + 1) <= ts[:, None]  # the cells of each step's row
        # Target rows t0-1.. after a zero column, zero-padded on the right.
        m = np.zeros((ts.size, ts[-1] + 2))
        m[:, 1:][inside] = np.concatenate([_row(sched, t) for t in ts])
        q, p, ts, inside = m[1:, 1:], m[:-1, :-1], ts[1:], inside[1:]  # q and [0, p] of step t
        b_sq = np.cumsum(q - p, axis=1)
        a_sq = p.copy()
        a_sq[:, 1:] -= b_sq[:, :-1]
        # Rightmost position is reachable only by right-movers.
        b_sq[np.arange(ts.size), ts] = 0.0
        a_sq, b_sq, q = a_sq[inside], b_sq[inside], q[inside]  # the rows end to end
        ends = np.cumsum(ts + 1)
        starts = ends - ts - 1
        negative = (a_sq < -PLAN_TOL) | (b_sq < -PLAN_TOL)
        a_pos = np.maximum(a_sq, 0.0)
        unclosed = abs(a_pos[ends - 1] - q[ends - 1]) > CLOSURE_TOL
        failing = np.logical_or.reduceat(negative, starts) | unclosed
        if failing.any():  # the first failing step; in it, a negative square before closure
            r = int(np.argmax(failing))
            t, row = int(ts[r]), slice(starts[r], ends[r])
            a_sq, b_sq, a_pos, q = a_sq[row], b_sq[row], a_pos[row], q[row]
            if negative[row].any():
                i = int(np.argmax(negative[row]))
                name, value = ("a", a_sq[i]) if a_sq[i] < -PLAN_TOL else ("b", b_sq[i])
                x = 2 * i - t
                raise InfeasibleScheduleError(
                    f"no nonnegative flow: {name}^2({x},{t}) = {float(value)!r}",
                    cell=(t, x),
                )
            raise ClosureError(
                f"right-edge closure at step {t}: "
                f"a^2({t},{t}) = {float(a_pos[-1])!r} but P = {float(q[-1])!r}",
                cell=(t, t),
            )
        cells = slice(t0 * (t0 + 1) // 2, t0 * (t0 + 1) // 2 + a_pos.size)  # steps ts, end to end
        np.sqrt(a_pos, out=a[cells])
        np.sqrt(np.maximum(b_sq, 0.0), out=b[cells])
    _require_finite_rows(a, b)
    return a, b


def synthesize_coins(plan: AmplitudePlan) -> CoinProgram:
    """Coin program reproducing an amplitude plan under the forward walk.

    Each cell angle follows from the plan and its two child amplitudes,
    one vectorized formula over the cells of each block of steps:

        cos theta = (a a' - b b'') / (a^2 + b^2),
        sin theta = (b a' + a b'') / (a^2 + b^2),

    with a' = a(x+1, t+1) and b'' = b(x-1, t+1). Flux conservation makes
    every pair satisfy cos^2 + sin^2 = 1; a violation beyond 1e-6 means
    the plan is inconsistent and raises InconsistentPlanError.
    """
    return _synthesized(plan.steps, *plan._flat, None)


def _synthesized(steps: int, a: np.ndarray, b: np.ndarray, final_layer: dict | None,
                 theta: np.ndarray | None = None) -> CoinProgram:
    """synthesize_coins of the plan rows a, b laid end to end, its program ending in
    ``final_layer``, built and checked once. The angles go into a new array or into ``theta``,
    which may be ``a``: each block of rows is read before its angles are written there."""
    initial = localized_state(float(a[0]), float(b[0]))
    n = steps * (steps + 1) // 2
    theta = np.empty(n) if theta is None else theta[:n]
    for t0 in range(0, steps, _PLAN_BLOCK):
        t1 = min(t0 + _PLAN_BLOCK, steps)
        lo, hi = t0 * (t0 + 1) // 2, t1 * (t1 + 1) // 2
        # Cell k of step t has its children b'' = b(x-1, t+1) at k + t + 1 and a' = a(x+1, t+1)
        # next to it.
        k = np.arange(lo, hi) + np.repeat(np.arange(t0 + 1, t1 + 1), np.arange(t0 + 1, t1 + 1))
        pa, pb, a_child, b_child = a[lo:hi], b[lo:hi], a[k + 1], b[k]
        m = pa * pa + pb * pb
        empty = m < 1e-15
        m[empty] = 1.0
        c = (pa * a_child - pb * b_child) / m
        s = (pb * a_child + pa * b_child) / m
        r = c * c + s * s
        orphan = empty & ((np.abs(a_child) > 1e-9) | (np.abs(b_child) > 1e-9))
        bad = orphan | (~empty & (np.abs(r - 1.0) > PYTHAGOREAN_TOL))
        if bad.any():
            i = int(np.argmax(bad))
            t, x = cell_at(lo + i)
            if orphan[i]:
                raise ZeroCellError(f"cell ({t},{x}) carries no probability but feeds "
                                    "nonzero children")
            raise InconsistentPlanError(f"cell ({t},{x}): cos^2 + sin^2 = {float(r[i])!r}; "
                                        "the plan violates flux conservation")
        angles = theta[lo:hi]
        np.clip(np.arctan2(s, c), 0.0, math.pi, out=angles)
        angles[empty] = ZERO_CELL_ANGLE
    return CoinProgram(steps, AngleRows._of(theta), initial, final_layer)


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
    t, (a, b) = sched.steps, _plan(sched)
    last = Row(t, (a[-t - 1:].astype(complex), b[-t - 1:].astype(complex)))
    # The angles overwrite the rows of a as synthesis reads them: no second array that size.
    return _synthesized(t, a, b, disentangle_layer(WalkerState._of(last)), a)


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
    return DistributionSchedule._of(_row_stack(np.repeat(1.0 / n, n), steps + 1))


def gaussian_program(steps: int) -> CoinProgram:
    """Program steering |0>|0> to the binomial distribution at every step."""
    return schedule_program(binomial_schedule(steps))


def uniform_program(steps: int) -> CoinProgram:
    """Program steering |0>|0> to the flat distribution 1/(t+1) at every step."""
    return schedule_program(uniform_schedule(steps))
