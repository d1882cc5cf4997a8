"""Inverse design: from a target distribution schedule to a coin program.

The forward recursion sends a(x, t) to position x+1 and b(x, t) to x-1,
so each child amplitude has exactly one parent cell and the squared
amplitudes obey flux conservation:

    a^2(x+1, t+1) + b^2(x-1, t+1) = a^2(x, t) + b^2(x, t) = P(x, t).

That identity forces a unique nonnegative amplitude plan for any feasible
schedule (left-to-right sweep), from which the coin angles follow in
closed form. Closed-form Gaussian (binomial) and uniform programs are
provided as built-ins, with a final disentangling layer that factors the
coin out to |0>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import (
    ClosureError,
    DegenerateCellError,
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
)

PLAN_TOL = 1e-12
CLOSURE_TOL = 1e-9
PYTHAGOREAN_TOL = 1e-6
UNITARITY_TOL = 1e-9

# Coin assigned to cells carrying zero probability: any unitary acts
# trivially there, a fixed choice keeps outputs byte-stable.
ZERO_CELL_ANGLE = math.pi / 4


@dataclass(frozen=True)
class AmplitudePlan:
    """Real amplitude pair (a, b) per (t, x) cell with a^2 + b^2 = P(x, t)."""

    steps: int
    cells: dict[tuple[int, int], tuple[float, float]]

    def pair(self, t: int, x: int) -> tuple[float, float]:
        return self.cells.get((t, x), (0.0, 0.0))

    def mass(self, t: int, x: int) -> float:
        a, b = self.pair(t, x)
        return a * a + b * b


def plan_amplitudes(sched: DistributionSchedule) -> AmplitudePlan:
    """Solve the unique nonnegative amplitude flow realizing a schedule.

    Sweeps each row left to right: the leftmost position of step t+1 is
    reachable only by left-movers, fixing b there; flux conservation at
    each parent then fixes the next a, and the target row fixes the next
    b. Raises InfeasibleScheduleError at the first negative square, or
    ClosureError if the right edge misses the target row.
    """
    cells: dict[tuple[int, int], tuple[float, float]] = {}
    # Step 0 is localized at x = 0 with the coin in |0>; the entry angle
    # theta(0, 0) absorbs any split, so a = sqrt(P(0,0)) = 1, b = 0.
    cells[(0, 0)] = (math.sqrt(sched.prob(0, 0)), 0.0)

    for t in range(sched.steps):
        a_sq: dict[int, float] = {}
        b_sq: dict[int, float] = {-t - 1: sched.prob(t + 1, -t - 1)}
        a_sq[-t - 1] = 0.0
        for x in range(-t, t + 1, 2):  # parent positions at step t
            asq = sched.prob(t, x) - b_sq[x - 1]
            if asq < -PLAN_TOL:
                raise InfeasibleScheduleError(
                    f"no nonnegative flow: a^2({x + 1},{t + 1}) = {asq!r}",
                    cell=(t + 1, x + 1),
                )
            a_sq[x + 1] = max(asq, 0.0)
            if x + 1 <= t:
                bsq = sched.prob(t + 1, x + 1) - a_sq[x + 1]
                if bsq < -PLAN_TOL:
                    raise InfeasibleScheduleError(
                        f"no nonnegative flow: b^2({x + 1},{t + 1}) = {bsq!r}",
                        cell=(t + 1, x + 1),
                    )
                b_sq[x + 1] = max(bsq, 0.0)
            else:
                # Rightmost position is reachable only by right-movers.
                if abs(a_sq[x + 1] - sched.prob(t + 1, x + 1)) > CLOSURE_TOL:
                    raise ClosureError(
                        f"right-edge closure at step {t + 1}: "
                        f"a^2({t + 1},{t + 1}) = {a_sq[x + 1]!r} but "
                        f"P = {sched.prob(t + 1, x + 1)!r}",
                        cell=(t + 1, t + 1),
                    )
                b_sq[x + 1] = 0.0
        for x in range(-t - 1, t + 2, 2):
            cells[(t + 1, x)] = (math.sqrt(a_sq.get(x, 0.0)), math.sqrt(b_sq.get(x, 0.0)))
    return AmplitudePlan(steps=sched.steps, cells=cells)


def _angle_from_pair(c: float, s: float) -> float:
    theta = math.atan2(s, c)
    return min(max(theta, 0.0), math.pi)


def synthesize_coins(plan: AmplitudePlan) -> CoinProgram:
    """Coin program reproducing an amplitude plan under the forward walk.

    Each cell angle follows from the plan and its two child amplitudes:

        cos theta = (a a' - b b'') / (a^2 + b^2),
        sin theta = (b a' + a b'') / (a^2 + b^2),

    with a' = a(x+1, t+1) and b'' = b(x-1, t+1). Flux conservation makes
    every pair satisfy cos^2 + sin^2 = 1; a violation beyond 1e-6 means
    the plan is inconsistent and raises InconsistentPlanError.
    """
    a0, b0 = plan.pair(0, 0)
    initial = localized_state(a0, b0)
    cells: dict[tuple[int, int], CoinOp] = {}
    for t in range(plan.steps):
        for x in range(-t, t + 1, 2):
            a, b = plan.pair(t, x)
            m = a * a + b * b
            a_child, _ = plan.pair(t + 1, x + 1)
            _, b_child = plan.pair(t + 1, x - 1)
            if m < 1e-15:
                if abs(a_child) > 1e-9 or abs(b_child) > 1e-9:
                    raise ZeroCellError(
                        f"cell ({t},{x}) carries no probability but feeds "
                        f"nonzero children"
                    )
                cells[(t, x)] = CoinOp(ZERO_CELL_ANGLE)
                continue
            c = (a * a_child - b * b_child) / m
            s = (b * a_child + a * b_child) / m
            r = c * c + s * s
            if abs(r - 1.0) > PYTHAGOREAN_TOL:
                raise InconsistentPlanError(
                    f"cell ({t},{x}): cos^2 + sin^2 = {r!r}; the plan "
                    f"violates flux conservation"
                )
            cells[(t, x)] = CoinOp(_angle_from_pair(c, s))
    return CoinProgram(steps=plan.steps, cells=cells, initial=initial)


def disentangle_layer(s: WalkerState) -> dict[int, GeneralCoinOp]:
    """Per-position coins (1/N)[[a, b], [b, -a]] sending each pair to (N, 0).

    Requires real amplitudes (within 1e-9) and nonzero norm at every
    occupied position. Applying the layer leaves walker-only amplitudes
    sqrt(P(x, t)).
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
            raise DegenerateCellError(f"position {x} has zero norm")
        layer[x] = GeneralCoinOp(ar / n, br / n, br / n, -ar / n)
    return layer


def _final_layer_from_plan(plan: AmplitudePlan) -> dict[int, GeneralCoinOp]:
    t = plan.steps
    layer = {}
    for x in range(-t, t + 1, 2):
        a, b = plan.pair(t, x)
        n = math.hypot(a, b)
        if n <= 1e-12:
            raise DegenerateCellError(f"final-row cell ({t},{x}) has zero norm")
        layer[x] = GeneralCoinOp(a / n, b / n, b / n, -a / n)
    return layer


def schedule_program(sched: DistributionSchedule) -> CoinProgram:
    """Synthesized program realizing a schedule, ending in the
    disentangling layer that leaves walker amplitudes sqrt(P(x, steps))."""
    plan = plan_amplitudes(sched)
    return replace(synthesize_coins(plan), final_layer=_final_layer_from_plan(plan))


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


def gaussian_closed_form(t: int, x: int) -> tuple[float, float]:
    """Closed-form (cos, sin) of the binomial-target coin at (t >= 1, x)."""
    u = math.sqrt(1.0 + x / t)
    v = math.sqrt(1.0 - x / t)
    return 0.5 * (u - v), 0.5 * (u + v)


def uniform_closed_form(t: int, x: int) -> tuple[float, float]:
    """Closed-form (cos, sin) of the uniform-target coin at (t >= 1, x).

    Non-unitary at |x| = t (sum of squares exceeds 1); callers must fall
    back to the synthesized value there.
    """
    d = t * (t + 2)
    u = math.sqrt((t + x) * (t + x + 2) / d)
    v = math.sqrt((t - x) * (t - x + 2) / d)
    return 0.5 * (u - v), 0.5 * (u + v)


def _closed_form_program(steps: int, closed_form) -> CoinProgram:
    """Closed-form cells where unitary, synthesized cells elsewhere."""
    if closed_form is gaussian_closed_form:
        sched = binomial_schedule(steps)
    else:
        sched = uniform_schedule(steps)
    synthesized = schedule_program(sched)
    cells = {(0, 0): CoinOp(math.pi / 4)}
    for t in range(1, steps):
        for x in range(-t, t + 1, 2):
            c, s = closed_form(t, x)
            if abs(c * c + s * s - 1.0) <= UNITARITY_TOL:
                cells[(t, x)] = CoinOp(_angle_from_pair(c, s))
            else:
                cells[(t, x)] = synthesized.cells[(t, x)]
    return replace(synthesized, cells=cells)


def gaussian_program(steps: int) -> CoinProgram:
    """Program steering |0>|0> to the binomial distribution at every step."""
    return _closed_form_program(steps, gaussian_closed_form)


def uniform_program(steps: int) -> CoinProgram:
    """Program steering |0>|0> to the flat distribution 1/(t+1) at every step."""
    return _closed_form_program(steps, uniform_closed_form)
