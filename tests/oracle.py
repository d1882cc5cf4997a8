"""Independent reference implementation used to cross-check the engine.

Evolves the walk by evaluating the amplitude recursion directly on dense
arrays indexed by (x + t) / 2, with no shared code with the package's
sparse layer/shift machinery. Also holds the closed-form Gaussian and
uniform coins and an exact-arithmetic amplitude plan, so synthesis is
checked against references that share none of its code.
"""

import math
from fractions import Fraction

import numpy as np


def evolve(theta_of, initial_pair, steps, right_damping=1.0):
    """Direct evaluation of the amplitude recursion.

    theta_of(t, x) returns the coin angle; initial_pair is the (a, b)
    coin amplitude at x = 0, t = 0; every right-moving amplitude is
    multiplied by right_damping as it moves. Returns a list over
    t = 0..steps of dicts x -> (a, b).
    """
    a = np.array([initial_pair[0]], dtype=complex)
    b = np.array([initial_pair[1]], dtype=complex)
    out = [_to_dict(a, b, 0)]
    for t in range(steps):
        a_next = np.zeros(t + 2, dtype=complex)
        b_next = np.zeros(t + 2, dtype=complex)
        for i in range(t + 1):
            x = 2 * i - t
            th = theta_of(t, x)
            c, s = np.cos(th), np.sin(th)
            a_next[i + 1] = right_damping * (c * a[i] + s * b[i])
            b_next[i] = s * a[i] - c * b[i]
        a, b = a_next, b_next
        out.append(_to_dict(a, b, t + 1))
    return out


def _to_dict(a, b, t):
    return {2 * i - t: (complex(a[i]), complex(b[i])) for i in range(t + 1)}


def distribution(amps):
    return {x: abs(p[0]) ** 2 + abs(p[1]) ** 2 for x, p in amps.items()}


def gaussian_closed_form(t, x):
    """Closed-form (cos, sin) of the binomial-target coin at (t >= 1, x)."""
    u = math.sqrt(1.0 + x / t)
    v = math.sqrt(1.0 - x / t)
    return 0.5 * (u - v), 0.5 * (u + v)


def uniform_closed_form(t, x):
    """Closed-form (cos, sin) of the uniform-target coin at (t >= 1, x).

    Non-unitary at |x| > 0 (sum of squares 1 + x^2 / (t (t + 2))).
    """
    d = t * (t + 2)
    u = math.sqrt((t + x) * (t + x + 2) / d)
    v = math.sqrt((t - x) * (t - x + 2) / d)
    return 0.5 * (u - v), 0.5 * (u + v)


def closed_form_angle(c, s):
    """Coin angle in [0, pi] of a (cos, sin) pair."""
    return min(max(math.atan2(s, c), 0.0), math.pi)


def exact_plan_squares(prob, steps):
    """Exact (a^2, b^2) per (t, x) of the left-to-right flux sweep.

    prob(t, x) gives the target as a float; every float is taken exactly
    as a Fraction, so the only difference from a floating-point plan is
    the plan's own rounding. Returns a dict (t, x) -> (a^2, b^2).
    """
    out = {(0, 0): (Fraction(prob(0, 0)), Fraction(0))}
    for t in range(steps):
        b_sq = Fraction(prob(t + 1, -t - 1))
        out[(t + 1, -t - 1)] = (Fraction(0), b_sq)
        for x in range(-t, t + 1, 2):
            a_sq = Fraction(prob(t, x)) - b_sq
            b_sq = Fraction(prob(t + 1, x + 1)) - a_sq if x < t else Fraction(0)
            out[(t + 1, x + 1)] = (a_sq, b_sq)
    return out
