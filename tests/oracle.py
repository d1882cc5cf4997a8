"""Independent reference implementation used to cross-check the engine.

Evolves the walk by evaluating the amplitude recursion directly on dense
arrays indexed by (x + t) / 2, with no shared code with the package's
sparse layer/shift machinery.
"""

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
