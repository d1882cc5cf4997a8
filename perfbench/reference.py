"""Independent reference checks for the coinwalk benchmark (numpy only).

Nothing here imports ``coinwalk``: programs are read back from their text
form, walks are run by a dense sweep over rows indexed by i = (x + t) / 2,
and pulse timings and voltages follow from the loop's physical constants.
Each ``check_*`` function raises :class:`Mismatch` naming the first
disagreement it finds.
"""

from __future__ import annotations

import math

import numpy as np

# Agreement required between the package and the dense sweep, per cell.
DIST_TOL = 1e-9
# Theory columns and scores are exact floats computed two ways.
EXACT_TOL = 1e-12

# Default loop geometry (ns) and modulator anchors (phase rad, volt).
T_NS = 72.9
DT_NS = 2.3
SAGNAC_NS = 39.1
ANCHORS = ((math.pi / 4, 0.127), (math.pi / 2, 0.263), (3 * math.pi / 4, 0.392))
# Pulse CSV fields carry 4 decimals, so each is off by at most half a unit.
CSV_HALF_UNIT = 0.5e-4
CSV_HEADER = "time_ns,voltage_v,width_ns,step,position,arm"

EMULATE_FILES = (
    "fig2a.txt", "fig2b.txt", "fig2c.txt", "fig3a.txt", "fig3b.txt",
    "fig4.txt", "table1.txt", "table2.txt",
)


class Mismatch(Exception):
    """The package's output disagrees with the reference."""


def binomial_row(t: int) -> np.ndarray:
    return np.array([math.comb(t, k) / 2.0 ** t for k in range(t + 1)])


def uniform_row(t: int) -> np.ndarray:
    return np.full(t + 1, 1.0 / (t + 1))


def amplitudes(theta_rows, initial, damping: float = 1.0):
    """Dense forward walk: (a, b) arrays for every step t = 0..len(theta_rows).

    a(x, t) moves to x + 1 (scaled by ``damping``), b(x, t) to x - 1.
    """
    a = np.array([initial[0]], dtype=complex)
    b = np.array([initial[1]], dtype=complex)
    out = [(a, b)]
    for t, theta in enumerate(theta_rows):
        c, s = np.cos(theta), np.sin(theta)
        coin_a, coin_b = c * a + s * b, s * a - c * b
        a = np.zeros(t + 2, dtype=complex)
        b = np.zeros(t + 2, dtype=complex)
        a[1:] = damping * coin_a
        b[:-1] = coin_b
        out.append((a, b))
    return out


def sweep(theta_rows, initial, damping: float = 1.0) -> list[np.ndarray]:
    """P(x, t) rows of the dense forward walk."""
    return [np.abs(a) ** 2 + np.abs(b) ** 2 for a, b in amplitudes(theta_rows, initial, damping)]


def bhattacharyya(p, q) -> float:
    p = np.maximum(np.asarray(p, dtype=float), 0.0)
    q = np.maximum(np.asarray(q, dtype=float), 0.0)
    return min(float(np.sum(np.sqrt(p * q))), 1.0)


def entropy_bits(p) -> float:
    p = np.asarray(p, dtype=float)
    p = p[p > 0.0]
    return float(-np.sum(p * np.log2(p)))


def _close(what: str, got, want, tol: float) -> None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        raise Mismatch(f"{what}: shape {got.shape}, expected {want.shape}")
    err = np.abs(got - want)
    if err.size and not err.max() <= tol:
        i = int(np.argmax(err))
        raise Mismatch(f"{what}: entry {i} is {got.flat[i]!r}, expected {want.flat[i]!r}")


def parse_program(text: str):
    """(steps, initial pair, angle rows) of a program file."""
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    try:
        header = dict(ln.split(" ", 1) for ln in lines[:4])
        if header["version"] != "1" or header["convention"] != "right":
            raise Mismatch(f"unexpected program header {header}")
        steps = int(header["steps"])
        ar, ai, br, bi = (float(v) for v in header["initial"].split())
    except (KeyError, ValueError) as exc:
        raise Mismatch(f"bad program header: {exc!r}") from exc
    rows = [np.full(t + 1, np.nan) for t in range(steps)]
    for ln in lines[4:]:
        parts = ln.split()
        if parts[0] == "F":
            continue
        t, x, theta = int(parts[0]), int(parts[1]), float(parts[2])
        if not (0 <= t < steps and abs(x) <= t and (x + t) % 2 == 0):
            raise Mismatch(f"program has a cell ({t},{x}) off the step-{steps} grid")
        rows[t][(x + t) // 2] = theta
    for t, row in enumerate(rows):
        if np.isnan(row).any():
            x = 2 * int(np.argmax(np.isnan(row))) - t
            raise Mismatch(f"program is missing cell ({t},{x})")
    return steps, (complex(ar, ai), complex(br, bi)), rows


def check_design(target_rows, program_text: str, dists, scores) -> None:
    """Inverse design at large T.

    ``dists[t]`` is the package's P row at step t (dense, by i), ``scores``
    its similarity against the target at every step.
    """
    steps, initial, angles = parse_program(program_text)
    if steps != len(target_rows) - 1 or len(dists) != steps + 1 or len(scores) != steps + 1:
        raise Mismatch(f"expected {len(target_rows)} steps of output, got {len(dists)}")
    ref = sweep(angles, initial)
    for t in range(steps + 1):
        _close(f"run_program P(., {t})", dists[t], ref[t], DIST_TOL)
        _close(f"synthesized program P(., {t}) against the target", ref[t], target_rows[t], DIST_TOL)
        want = bhattacharyya(dists[t], target_rows[t])
        if abs(scores[t] - want) > EXACT_TOL or scores[t] < 1.0 - DIST_TOL:
            raise Mismatch(f"similarity at step {t} is {scores[t]!r}, expected {want!r}")


def phase_to_voltage(phi: float) -> float:
    phases = [p for p, _ in ANCHORS]
    volts = [v for _, v in ANCHORS]
    i = min(max(int(np.searchsorted(phases, phi, side="right")) - 1, 0), len(phases) - 2)
    return volts[i] + (phi - phases[i]) * (volts[i + 1] - volts[i]) / (phases[i + 1] - phases[i])


def phase_bound() -> float:
    """Largest phase error a half-unit voltage rounding can cause."""
    slope = max(
        (p1 - p0) / (v1 - v0) for (p0, v0), (p1, v1) in zip(ANCHORS, ANCHORS[1:])
    )
    return CSV_HALF_UNIT * slope + 1e-9


def check_pulse(angle_rows, program_text: str, csv_text: str, phases) -> None:
    """Compile round trip. ``phases`` holds (t, x, phi_h, phi_v) per cell."""
    steps, _, parsed = parse_program(program_text)
    if steps != len(angle_rows) or any(
        not np.array_equal(p, np.asarray(r)) for p, r in zip(parsed, angle_rows)
    ):
        raise Mismatch("program text does not round-trip the generated angles")
    n_cells = sum(len(r) for r in angle_rows)
    lines = [ln for ln in csv_text.splitlines() if ln.strip()]
    if not lines or lines[0] != CSV_HEADER or len(lines) != 2 * n_cells + 1:
        raise Mismatch(f"pulse CSV has {len(lines) - 1} events, expected {2 * n_cells}")
    seen = set()
    free_at = -math.inf
    for ln in lines[1:]:
        time_s, volt_s, width_s, t_s, x_s, arm = ln.split(",")
        t, x = int(t_s), int(x_s)
        if not (0 <= t < steps and abs(x) <= t and (x + t) % 2 == 0) or arm not in ("ccw", "cw"):
            raise Mismatch(f"event {ln!r} names no cell of the program")
        if (t, x, arm) in seen:
            raise Mismatch(f"duplicate event {ln!r}")
        seen.add((t, x, arm))
        theta = angle_rows[t][(x + t) // 2]
        phi = theta if arm == "ccw" else math.pi - theta
        slot = t * T_NS + ((t + x) // 2) * DT_NS + (SAGNAC_NS if arm == "cw" else 0.0)
        if abs(float(time_s) - slot) > CSV_HALF_UNIT + 1e-9:
            raise Mismatch(f"event {ln!r} is off its slot at {slot!r} ns")
        if abs(float(volt_s) - phase_to_voltage(phi)) > CSV_HALF_UNIT + 1e-9:
            raise Mismatch(f"event {ln!r}: expected {phase_to_voltage(phi)!r} V")
        if float(time_s) < free_at - 2 * CSV_HALF_UNIT:
            raise Mismatch(f"event {ln!r} overlaps the previous pulse")
        free_at = float(time_s) + float(width_s)
    if len(phases) != n_cells:
        raise Mismatch(f"decompiled {len(phases)} cells, expected {n_cells}")
    bound = phase_bound()
    for t, x, phi_h, phi_v in phases:
        theta = angle_rows[t][(x + t) // 2]
        if (
            abs(phi_h - theta) > bound
            or abs(phi_v - (math.pi - theta)) > bound
            or abs(phi_h + phi_v - math.pi) > 2 * bound
        ):
            raise Mismatch(
                f"cell ({t},{x}): phases ({phi_h!r}, {phi_v!r}) for theta {theta!r}"
            )


def _table(text: str):
    comments = [ln for ln in text.splitlines() if ln.startswith("#")]
    rows = [ln.split() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    return comments, rows


def check_emulate(files: dict[str, str], steps: int, lossy) -> None:
    """Paper-size reproduction plus lossy expected counts.

    ``files`` maps each reproduce output name to its text. ``lossy`` holds
    (target row function, angle rows, initial pair, right-move loss,
    total events, counts by position) per program.
    """
    missing = [name for name in EMULATE_FILES if name not in files]
    if missing:
        raise Mismatch(f"reproduce did not write {missing}")
    hadamard = sweep(
        [np.full(t + 1, math.pi / 4) for t in range(steps)],
        (1 / math.sqrt(2), 1j / math.sqrt(2)),
    )
    theory = {
        "hadamard": hadamard,
        "gaussian": [binomial_row(t) for t in range(steps + 1)],
        "uniform": [uniform_row(t) for t in range(steps + 1)],
    }
    support = list(range(-steps, steps + 1, 2))
    for name, fig in (("hadamard", "fig2a"), ("gaussian", "fig2b"), ("uniform", "fig2c")):
        comments, rows = _table(files[f"{fig}.txt"])
        if [int(r[0]) for r in rows] != support:
            raise Mismatch(f"{fig}: positions {[r[0] for r in rows]}")
        _close(f"{fig} theory", [float(r[1]) for r in rows], theory[name][steps], EXACT_TOL)
        sampled = [float(r[2]) for r in rows]
        if abs(sum(sampled) - 1.0) > DIST_TOL:
            raise Mismatch(f"{fig}: sampled column sums to {sum(sampled)!r}")
        score = float(comments[1].split()[2])
        want = bhattacharyya(sampled, [float(r[1]) for r in rows])
        if abs(score - want) > EXACT_TOL:
            raise Mismatch(f"{fig}: similarity {score!r}, expected {want!r}")
    for name, fig in (("gaussian", "fig3a"), ("uniform", "fig3b")):
        _, rows = _table(files[f"{fig}.txt"])
        want = [
            (t, x, p)
            for t in range(1, steps + 1, 2)
            for x, p in zip(range(-t, t + 1, 2), theory[name][t])
        ]
        if [(int(r[0]), int(r[1])) for r in rows] != [(t, x) for t, x, _ in want]:
            raise Mismatch(f"{fig}: unexpected (t, x) cells")
        _close(f"{fig} theory", [float(r[2]) for r in rows], [p for *_, p in want], EXACT_TOL)
    _, rows = _table(files["fig4.txt"])
    want = [
        [entropy_bits(theory[n][t]) for n in ("hadamard", "gaussian", "uniform")]
        for t in range(1, steps + 1)
    ]
    if [int(r[0]) for r in rows] != list(range(1, steps + 1)):
        raise Mismatch("fig4: unexpected steps")
    _close("fig4 entropies", [[float(v) for v in r[1:]] for r in rows], want, EXACT_TOL)
    for row_of, table in ((uniform_row, "table1"), (binomial_row, "table2")):
        _, rows = _table(files[f"{table}.txt"])
        p = row_of(9)
        want = p[:-1] * p[1:]
        if [int(r[0]) for r in rows] != list(range(-9, 9, 2)):
            raise Mismatch(f"{table}: unexpected positions")
        lhs = [float(r[1]) for r in rows]
        rhs = [float(r[2]) for r in rows]
        _close(f"{table} |rho_x,x+2|^2", lhs, want, CSV_HALF_UNIT + 1e-9)
        _close(f"{table} rho_xx rho_x+2,x+2", rhs, want, CSV_HALF_UNIT + 1e-9)
        _close(f"{table} purity", lhs, rhs, 2 * CSV_HALF_UNIT)
    for row_of, angles, initial, loss, events, counts in lossy:
        ideal = sweep(angles, initial)
        for t, row in enumerate(ideal):
            _close(f"program for {row_of.__name__} at step {t}", row, row_of(t), EXACT_TOL)
        lossy_row = sweep(angles, initial, math.sqrt(1.0 - loss))[-1]
        xs = list(range(-len(angles), len(angles) + 1, 2))
        if sorted(counts) != xs:
            raise Mismatch(f"expected counts over {sorted(counts)}, expected {xs}")
        _close(
            f"expected counts for {row_of.__name__}",
            [counts[x] for x in xs],
            events * lossy_row / lossy_row.sum(),
            DIST_TOL * events,
        )
