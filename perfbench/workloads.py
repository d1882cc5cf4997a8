"""The benchmark's workloads: how each builds its inputs, runs one job, and
checks it against the independent reference.

Jobs reach the package only through module attributes
(``cw.walk.run_program``), so the tracer's wrappers see every call. A
job's ``run`` is timed; its ``check`` runs afterwards, untimed, and returns
a digest of the checked output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import inputs
import reference

# Asymmetric right-move loss and event budget of the lossy expected counts.
EMULATE_LOSS = 0.05
EMULATE_EVENTS = 10_000


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int], list]
    run: Callable[[Any, Any, Path], Any]
    check: Callable[[Any, Any, Path], str]
    # (t, x) coin cells a successful job walks or compiles.
    cells: int
    # Percentile reported as job_ctl.tail, fixed so that runs stay comparable.
    tail_level: float


def _cells(steps: int) -> int:
    return steps * (steps + 1) // 2


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode() if isinstance(part, str) else np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


def _dense(dist: dict, t: int) -> np.ndarray:
    xs = range(-t, t + 1, 2)
    extra = set(dist) - set(xs)
    if extra:
        raise reference.Mismatch(f"step {t} has mass off its support at {sorted(extra)[:5]}")
    return np.array([dist.get(x, 0.0) for x in xs])


def _angle_rows(program) -> list[list[float]]:
    return [
        [program.cells[(t, 2 * i - t)].theta for i in range(t + 1)]
        for t in range(program.steps)
    ]


def design_run(cw, target, workdir):
    sched = cw.fileio.schedule_targets_from_text(target.text)
    plan = cw.synth.plan_amplitudes(sched)
    program = cw.synth.synthesize_coins(plan)
    text = cw.fileio.program_to_text(program)
    reports = cw.walk.run_program(cw.fileio.program_from_text(text))
    scores = [cw.measure.similarity(r.distribution, sched.rows[r.step]) for r in reports]
    return text, reports, scores


def design_check(target, out, workdir) -> str:
    text, reports, scores = out
    if [r.step for r in reports] != list(range(len(reports))):
        raise reference.Mismatch("run_program reports are not one per step")
    dists = [_dense(r.distribution, r.step) for r in reports]
    reference.check_design(target.rows, text, dists, scores)
    return _digest(text, *dists, np.array(scores))


def pulse_run(cw, rows, workdir):
    st = cw.state
    cells = {
        (t, 2 * i - t): st.CoinOp(theta)
        for t, row in enumerate(rows)
        for i, theta in enumerate(row)
    }
    program = st.CoinProgram(steps=len(rows), cells=cells, initial=st.localized_state(1.0, 0.0))
    text = cw.fileio.program_to_text(program)
    schedule = cw.pulses.compile_schedule(cw.fileio.program_from_text(text))
    csv = cw.fileio.pulse_schedule_to_text(schedule)
    phases = cw.pulses.decompile_schedule(cw.fileio.pulse_schedule_from_text(csv))
    return text, csv, phases


def pulse_check(rows, out, workdir) -> str:
    text, csv, phases = out
    cells = [(p.t, p.x, p.phi_h, p.phi_v) for p in phases]
    reference.check_pulse(rows, text, csv, cells)
    return _digest(text, csv, repr(cells))


def emulate_run(cw, cli_seed, workdir):
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = cw.cli.main(["--seed", str(cli_seed), "reproduce", "--out-dir", str(workdir)])
    if code != 0:
        raise RuntimeError(f"reproduce exited with code {code}: {stderr.getvalue()[-300:]}")
    model = cw.noise.NoiseModel(right_move_loss=EMULATE_LOSS)
    steps = inputs.EMULATE_STEPS
    programs = (cw.synth.gaussian_program(steps), cw.synth.uniform_program(steps))
    counts = [cw.noise.expected_counts(p, model, steps, EMULATE_EVENTS) for p in programs]
    return programs, counts


def emulate_check(cli_seed, out, workdir) -> str:
    programs, counts = out
    files = {p.name: p.read_text() for p in sorted(workdir.iterdir())}
    lossy = [
        (row_of, _angle_rows(p), p.initial.pair(0), EMULATE_LOSS, EMULATE_EVENTS, c)
        for row_of, p, c in zip((reference.binomial_row, reference.uniform_row), programs, counts)
    ]
    reference.check_emulate(files, inputs.EMULATE_STEPS, lossy)
    return _digest(*(f"{name}\n{text}" for name, text in files.items()), repr(counts))


_T = inputs.EMULATE_STEPS

WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="design-T300",
            build=inputs.design_inputs,
            run=design_run,
            check=design_check,
            cells=_cells(inputs.DESIGN_STEPS),
            # ~10 jobs succeed in a run; p90 would track the single slowest.
            tail_level=75.0,
        ),
        Workload(
            name="pulse-T13",
            build=inputs.pulse_inputs,
            run=pulse_run,
            check=pulse_check,
            cells=_cells(inputs.PULSE_STEPS),
            tail_level=90.0,
        ),
        Workload(
            name="emulate-T11",
            build=inputs.emulate_inputs,
            run=emulate_run,
            check=emulate_check,
            # reproduce: three theory and three jittered walks at T, two purity
            # walks at 9; expected_counts: a plain and a lossy walk per program.
            cells=6 * _cells(_T) + 2 * _cells(9) + 4 * _cells(_T),
            tail_level=90.0,
        ),
    )
}
