"""Span tracing of the coinwalk layers, installed from outside the package.

:func:`installed` wraps each public function in ``FUNCTIONS`` wherever a
package module binds it (``noise`` imports ``run_program`` by name, ``cli``
calls through module attributes) and each method in ``METHODS``. A
wrapper records one span (name, start, end, parent span, job) in memory
plus the counters of its layer. :meth:`Tracer.per_layer` turns spans into
per-job self times (span minus its child spans), medians over jobs.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from array import array
from pathlib import Path

import numpy as np

from harness import PACKAGE_MODULES


def _count_run_program(tr, args, kwargs, result, exc):
    program = args[0]
    tr.counts["walk.cells_stepped"] += len(program.cells)
    # Keep a reference only; Tracer.end_job finds the repeats after the
    # job's clock has stopped, so the comparison is in no span's time.
    tr.programs.append(program)


def _repeats(programs) -> int:
    """How many of ``programs`` equal an earlier one in the list."""
    seen: dict = {}
    repeats = 0
    for program in programs:
        same = seen.setdefault((program.steps, len(program.cells)), [])
        if any(
            q is program
            or (q.cells == program.cells and q.initial == program.initial
                and q.final_layer == program.final_layer)
            for q in same
        ):
            repeats += 1
        same.append(program)
    return repeats


def _count_synth(tr, args, kwargs, result, exc):
    if result is not None:
        tr.counts["synth.cells"] += len(result.cells)


def _count_text_in(tr, args, kwargs, result, exc):
    tr.counts["fileio.bytes"] += len(args[0])


def _count_text_out(tr, args, kwargs, result, exc):
    if result is not None:
        tr.counts["fileio.bytes"] += len(result)


def _count_compile(tr, args, kwargs, result, exc):
    if result is not None:
        tr.counts["pulses.events"] += len(result.events)
    tr.counts["pulses.collisions"] += len(getattr(exc, "collisions", ()))


def _count_resamples(tr, args, kwargs, result, exc):
    tr.counts["noise.resamples"] += args[1] if len(args) > 1 else kwargs["resamples"]


# (span name, module, function, counter)
FUNCTIONS = (
    ("walk.run_program", "walk", "run_program", _count_run_program),
    ("walk.apply_coin_layer", "walk", "apply_coin_layer", None),
    ("walk.apply_shift", "walk", "apply_shift", None),
    ("synth.plan_amplitudes", "synth", "plan_amplitudes", None),
    ("synth.synthesize_coins", "synth", "synthesize_coins", _count_synth),
    ("synth.gaussian_program", "synth", "gaussian_program", None),
    ("synth.uniform_program", "synth", "uniform_program", None),
    ("fileio.schedule_targets_from_text", "fileio", "schedule_targets_from_text", _count_text_in),
    ("fileio.program_to_text", "fileio", "program_to_text", _count_text_out),
    ("fileio.program_from_text", "fileio", "program_from_text", _count_text_in),
    ("fileio.pulse_schedule_to_text", "fileio", "pulse_schedule_to_text", _count_text_out),
    ("fileio.pulse_schedule_from_text", "fileio", "pulse_schedule_from_text", _count_text_in),
    ("pulses.compile_schedule", "pulses", "compile_schedule", _count_compile),
    ("pulses.decompile_schedule", "pulses", "decompile_schedule", None),
    ("pulses.coin_to_phases", "pulses", "coin_to_phases", None),
    ("noise.bootstrap_errorbars", "noise", "bootstrap_errorbars", _count_resamples),
    ("noise.sample_counts", "noise", "sample_counts", None),
    ("noise.perturb_program", "noise", "perturb_program", None),
    ("noise.expected_counts", "noise", "expected_counts", None),
    ("noise.lossy_distribution", "noise", "lossy_distribution", None),
    ("measure.similarity", "measure", "similarity", None),
    ("measure.shannon_entropy", "measure", "shannon_entropy", None),
    ("measure.purity_criterion", "measure", "purity_criterion", None),
    ("cli.main", "cli", "main", None),
)
# (span name, module, class, method); "check" is the __post_init__ validation.
METHODS = (
    ("state.CoinProgram.layer", "state", "CoinProgram", "layer"),
    ("state.WalkerState.check", "state", "WalkerState", "__post_init__"),
    ("state.CoinProgram.check", "state", "CoinProgram", "__post_init__"),
    ("state.DistributionSchedule.check", "state", "DistributionSchedule", "__post_init__"),
)
SPANS = tuple(f[0] for f in FUNCTIONS) + tuple(m[0] for m in METHODS)
CALLS = (
    "walk.run_program",
    "state.CoinProgram.layer",
    "state.WalkerState.check",
    "measure.similarity",
    "measure.shannon_entropy",
)
COUNTERS = {
    "walk.cells_stepped": "count",
    "synth.cells": "count",
    "fileio.bytes": "B",
    "pulses.events": "count",
    "pulses.collisions": "count",
    "noise.resamples": "count",
}

METRICS = {
    **{f"{name}.self_s": "s" for name in SPANS},
    **{f"{name}.calls": "count" for name in CALLS},
    **COUNTERS,
    "walk.cells_per_s": "1/s",
    "walk.run_program.repeat_frac": "frac",
    "trace.job_s.p50": "s",
    "trace.layer_share": "frac",
    "trace.bench_share": "frac",
    "trace.bench_self_s": "s",
    "trace.spans": "count",
    "trace.overhead_frac": "frac",
}


class Tracer:
    """In-memory spans and per-job counters of one traced run."""

    def __init__(self):
        self.name = array("i")
        self.parent = array("q")
        self.job = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.current = -1
        self.job_start: list[float] = []
        self.job_end: list[float] = []
        self.job_counts: list[dict[str, int]] = []
        self.counts: dict[str, int] = {}
        self.programs: list = []

    def begin_job(self) -> None:
        self.current = len(self.job_start)
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.programs = []

    def end_job(self, start: float, end: float) -> None:
        """Close the job; call it after the job's clock has stopped."""
        self.job_start.append(start)
        self.job_end.append(end)
        self.counts["walk.run_program.repeats"] = _repeats(self.programs)
        self.job_counts.append(self.counts)
        self.current = -1
        self.programs = []

    def wrap(self, span: str, fn, count):
        name_id = SPANS.index(span)
        names, parents, jobs = self.name, self.parent, self.job
        starts, ends, stack = self.start, self.end, self.stack
        now = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            jobs.append(self.current)
            ends.append(0.0)
            stack.append(idx)
            starts.append(now())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[idx] = now()
                stack.pop()
                if count is not None:
                    count(self, args, kwargs, None, exc)
                raise
            ends[idx] = now()
            stack.pop()
            if count is not None:
                count(self, args, kwargs, result, None)
            return result

        return traced

    def per_layer(self, traced_p50: float, overhead: float) -> dict[str, float]:
        """Every metric in ``METRICS``: per job, then the median over jobs.

        ``traced_p50`` is the traced median job time, ``overhead`` the
        traced over the untraced median, minus 1.
        """
        n_jobs = len(self.job_start)
        name = np.array(self.name, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        job = np.array(self.job, dtype=np.int64)
        start, end = np.array(self.start), np.array(self.end)
        dur = end - start
        child = np.zeros(dur.size)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        own = dur - child
        in_job = job >= 0
        self_s = np.zeros((n_jobs, len(SPANS)))
        calls = np.zeros((n_jobs, len(SPANS)))
        inclusive = np.zeros((n_jobs, len(SPANS)))
        np.add.at(self_s, (job[in_job], name[in_job]), own[in_job])
        np.add.at(calls, (job[in_job], name[in_job]), 1)
        np.add.at(inclusive, (job[in_job], name[in_job]), dur[in_job])
        job_start, job_end = np.array(self.job_start), np.array(self.job_end)
        self._check_spans(start, end, parent, job, job_start, job_end)
        top = np.zeros(n_jobs)
        outer = in_job & ~nested
        np.add.at(top, job[outer], dur[outer])
        job_s = job_end - job_start
        bench = job_s - top

        out = {f"{s}.self_s": float(np.median(self_s[:, k])) for k, s in enumerate(SPANS)}
        for s in CALLS:
            out[f"{s}.calls"] = float(np.median(calls[:, SPANS.index(s)]))
        for c in COUNTERS:
            out[c] = float(np.median([counts[c] for counts in self.job_counts]))
        rp = SPANS.index("walk.run_program")
        ran = calls[:, rp] > 0
        cells = np.array([counts["walk.cells_stepped"] for counts in self.job_counts], dtype=float)
        repeats = np.array([counts["walk.run_program.repeats"] for counts in self.job_counts], dtype=float)
        out["walk.cells_per_s"] = float(np.median(cells[ran] / inclusive[ran, rp])) if ran.any() else 0.0
        out["walk.run_program.repeat_frac"] = (
            float(np.median(repeats[ran] / calls[ran, rp])) if ran.any() else 0.0
        )
        out["trace.job_s.p50"] = traced_p50
        # Shares of all traced job time: span self times plus the
        # benchmark's own time outside any span make up the whole.
        out["trace.layer_share"] = float(self_s.sum() / job_s.sum())
        out["trace.bench_share"] = float(bench.sum() / job_s.sum())
        out["trace.bench_self_s"] = float(np.median(bench))
        out["trace.spans"] = float(np.median(np.bincount(job[in_job], minlength=n_jobs)))
        out["trace.overhead_frac"] = overhead
        return out

    def _check_spans(self, start, end, parent, job, job_start, job_end) -> None:
        """Every span closed, inside its parent span, and inside its job."""
        if self.stack != [-1] or (end < start).any():
            raise RuntimeError("a span was left open")
        nested = parent >= 0
        p = parent[nested]
        if (start[nested] < start[p]).any() or (end[nested] > end[p]).any() or (job[nested] != job[p]).any():
            raise RuntimeError("a span lies outside its parent span")
        outer = (job >= 0) & ~nested
        j = job[outer]
        if (start[outer] < job_start[j]).any() or (end[outer] > job_end[j]).any():
            raise RuntimeError("a span lies outside its job")

    def dump(self, path: Path) -> None:
        """Write every span, and each job's start and end, to an .npz file."""
        np.savez_compressed(
            path,
            span_names=np.array(SPANS),
            name=np.array(self.name),
            parent=np.array(self.parent),
            job=np.array(self.job),
            start=np.array(self.start),
            end=np.array(self.end),
            job_start=np.array(self.job_start),
            job_end=np.array(self.job_end),
        )


@contextlib.contextmanager
def installed(tracer: Tracer, package):
    """Wrap the traced functions and methods for the duration of the block."""
    modules = [package] + [importlib.import_module(f"{package.__name__}.{m}") for m in PACKAGE_MODULES]
    undo = []
    try:
        for span, module, attr, count in FUNCTIONS:
            original = getattr(getattr(package, module), attr)
            wrapper = tracer.wrap(span, original, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, key, original))
                        setattr(mod, key, wrapper)
        for span, module, cls_name, attr in METHODS:
            cls = getattr(getattr(package, module), cls_name)
            original = cls.__dict__[attr]
            undo.append((cls, attr, original))
            setattr(cls, attr, tracer.wrap(span, original, None))
        yield tracer
    finally:
        for obj, key, original in reversed(undo):
            setattr(obj, key, original)
