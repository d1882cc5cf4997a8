"""Closed-loop measurement: one client runs jobs back to back.

Each job is timed on its own, and so is a fixed control loop just before
and after it; its reference check runs after the clock stops. A job that
raises counts as failed; a job whose output fails the check, or differs
from an earlier run of the same input, counts as failed and makes the run
incorrect.
"""

from __future__ import annotations

import collections
import gc
import importlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference

PACKAGE_MODULES = ("state", "walk", "synth", "pulses", "measure", "noise", "fileio", "cli")
CONTROL_ENTRIES = 2000
# Control loops timed before and after a set-up, and the control time that
# set-up seconds are scaled to (about the loop's median on the machine the
# benchmark was built on).
SETUP_CONTROLS = 7
CONTROL_REF_S = 1e-3
SETUP_TIMEOUT_S = 120


def import_package(src: Path):
    """Import coinwalk from ``src`` and no other place."""
    sys.path.insert(0, str(src))
    package = importlib.import_module("coinwalk")
    for module in PACKAGE_MODULES:
        importlib.import_module(f"coinwalk.{module}")
    if Path(package.__file__).resolve().parent != (src / "coinwalk").resolve():
        raise ImportError(f"coinwalk came from {package.__file__}, not {src}")
    return package


def control_s() -> float:
    """Wall time of a fixed pure-Python loop: the machine's speed right now.

    It builds a dict of tuples, floats and strings, the kind of work the
    jobs do, so a slow spell of a shared host slows it about as much as a
    job. It never calls the package.
    """
    start = time.perf_counter()
    table = {}
    for i in range(CONTROL_ENTRIES):
        table[(i, -i)] = (i * 0.5, str(i))
    sum(v[0] for v in table.values())
    return time.perf_counter() - start


def setup_control_s() -> float:
    """Median of ``SETUP_CONTROLS`` control loops."""
    return statistics.median(control_s() for _ in range(SETUP_CONTROLS))


@dataclass
class Phase:
    """Outcome of the jobs of one measured phase."""

    attempted: int = 0
    timed_s: float = 0.0
    # Job times in units of the control loop timed around each job.
    timed_ctl: float = 0.0
    cells: int = 0
    ok_durations: list[float] = field(default_factory=list)
    ok_ctl: list[float] = field(default_factory=list)
    control: list[float] = field(default_factory=list)
    raised: collections.Counter = field(default_factory=collections.Counter)
    wrong: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(self.raised.values()) + len(self.wrong)


def _empty_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)


def run_phase(wl, package, inputs, seconds, workdir, digests, tracer=None, phase=None) -> Phase:
    """Run whole passes over ``inputs``, in order, until the jobs' timed
    total reaches ``seconds``; a fresh phase runs at least one pass.

    A phase always ends at the end of a pass, so every input runs equally
    often and ``failed / attempted`` does not depend on where the clock
    ran out. Passing the ``phase`` of an earlier call continues it.
    ``digests`` maps an input index to the digest of its checked output
    and is shared between phases, so a traced phase must reproduce the
    untraced outputs exactly.
    """
    phase = phase or Phase()
    # Each job starts from a collected heap, as in a fresh process; freezing
    # what exists now keeps those collections short.
    gc.freeze()
    while phase.attempted == 0 or phase.timed_s < seconds or phase.attempted % len(inputs):
        key = phase.attempted % len(inputs)
        _empty_dir(workdir)
        gc.collect()
        before = control_s()
        if tracer is not None:
            tracer.begin_job()
        start = time.perf_counter()
        try:
            out = wl.run(package, inputs[key], workdir)
        except Exception as exc:  # a job that raises is a measured outcome
            elapsed = time.perf_counter() - start
            # Keep the message only: the traceback would hold the job's data.
            out, failure = None, f"{type(exc).__name__}: {str(exc)[:160]}"
        else:
            elapsed = time.perf_counter() - start
            failure = None
        if tracer is not None:
            tracer.end_job(start, start + elapsed)
        control = 0.5 * (before + control_s())
        phase.control.append(control)
        phase.attempted += 1
        phase.timed_s += elapsed
        phase.timed_ctl += elapsed / control
        if failure is not None:
            phase.raised[failure] += 1
        else:
            try:
                digest = wl.check(inputs[key], out, workdir)
                if digests.setdefault(key, digest) != digest:
                    raise reference.Mismatch("output differs from an earlier run of the same input")
            except Exception as exc:  # any failure to verify is a wrong output
                phase.wrong.append(f"input {key}: {type(exc).__name__}: {str(exc)[:300]}")
            else:
                phase.ok_durations.append(elapsed)
                phase.ok_ctl.append(elapsed / control)
                phase.cells += wl.cells
        del out
    return phase


def time_setup(run_py: Path, workload: str, seed: int) -> tuple[float, float, float]:
    """Seconds a fresh process spends importing coinwalk and building the
    inputs, as that process times them, and its control loop's time around
    them: ``(import_s, build_s, control_s)``.

    Interpreter start and the benchmark's own imports (numpy among them)
    are left out, so the import time is the package's own.
    """
    cmd = [sys.executable, str(run_py), "--setup-only", "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=SETUP_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed: {proc.stderr.strip()[-500:]}")
    times = json.loads(proc.stdout.splitlines()[-1])
    return times["import_s"], times["build_s"], times["control_s"]


def tail(durations: list[float], level: float) -> tuple[float, int]:
    """The ``level`` percentile and how many jobs lie beyond it."""
    value = float(np.percentile(durations, level))
    return value, sum(d > value for d in durations)


def setup_s(samples: list[tuple[float, float, float]]) -> float:
    """Median over the set-up samples of import plus build time, each scaled
    from its process's control time to ``CONTROL_REF_S``."""
    return statistics.median((i + b) * CONTROL_REF_S / c for i, b, c in samples)


def end_to_end(wl, phase: Phase, setup_samples: list[tuple[float, float, float]]) -> dict[str, tuple[float, str]]:
    """Job times are in control-loop units (ctl): each job's wall time over
    the control loop's, timed just before and after it. ``setup_s`` is in
    seconds at the reference control time (see ``setup_s``)."""
    return {
        "setup_s": (setup_s(setup_samples), "s"),
        "job_ctl.p50": (statistics.median(phase.ok_ctl), "ctl"),
        "job_ctl.tail": (tail(phase.ok_ctl, wl.tail_level)[0], "ctl"),
        "cells_per_ctl": (phase.cells / phase.timed_ctl, "1/ctl"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def wall_clock(wl, phase: Phase, setup_samples: list[tuple[float, float, float]]) -> dict[str, tuple[float, str]]:
    """The same figures in seconds, as the wall clock saw them."""
    return {
        "job_s.p50": (statistics.median(phase.ok_durations), "s"),
        "job_s.tail": (tail(phase.ok_durations, wl.tail_level)[0], "s"),
        "cells_per_s": (phase.cells / phase.timed_s, "1/s"),
        "control_s.p50": (statistics.median(phase.control), "s"),
        "setup_s": (statistics.median(i + b for i, b, _ in setup_samples), "s"),
    }
