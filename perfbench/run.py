#!/usr/bin/env python3
"""Benchmark of the coinwalk package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``. One
workload (see ``workloads.py``) runs in a closed loop, one job after
another in this process, in whole passes over its inputs until S seconds
of jobs are timed; every job is checked against ``reference.py``. The
run prints its metrics by name and unit and, as its last line, one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--trace 0`` reports the end-to-end metrics, job times in units of a
control loop (see ``README.md``), and prints the wall-clock figures as
comments. ``--trace 1`` runs the jobs
untraced for S/2 seconds, then traced for S/2 seconds, reports the
per-layer metrics of ``tracing.py`` and writes the spans to
``.perfbench/``. ``--workload all`` runs every workload in turn.
"""

import os

# The workloads are single-threaded; pin numpy's thread pools before import.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import collections  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
DEFAULT_SECONDS = 15
MIN_TAIL_BEYOND = 10
SETUP_SAMPLES = 15


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import coinwalk, build the inputs, print the time of each and of "
                        "the control loop around them, and exit")
    return p


def _print_checks(warm, phases, attempted: int, failed: int) -> list[str]:
    wrong = warm.wrong + [w for p in phases for w in p.wrong]
    matched = sum(len(p.ok_durations) for p in phases)
    verdict = "FAIL" if wrong else "PASS"
    print(f"# reference check {verdict}: {matched} of {attempted} jobs matched the reference")
    raised = sum((p.raised for p in phases), collections.Counter())
    for message, n in raised.items():
        print(f"#   raised x{n}: {message}")
    for message in wrong[:5]:
        print(f"#   wrong output: {message}")
    print(f"# failed_frac {failed / attempted:.4f} ({failed} of {attempted} jobs)")
    return wrong


def run_one(args, wl, package, inputs) -> int:
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{wl.name}-{os.getpid()}"
    digests: dict = {}
    tracer = tracing.Tracer()
    setup: list[tuple[float, float, float]] = []
    try:
        # One untimed pass first, so lazy set-up inside numpy is done.
        warm = harness.run_phase(wl, package, inputs, 0.0, workdir, digests)
        if args.trace:
            plain = harness.run_phase(wl, package, inputs, args.seconds / 2, workdir, digests)
            with tracing.installed(tracer, package):
                traced = harness.run_phase(wl, package, inputs, args.seconds / 2, workdir, digests, tracer)
            phases = [plain, traced]
        else:
            # Set-up samples are spread over the run, one before each slice
            # of jobs, so a slow spell of the machine reaches few of them.
            phase = harness.Phase()
            for k in range(1, SETUP_SAMPLES + 1):
                setup.append(harness.time_setup(HERE / "run.py", wl.name, args.seed))
                harness.run_phase(wl, package, inputs, args.seconds * k / SETUP_SAMPLES,
                                  workdir, digests, phase=phase)
            phases = [phase]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    print(f"# workload {wl.name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    wrong = _print_checks(warm, phases, attempted, failed)
    if any(not p.ok_durations for p in phases):
        print("error: no job succeeded, so no timing can be reported", file=sys.stderr)
        return 1

    if args.trace:
        # In control-loop units, so that a slow spell of the host between
        # the two halves does not pass for tracing overhead.
        overhead = statistics.median(traced.ok_ctl) / statistics.median(plain.ok_ctl) - 1.0
        values = tracer.per_layer(statistics.median(traced.ok_durations), overhead)
        metrics = {k: (values[k], unit) for k, unit in tracing.METRICS.items()}
        spans = OUT / f"spans-{wl.name}-seed{args.seed}.npz"
        tracer.dump(spans)
        print(f"# {len(tracer.start)} spans of {len(tracer.job_start)} traced jobs written to {spans}")
    else:
        metrics = harness.end_to_end(wl, phases[0], setup)
        ok = phases[0].ok_ctl
        _, beyond = harness.tail(ok, wl.tail_level)
        short = "" if beyond >= MIN_TAIL_BEYOND else f" (fewer than {MIN_TAIL_BEYOND})"
        print(f"# job_ctl.tail is p{wl.tail_level:g} of {len(ok)} successful jobs; "
              f"{beyond} lie beyond it{short}")
        print(f"# setup samples (import_s + build_s, control_s) "
              f"{[f'{i:.4f} + {b:.4f}, {c:.6f}' for i, b, c in setup]}")
        for name, (value, unit) in harness.wall_clock(wl, phases[0], setup).items():
            print(f"# wall clock: {name} {value:.6g} {unit}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; the last line maps name to result."""
    results = {}
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", f"{args.seconds:g}", "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"# workload {name} exited with code {proc.returncode}")
            status = 1
            continue
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not (SRC / "coinwalk" / "__init__.py").is_file():
        print(f"error: no coinwalk sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    wl = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        before = harness.setup_control_s()
    start = time.perf_counter()
    package = harness.import_package(SRC)
    imported = time.perf_counter()
    inputs = wl.build(args.seed)
    built = time.perf_counter()
    if args.setup_only:
        control = 0.5 * (before + harness.setup_control_s())
        print(json.dumps({"import_s": imported - start, "build_s": built - imported, "control_s": control}))
        return 0
    return run_one(args, wl, package, inputs)


if __name__ == "__main__":
    sys.exit(main())
