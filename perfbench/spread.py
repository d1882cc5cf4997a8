#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

    python3 perfbench/spread.py --workload NAME --seeds 1 2 3 ...

Runs ``run.py --trace 0`` for ``run_seconds`` of ``BENCHMARK.json`` once
per seed, one run after another, and prints for each
metric the median over the runs and the distance between the first and
third quartiles (``statistics.quantiles(values, n=4)``) as a share of the
median. The last line is one JSON object with every run's result.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    args = p.parse_args()
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        if proc.returncode != 0:
            print(f"seed {seed}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.splitlines()[-1])
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: correct {result['correct']} failed {result['failed']}/{result['attempted']} "
              + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        share = (q3 - q1) / median if median else float("nan")
        print(f"{name:40s} median {median:.6g} {runs[0]['metrics'][name]['unit']:6s} "
              f"IQR/median {share:.4f}  min {min(values):.6g}  max {max(values):.6g}")
    print(json.dumps({"workload": args.workload, "seconds": seconds, "runs": runs}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
