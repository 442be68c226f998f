#!/usr/bin/env python3
"""Checks that the benchmark's end-to-end metrics are steady across seeds.

Run from the repository root:

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [workload ...]

Runs each workload (default: all in BENCHMARK.json) once per seed with
tracing off, then prints, per end-to-end metric, the median of the runs,
the distance between the first and third quartile as a share of the
median (the spread), and that spread as a share of the metric's bound.
Exits non-zero if a run fails, reports incorrect output, or any spread,
set-up time's included, exceeds its metric's bound. A spread that uses
more than a third of its bound leaves little room for a regression to
show and is marked as such.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values):
    """Interquartile distance over the median, with Python's default
    (exclusive) quartiles; needs at least two values."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def run_once(command, workload, seed, seconds):
    out = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True,
    )
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {out.returncode}: {out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    ok = True
    for name in names:
        results = [run_once(bench["command"], name, seed, bench["run_seconds"])
                   for seed in range(args.first_seed, args.first_seed + args.runs)]
        if not all(r["correct"] and r["failed"] == 0 for r in results):
            print(f"{name}: a run reported incorrect output or failed operations")
            ok = False
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            s = spread(values)
            share = s / m["bound"]
            if share > 1:
                ok = False
            mark = "  ABOVE BOUND" if share > 1 else "  above a third" if share > 1 / 3 else ""
            print(f"{name:12} {m['name']:12} median {statistics.median(values):14.6f} {m['unit']:3}"
                  f" spread {s:7.4f} = {share:5.2f} of bound {m['bound']}{mark}")
            print("    " + " ".join(f"{v:.6g}" for v in values))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
