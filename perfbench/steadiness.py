"""Repeat the benchmark over several seeds and report its spread.

Usage (from the repository root)::

    python3 perfbench/steadiness.py --workloads interactive-u16 \\
        --seeds 1 2 3 4 5 --seconds 10 [--out FILE]

Runs ``perfbench/run.py --trace 0`` once per (workload, seed), one at a
time, and prints for every end-to-end metric the median over the seeds
and the distance between the first and third quartile
(``statistics.quantiles(n=4)``) as a share of that median, next to the
metric's bound from ``BENCHMARK.json``.  ``--out`` keeps the raw
results as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def spread(values):
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else float("inf")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    raw = {}
    status = 0
    for workload in args.workloads:
        runs = raw.setdefault(workload, [])
        for seed in args.seeds:
            t0 = time.monotonic()
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH_DIR, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print("%s seed %d failed (exit %d):\n%s%s" % (
                    workload, seed, proc.returncode, proc.stdout,
                    proc.stderr), file=sys.stderr)
                status = 1
                continue
            result = json.loads(lines[-1])
            result["wall_s"] = time.monotonic() - t0
            result["seed"] = seed
            result["stamp"] = next(
                (json.loads(line[len("stamp "):]) for line in lines
                 if line.startswith("stamp ")), {})
            runs.append(result)
            print("%s seed %d: %.1f s, steal %s%%" % (
                workload, seed, result["wall_s"],
                result["stamp"].get("steal_pct")), flush=True)
        if len(runs) < 2:
            continue
        print("\n%s (%d runs)" % (workload, len(runs)))
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            bound = bounds.get(name)
            print("  %-36s median %12.6g  spread %7.4f  bound %s" % (
                name, statistics.median(values), spread(values),
                bound if bound is not None else "-"))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(raw, fh, indent=1)
    return status


if __name__ == "__main__":
    sys.exit(main())
