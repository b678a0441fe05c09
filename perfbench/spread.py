#!/usr/bin/env python3
"""Measures the benchmark's run-to-run spread, the figure its bounds rest on.

    python3 perfbench/spread.py --workload tpcc-routed --runs 10

Runs the workload once per seed (1..runs), at BENCHMARK.json's run_seconds
and with --trace 0 as the bounds are defined, and prints, per metric, the median
and the inter-quartile range as a share of the median (Python's
statistics.quantiles(values, n=4)), next to the metric's bound from
BENCHMARK.json. Run from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("seed %d failed (exit %d):\n%s" % (seed, proc.returncode, proc.stderr[-2000:]))
    # "epochs: <n>, <k> left out for hypervisor steal"
    epochs = next((l for l in lines if l.startswith("epochs: ")), "epochs: ?")[8:]
    return json.loads(lines[-1]), epochs.split(" left out")[0]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values = {}
    for seed in range(1, args.runs + 1):
        result, epochs = run_once(args.workload, seed, seconds)
        if not result["correct"]:
            sys.exit("seed %d: an invariant broke" % seed)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print("seed %d: %s epochs=%s" % (seed, " ".join(
            "%s=%.6g" % (n, m["value"]) for n, m in result["metrics"].items()), epochs),
            flush=True)

    print("\n%-30s %14s %10s %8s" % ("metric", "median", "iqr/med", "bound"))
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        print("%-30s %14.6g %9.2f%% %8s" % (name, med, 100 * spread,
                                          "" if bound is None else "%.0f%%" % (100 * bound)))


if __name__ == "__main__":
    main()
