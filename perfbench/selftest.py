#!/usr/bin/env python3
"""Self-tests of the benchmark. Run from the repository root:

    python3 perfbench/selftest.py

1. The C++ unit tests (histogram percentiles, span self time, metric names).
2. Each workload, briefly, with --trace 0 and --trace 1: exit 0 and a last
   line that is the result JSON carrying exactly the metrics BENCHMARK.json
   names, with their units; every name matches [A-Za-z0-9_.-]+.
3. Each workload with --inject-fault: a deliberately broken invariant makes
   the run exit non-zero and name the invariant.
4. A directory holding only BENCHMARK.json and perfbench/ (no program
   sources): the command exits non-zero without printing a result.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark's own build step)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
INJECTED = {
    "short-disjoint": "partition_sum_is_2x_updates[0]",
    "array-nested": "checksum_minus_initial_is_updates",
    "tpcc-routed": "client_ok_is_engine_completed",
}
failures = []


def check(ok, what, detail=""):
    print("%s %s" % ("ok  " if ok else "FAIL", what), flush=True)
    if not ok:
        if detail:
            print(detail)
        failures.append(what)


def bench(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "2", "--trace", str(trace)] + list(extra)
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=600)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build_dir = run.build("perfbench", "perfbench_selftest")
    unit = subprocess.run([os.path.join(build_dir, "perfbench_selftest")],
                          capture_output=True, text=True)
    check(unit.returncode == 0, "C++ unit tests", unit.stderr)

    workloads = [w["name"] for w in spec["workloads"]]
    check(sorted(workloads) == sorted(run.WORKLOADS), "BENCHMARK.json lists the workloads")
    for w in workloads:
        check(NAME.match(w) is not None, "workload name %r" % w)

    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in spec[key]}
        for name in wanted:
            check(NAME.match(name) is not None, "metric name %r" % name)
        for w in workloads:
            proc = bench(w, trace)
            result = result_of(proc)
            check(proc.returncode == 0 and result is not None,
                  "%s --trace %d runs and prints a result" % (w, trace), proc.stderr[-800:])
            if result is None:
                continue
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  "%s --trace %d result keys" % (w, trace))
            check(result["correct"] is True and result["attempted"] >= 1,
                  "%s --trace %d is correct" % (w, trace))
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            check(got == wanted, "%s --trace %d metrics and units match BENCHMARK.json" % (w, trace))
            check(all(isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
                      for m in result["metrics"].values()),
                  "%s --trace %d values are finite numbers" % (w, trace))

    for w, invariant in INJECTED.items():
        proc = bench(w, 0, "--inject-fault")
        check(proc.returncode != 0 and ("invariant broken: " + invariant) in proc.stderr,
              "%s with a broken invariant fails and names %s" % (w, invariant))

    bare = os.path.join(run.BUILD, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = bench("short-disjoint", 0, cwd=bare)
    check(proc.returncode != 0 and result_of(proc) is None,
          "without the program's sources the command fails without a result")
    shutil.rmtree(bare, ignore_errors=True)

    print("\n%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
