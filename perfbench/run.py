#!/usr/bin/env python3
"""Builds the benchmark from source (first run only) and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The build lives in .bench_build/perfbench; the
last line of standard output is the JSON result. Any further arguments (for
example --inject-fault) are passed to the benchmark binary unchanged.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("short-disjoint", "array-nested", "tpcc-routed")


def fail(message):
    """Ends without a result: exit code 2 (1 is a result with correct false)."""
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(*targets):
    """Configures once, then brings `targets` up to date; logs go to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the program's sources (src/) are missing; run from the repository root")
    log = sys.stderr
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, stdout=log, stderr=log, env=env, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    for target in targets:
        subprocess.run(["cmake", "--build", BUILD, "--target", target, "-j", jobs],
                       stdout=log, stderr=log, env=env, check=True)
    return BUILD


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args, extra = parser.parse_known_args()
    try:
        build_dir = build("perfbench")
    except subprocess.CalledProcessError as err:
        fail("build failed: %s" % err)
    cmd = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", args.trace]
    if args.trace == "1":
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-file",
                os.path.join(traces, "%s-seed%d.tsv" % (args.workload, args.seed))]
    cmd += extra
    # Bounded so a hung run still ends with an error, never a result.
    limit = 3 * args.seconds + 120
    try:
        return subprocess.run(cmd, timeout=limit).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %.0f s" % limit, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
