#!/usr/bin/env python3
"""Builds wdr and the benchmark from source, then runs one workload.

    python3 wdrbench/run.py --workload read|write --seed N \
        --seconds S --trace 0|1

Run from the repository root. The build goes to .bench_build/wdrbench
(configured once, then incremental); build output goes to stderr, so the
last line of standard output is the benchmark's JSON result. The oracle's
own test runs before every measurement. Any failure exits non-zero.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "wdrbench")


def step(cmd):
    """Runs a build or test command with its output on stderr."""
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        sys.exit(f"run.py: {' '.join(cmd)} exited {result.returncode}")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["read", "write"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(ROOT, "src")):
        sys.exit("run.py: no src/ next to the benchmark; run from a checkout")

    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        step(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    step(["cmake", "--build", BUILD, "-j", jobs, "--target", "wdr_bench",
          "oracle_test"])
    step([os.path.join(BUILD, "oracle_test")])

    bench = subprocess.run(
        [os.path.join(BUILD, "wdr_bench"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace)],
        cwd=ROOT)
    sys.exit(bench.returncode)


if __name__ == "__main__":
    main()
