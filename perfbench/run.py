#!/usr/bin/env python3
"""Builds the perfbench driver from the checkout's sources and runs it.

usage (from the repository root):
  python3 perfbench/run.py --workload local_read|served_rw|routed_read \
      --seed N --seconds S --trace 0|1

The build lands in .bench_build/perfbench (CMake, Release); build output
goes to stderr, so the last line of stdout is the driver's JSON result.
The exit code is the driver's: 0 when every check passed.
"""
import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("local_read", "served_rw", "routed_read")
# The driver itself finishes well inside this; a hang past it is a failure.
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        print("perfbench: no src/ tree next to perfbench/; nothing to build",
              file=sys.stderr)
        return False
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                     BUILD, "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                          stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    command = [os.path.join(BUILD, "pis_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work_dir", os.path.join(ROOT, ".bench_build", "work")]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
