#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one benchmark workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload kv-closed --seed 1 --seconds 20 --trace 0

The first run configures and builds partdb and the perfbench binary in
Release mode under .bench_build/perfbench; later runs only rebuild what
changed. The binary's standard output is passed through; its last line is
the result JSON. Scratch files go to .bench_build/work, per-run records and
traces to .bench_build/results. The exit code is non-zero when the build fails, the
sources are missing, the run times out, or an output check fails.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("kv-closed", "kv-durable", "tpcc-mvcc", "kv-net-open")
RUN_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    if not os.path.isfile(os.path.join(root, "src", "db", "database.h")):
        print("perfbench: partdb sources not found under %s/src" % root, file=sys.stderr)
        return 2

    build_dir = os.path.join(root, ".bench_build", "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", bench_dir, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the binary's lines.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build failed: %s" % " ".join(cmd), file=sys.stderr)
            return 2

    cmd = [
        os.path.join(build_dir, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
        "--work_dir", os.path.join(root, ".bench_build", "work"),
        "--out_dir", os.path.join(root, ".bench_build", "results"),
    ]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=root)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
