#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds
perfbench/ (the repository's libraries plus the pldbench program) in
$CARGO_TARGET_DIR, default .bench_build; later runs rebuild only what
changed. Build output goes to stderr, so the last line on stdout is the
pldbench's JSON result. Exits non-zero, printing no result, when the
build fails (for instance when the repository sources are missing).
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("edit_loop", "full_compile", "sim_replay")


def jobs():
    """Worker threads: the CPUs this process may use, at most 4."""
    return max(1, min(4, len(os.sched_getaffinity(0))))


def build(build_dir):
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"] + gen)
    steps.append(["cmake", "--build", build_dir, "--target", "pldbench",
                  "-j", str(jobs())])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    root = os.path.relpath(os.path.abspath(target))
    build_dir = os.path.join(root, "perfbench")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    cmd = [os.path.join(build_dir, "pldbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--jobs", str(jobs()), "--out", os.path.join(root, "run")]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
