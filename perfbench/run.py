#!/usr/bin/env python3
"""Build the repo benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/CMakeLists.txt (the library
sources under src/ plus the benchmark binary) into .bench_build/perfbench;
later calls rebuild only what changed. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. A traced run also writes its spans as
Chrome trace-event JSON under .bench_build/traces/.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 175


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr; True on success."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False).returncode == 0
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return False


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        if not run_quiet(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"] + generator,
                         BUILD_TIMEOUT_S):
            # Leave no half-configured tree behind for the next attempt.
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return run_quiet(["cmake", "--build", BUILD, "-j", jobs], BUILD_TIMEOUT_S)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    p.add_argument("--selftest", action="store_true")
    a = p.parse_args()
    if not a.selftest and not a.workload:
        p.error("--workload is required")

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 3

    if a.selftest:
        cmd = [os.path.join(BUILD, "perfbench_selftest")]
    else:
        cmd = [os.path.join(BUILD, "perfbench"), "--workload", a.workload,
               "--seed", str(a.seed), "--seconds", str(a.seconds),
               "--trace", a.trace]
        if a.trace == "1":
            traces = os.path.join(ROOT, ".bench_build", "traces")
            os.makedirs(traces, exist_ok=True)
            cmd += ["--trace-out",
                    os.path.join(traces, f"{a.workload}-seed{a.seed}.json")]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S, check=False).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
