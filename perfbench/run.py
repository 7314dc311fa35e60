#!/usr/bin/env python3
"""Builds and runs the repository benchmark (analyst queries served by
opd::Server).

    python3 perfbench/run.py --workload warm_500v --seed 1 --seconds 10 --trace 0

Configures and builds perfbench/ (which compiles the opd library from src/)
into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when unset, runs
the tests of the benchmark's helpers, then runs opd_perfbench. Build and
test output goes to stderr; the last line of stdout is opd_perfbench's JSON
result. With --trace 1 the per-query spans are also written as Chrome
trace_event JSON to <build dir>/trace-<workload>-<seed>.json.

Exits non-zero without printing a result when the build, the helper tests
or the run fail.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170


def run_quiet(cmd, timeout=None):
    """Runs cmd with its stdout sent to stderr; returns the exit code."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False).returncode
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        if run_quiet(["cmake", "-S", SOURCE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"]) != 0:
            return False
    jobs = str(min(os.cpu_count() or 1, 4))
    return run_quiet(["cmake", "--build", build_dir, "-j", jobs]) == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["warm_500v", "evolve", "orig"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    helper_test = os.path.join(build_dir, "perfbench_harness_test")
    if os.path.exists(helper_test) and run_quiet([helper_test]) != 0:
        print("perfbench: helper tests failed", file=sys.stderr)
        return 1

    cmd = [os.path.join(build_dir, "opd_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            build_dir, f"trace-{args.workload}-{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, check=False, text=True)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: opd_perfbench exited with {proc.returncode}",
              file=sys.stderr)
        return 1
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
