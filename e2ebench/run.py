#!/usr/bin/env python3
"""Build and run the end-to-end sampler benchmark.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout.  The script configures and builds
e2ebench/ (which builds the library from the enclosing tree) in Release mode
under $CARGO_TARGET_DIR, or .bench_build when it is unset, runs the
benchmark's self-tests, then runs the benchmark.  The benchmark prints its
result as one JSON object on the last line of standard output.  Traced runs
also write a Chrome trace-event file to <build dir>/traces/.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("sparse-requests", "dense-colorings", "batch-mix")
# The benchmark itself ends within ~150 s; this bounds a stuck build or run.
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 880


def fail(message: str) -> None:
    print(f"e2ebench/run.py: {message}", file=sys.stderr)
    sys.exit(2)


def run_checked(cmd, timeout, capture):
    """Runs cmd to completion (killing it on timeout); exits on failure."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=timeout,
                              stdout=subprocess.PIPE if capture else None,
                              stderr=subprocess.STDOUT if capture else None,
                              text=True)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {timeout} s: {' '.join(map(str, cmd))}")
    if proc.returncode != 0:
        if capture and proc.stdout:
            sys.stderr.write(proc.stdout[-4000:])
        fail(f"exit code {proc.returncode}: {' '.join(map(str, cmd))}")
    return proc


def build(build_dir: Path) -> Path:
    if not (ROOT / "CMakeLists.txt").is_file():
        fail("no library sources next to e2ebench/ (expected ../CMakeLists.txt)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (build_dir / "CMakeCache.txt").is_file():
        run_checked(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S, True)
    run_checked(["cmake", "--build", str(build_dir), "-j", jobs, "--target",
                 "e2ebench", "e2ebench_selftest", "shard_worker"],
                BUILD_TIMEOUT_S, True)
    return build_dir


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    # Required so that every run states its length; BENCHMARK.json's
    # run_seconds is the value the benchmark is defined with.
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    build_dir = build(target / "e2ebench")

    run_checked([str(build_dir / "e2ebench_selftest")], 60, True)
    cmd = [str(build_dir / "e2ebench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        traces = target / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark timed out after {RUN_TIMEOUT_S} s")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
