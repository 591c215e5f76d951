#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload serve-cold --seed 1 --seconds 10 --trace 0

Workloads: serve-cold, serve-warm, explore-large (see perfbench/README.md).
The first call configures and builds the library sources and the
benchmark program (Release) under $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later calls rebuild incrementally. Build output
goes to stderr, so the last line of stdout is the benchmark's JSON
result. Exits non-zero, printing no result, when the build or the run
fails.
"""

import os
import subprocess
import sys

RUN_TIMEOUT_S = 175


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.join(root, "perfbench")
    steps = [
        ["cmake", "-S", here, "-B", build, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build, "--target", "perfbench", "-j", "4"],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(step), file=sys.stderr)
            return 1

    binary = os.path.join(build, "perfbench")
    command = [binary, *sys.argv[1:], "--out", os.path.join(root, "perfbench-out")]
    try:
        done = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
