#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
benchmark package (perfbench/CMakeLists.txt, Release) under the build
directory ($CARGO_TARGET_DIR, default .bench_build); later calls only
rebuild what changed. Build output goes to stderr. The benchmark's own
stdout is passed through: its last line is the JSON result, and the exit
code is the benchmark's (0 only for a correct run). With --trace 1 the
spans are written to <build dir>/perfbench/spans/<workload>.csv.
"""

import argparse
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        print("perfbench: the register sources (src/) are not next to "
              "perfbench/; run from a full checkout", file=sys.stderr)
        return 2

    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(root, build_root, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", bench_dir, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        try:
            built = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                   timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print("perfbench: build timed out", file=sys.stderr)
            return 2
        if built.returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return 2

    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        command += ["--spans", os.path.join(spans_dir, args.workload + ".csv")]
    sys.stdout.flush()
    try:
        run = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 2
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
