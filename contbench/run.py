#!/usr/bin/env python3
"""Builds the continuum benchmark from source and runs one workload.

Run from the repository root:

    python3 contbench/run.py --workload pilot-serving --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR when set, else .bench_build/ (both
relative to the repository root). Build output goes to stderr; stdout carries
the benchmark's report, whose last line is the JSON result. With --trace 1
the spans of the last traced round are written under <build>/spans/.
The exit code is the benchmark's (non-zero when a build step or an output
check fails, in which case no result line is printed).
"""
import argparse
import os
import subprocess
import sys

WORKLOADS = ("pilot-serving", "deploy-churn", "kb-replicated")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    source = os.path.join(root, "contbench")

    steps = [
        ["cmake", "-S", source, "-B", build, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build, "-j", "4", "--target", "continuum_bench"],
    ]
    for step in steps:
        done = subprocess.run(step, cwd=root, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print(f"build step failed: {' '.join(step)}", file=sys.stderr)
            return done.returncode or 1

    command = [
        os.path.join(build, "continuum_bench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
    ]
    if args.trace == "1":
        spans = os.path.join(build, "spans")
        os.makedirs(spans, exist_ok=True)
        command += ["--spans-out",
                    os.path.join(spans, f"{args.workload}-seed{args.seed}.tsv")]
    sys.stdout.flush()
    return subprocess.run(command, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
