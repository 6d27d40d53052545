#!/usr/bin/env python3
"""Builds the USTL end-to-end benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 bench_e2e/run.py --workload serve_stream --seed 1 --seconds 20 --trace 0

The library and the benchmark binary are compiled into .bench_build/ (the
first run builds, later runs reuse it). Build output goes to stderr; the
benchmark's stdout is passed through, so its last line is the JSON result.
Every flag goes to the binary; a traced run (--trace 1) also writes its
spans to .bench_build/spans/<workload>-<seed>.*.jsonl.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "bench_e2e")
BINARY = os.path.join(BUILD, "ustl_bench_e2e")


def build():
    """Configures and builds; returns True on success."""
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", "4"],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            return False
    return os.path.isfile(BINARY)


def main(argv):
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--workload", default="")
    parser.add_argument("--seed", default="")
    parser.add_argument("--trace", default="0")
    known, _ = parser.parse_known_args(argv)
    args = list(argv)
    if known.trace == "1":
        spans = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans, exist_ok=True)
        args += ["--spans-out",
                 os.path.join(spans, f"{known.workload}-{known.seed}")]
    if not build():
        print("bench_e2e: build failed", file=sys.stderr)
        return 1
    return subprocess.run([BINARY] + args).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
