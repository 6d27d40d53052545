#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark on tiny inputs.

Run from the root of a checkout:

    python3 bench_e2e/selftest.py

For every workload it runs the benchmark untraced and traced on tiny
inputs and checks that the result line has exactly the contract's keys,
that every metric BENCHMARK.json names is emitted with its unit (and no
other), and that the environment and input lines are there. It then
checks that the correctness gate can fail: a run with a tampered reference
fingerprint must report correct=false, count the table as failed and exit
non-zero. Last, it checks that a directory holding only BENCHMARK.json and
the benchmark's own files fails without printing a result.
"""
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

ENVIRONMENT_KEYS = {"nproc", "cpu_model", "compiler", "build_type"}
INPUT_KEYS = {"workload", "seed", "tables", "records", "stream_rate_per_s",
              "capacity_tables_per_s", "stream_load", "generator_lag_ms_p50",
              "generator_lag_ms_max", "latency_samples", "samples_beyond_p90",
              "index_bytes", "verdict_cache_entries", "search_cache_entries",
              "replay"}


def run(args, cwd=ROOT, run_py=RUN):
    cmd = ["python3", run_py, "--seed", "5", "--seconds", "1"] + args
    result = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                            timeout=600)
    return result.returncode, result.stdout.strip().splitlines(), result.stderr


def check_result(workload, trace, spec, failures):
    code, lines, stderr = run(["--workload", workload, "--trace", str(trace),
                               "--tiny"])
    name = f"{workload} --trace {trace}"
    if code != 0 or not lines:
        failures.append(f"{name}: exit {code}\n{stderr[-2000:]}")
        return
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        failures.append(f"{name}: result keys {sorted(result)}")
        return
    if result["correct"] is not True or result["failed"] != 0 or \
            result["attempted"] < 1:
        failures.append(f"{name}: not a clean pass: {lines[-1]}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    got = result["metrics"]
    if set(got) != set(units):
        failures.append(f"{name}: missing {sorted(set(units) - set(got))}, "
                        f"unexpected {sorted(set(got) - set(units))}")
    for metric, body in got.items():
        value = body.get("value")
        if body.get("unit") != units.get(metric):
            failures.append(f"{name}: {metric} unit {body.get('unit')}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            failures.append(f"{name}: {metric} value {value!r}")
    environment = [json.loads(line)["environment"] for line in lines
                   if line.startswith('{"environment"')]
    inputs = [json.loads(line)["input"] for line in lines
              if line.startswith('{"input"')]
    if not environment or not ENVIRONMENT_KEYS <= set(environment[0]):
        failures.append(f"{name}: no complete environment line")
    if not inputs or not INPUT_KEYS <= set(inputs[0]):
        failures.append(f"{name}: no complete input line")
    elif trace and inputs[0]["replay"] != "match":
        failures.append(f"{name}: replay check {inputs[0]['replay']}")


def check_tamper(failures):
    code, lines, _ = run(["--workload", "serve_stream", "--trace", "0",
                          "--tiny", "--tamper"])
    result = json.loads(lines[-1]) if lines else {}
    if code == 0 or result.get("correct") is not False or \
            result.get("failed", 0) < 1:
        failures.append(f"tampered fingerprint not reported: exit {code}, "
                        f"{lines[-1] if lines else 'no output'}")


def check_bare_directory(failures):
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines, _ = run(["--workload", "serve_stream", "--trace", "0"],
                         cwd=bare,
                         run_py=os.path.join(bare, os.path.basename(HERE),
                                             "run.py"))
    shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or any(line.startswith('{"correct"') for line in lines):
        failures.append(f"bare directory did not fail cleanly: exit {code}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            check_result(workload, trace, spec, failures)
    check_tamper(failures)
    check_bare_directory(failures)
    for failure in failures:
        print("FAIL", failure)
    print("selftest:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
