#!/usr/bin/env python3
"""Perf-regression gate over the recorded BENCH_* trajectory.

Compares a fresh bench run (bench_micro_kernels plus
bench_robustness_serve, JSON lines on a file or stdin) against the most
recent recorded BENCH_*_posting_codec.json and fails on a >15%
regression. Only hardware-independent *ratio* metrics are gated —
speedups, allocation counts, fault/retry/overhead facts — never
absolute nanoseconds: CI boxes and the box that recorded the trajectory
do not share a clock, but they must agree that the fused kernel beats
the seed kernel and that the zero-alloc and robustness machinery
actually engages.

Usage:
  check_bench.py --fresh fresh.json [--recorded BENCH_....json]
                 [--tolerance 0.15]

With no --recorded, the newest BENCH_*_posting_codec.json next to the
repository root (this script's parent directory) is used.
"""

import argparse
import glob
import json
import os
import sys

# (bench, variant) -> list of (metric, kind) to gate.
#   ratio_min: fresh >= recorded * (1 - tolerance)   (bigger is better)
#   exact_max: fresh <= value                        (hard ceiling)
#   nonzero:   fresh > 0                             (machinery engaged)
GATES = {
    ("posting_extend_kernel", "fused"): [
        ("speedup_vs_seed", "ratio_min", None),
        ("allocs_per_extend", "exact_max", 0.0),
    ],
    # Robustness legs (ISSUE 7) gate only hardware-independent facts: the
    # fault machinery engaged, nothing exhausted its retry budget, output
    # stayed byte-identical, cancellation returned in bounded time (a
    # hang detector, hence the generous ceiling), and the armed-but-idle
    # plumbing costs <= 2% over the plain service. Every gated time ratio
    # (here, persist_overhead and posting_extend_kernel/fused) is the
    # median of per-rep paired ratios over >= 9 interleaved reps
    # (bench_util.h MedianPairedRatio), not a ratio of per-side minima.
    ("robustness_serve", "fault_sweep"): [
        ("faults_injected", "nonzero", None),
        ("retries", "nonzero", None),
        ("recovered", "nonzero", None),
        ("exhausted", "exact_max", 0.0),
        ("byte_identical", "nonzero", None),
    ],
    ("robustness_serve", "breaker"): [
        ("breaker_opens", "nonzero", None),
        ("short_circuits", "nonzero", None),
        ("service_alive", "nonzero", None),
    ],
    ("robustness_serve", "cancel"): [
        ("cancelled", "nonzero", None),
        ("cancel_latency_ms", "exact_max", 5000.0),
    ],
    ("robustness_serve", "zero_fault"): [
        ("overhead_ratio", "exact_max", 1.02),
    ],
    # Observability (ISSUE 8 + 10): full diagnosis (trace formatting +
    # CPU-attributed profile folding + a live metrics scrape) must cost
    # <= 2% process CPU over the production default (flight recorder on
    # in both sides — it is always-on by design), emit real spans,
    # actually record into the ring and fold into the profile table,
    # and never perturb the output bytes.
    ("robustness_serve", "obs_overhead"): [
        ("overhead_ratio", "exact_max", 1.02),
        ("spans", "nonzero", None),
        ("recorder_spans", "nonzero", None),
        ("profile_folded", "nonzero", None),
        ("byte_identical", "nonzero", None),
    ],
    # Durability (ISSUE 9): the WAL + snapshot layer (fsync=batch) must
    # cost <= 5% over the plain service (median of paired ratios; fsyncs
    # are real I/O, hence the wider ceiling than the in-process legs), a warm
    # restart must recover a nonzero record count and strictly cut
    # backend calls, and persisted output must stay byte-identical.
    ("robustness_serve", "persist_overhead"): [
        ("overhead_ratio", "exact_max", 1.05),
        ("recovered_records", "nonzero", None),
        ("warm_call_savings", "nonzero", None),
        ("byte_identical", "nonzero", None),
    ],
}


def load_records(path):
    """Parses JSON lines, skipping non-JSON noise, keyed by (bench, variant)."""
    records = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line.startswith("{"):
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            key = (record.get("bench"), record.get("variant"))
            if key[0] is not None:
                records[key] = record
    return records


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fresh", required=True,
                        help="fresh bench output (JSON lines; '-' = stdin)")
    parser.add_argument("--recorded", default=None,
                        help="recorded trajectory file (default: newest "
                             "BENCH_*_posting_codec.json beside the repo root)")
    parser.add_argument("--tolerance", type=float, default=0.15,
                        help="allowed relative regression on ratio metrics")
    args = parser.parse_args()

    if args.recorded is None:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        candidates = sorted(glob.glob(
            os.path.join(root, "BENCH_*_posting_codec.json")))
        if not candidates:
            print("check_bench: no recorded BENCH_*_posting_codec.json found",
                  file=sys.stderr)
            return 2
        args.recorded = candidates[-1]

    if args.fresh == "-":
        fresh_path = "/dev/stdin"
    else:
        fresh_path = args.fresh
    fresh = load_records(fresh_path)
    recorded = load_records(args.recorded)

    failures = []
    checks = 0
    for key, gates in GATES.items():
        bench, variant = key
        fresh_record = fresh.get(key)
        if fresh_record is None:
            failures.append(f"{bench}/{variant}: missing from fresh run")
            continue
        for metric, kind, bound in gates:
            value = fresh_record.get(metric)
            if value is None:
                failures.append(f"{bench}/{variant}: fresh run lacks {metric}")
                continue
            checks += 1
            if kind == "ratio_min":
                baseline_record = recorded.get(key)
                if baseline_record is None or metric not in baseline_record:
                    failures.append(
                        f"{bench}/{variant}: {metric} missing from recorded "
                        f"trajectory {os.path.basename(args.recorded)}")
                    continue
                baseline = float(baseline_record[metric])
                minimum = baseline * (1.0 - args.tolerance)
                if float(value) < minimum:
                    failures.append(
                        f"{bench}/{variant}: {metric} regressed: "
                        f"{value:.3f} < {minimum:.3f} "
                        f"(recorded {baseline:.3f}, "
                        f"tolerance {args.tolerance:.0%})")
            elif kind == "exact_max":
                if float(value) > bound:
                    failures.append(
                        f"{bench}/{variant}: {metric} {value:.3f} exceeds "
                        f"{bound:.3f}")
            elif kind == "nonzero":
                if float(value) <= 0:
                    failures.append(
                        f"{bench}/{variant}: {metric} is zero — the "
                        f"gated machinery never engaged")

    if failures:
        print(f"check_bench: {len(failures)} failure(s) vs "
              f"{os.path.basename(args.recorded)}:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"check_bench: {checks} gated metric(s) OK vs "
          f"{os.path.basename(args.recorded)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
