#!/usr/bin/env sh
# Tier-1 verify plus the Debug-config leg. The default build is Release
# (-O2, NDEBUG): exactly the line ROADMAP.md documents. The second pass
# builds with CMAKE_BUILD_TYPE=Debug (NDEBUG unset, -O2 still applied via
# the global flags), which is the only configuration where the
# USTL_DCHECK invariant scans run — CI exercises both, so run both
# locally before sending a PR. Set USTL_CHECK_SKIP_DEBUG=1 to run only
# the tier-1 Release pass.
#
# A third leg builds the parallel subsystems under ThreadSanitizer
# (-DUSTL_TSAN=ON) and runs parallel_test / grouping_test /
# pipeline_test / serve_test / robustness_test / obs_test / persist_test
# — the wave scans, the thread pool, the service, the retry/cancel
# machinery and the WAL/snapshot layer are only honest if an
# instrumented run agrees. Set USTL_CHECK_SKIP_TSAN=1 to skip it.
set -eu
cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 2)"

cmake -B build -S .
cmake --build build -j"$JOBS"
(cd build && ctest --output-on-failure -j"$JOBS")

# Column-parallel byte-compare smoke: a 3-column replicated table must
# standardize to byte-identical CSVs for the serial run, the
# column-parallel run and the cache-off run (the pipeline determinism
# contract, ISSUE 3 acceptance).
./build/ustl-generate --dataset address --scale 0.05 --columns 3 \
  --out build/smoke_columns.csv
./build/ustl-consolidate --input build/smoke_columns.csv \
  --output build/smoke_serial.csv --approve all --budget 40
./build/ustl-consolidate --input build/smoke_columns.csv \
  --output build/smoke_parallel.csv --approve all --budget 40 \
  --column-parallel --threads 4
./build/ustl-consolidate --input build/smoke_columns.csv \
  --output build/smoke_nocache.csv --approve all --budget 40 \
  --oracle-cache off
cmp build/smoke_serial.csv build/smoke_parallel.csv
cmp build/smoke_serial.csv build/smoke_nocache.csv
echo "column-parallel smoke: byte-identical"

# Wave-scan / search-cache byte-compare: grouped output — and therefore
# the standardized table — must be byte-identical across --threads {1,4}
# x --search-cache {on,off}, on the address table above and on an
# authorlist table (other value shapes, other structure groups). Each
# table's serial cache-on run is its baseline.
./build/ustl-generate --dataset authorlist --scale 0.05 \
  --out build/smoke_authors.csv
./build/ustl-consolidate --input build/smoke_authors.csv \
  --output build/smoke_authors_serial.csv --approve all --budget 40
for table in columns authors; do
  if [ "$table" = columns ]; then base=build/smoke_serial.csv
  else base=build/smoke_authors_serial.csv; fi
  for config in "--threads 4" "--search-cache off" \
                "--threads 4 --search-cache off"; do
    # shellcheck disable=SC2086
    ./build/ustl-consolidate --input "build/smoke_$table.csv" \
      --output build/smoke_wave.csv --approve all --budget 40 $config
    cmp "$base" build/smoke_wave.csv
  done
done
echo "wave-scan/search-cache smoke: byte-identical"

# Multi-table serving byte-compare (ISSUE 5 acceptance): three concurrent
# tables through one long-lived ustl-serve service must match a serial
# per-table ustl-consolidate run byte for byte, across --threads {1,4} x
# two admission orders x warm/cold cache (--repeat 2: round 2 runs
# against the round-1-warmed verdict + search caches).
./build/ustl-generate --dataset address --scale 0.05 --seed 21 \
  --out build/serve_a.csv
./build/ustl-generate --dataset journaltitle --scale 0.05 --seed 22 \
  --out build/serve_b.csv
./build/ustl-generate --dataset address --scale 0.03 --seed 23 --columns 2 \
  --out build/serve_c.csv
for t in a b c; do
  ./build/ustl-consolidate --input build/serve_$t.csv \
    --output build/serve_$t.base.csv --approve all --budget 40
done
printf '%s\n' \
  "id=a input=build/serve_a.csv output=build/serve_a.out.csv budget=40" \
  "id=b input=build/serve_b.csv output=build/serve_b.out.csv budget=40" \
  "id=c input=build/serve_c.csv output=build/serve_c.out.csv budget=40" \
  > build/serve_fwd.txt
printf '%s\n' \
  "id=c input=build/serve_c.csv output=build/serve_c.out.csv budget=40" \
  "id=b input=build/serve_b.csv output=build/serve_b.out.csv budget=40" \
  "id=a input=build/serve_a.csv output=build/serve_a.out.csv budget=40" \
  > build/serve_rev.txt
for threads in 1 4; do
  for manifest in serve_fwd serve_rev; do
    ./build/ustl-serve --manifest build/$manifest.txt --threads "$threads" \
      --repeat 2
    for t in a b c; do
      cmp build/serve_$t.base.csv build/serve_$t.out.csv
      cmp build/serve_$t.base.csv build/serve_$t.out.csv.r2
    done
  done
done
echo "multi-table serve smoke: byte-identical"

# Fault-sweep byte-compare (ISSUE 7 acceptance): the same three tables
# under an eventually-successful fault plan (every faulty backend call
# recovers within the retry budget) must still match the clean serial
# baselines byte for byte — retries may cost time, never bytes. A second
# sweep with injected latency plus a far-future deadline checks the
# deadline plumbing is inert when it does not fire.
for threads in 1 4; do
  ./build/ustl-serve --manifest build/serve_fwd.txt --threads "$threads" \
    --fault-plan "rate=0.6,fails=2,seed=9" --retry-attempts 4
  for t in a b c; do
    cmp build/serve_$t.base.csv build/serve_$t.out.csv
  done
done
./build/ustl-serve --manifest build/serve_fwd.txt --threads 4 \
  --fault-plan "rate=0.5,fails=1,slow=0.3,slow_ms=2,seed=11" \
  --deadline-ms 600000
for t in a b c; do
  cmp build/serve_$t.base.csv build/serve_$t.out.csv
done
echo "fault-sweep serve smoke: byte-identical"

# Observability byte-compare (ISSUE 8 acceptance): the same manifest with
# --trace-out and --metrics-out armed must still match the serial
# baselines byte for byte across threads {1,4} — tracing records, never
# perturbs — and every emitted span stream must pass the structural
# validator (id ordering, interval containment, one root per request).
for threads in 1 4; do
  ./build/ustl-serve --manifest build/serve_fwd.txt --threads "$threads" \
    --trace-out "build/serve_trace_${threads}.jsonl" \
    --metrics-out build/serve_metrics.prom
  for t in a b c; do
    cmp build/serve_$t.base.csv build/serve_$t.out.csv
  done
  python3 tools/check_trace.py \
    "build/serve_trace_${threads}.jsonl" --min-requests 3
done
grep -q "ustl_requests_completed_total" build/serve_metrics.prom
echo "observability serve smoke: byte-identical + traces valid"

# Deep-observability sweep (ISSUE 10 acceptance): the full diagnosis kit
# armed — CPU-attributed profiling (--profile-out), deterministic 1-in-N
# trace sampling (--trace-sample) and the always-on flight recorder with
# a stall watchdog — must still match the serial baselines byte for byte
# across threads {1,4}. Each profile dump must pass the conservation
# validator together with its collapsed-stack twin, the sampled stream
# must stay structurally valid, and a clean run must dump nothing (the
# recorder speaks only when something goes wrong).
for threads in 1 4; do
  : > build/serve_flight_clean.jsonl
  ./build/ustl-serve --manifest build/serve_fwd.txt --threads "$threads" \
    --profile-out "build/serve_profile_${threads}.json" \
    --trace-out "build/serve_sampled_${threads}.jsonl" \
    --trace-sample 2 \
    --flight-dump build/serve_flight_clean.jsonl \
    --stall-threshold-ms 60000
  for t in a b c; do
    cmp build/serve_$t.base.csv build/serve_$t.out.csv
  done
  python3 tools/check_trace.py \
    "build/serve_sampled_${threads}.jsonl" --min-requests 1
  python3 tools/check_trace.py \
    --profile "build/serve_profile_${threads}.json" \
    --folded "build/serve_profile_${threads}.json.folded"
  if [ -s build/serve_flight_clean.jsonl ]; then
    echo "flight recorder dumped on a clean run"
    exit 1
  fi
done
# A forced deadline-exceeded request (every backend call slowed past a
# 1 ms deadline) must leave schema-valid flight-recorder dumps with the
# expected reason — post-hoc evidence with zero pre-arming. The service
# drains cleanly (exit 0): a blown per-request deadline is a request
# outcome, not a process failure.
./build/ustl-serve --manifest build/serve_fwd.txt --threads 4 \
  --deadline-ms 1 --fault-plan "slow=1.0,slow_ms=25,rate=0" \
  --flight-dump build/serve_flight_deadline.jsonl
python3 tools/check_trace.py --flight build/serve_flight_deadline.jsonl \
  --min-dumps 1 --reason deadline_exceeded
echo "deep-observability smoke: byte-identical + profile/flight valid"

# Crash-recovery byte-compare (ISSUE 9 acceptance): a persisted run must
# match the serial baselines, a warm restart over the same directory must
# recover a nonzero record count and still match, and a SIGKILL planted
# mid-WAL-append (whole frame and torn mid-frame) must leave a directory
# a restart recovers from — same bytes, no repair step. Recovery may
# only ever skip oracle calls, never change output.
rm -rf build/persist_smoke
./build/ustl-serve --manifest build/serve_fwd.txt --threads 4 \
  --persist-dir build/persist_smoke --fsync batch
for t in a b c; do
  cmp build/serve_$t.base.csv build/serve_$t.out.csv
done
./build/ustl-serve --manifest build/serve_fwd.txt --threads 4 \
  --persist-dir build/persist_smoke --fsync batch \
  --metrics-out build/persist_metrics.prom
for t in a b c; do
  cmp build/serve_$t.base.csv build/serve_$t.out.csv
done
awk '$1 == "ustl_persist_recovered_records" && $2 + 0 > 0 { found = 1 }
     END { exit !found }' build/persist_metrics.prom
for crash_point in wal_append:5 wal_mid_record:9; do
  rm -rf build/persist_smoke
  if ./build/ustl-serve --manifest build/serve_fwd.txt --threads 4 \
      --persist-dir build/persist_smoke --fsync always \
      --crash-point "$crash_point"; then
    echo "crash point $crash_point never fired"
    exit 1
  fi
  ./build/ustl-serve --manifest build/serve_fwd.txt --threads 4 \
    --persist-dir build/persist_smoke --fsync batch \
    --metrics-out build/persist_metrics.prom
  for t in a b c; do
    cmp build/serve_$t.base.csv build/serve_$t.out.csv
  done
  awk '$1 == "ustl_persist_recovered_records" && $2 + 0 > 0 { found = 1 }
       END { exit !found }' build/persist_metrics.prom
done
echo "crash-recovery serve smoke: kill-tested, byte-identical"

# Graceful drain (ISSUE 9 acceptance): SIGTERM mid-workload must exit 0
# after finishing in-flight requests, and still flush the final metrics
# scrape and snapshot. || true on the kill: if the workload finished
# first the process is gone, and a clean normal exit is also acceptable.
rm -rf build/persist_smoke
./build/ustl-serve --manifest build/serve_fwd.txt --threads 4 --repeat 8 \
  --persist-dir build/persist_smoke --fsync batch \
  --metrics-out build/drain_metrics.prom &
serve_pid=$!
sleep 1
kill -TERM "$serve_pid" 2>/dev/null || true
if wait "$serve_pid"; then :; else
  echo "graceful drain exited nonzero"
  exit 1
fi
grep -q "ustl_requests_completed_total" build/drain_metrics.prom
test -f build/persist_smoke/snapshot.bin
echo "graceful drain smoke: clean exit + final snapshot"

# Perf-regression gate: rerun the micro-kernel suite plus the
# robustness legs and gate their hardware-independent metrics
# (speedup_vs_seed, zero allocs, retries recovered with byte-identical
# output, breaker trips, bounded cancel latency, <=2% zero-fault
# overhead, <=2% full-diagnosis observability overhead with ring
# insertion and folding engaged) against the recorded BENCH_*
# trajectory.
# Set USTL_CHECK_SKIP_BENCH=1 to skip (e.g. on heavily loaded boxes).
if [ "${USTL_CHECK_SKIP_BENCH:-0}" != "1" ]; then
  ./build/bench_micro_kernels > build/bench_fresh.json
  ./build/bench_robustness_serve >> build/bench_fresh.json
  python3 tools/check_bench.py --fresh build/bench_fresh.json
fi

if [ "${USTL_CHECK_SKIP_TSAN:-0}" != "1" ]; then
  cmake -B build-tsan -S . -DUSTL_TSAN=ON
  cmake --build build-tsan -j"$JOBS" --target parallel_test grouping_test \
    pipeline_test serve_test robustness_test obs_test persist_test
  (cd build-tsan && ctest --output-on-failure \
    -R "parallel_test|grouping_test|pipeline_test|serve_test|robustness_test|obs_test|persist_test")
fi

if [ "${USTL_CHECK_SKIP_DEBUG:-0}" != "1" ]; then
  cmake -B build-debug -S . -DCMAKE_BUILD_TYPE=Debug
  cmake --build build-debug -j"$JOBS"
  (cd build-debug && ctest --output-on-failure -j"$JOBS")
fi
