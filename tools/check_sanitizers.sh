#!/usr/bin/env bash
# Builds and runs the tier-1 test suite in plain, TSan, ASan+UBSan, and
# -DGTS_RACE_CHECK=ON configurations. Any sanitizer finding fails the run
# loudly (suppressions live in tools/tsan.supp and start empty on
# purpose). The race configuration additionally proves the detector is a
# pure observer: the Figure 4 trace from the instrumented build must be
# byte-identical to the trace from the plain (knob OFF) build.
#
# Usage: tools/check_sanitizers.sh [plain|tsan|tsan-concurrency|tsan-jobs|tsan-transfer|tsan-ingest|asan|race|sync|all]
#        (default: all)
# Env:   JOBS=N        parallelism (default: nproc)
#        BUILD_ROOT=d  where build trees go (default: <repo>/build-san)
#
# Also registered as a CTest check: `ctest -C sanitize -R check_sanitizers`
# from any configured build tree (kept out of the default `ctest` run so
# tier-1 stays fast).
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
JOBS="${JOBS:-$(nproc)}"
BUILD_ROOT="${BUILD_ROOT:-$ROOT/build-san}"
SUPP="$ROOT/tools/tsan.supp"
MODE="${1:-all}"

run_config() {
  local name="$1" sanitize="$2" race="${3:-OFF}"
  local build="$BUILD_ROOT/$name"
  echo "==== [$name] configure (GTS_SANITIZE='$sanitize' GTS_RACE_CHECK=$race) ===="
  cmake -B "$build" -S "$ROOT" -DGTS_SANITIZE="$sanitize" \
    -DGTS_RACE_CHECK="$race" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  echo "==== [$name] build ===="
  cmake --build "$build" -j "$JOBS"
  echo "==== [$name] ctest -L tier1 ===="
  (
    cd "$build"
    # halt_on_error makes the first TSan finding fail the test instead of
    # logging and continuing; new findings must be fixed or explicitly
    # added to tools/tsan.supp, never silently accumulated.
    TSAN_OPTIONS="suppressions=$SUPP halt_on_error=1 second_deadlock_stack=1" \
    ASAN_OPTIONS="strict_string_checks=1 detect_stack_use_after_return=1" \
    UBSAN_OPTIONS="print_stacktrace=1" \
      ctest --output-on-failure -j "$JOBS" -L tier1
  )
  echo "==== [$name] OK ===="
}

# Targeted ThreadSanitizer sweep of the suites labelled
# "concurrency_<area>" (tests/CMakeLists.txt); with no area, of all of
# them (`ctest -L concurrency`). Areas: jobs (gpu, engine, dispatch,
# hybrid, job-scheduler, race-check and concurrency-stress suites -- the
# GPU workers' handoff on one and two GPUs, host lanes beside them,
# concurrent Submit/Wait clients and multi-job batch epochs),
# transfer (page transfers reading concurrently updated PidSet
# counts) and ingest (queries on the GPU workers reading pages that
# publishes overlay, compact and rewrite between passes). Builds every
# concurrency suite in the tsan tree (shared with
# run_config tsan and between areas, so running every area costs one
# build) and runs the area's tests through ctest. Focused enough to sit
# in tier 1 (see tools/CMakeLists.txt check_tsan_<area>); the full
# three-config rebuild stays in the opt-in `-C sanitize` configuration.
run_tsan_concurrency() {
  local area="${1:-}"
  local name="tsan-${area:-concurrency}"
  local label="^concurrency${area:+_$area}"
  local build="$BUILD_ROOT/tsan"
  echo "==== [$name] configure (GTS_SANITIZE='thread') ===="
  cmake -B "$build" -S "$ROOT" -DGTS_SANITIZE=thread \
    -DGTS_RACE_CHECK=OFF \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  echo "==== [$name] build the concurrency-labelled suites ===="
  cmake --build "$build" --target concurrency_suites -j "$JOBS"
  echo "==== [$name] ctest -L '$label' under TSan ===="
  (
    cd "$build"
    TSAN_OPTIONS="suppressions=$SUPP halt_on_error=1 second_deadlock_stack=1" \
      ctest --output-on-failure -j "$JOBS" -L "$label"
  )
  echo "==== [$name] OK ===="
}

# GTS_RACE_CHECK=ON rebuild: runs the full tier-1 suite (including the
# concurrency stress harness) with the happens-before detector compiled
# in, then asserts the depth-1 FIFO Figure 4 trace is byte-identical to
# the plain build's -- the detector must never perturb the schedule.
run_race() {
  run_config race "" ON
  run_config race-baseline "" OFF
  echo "==== [race] fig4 trace byte-identity (knob ON vs OFF) ===="
  local work="$BUILD_ROOT/race-trace"
  mkdir -p "$work"
  (
    export GTS_BENCH_QUICK=1
    export GTS_BENCH_DATA="$work/data"
    "$BUILD_ROOT/race/bench/bench_fig4_timeline" \
      --trace_out="$work/fig4_race.json" >"$work/run_race.log"
    "$BUILD_ROOT/race-baseline/bench/bench_fig4_timeline" \
      --trace_out="$work/fig4_plain.json" >"$work/run_plain.log"
  )
  cmp "$work/fig4_race.json" "$work/fig4_plain.json"
  echo "==== [race] traces identical ===="
}

# -DGTS_SYNC_CHECK=ON -DGTS_RACE_CHECK=ON rebuild: the sync::Mutex
# wrappers route every adopted acquisition through the LockRegistry
# (lock-order graph, declared levels, wait-while-holding,
# pin-across-safe-point) and the Explorer suites systematically replay
# bounded interleavings of the adopted state machines. GTS_SYNC_STRICT=1
# aborts on the first unexpected violation, so any ordering regression
# fails loudly with both sites named. The same tree carries the
# happens-before race detector, so the engine's race hooks run in tier 1:
# race_check_test's sweeps (single runs and multi-job batch epochs) must
# report race_check_ran and zero races. Afterwards the Figure 4 bench runs
# under the instrumented build: its trace carries the sync.check
# metadata, which trace_lint rule 10 cross-checks against the registry's
# violation count, and stripping that metadata must yield the plain
# build's trace byte-for-byte (neither the wrappers nor the detector
# record timeline ops, so the schedule itself is knob-invariant).
run_sync() {
  local build="$BUILD_ROOT/sync"
  echo "==== [sync] configure (GTS_SYNC_CHECK=ON GTS_RACE_CHECK=ON) ===="
  cmake -B "$build" -S "$ROOT" -DGTS_SYNC_CHECK=ON -DGTS_RACE_CHECK=ON \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  echo "==== [sync] build sync/dispatch/job/ingest/race suites + fig4 ===="
  cmake --build "$build" --target sync_test dispatch_test \
    job_scheduler_test ingest_test race_check_test bench_fig4_timeline \
    trace_lint -j "$JOBS"
  echo "==== [sync] strict lock-order + explorer + race suites ===="
  (
    export GTS_SYNC_STRICT=1
    "$build/tests/sync_test"
    "$build/tests/dispatch_test"
    "$build/tests/job_scheduler_test"
    "$build/tests/ingest_test"
    "$build/tests/race_check_test"
  )
  echo "==== [sync] fig4 trace: rule 10 metadata + schedule invariance ===="
  local work="$BUILD_ROOT/sync-trace"
  mkdir -p "$work"
  (
    export GTS_BENCH_QUICK=1
    export GTS_BENCH_DATA="$work/data"
    GTS_SYNC_STRICT=1 "$build/bench/bench_fig4_timeline" \
      --trace_out="$work/fig4_sync.json" >"$work/run_sync.log"
  )
  "$build/tools/trace_lint" "$work/fig4_sync.json"
  local plain="$BUILD_ROOT/sync-baseline"
  cmake -B "$plain" -S "$ROOT" -DGTS_SYNC_CHECK=OFF \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  cmake --build "$plain" --target bench_fig4_timeline -j "$JOBS"
  (
    export GTS_BENCH_QUICK=1
    export GTS_BENCH_DATA="$work/data"
    "$plain/bench/bench_fig4_timeline" \
      --trace_out="$work/fig4_plain.json" >"$work/run_plain.log"
  )
  # The instrumented trace differs from the plain one only by the two
  # sync.* metadata records; dropping those lines must restore identity.
  grep -v '"name":"sync\.' "$work/fig4_sync.json" >"$work/fig4_sync_stripped.json"
  cmp "$work/fig4_sync_stripped.json" "$work/fig4_plain.json"
  echo "==== [sync] OK ===="
}

case "$MODE" in
  plain) run_config plain "" ;;
  tsan) run_config tsan thread ;;
  tsan-concurrency) run_tsan_concurrency ;;
  tsan-jobs) run_tsan_concurrency jobs ;;
  tsan-transfer) run_tsan_concurrency transfer ;;
  tsan-ingest) run_tsan_concurrency ingest ;;
  asan) run_config asan-ubsan "address;undefined" ;;
  race) run_race ;;
  sync) run_sync ;;
  all)
    run_config plain ""
    run_config tsan thread
    run_config asan-ubsan "address;undefined"
    run_race
    ;;
  *)
    echo "unknown mode '$MODE' (expected plain|tsan|tsan-concurrency|tsan-jobs|tsan-transfer|tsan-ingest|asan|race|sync|all)" >&2
    exit 2
    ;;
esac
echo "All requested sanitizer configurations passed."
