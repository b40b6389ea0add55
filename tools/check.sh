#!/usr/bin/env bash
#===- tools/check.sh - Tier-1 verify + TSan and UBSan gates --------------===#
#
# The checks a change must pass before it lands:
#
#   1. configure + build + full ctest in build/ (the tier-1 suite),
#   2. a -DRML_SANITIZE=thread build in build-tsan/ running the
#      concurrency-sensitive labels: the service layer, the scheduler
#      policies (completion-order and drain tests), and the
#      cross-request page pool (including the 8-thread region-runtime
#      stress test), the persistent disk cache (shared-directory
#      multi-service stress), the network front door (wire codec,
#      HTTP shim, and loopback end-to-end against a live Server),
#      the flat runnable IR (round-trip/corruption fuzz plus the
#      warm-restart execute-from-disk service tests), the learned
#      cost model (prediction/EWMA/budget units plus a multi-threaded
#      coherence check), the memory system (GcPolicy units plus the
#      adaptive-vs-static differential and the golden adaptive runs),
#      and the capture-tracking analysis (report byte-identity across
#      cache tiers and process restarts, the CaptureQuery wire kind,
#      and the disk-format version gate), and
#   3. a -DRML_SANITIZE=undefined build in build-ubsan/ running the
#      full suite, halting on the first undefined-behaviour report.
#
# Usage: tools/check.sh            # from anywhere inside the repo
#
#===----------------------------------------------------------------------===#

set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || echo 2)"

echo "== tier 1: build + full test suite =="
cmake -B "$ROOT/build" -S "$ROOT"
cmake --build "$ROOT/build" -j "$JOBS"
ctest --test-dir "$ROOT/build" --output-on-failure -j "$JOBS"

echo "== tsan: service + pool + sched + disk + net + flat + cost + mem + capture labels =="
cmake -B "$ROOT/build-tsan" -S "$ROOT" -DRML_SANITIZE=thread
cmake --build "$ROOT/build-tsan" -j "$JOBS"
ctest --test-dir "$ROOT/build-tsan" -L 'service|pool|sched|disk|net|flat|cost|mem|capture' --output-on-failure

echo "== ubsan: full test suite =="
cmake -B "$ROOT/build-ubsan" -S "$ROOT" -DRML_SANITIZE=undefined
cmake --build "$ROOT/build-ubsan" -j "$JOBS"
UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
  ctest --test-dir "$ROOT/build-ubsan" --output-on-failure -j "$JOBS"

echo "== check.sh: all green =="
