#!/usr/bin/env bash
#===- tools/smoke_cli.sh - rmlc/rmld command-line surface smoke ----------===#
#
# Pins the command-line surface of both tools:
#
#   1. Removed flags stay removed: each is an unknown option (exit 2),
#      and a removed --sched value is an unknown scheduler (exit 2).
#   2. Numeric flags fail closed: a unit suffix, a sign or an
#      out-of-range value is a usage error (exit 2), never a silent
#      truncation or wrap.
#   3. Every --flag that `rmlc --help` or `rmld --help` prints is
#      documented in README.md.
#   4. The service flags both tools share parse one way: the removed
#      --page-pool=N spelling is an unknown option, and
#      --cache-sweep-ms 0 is the sweeper's 1 ms floor.
#
# Usage: tools/smoke_cli.sh [BUILD_DIR]     (default: ./build)
#
#===----------------------------------------------------------------------===#

set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD="${1:-$ROOT/build}"
RMLC="$BUILD/tools/rmlc"
RMLD="$BUILD/tools/rmld"

[ -x "$RMLC" ] || { echo "smoke_cli: missing $RMLC" >&2; exit 1; }
[ -x "$RMLD" ] || { echo "smoke_cli: missing $RMLD" >&2; exit 1; }

FAILS=0

# expect STATUS CMD...: runs CMD (bounded, in case a daemon starts
# serving) and requires exit status STATUS.
expect() {
  local Want="$1"
  shift
  local Got=0
  timeout 20 "$@" > /dev/null 2>&1 || Got=$?
  if [ "$Got" -ne "$Want" ]; then
    echo "smoke_cli: FAIL: exit $Got, want $Want: $*" >&2
    FAILS=$((FAILS + 1))
  fi
}

cd "$ROOT"
TUTORIAL=examples/programs/tutorial.mml

# A well-formed command passes, so the rejections below are not vacuous.
expect 0 "$RMLC" --gc-threshold 2048 -e '1 + 2'
expect 0 "$RMLC" --serve-batch "$TUTORIAL" --sched fair

# 1. Removed flags and values.
for Flag in --prewarm-pool --auto-budget --adaptive-gc; do
  expect 2 "$RMLC" "$Flag" -e '1 + 2'
done
expect 2 "$RMLC" --gc-pause-budget 1000 -e '1 + 2'
expect 2 "$RMLC" --serve-batch "$TUTORIAL" --sched ljf
expect 2 "$RMLC" --serve-batch "$TUTORIAL" --sched deadline
expect 2 "$RMLC" --serve-batch "$TUTORIAL" --phase-budget infer=1
expect 2 "$RMLD" --prewarm-pool
expect 2 "$RMLD" --auto-budget
expect 2 "$RMLD" --budget-quantile 0.95
expect 2 "$RMLD" --budget-multiplier 8
expect 2 "$RMLD" --adaptive-gc
expect 2 "$RMLD" --gc-pause-budget 1000
expect 2 "$RMLD" --sched ljf
expect 2 "$RMLD" --sched deadline
expect 2 "$RMLD" --phase-budget infer=1

# 2. Malformed numbers.
expect 2 "$RMLC" --serve-batch "$TUTORIAL" --cache-max-age 5s
expect 2 "$RMLC" --gc-threshold 2k -e '1 + 2'
expect 2 "$RMLC" --jobs -1 -e '1 + 2'
expect 2 "$RMLD" --port 70000
expect 2 "$RMLD" --jobs -1

# 3. Documented flags.
for Tool in "$RMLC" "$RMLD"; do
  for Flag in $("$Tool" --help 2>&1 | grep -o -- '--[a-z][a-z-]*' | sort -u); do
    if ! grep -qE -- "${Flag}([^a-z-]|\$)" README.md; then
      echo "smoke_cli: FAIL: $(basename "$Tool") $Flag is not in README.md" >&2
      FAILS=$((FAILS + 1))
    fi
  done
done

# 4. Shared service flags.
expect 2 "$RMLC" --page-pool=8 -e '1 + 2'
expect 2 "$RMLD" --page-pool=8
# The batch's last program runs for ~0.2 s after the first entries are
# stored: a 1 ms sweeper evicts them meanwhile, where a 5 s cadence
# sweeps only at start-up, before any entry exists.
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
mkdir "$WORK/cache"
cat > "$WORK/long.mml" <<'MML'
fun inner n = if n = 0 then 0 else 1 + inner (n - 1)
fun outer k acc = if k = 0 then acc else outer (k - 1) (acc + inner 1000)
;outer 1000 0
MML
SWEPT=$(timeout 20 "$RMLC" --serve-batch "$TUTORIAL,$WORK/long.mml" --jobs 1 \
  --cache-dir "$WORK/cache" --cache-max-bytes 1 --cache-sweep-ms 0 --stats |
  grep -o '"swept_files":[0-9]*' | cut -d: -f2 || true)
if [ "${SWEPT:-0}" -lt 1 ]; then
  echo "smoke_cli: FAIL: --cache-sweep-ms 0 swept ${SWEPT:-no} files," \
    "want at least 1" >&2
  FAILS=$((FAILS + 1))
fi

if [ "$FAILS" -ne 0 ]; then
  echo "smoke_cli: $FAILS check(s) failed" >&2
  exit 1
fi
echo "smoke_cli: ok"
