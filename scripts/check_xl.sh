#!/bin/sh
# xl scale gate: solve the pinned 5000-vertex scale-free Gaussian smoke
# scenario (bench/main.exe xl-smoke, the same instance behind the
# BENCH_metrics.json xl_gate block) on the disaster-region sharded
# solver and assert that
#
#   - the run takes the sharded path (several shards, not delegation),
#   - the stitched solution is certified with zero violations,
#   - the output is byte-identical for -j1 and -j4 pools,
#   - the hop searches (demand segmentation and the final greedy
#     routing) stay local: bidir.scanned <= 46500, about 1.5x the
#     measured 31012; a one-sided search scans ~309k here.
#
# Fully deterministic (pinned seeds, no wall-clock in the output), so it
# runs as part of @runtest via the @xl alias:
#
#   dune build @xl
#
# When invoked through the alias, $BENCH_EXE points at the already-built
# executable (a dune action must not invoke dune recursively).
set -eu

cd "$(dirname "$0")/.."

SCAN_CEILING=46500

if [ -z "${BENCH_EXE:-}" ]; then
  dune build bench/main.exe
  BENCH_EXE=_build/default/bench/main.exe
fi

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT INT TERM

"$BENCH_EXE" xl-smoke -j1 > "$TMP/j1.txt"
"$BENCH_EXE" xl-smoke -j4 > "$TMP/j4.txt"

if ! diff "$TMP/j1.txt" "$TMP/j4.txt" > "$TMP/diff.txt" 2>&1; then
  echo "FAIL: xl-smoke output differs between -j1 and -j4:" >&2
  cat "$TMP/diff.txt" >&2
  exit 1
fi

require() {
  if ! grep -q "$1" "$TMP/j1.txt"; then
    echo "FAIL: xl-smoke: expected $1 in:" >&2
    cat "$TMP/j1.txt" >&2
    exit 1
  fi
}

require 'delegated=false'
require 'violations=0'
require 'certified=true'

# The pinned scenario splits into several shards; a drop to one (or
# zero) means the partitioning silently stopped doing its job.
shards=$(sed -n 's/.* shards=\([0-9]*\) .*/\1/p' "$TMP/j1.txt")
if [ "${shards:-0}" -lt 2 ]; then
  echo "FAIL: xl-smoke: expected >= 2 shards, got '${shards:-}'" >&2
  cat "$TMP/j1.txt" >&2
  exit 1
fi

scanned=$(sed -n 's/^bidir.scanned=\([0-9]*\)$/\1/p' "$TMP/j1.txt")
if [ -z "$scanned" ] || [ "$scanned" -gt "$SCAN_CEILING" ]; then
  echo "FAIL: xl-smoke: bidir.scanned '${scanned:-}' exceeds the $SCAN_CEILING ceiling" >&2
  cat "$TMP/j1.txt" >&2
  exit 1
fi

echo "OK: xl smoke sharded run certified and -j deterministic ($shards shards, $scanned incidences scanned)"
