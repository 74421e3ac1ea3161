#!/bin/sh
# Performance regression gate: re-run the bench harness and compare the
# resulting run record against the committed BENCH_metrics.json baseline
# with `recover metrics diff` (wall-clock benchmarks at 25%, the
# deterministic gate blocks at 10% drift, and — when the bench mode
# matches the baseline's — histogram quantiles with a 10% p50/p90/p99
# gate).
#
#   scripts/check_perf.sh         # bench mode
#   scripts/check_perf.sh quick   # quick mode: figures too, so the
#                                 # quantile gate is active against the
#                                 # quick-mode baseline
#
# Wall-clock sensitive by nature, so this is opt-in rather than part of
# the default test alias:
#
#   dune build @perf       # bench mode
#   dune build @metrics    # quick mode (quantile gate active)
#
# When invoked through an alias, $BENCH_EXE and $RECOVER_EXE point at the
# already-built executables (a dune action must not invoke dune
# recursively).
set -eu

cd "$(dirname "$0")/.."

MODE="${1:-bench}"
BASELINE=BENCH_metrics.json

if [ ! -s "$BASELINE" ]; then
  echo "FAIL: baseline $BASELINE missing or empty" >&2
  exit 1
fi

if [ -z "${BENCH_EXE:-}" ]; then
  dune build bench/main.exe
  BENCH_EXE=_build/default/bench/main.exe
fi
if [ -z "${RECOVER_EXE:-}" ]; then
  dune build bin/recover.exe
  RECOVER_EXE=_build/default/bin/recover.exe
fi
case "$BENCH_EXE" in
  /*) : ;;
  *) BENCH_EXE="$(pwd)/$BENCH_EXE" ;;
esac
case "$RECOVER_EXE" in
  /*) : ;;
  *) RECOVER_EXE="$(pwd)/$RECOVER_EXE" ;;
esac

# Benchmark in a scratch directory so the baseline is not overwritten.
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT INT TERM
BASELINE_ABS="$(pwd)/$BASELINE"
(cd "$TMP" && "$BENCH_EXE" "$MODE")

"$RECOVER_EXE" metrics diff "$BASELINE_ABS" "$TMP/BENCH_metrics.json"
