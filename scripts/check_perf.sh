#!/bin/sh
# Regression gate: re-run the bench harness in quick mode and compare the
# resulting run record against the committed quick-mode
# BENCH_metrics.json baseline with `recover metrics diff` (gate blocks
# and work-histogram quantiles at 10% drift either way; wall-clock
# histograms are printed, never gated).
#
#   scripts/check_perf.sh
#
# Regenerates every figure, so this is opt-in rather than part of the
# default test alias:
#
#   dune build @metrics
#
# When invoked through the alias, $BENCH_EXE and $RECOVER_EXE point at the
# already-built executables (a dune action must not invoke dune
# recursively).
set -eu

cd "$(dirname "$0")/.."

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
(cd "$TMP" && "$BENCH_EXE" quick)

"$RECOVER_EXE" metrics diff "$BASELINE_ABS" "$TMP/BENCH_metrics.json"
