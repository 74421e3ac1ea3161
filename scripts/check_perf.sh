#!/bin/sh
# Regression gate: re-run the bench harness in quick mode and compare the
# resulting run record against the committed quick-mode
# BENCH_metrics.json baseline with `recover metrics diff` (gate blocks
# and work-histogram quantiles at 10% drift either way; wall-clock
# histograms are printed, never gated), then every regenerated
# results/*.csv table against the committed one: cells must be equal
# outside the wall-clock columns, and no table may be missing or extra.
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

# The wall-clock columns of a table, as awk's "|"-separated header names.
timed_columns() {
  case "$1" in
    fig7_1.csv) echo "ISP|SRT|OPT(exact-DP)" ;;
    fig9_xl_1.csv | fig_sched_1.csv) echo "seconds" ;;
    fig_opt_2.csv) echo "base s|full s" ;;
    *) echo "" ;;
  esac
}

status=0
for f in results/*.csv; do
  name=$(basename "$f")
  if [ ! -e "$TMP/results/$name" ]; then
    echo "FAIL: results/$name: not regenerated" >&2
    status=1
    continue
  fi
  awk -F, -v timed="$(timed_columns "$name")" -v name="$name" '
    BEGIN { n = split(timed, t, "|"); for (i = 1; i <= n; i++) skip[t[i]] = 1 }
    # A row with its wall-clock cells blanked.
    function masked(line,   f, k, i, out) {
      k = split(line, f, ",")
      out = ""
      for (i = 1; i <= k; i++)
        out = out (i > 1 ? "," : "") (i in drop ? "*" : f[i])
      return out
    }
    FNR == NR { want[FNR] = $0; rows = FNR; next }
    FNR == 1 { for (i = 1; i <= NF; i++) if ($i in skip) drop[i] = 1 }
    {
      got = (FNR == 1) ? $0 : masked($0)
      old = (FNR == 1) ? want[FNR] : masked(want[FNR])
      if (got != old) {
        printf "FAIL: results/%s line %d: committed %s, regenerated %s\n", \
          name, FNR, old, got > "/dev/stderr"
        bad = 1
      }
    }
    END {
      if (FNR != rows) {
        printf "FAIL: results/%s: committed %d lines, regenerated %d\n", \
          name, rows, FNR > "/dev/stderr"
        bad = 1
      }
      exit bad
    }' "$f" "$TMP/results/$name" || status=1
done
for f in "$TMP"/results/*.csv; do
  name=$(basename "$f")
  if [ ! -e "results/$name" ]; then
    echo "FAIL: results/$name: regenerated but not committed" >&2
    status=1
  fi
done
if [ "$status" -ne 0 ]; then
  exit 1
fi
echo "results: $(ls results/*.csv | wc -l) tables equal outside their" \
  "wall-clock columns"
