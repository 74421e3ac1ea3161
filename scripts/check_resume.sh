#!/bin/sh
# Crash-and-resume check for the experiment journal.
#
#   scripts/check_resume.sh            # fig4, 2 runs (a couple of minutes)
#   scripts/check_resume.sh fig5 3     # any figure + run count
#
# Runs a sweep with --journal, SIGKILLs it mid-flight, resumes with the
# same journal file, and verifies that the final journal matches a
# never-interrupted reference run cell-for-cell (timing fields stripped —
# wall seconds legitimately differ between runs), and that the resumed
# run prints the reference's tables (skipped, with a note, for the
# figures that print wall-clock columns).
set -eu

cd "$(dirname "$0")/.."

FIG="${1:-fig4}"
RUNS="${2:-2}"

dune build bin/recover.exe
RECOVER=./_build/default/bin/recover.exe

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
KILLED="$WORK/killed.jsonl"
REFERENCE="$WORK/reference.jsonl"

# Strip nondeterministic fields ("seconds" cells) and normalize float
# formatting so two runs of the same seeded sweep compare equal.
normalize() {
  python3 - "$1" <<'EOF'
import json, sys
cells = {}
order = []
with open(sys.argv[1]) as f:
    header = f.readline().rstrip("\n")
    assert header == "netrec-journal/1", f"bad header {header!r}"
    for line in f:
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            continue  # crash-truncated line
        if obj.get("type") != "cell":
            continue
        key = (obj["point"], obj["run"], obj["alg"])
        payload = {
            k: round(float(v), 9)
            for k, v in obj.items()
            if k not in ("type", "point", "run", "alg", "seconds")
        }
        if key not in cells:
            order.append(key)
        cells[key] = payload  # last write wins, like the loader
for key in sorted(order):
    point, run, alg = key
    fields = ",".join(f"{k}={v}" for k, v in sorted(cells[key].items()))
    print(f"{point} run={run} {alg}: {fields}")
EOF
}

echo "== interrupted run ($FIG, $RUNS runs) =="
"$RECOVER" experiment "$FIG" --runs "$RUNS" --journal "$KILLED" \
  >"$WORK/killed.log" 2>&1 &
PID=$!

# Wait for some cells to land, then kill mid-flight.
for _ in $(seq 1 600); do
  if ! kill -0 "$PID" 2>/dev/null; then
    echo "FAIL: sweep finished before it could be killed; pick a longer figure" >&2
    exit 1
  fi
  if [ -s "$KILLED" ] && [ "$(wc -l <"$KILLED")" -gt 5 ]; then
    break
  fi
  sleep 0.1
done
kill -9 "$PID" 2>/dev/null || true
wait "$PID" 2>/dev/null || true
CELLS_BEFORE=$(grep -c '"type":"cell"' "$KILLED" || true)
echo "killed after $CELLS_BEFORE recorded cells"
if [ "$CELLS_BEFORE" -eq 0 ]; then
  echo "FAIL: no cells recorded before the kill" >&2
  exit 1
fi

echo "== resumed run =="
"$RECOVER" experiment "$FIG" --runs "$RUNS" --journal "$KILLED" \
  >"$WORK/resumed.log" 2>&1

echo "== reference (uninterrupted) run =="
"$RECOVER" experiment "$FIG" --runs "$RUNS" --journal "$REFERENCE" \
  >"$WORK/reference.log" 2>&1

normalize "$KILLED" >"$WORK/killed.norm"
normalize "$REFERENCE" >"$WORK/reference.norm"

if ! diff -u "$WORK/reference.norm" "$WORK/killed.norm"; then
  echo "FAIL: resumed journal diverges from the uninterrupted reference" >&2
  exit 1
fi

# The resumed sweep must also print the same tables as the reference,
# up to the work/gc footer: its counters cover only the cells that
# process computed.  Figures with wall-clock columns cannot match.
case "$FIG" in
  fig7 | fig9-xl | fig-sched | fig-opt | all)
    echo "skip: $FIG prints wall-clock columns, tables not compared"
    ;;
  *)
    tables() { awk '/^(work|gc): /{exit} {print}' "$1"; }
    tables "$WORK/reference.log" >"$WORK/reference.tables"
    tables "$WORK/resumed.log" >"$WORK/resumed.tables"
    if ! diff -u "$WORK/reference.tables" "$WORK/resumed.tables"; then
      echo "FAIL: resumed tables differ from the uninterrupted reference" >&2
      exit 1
    fi
    echo "tables: $(wc -l <"$WORK/reference.tables") lines identical"
    ;;
esac

echo "OK: $(wc -l <"$WORK/reference.norm") cells identical after kill -9 + resume"
