#!/bin/sh
# Run the bench harness and validate the BENCH_metrics.json it emits
# against the gate table (`recover metrics validate`).
#
#   scripts/check_metrics.sh            # full quick mode (micro + all figures)
#   scripts/check_metrics.sh fig4 quick # any bench/main.exe arguments
set -eu

cd "$(dirname "$0")/.."

dune build bench/main.exe bin/recover.exe

if [ "$#" -eq 0 ]; then
  set -- quick
fi
./_build/default/bench/main.exe "$@"
./_build/default/bin/recover.exe metrics validate BENCH_metrics.json
