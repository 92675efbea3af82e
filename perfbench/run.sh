#!/usr/bin/env bash
# Build the benchmark from source and run it:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   bash perfbench/run.sh --selftest
# Build output goes to stderr, so the last line of stdout is the
# benchmark's JSON result.  The build is bounded to 850 s (a cold build
# of the whole project) and the run to 170 s; a failed build or run
# exits non-zero without a result line.
set -euo pipefail
cd "$(dirname "$0")/.."
timeout --kill-after=5 850 dune build --root . --profile release --display quiet ./perfbench/main.exe 1>&2
exec timeout --kill-after=5 170 ./_build/default/perfbench/main.exe "$@"
