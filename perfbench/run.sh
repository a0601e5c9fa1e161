#!/bin/sh
# Build the benchmark and the server it drives from source, then run one
# workload; run from the repository root:
#
#   sh perfbench/run.sh --workload predict-csv --seed 1 --seconds 10 --trace 0
#   sh perfbench/run.sh --smoke
#
# Build output goes to stderr, so the last line of stdout stays the
# benchmark's JSON result.  Outside a full checkout the build fails and
# so does this script, before printing any result.
set -eu
dune build --root . --profile release ./perfbench/main.exe ./bin/estima_serve.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
