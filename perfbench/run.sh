#!/usr/bin/env bash
# Builds the benchmark from source and runs it; arguments pass through:
#   bash perfbench/run.sh --workload batch --seed 1 --seconds 25 --trace 0
# Build output goes to stderr so that the last line of standard output is
# the benchmark's JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
if ! command -v dune > /dev/null && command -v opam > /dev/null; then
  eval "$(opam env)"
fi
dune build --root . ./perfbench/main.exe 1>&2
mkdir -p perfbench/_work
# the runtime's event ring (used to count allocation on every domain)
# lives beside the benchmark's other scratch files
export OCAML_RUNTIME_EVENTS_DIR=perfbench/_work
exec ./_build/default/perfbench/main.exe "$@"
