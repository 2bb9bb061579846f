#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
# Build output goes to $CARGO_TARGET_DIR when set, else to _build; the
# build's messages go to stderr, so the result stays the last stdout line.
set -eu
cd "$(dirname "$0")/.."
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
export DUNE_CACHE=disabled
build_dir="${CARGO_TARGET_DIR:-_build}"
dune build --root . --build-dir "$build_dir" ./benchmark/main.exe 1>&2
exec "$build_dir/default/benchmark/main.exe" "$@"
