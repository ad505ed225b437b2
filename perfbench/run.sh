#!/bin/sh
# Build the benchmark from source, then run it with the given arguments:
#   sh perfbench/run.sh --workload invoke|faceverify|pd --seed N \
#     --seconds S --trace 0|1
# Run from the root of a checkout. Build output goes to stderr; the last
# line of stdout is the result JSON.
set -e
build_dir=${CARGO_TARGET_DIR:-.bench_build}
dune build --root . --build-dir "$build_dir" --display quiet \
  perfbench/main.exe 1>&2
exec "$build_dir/default/perfbench/main.exe" "$@"
