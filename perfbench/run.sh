#!/usr/bin/env bash
# Build the benchmark from source (release profile) and run it.
# Run from the repository root:
#   bash perfbench/run.sh --workload ft-perm --seed 1 --seconds 10 --trace 0
# The build goes to $CARGO_TARGET_DIR (default .bench_build); build
# output goes to stderr so the result stays the last line of stdout.
set -euo pipefail

if [[ ! -f dune-project || ! -d lib || ! -f perfbench/dune ]]; then
  echo "perfbench: run from the repository root (dune-project, lib/ and perfbench/ not found)" >&2
  exit 2
fi

build_dir=${CARGO_TARGET_DIR:-.bench_build}
dune build --root . --build-dir "$build_dir" --profile release ./perfbench/main.exe 1>&2
exec "$build_dir/default/perfbench/main.exe" "$@"
