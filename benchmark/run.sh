#!/usr/bin/env bash
# Builds the benchmark from source (offline, release) and runs it.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   one workload, in one process
#   benchmark/run.sh [--seed N] [--traced] [--smoke]                 every workload, a process each
#   benchmark/run.sh compare A.json B.json | spec | list
#
# Run it from the root of the checkout. Build products go to
# $CARGO_TARGET_DIR (default .bench_build), traces and result sets to
# benchmark/out/.
set -euo pipefail
here="$(dirname "${BASH_SOURCE[0]}")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --locked --quiet --manifest-path "$here/Cargo.toml" >&2
case "${1:-}" in
    compare | spec | list) exec "$CARGO_TARGET_DIR/release/dbsm-benchmark" "$@" ;;
    *) exec "$CARGO_TARGET_DIR/release/dbsm-benchmark" --out-dir "$here/out" "$@" ;;
esac
