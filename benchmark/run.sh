#!/usr/bin/env bash
# The benchmark's one command: build the release `prs` and experiment
# binaries and the harness into one shared target directory, then run the
# harness with the arguments given.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   benchmark/run.sh                      # every workload, untraced then traced
#   benchmark/run.sh --selfcheck          # two untraced sets must agree
#   benchmark/run.sh --results benchmark/baseline.json   # re-record the baseline
#
# Fails (non-zero, no result line) where the repository's sources are not
# around it.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
# A relative CARGO_TARGET_DIR is relative to the caller's directory.
CARGO_TARGET_DIR="$(realpath -m "${CARGO_TARGET_DIR:-$here/out/target}")"
export CARGO_TARGET_DIR

started=$(date +%s%N)
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
    -p prs-cli -p prs-bench \
    --bin prs --bin table5 --bin expt_crossover --bin expt_hetero_nodes --bin expt_multi_gpu >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
build_ns=$(($(date +%s%N) - started))

exec "$CARGO_TARGET_DIR/release/prs-benchmark" --out "$here/out" --build-ns "$build_ns" "$@"
