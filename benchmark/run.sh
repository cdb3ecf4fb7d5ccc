#!/usr/bin/env bash
# Build the harness, then hand it the arguments. See README.md.
#
#   benchmark/run.sh [--seed S] [--smoke]       every workload -> benchmark/out/results.json
#   benchmark/run.sh --workload W --seed S --seconds N --trace 0|1
#                                               one run; last line of stdout is its result
#   benchmark/run.sh compare A.json B.json      two results.json files, metric by metric
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# The root target/ unless the caller chose another place: the product
# crates then share one build directory with the root workspace.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target}"

if [ "${1:-}" = compare ] || [ "${1:-}" = manifest ]; then
    # Paths on the command line are the caller's: stay in its directory.
    cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
    case "$CARGO_TARGET_DIR" in /*) ;; *) CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR" ;; esac
    exec "$CARGO_TARGET_DIR/release/fc-benchmark" "$@"
fi

# Runs write under benchmark/out/, relative to the checkout root.
cd "$root"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
head="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
exec "$CARGO_TARGET_DIR/release/fc-benchmark" --git-head "$head" "$@"
