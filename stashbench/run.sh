#!/usr/bin/env bash
# Builds the simulator's `stashd` daemon and the benchmark from source,
# then runs one benchmark workload. Run from the repository root:
#
#   bash stashbench/run.sh --workload paper-matrix --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; the last stdout line is the JSON result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-$root/.bench_build}"
case "$target" in
  /*) ;;
  *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"
cargo build --release --quiet --manifest-path "$root/Cargo.toml" -p bench --bin stashd >&2
cargo build --release --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/stashbench" --stashd "$target/release/stashd" --work "$root/.stashbench-work" "$@"
