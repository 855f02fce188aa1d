#!/usr/bin/env bash
# Builds intext-serve and the load generator from source, then runs one
# workload against the spawned server. Run from the repository root:
#
#   bash servebench/run.sh --workload warm_point --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; the last line of stdout is the result.
set -euo pipefail

if [[ ! -f Cargo.toml || ! -f servebench/Cargo.toml || ! -d crates/serve ]]; then
    echo "servebench: run from the root of an intext checkout" >&2
    exit 2
fi
target="${CARGO_TARGET_DIR:-.bench_build}"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --bin intext-serve >&2
cargo build --release --offline --quiet --manifest-path servebench/Cargo.toml >&2
exec "$target/release/intext-servebench" --server "$target/release/intext-serve" "$@"
