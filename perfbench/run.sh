#!/usr/bin/env bash
# Builds the benchmark and the repository's own `thriftyd` (which the
# daemon-churn workload spawns) from source, then runs the benchmark with
# the given arguments:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root. Both builds write to $CARGO_TARGET_DIR,
# or to perfbench/target when unset, so `thriftyd` lands next to the
# `perfbench` binary, where the benchmark looks for it.
set -euo pipefail
here="$(dirname "$0")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" 1>&2
cargo build --release --offline --quiet --manifest-path "$here/../crates/daemon/Cargo.toml" --bin thriftyd 1>&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
