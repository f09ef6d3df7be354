#!/usr/bin/env bash
# Build the benchmark (offline, against the stand-in crates under shims/)
# and run one measurement:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
# (default benchmark/target); the binary keeps its scratch files (Unix
# sockets) under that directory too. Other entry points of the binary
# (`run`, `trace`, `repeat`) are described in benchmark/README.md.
set -euo pipefail

dir="$(dirname "${BASH_SOURCE[0]}")"
target="${CARGO_TARGET_DIR:-$dir/target}"

CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path "$dir/Cargo.toml" >&2

exec "$target/release/bertha-benchmark" one "$@"
