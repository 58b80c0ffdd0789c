#!/usr/bin/env bash
# The benchmark's one command. Builds `lake_server` (root workspace) and
# the harness (this package) in release mode, then hands its arguments to
# the harness:
#
#   bench/run.sh [--seed N] [--workload NAME] [--seconds S] [--out DIR]
#       every workload (or the one named), untraced then traced; prints
#       `workload metric value unit n=<samples>`, writes DIR/result.json,
#       exits non-zero on a failed correctness check.
#   bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run; the last line of standard output is the JSON result.
#
# Paths are relative to the checkout this script sits in; nothing is read
# or written outside it.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
# Cargo puts both workspaces' output under CARGO_TARGET_DIR when it is set.
server_target="${CARGO_TARGET_DIR:-target}"
bench_target="${CARGO_TARGET_DIR:-bench/target}"
cargo build --release --offline -p lake-server --bin lake_server 1>&2
cargo build --release --offline --manifest-path bench/Cargo.toml 1>&2
exec "$bench_target/release/lake_e2e" "$@" \
    --server-bin "$server_target/release/lake_server" --out bench/out
