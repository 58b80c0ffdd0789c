#!/usr/bin/env bash
# Tier-1 verification chain for the rustlake workspace. Each role has one
# home: a gate is a `cargo test` suite and runs once, below; a number is
# something `bench/` timed; a `lake-bench` bin prints one of the paper's
# tables or figures.
#
#   build → test (every unit, property, chaos and calibration suite)
#   → bench/ locked build (a refactor that breaks a public item it
#     imports, or a dependency-list change that stales bench/Cargo.lock,
#     fails here instead of in the benchmark run)
#   → clippy on every target (no `-D warnings`: it gates clippy's
#     deny-by-default lints, and its warnings are printed, not fatal)
#   → lint (the repo-native static-analysis gate)
#   → server.sh (the one process-level gate: signals, kill -9, real
#     fsyncs, the CLI's flags)
#   → e15 (parallel results bit-identical to sequential on the bench lake)
#   → e19 (columnar-vs-row top-k bit-equality across worker counts, the
#     ≥2x columnar profiling speedup, incremental index maintenance).
#
# e19 appends today's entry to BENCH_discovery.json — the one artifact
# that is a wall-clock series — so after a full run that file is the
# only path `git status --porcelain` shows.
set -euo pipefail

cd "$(dirname "$0")/.."

cargo build --release
cargo test -q
cargo build --release --offline --locked --manifest-path bench/Cargo.toml
cargo clippy --workspace --all-targets
cargo run -p lake-lint -- check
./scripts/server.sh
cargo run --release -p lake-bench --bin e15_parallel
cargo run --release -p lake-bench --bin e19_discovery
