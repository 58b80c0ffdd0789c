#!/usr/bin/env bash
# Tier-1 verification chain for the rustlake workspace. Each role has one
# home: a gate is a `cargo test` suite and runs once, below; a number is
# something `bench/` timed on a real clock. The paper's claims are
# `lake-bench` tests (`crates/lake-bench/tests/paper.rs`) and run with the
# rest; the `paper` bin only prints the artifacts, so it does not run here.
#
#   build → test (every unit, property, chaos and calibration suite)
#   → bench/ locked build (a refactor that breaks a public item it
#     imports fails here instead of in the benchmark run, and so does a
#     dependency change that stales bench/Cargo.lock: an added edge, or a
#     removed edge whose two packages the benchmark still builds; a
#     removal that drops a package from its graph leaves the lock valid)
#   → clippy on every target with `-D warnings` (it also enforces
#     panic-freedom, hot-path indexing and clock discipline: each library
#     crate's lib.rs sets those levels, `clippy.toml` configures them)
#   → lint (the repo-native rules clippy cannot express)
#   → server.sh (the one process-level gate: signals, kill -9, real
#     fsyncs, the CLI's flags)
set -euo pipefail

cd "$(dirname "$0")/.."

cargo build --release
cargo test -q
cargo build --release --offline --locked --manifest-path bench/Cargo.toml
cargo clippy --workspace --all-targets -- -D warnings
cargo run -p lake-lint -- check
./scripts/server.sh
