#!/usr/bin/env bash
# Tier-1 verification chain for the rustlake workspace:
# build, test, the benchmark harness's build against the crates' public
# items, the repo-native static-analysis gate (including the
# float-ordering rule), the fault-injection chaos gate, the
# observability smoke gate, the server smoke gate (boot, every verb,
# metrics scrape, SIGTERM drain), the scheduler smoke gate (trace
# capture and policy-table determinism across host worker counts),
# then the parallel-determinism gate (e15 asserts parallel results are
# bit-identical to sequential), the server chaos bench (e16 asserts
# swarm reports replay byte-identically and records BENCH_server.json),
# the scheduling bench (e17 replays a captured swarm trace under
# every policy and records BENCH_sched.json), and the durability bench
# (e18 gates WAL group commit, recovery replay, and torn-tail
# quarantine, recording BENCH_durability.json), and the discovery bench
# (e19 gates columnar-vs-row top-k bit-equality across worker counts,
# the ≥2x columnar profiling speedup, and incremental index maintenance,
# recording BENCH_discovery.json). The BENCH_*.json artifacts are dated
# trajectories — each run appends an entry instead of overwriting
# history.
set -euo pipefail

cd "$(dirname "$0")/.."

cargo build --release
cargo test -q
# bench/ is a package of its own with its own committed lock: a refactor
# that breaks a public item it imports, or a dependency-list change that
# stales bench/Cargo.lock, fails here instead of in the benchmark run.
cargo build --release --offline --locked --manifest-path bench/Cargo.toml
cargo run -p lake-lint -- check
# Machine-readable lint report for downstream tooling (deterministic
# ordering; the exit code above already gates the build).
mkdir -p target
cargo run -q -p lake-lint -- check --json > target/lake-lint-report.json
./scripts/chaos.sh
./scripts/obs.sh
./scripts/server.sh
./scripts/sched.sh
cargo run --release -p lake-bench --bin e15_parallel
cargo run --release -p lake-bench --bin e16_server
cargo run --release -p lake-bench --bin e17_sched
cargo run --release -p lake-bench --bin e18_durability
cargo run --release -p lake-bench --bin e19_discovery
