//! # lake-server
//!
//! A fault-tolerant multi-tenant front door for the lake (survey §8.3:
//! lakes are *shared* infrastructure — many teams, one platform). The
//! crate turns the in-process [`lake_store::polystore::Polystore`] into a
//! long-lived TCP service with the robustness ladder the rest of the
//! workspace already practises in-process:
//!
//! * [`protocol`] — a length-prefixed JSON request/response framing with
//!   typed error codes: every failure a client sees is a named, matchable
//!   category, never a silently dropped connection.
//! * [`admission`] — bounded concurrent admission with load-shedding:
//!   when the server is saturated it *says so* (a typed 503-style
//!   rejection) instead of queueing unboundedly or stalling accepts.
//! * [`tenant`] — per-tenant namespaces over the polystore plus
//!   per-tenant quotas ([`lake_core::degrade::QuotaLedger`]) and per-tenant
//!   circuit breakers ([`lake_core::degrade::CircuitBreaker`]), so one abusive
//!   tenant degrades *its own* service, not its neighbours'.
//! * [`server`] — the accept/worker loops: panic-isolated workers (a
//!   panicking handler kills one connection, not the process), read/write
//!   deadlines, graceful drain (stop accepting → finish in-flight under a
//!   deadline → flush metrics → exit cleanly).
//! * [`swarm`] — a seeded closed-loop client swarm for chaos testing:
//!   hundreds of concurrent connections with a deterministic request mix,
//!   reporting latency percentiles and per-code outcome counts that
//!   replay byte-for-byte for a fixed seed.
//! * [`wal`] — crash-restart durability: a checksummed write-ahead
//!   journal (group-committed, fsynced before the ack), startup recovery
//!   with torn-tail quarantine and snapshot-bounded replay, and the
//!   seeded crash points the restart-chaos harness kills the server at.
//!
//! Everything time-dependent runs on the injectable
//! [`lake_core::retry::Clock`], and every counter in the ladder is
//! conserved (offered = admitted + shed + drain-rejected), which is what
//! the `quota_prop` property suite pins down.

#![cfg_attr(not(test), deny(unused_crate_dependencies))]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::disallowed_methods,
    clippy::indexing_slicing
)]

pub mod admission;
pub mod protocol;
pub mod server;
pub mod swarm;
pub mod tenant;
pub mod wal;

// No code here uses `lake_query` (the breakers and quota ledgers live in
// `lake_core::degrade`), but `bench/Cargo.lock` records the edge, and
// `cargo build --locked` rejects a lock file that would lose an edge between
// two packages the benchmark still builds. The manifest line goes when that
// lock file is regenerated.
use lake_query as _;

pub use admission::{AdmissionController, AdmissionCounters, Offer};
pub use protocol::{ErrorCode, Request, Response, Verb};
pub use server::{DrainReport, LakeServer, ServerConfig, ServerHandle};
pub use swarm::{capture_trace, run_swarm, run_swarm_traced, SwarmConfig, SwarmReport};
pub use tenant::{TenantStats, Tenants};
pub use wal::{RecoveryReport, Wal, WalConfig, WalOp, WalRecord};
