//! # lake-house
//!
//! The Lakehouse substrate (survey §8.3): "ACID table storage over cloud
//! object stores" in the style of Delta Lake / Iceberg / Hudi —
//! transaction management, indexing (min/max statistics), and metadata
//! management layered over the plain object store.
//!
//! * [`log`] — the transaction log: ordered JSON commit entries written
//!   with the object store's atomic put-if-absent, giving optimistic
//!   concurrency; snapshots replay the log (from the latest checkpoint);
//!   time travel reads any historical version.
//! * [`table`] — [`table::LakeTable`]: an append/scan/compact table whose
//!   data files are parquet-lite objects with per-column statistics used
//!   for data skipping at scan time.
//! * [`recovery`] — crash recovery: [`log::TxnLog::recover`] quarantines
//!   torn or corrupt trailing log entries (every entry is checksummed),
//!   re-verifies checkpoints against replayed state, and restores the
//!   table to its last fully-valid version.
//! * [`obs`] — registry metrics (`lake_house_*`) and tracing spans for
//!   commits, checkpoints, retries, and recovery, attached with
//!   [`log::TxnLog::with_obs`] / [`table::LakeTable::with_obs`].

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

pub mod log;
pub mod obs;
pub mod recovery;
pub mod table;

// No code here uses `rand`, but `bench/Cargo.lock` records the edge, and
// `cargo build --locked` rejects a lock file that would lose an edge between
// two packages the benchmark still builds. The manifest line goes when that
// lock file is regenerated.
use rand as _;

pub use log::{Action, Snapshot, TxnLog};
pub use obs::HouseMetrics;
pub use recovery::RecoveryReport;
pub use table::LakeTable;
