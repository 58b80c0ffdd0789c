//! # lake-core
//!
//! Foundation types for the `rustlake` data-lake platform: the dynamic
//! [`Value`]/[`DataType`] system, [`Schema`]s, columnar [`Table`]s,
//! JSON-like [`Json`] documents, [`PropertyGraph`]s, the [`Dataset`]
//! abstraction that unifies them, shared error types, and deterministic
//! synthetic-data generators used by tests and by the benchmark harness
//! that regenerates the survey's tables.
//!
//! Everything in the platform is built on top of this crate; it has no
//! dependency on any storage or algorithm crate.

#![cfg_attr(not(test), deny(unused_crate_dependencies))]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::disallowed_methods
)]

pub mod batch;
pub mod crash;
pub mod dataset;
pub mod degrade;
pub mod error;
pub mod graph;
pub mod ids;
pub mod json;
pub mod par;
pub mod retry;
pub mod schema;
pub mod stats;
pub mod sync;
pub mod synth;
pub mod table;
pub mod value;

pub use batch::NULL_CODE;
pub use crash::{CrashPoint, CrashSwitch};
pub use dataset::{Dataset, DatasetKind, DatasetMeta};
pub use error::{LakeError, Result};
pub use graph::{EdgeId, NodeId, PropertyGraph};
pub use ids::DatasetId;
pub use json::Json;
pub use par::Parallelism;
pub use retry::{Clock, ManualClock, RetryPolicy, RetryStats, SystemClock};
pub use schema::{Field, Schema};
pub use sync::{LeafMutex, LeafRwLock};
pub use table::{Column, Row, Table};
pub use value::{DataType, Value};
