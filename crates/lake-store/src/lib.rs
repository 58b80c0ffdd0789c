//! # lake-store
//!
//! The storage tier of the lake (survey §4): from-scratch substrates that
//! stand in for the systems the surveyed data lakes are built on.
//!
//! * [`object`] — an immutable-blob object store (HDFS / S3 / Azure Blob
//!   stand-in) with in-memory and local-directory backends and the
//!   conditional-put primitive the lakehouse transaction log needs.
//! * [`kv`] — a sorted key-value store with column families (Bigtable
//!   stand-in) backing the GOODS-style catalog.
//! * [`relational`] — a minimal relational store (MySQL/PostgreSQL stand-in)
//!   with server-side predicate evaluation, so federated query push-down is
//!   measurable.
//! * [`document`] — a JSON document store (MongoDB stand-in) with
//!   path-based filters.
//! * [`graphstore`] — a property-graph store (Neo4j stand-in) with a triple
//!   view for SPARQL-like access.
//! * [`polystore`] — the Constance-style router that places each ingested
//!   dataset in the store matching its original format (§4.3) and provides
//!   integrated retrieval.
//! * [`durable`] — crash-safe file primitives (checksummed frames,
//!   fsynced appends, atomic replace) backing the server's write-ahead
//!   journal.
//! * [`fault`] — a deterministic fault-injecting [`ObjectStore`]
//!   decorator (transient errors, torn writes, scripted crash points)
//!   backing the lakehouse chaos suite.
//! * [`obs`] — an observing [`ObjectStore`] decorator recording per-op
//!   counts, bytes, and latency histograms into a `lake-obs` registry.

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

pub mod document;
pub mod durable;
pub mod fault;
pub mod graphstore;
pub mod kv;
pub mod object;
pub mod obs;
pub mod polystore;
pub mod predicate;
pub mod relational;

pub use durable::{append_sync, atomic_write_sync, encode_frame, scan_frames, FrameScan};
pub use fault::{FaultPlan, FaultStats, FaultStore, Op};
pub use obs::ObsStore;
pub use object::{LocalDirStore, MemoryStore, ObjectStore};
pub use polystore::{Polystore, StoreKind};
pub use predicate::{CompareOp, Predicate};
