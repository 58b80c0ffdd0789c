//! # lake-ingest
//!
//! The ingestion tier (survey §5): during or right after loading raw data,
//! extract as much metadata as possible and model it, lest the lake become
//! a data swamp.
//!
//! Metadata **extraction** (§5.1):
//! * [`gemms`] — GEMMS: format detection → parser → structural metadata
//!   (tree-structure inference over semi-structured data, breadth-first)
//!   plus metadata properties, stored in an extensible metamodel.
//! * [`datamaran`] — DATAMARAN: unsupervised structure extraction from
//!   multi-line log files (candidate templates → coverage pruning → score
//!   refinement).
//! * [`skluma`] — Skluma: content/context profiling of heterogeneous
//!   science files (name/size/extension, type-specific extractors, null
//!   analysis, topic tags).
//!
//! Metadata **modeling** (§5.2):
//! * [`model::generic`] — the GEMMS generic metamodel (content, semantic
//!   and structural metadata; key-value properties; ontology annotations).
//! * [`model::handle`] — HANDLE's three-entity (data/metadata/property)
//!   graph model with zone support.
//! * [`model::vault`] — Data Vault (hubs, links, satellites) derived from
//!   table schemata, with relational materialization.
//! * [`model::graphmeta`] — graph-based metamodels: Diamantini-style
//!   lexical node merging and Sawadogo-style versioning/usage tracking.

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

pub mod datamaran;
pub mod gemms;
pub mod model;
pub mod skluma;
pub mod stream;

pub use datamaran::{Datamaran, DatamaranConfig, Template};
pub use gemms::{Gemms, StructuralMetadata, TreeNode};
pub use skluma::{FileProfile, Skluma};
