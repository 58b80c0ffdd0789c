//! # lake-maintain
//!
//! The remaining maintenance-tier functions of the survey (§6.4–§6.7):
//!
//! * [`enrich`] — metadata enrichment: D⁴ data-driven domain discovery,
//!   DomainNet homograph detection, relaxed-functional-dependency
//!   discovery (Constance), CoreDB-style semantic feature extraction.
//! * [`clean`] — data cleaning: CLAMS constraint inference with a
//!   violation hypergraph, RFD-based violation detection, and
//!   Auto-Validate pattern-based validation-rule inference.
//! * [`evolve`] — schema evolution: Klettke et al.'s entity-type version
//!   history, operation detection between versions, and k-ary inclusion
//!   dependency discovery.
//! * [`provenance`] — data provenance: a unified event model, the
//!   Suriarachchi-style integration of heterogeneous engine-native
//!   provenance, and graph-based lineage queries (GOODS/CoreDB/Juneau all
//!   "preserve the provenance information as graphs").

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

pub mod clean;
pub mod enrich;
pub mod evolve;
pub mod provenance;
