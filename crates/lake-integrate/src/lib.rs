//! # lake-integrate
//!
//! Data integration in the lake (survey §6.3): resolving source
//! heterogeneity after discovery has picked the relevant datasets.
//!
//! * [`matching`] — schema matching: name-based, instance-based and hybrid
//!   matchers producing scored attribute correspondences.
//! * [`mapping`] — integrated-schema generation and source↔integrated
//!   mappings (Constance's partial-integration step).
//! * [`rewrite`] — Constance-style query rewriting: a query against the
//!   integrated schema is rewritten into per-source subqueries (predicates
//!   pushed down), executed, and merged with conflict resolution.
//! * [`alite`] — ALITE: embedding-based holistic column clustering over
//!   discovered tables followed by Full Disjunction computation.

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

pub mod alite;
pub mod mapping;
pub mod matching;
pub mod rewrite;

pub use mapping::{IntegratedSchema, SchemaMapping};
pub use matching::{match_schemas, Correspondence, MatcherKind};
