//! # lake-query
//!
//! The exploration tier (survey §7): getting information *out* of the lake.
//!
//! * [`ast`] — a small SQL-ish query language (`SELECT … FROM … WHERE …
//!   LIMIT …`) with a text parser, shared by the federated engine.
//! * [`federated`] — heterogeneous data querying (§7.2): a mediator that
//!   decomposes a query over sources living in different polystore
//!   substrates, pushes predicates down (Constance/Ontario/Squerall), and
//!   merges results; SPARQL-like triple patterns pass through to the graph
//!   store.
//! * [`explore`] — query-driven data discovery (§7.1): the three
//!   exploration input/output modes — (1) joinable tables for a given
//!   column (JOSIE-style), (2) related tables for a given table with
//!   coverage extension (D³L-style), (3) task-driven search
//!   (Juneau-style).
//! * [`srql`] — Aurum's discovery-primitive query language: composable
//!   primitives over the EKG with re-rankable results.
//! * [`degrade`] / [`fault`] — graceful degradation for the mediator:
//!   per-query deadlines, per-backend circuit breakers, partial-result
//!   completeness reporting, and a seeded per-source fault injector that
//!   makes every degradation path deterministically testable.

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

pub mod ast;
pub mod browse;
pub mod degrade;
pub mod explore;
pub mod fault;
pub mod fulltext;
pub mod federated;
pub mod srql;

pub use ast::{parse_query, Query};
pub use degrade::{Completeness, DegradationConfig, QueryBudget, SkipReason, SkippedSource};
pub use lake_core::degrade::{
    Admission, BreakerConfig, BreakerState, CircuitBreaker, QuotaConfig, QuotaDecision,
    QuotaLedger, QuotaUsage,
};
pub use fault::{FaultSource, FaultSourceStats};
pub use federated::FederatedEngine;
