//! # lake-organize
//!
//! Dataset organization (survey §6.1, Table 2): how to structure and
//! navigate the mass of heterogeneous datasets in a lake.
//!
//! * [`goods`] — GOODS-style catalog organization: six metadata
//!   categories, version clustering, provenance triples (§6.1.1).
//! * [`dsknn`] — DS-Prox / DS-kNN classification-model organization:
//!   dataset feature extraction + incremental k-NN categorization
//!   (§6.1.2).
//! * [`kayak`] — KAYAK: primitives built from atomic tasks, the *pipeline*
//!   DAG and the *task-dependency* DAG, and a parallel scheduler
//!   exploiting the dependency DAG (§6.1.3, Table 2 rows 1–2).
//! * [`organization`] — Nargesian et al.'s data lake organizations:
//!   attribute-set DAGs navigated as a Markov model, optimized for
//!   discovery probability (§6.1.3, Table 2 row 3).
//! * [`ronin`] — RONIN: organization navigation combined with keyword and
//!   joinable-dataset search (§6.1.3).
//! * [`notebook`] — Juneau's notebook machinery: workflow graphs and
//!   variable-dependency DAGs with subgraph-based table relatedness
//!   (§6.1.3, Table 2 row 4; feeds `lake-discovery`'s Juneau signals).
//!
//! Each DAG-flavoured module exposes a [`DagDescription`] so the Table 2
//! comparison can be generated from the implementations themselves.

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

pub mod dsknn;
pub mod goods;
pub mod kayak;
pub mod notebook;
pub mod organization;
pub mod preview;
pub mod ronin;

/// Self-description of a DAG-based organization approach — the rows of the
/// survey's Table 2, generated from code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DagDescription {
    /// System / variant name.
    pub system: &'static str,
    /// What the DAG is for.
    pub function: &'static str,
    /// What nodes represent.
    pub node: &'static str,
    /// What edges represent.
    pub edge: &'static str,
    /// Edge direction semantics.
    pub edge_direction: &'static str,
    /// Measured node count (filled by the experiment harness).
    pub nodes_built: usize,
    /// Measured edge count.
    pub edges_built: usize,
}
