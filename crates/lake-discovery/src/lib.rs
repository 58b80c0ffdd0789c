//! # lake-discovery
//!
//! Related-dataset discovery (survey §6.2 and Table 3): eight re-implemented
//! systems behind one [`DiscoverySystem`] trait, so the survey's comparison
//! table can be regenerated by *running* them on a common corpus with
//! planted ground truth.
//!
//! | System | §6.2 group | Module |
//! |---|---|---|
//! | Aurum | joinable (EKG + MinHash/LSH) | [`aurum`] |
//! | Brackenbury et al. | joinable (file similarity + human-in-the-loop) | [`brackenbury`] |
//! | JOSIE | joinable (exact top-k overlap, cost model) | [`josie`] |
//! | D³L | joinable (5-feature weighted distance) | [`d3l`] |
//! | Juneau | task-specific (multi-signal + workflows) | [`juneau`] |
//! | PEXESO | semantic (vector joinability + grid pruning) | [`pexeso`] |
//! | RNLIM | semantic (embedding-pair classifier) | [`rnlim`] |
//! | DLN | scalable (random-forest on metadata/data features) | [`dln`] |
//!
//! [`corpus`] holds the shared column-profile machinery, [`eval`] the
//! precision/recall harness used by experiments T3 and E1–E4.

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

pub mod aurum;
pub mod brackenbury;
pub mod corpus;
pub mod d3l;
pub mod dln;
pub mod eval;
pub mod incremental;
pub mod josie;
pub mod juneau;
pub mod pexeso;
pub mod rnlim;
pub mod union_search;

pub use corpus::{ColumnRef, TableCorpus};
pub use eval::{evaluate, evaluate_with_options, EvalReport};
pub use incremental::IncrementalDiscovery;

/// Descriptive facts about a discovery system — the columns of the
/// survey's Table 3.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemInfo {
    /// System name as it appears in the survey.
    pub name: &'static str,
    /// Relatedness criteria (Table 3, column 2).
    pub criteria: Vec<&'static str>,
    /// Similarity metrics (column 3).
    pub metrics: Vec<&'static str>,
    /// Applied technique (column 4).
    pub technique: Vec<&'static str>,
}

/// The uniform interface every discovery system implements: index a corpus
/// once, then answer table-level top-k relatedness queries (§7.1's
/// query-driven exploration mode 2).
///
/// `Send + Sync` is a supertrait so the evaluation harness can fan
/// queries out over worker threads against a shared `&dyn` system.
pub trait DiscoverySystem: Send + Sync {
    /// Descriptive facts for the Table 3 generator.
    fn info(&self) -> SystemInfo;

    /// Build indexes over the corpus.
    fn build(&mut self, corpus: &TableCorpus);

    /// The `k` tables most related to table `query` (by corpus index),
    /// scored descending; never contains `query` itself.
    fn top_k_related(&self, corpus: &TableCorpus, query: usize, k: usize) -> Vec<(usize, f64)>;
}
