//! The lake's wall-clock benchmark: four workloads, end-to-end metrics
//! from an untraced run and per-layer metrics from a traced run, all
//! taken from outside the program — by timing calls into each crate's
//! public items and by scraping the server's own `metrics` verb.
//! `README.md` beside this package has the workload table, the metric
//! glossary and the layer → end-to-end interaction table.

pub mod analytics;
pub mod discover;
pub mod names;
pub mod pass;
pub mod procfs;
pub mod replay;
pub mod report;
pub mod serve;
pub mod stats;
pub mod trace;

use std::path::PathBuf;

/// What one run of one workload is given.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Every input is a pure function of this.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or untraced (end-to-end metrics).
    pub traced: bool,
    /// The `lake_server` binary the serve workloads start.
    pub server_bin: PathBuf,
    /// Scratch directory of this run, inside the checkout; removed after.
    pub work: PathBuf,
}
