//! # lake-bench
//!
//! The benchmark harness regenerating every table and figure of the
//! survey, plus the qualitative-claim experiments indexed in DESIGN.md
//! (§3, "per-experiment index").
//!
//! Binaries (each prints one table/figure analog):
//!
//! | bin | artifact |
//! |---|---|
//! | `table1` | Table 1 — classification of systems by tier/function |
//! | `table2` | Table 2 — DAG-based organization comparison |
//! | `table3` | Table 3 — related-dataset-discovery comparison (+measured) |
//! | `fig2_pipeline` | Fig. 2 — per-tier end-to-end trace |
//! | `e1_lsh_scaling` … `e12_alite` | experiments E1–E12 |

pub mod trajectory;

use lake_core::synth::{generate_lake, GroundTruth, LakeGenConfig};
use lake_core::Table;
use lake_discovery::corpus::TableCorpus;

/// The standard benchmark lake used across experiment binaries.
pub fn standard_lake() -> (Vec<Table>, GroundTruth) {
    let cfg = LakeGenConfig { groups: 5, tables_per_group: 3, noise_tables: 6, ..Default::default() };
    let lake = generate_lake(&cfg);
    (lake.tables, lake.truth)
}

/// The standard profiled corpus.
pub fn standard_corpus() -> (TableCorpus, GroundTruth) {
    let (tables, truth) = standard_lake();
    (TableCorpus::new(tables), truth)
}

/// Print a named section header.
pub fn section(title: &str) {
    println!("\n=== {title} ===");
}

/// Format a ratio as a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.0}%", x * 100.0)
}
