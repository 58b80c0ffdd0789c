//! # lake-bench
//!
//! The survey's tables, its architecture figure and the experiments that
//! quantify its qualitative claims (DESIGN.md §3), each as a function
//! returning a typed report of deterministic quantities: scores, counts,
//! bytes — never a wall-clock time, because a number that needs a clock
//! comes from `bench/`. [`render`] prints every report as Markdown
//! tables under its title in [`ARTIFACTS`]. The `paper` bin prints them
//! (`paper <id>|all`); `tests/paper.rs` asserts each artifact's claims
//! and pins its rendering to the marked block in EXPERIMENTS.md.
//!
//! | ids | artifacts | module |
//! |---|---|---|
//! | `t1` `t2` `t3` `f2` | Tables 1–3, Fig. 2 | [`tables`] |
//! | `e1`–`e4` `e13` | discovery claims | [`discovery`] |
//! | `e5`–`e8` `e11` `e12` | organization, enrichment, cleaning, extraction, integration | [`maintenance`] |
//! | `e9` `e10` `e14` `a1` | querying and storage | [`storage`] |

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

/// Declare a [`Row`] struct whose fields are its columns, each given as
/// `field: type = "header" "cell format"`.
macro_rules! row {
    ($(#[$doc:meta])* $name:ident { $($field:ident: $ty:ty = $head:literal $fmt:literal,)* }) => {
        $(#[$doc])*
        #[derive(Debug, Clone, PartialEq)]
        pub struct $name {
            $(#[doc = $head] pub $field: $ty,)*
        }
        impl $crate::Row for $name {
            const HEADER: &'static [&'static str] = &[$($head),*];
            fn cells(&self) -> Vec<String> {
                vec![$(format!($fmt, self.$field)),*]
            }
        }
    };
}

pub mod discovery;
pub mod maintenance;
pub mod storage;
pub mod tables;

use lake_core::synth::{generate_lake, GroundTruth, LakeGenConfig};
use lake_core::Result;
use lake_discovery::corpus::TableCorpus;

/// One row of a report's table.
pub trait Row {
    /// Column headers.
    const HEADER: &'static [&'static str];
    /// The row's cells, in header order.
    fn cells(&self) -> Vec<String>;
}

/// A table: its header and its rows of cells.
pub type Grid = (&'static [&'static str], Vec<Vec<String>>);

/// What [`render`] prints of an artifact's typed report.
pub trait Report {
    /// The report's tables.
    fn grids(&self) -> Vec<Grid>;
}

/// A table of typed rows.
pub(crate) fn grid<R: Row>(rows: &[R]) -> Grid {
    (R::HEADER, rows.iter().map(Row::cells).collect())
}

impl<R: Row> Report for Vec<R> {
    fn grids(&self) -> Vec<Grid> {
        vec![grid(self)]
    }
}

/// Every artifact's id and title, in the order `paper all` prints them.
pub const ARTIFACTS: [(&str, &str); 19] = [
    ("t1", "T1 — the surveyed systems by tier and function, each with the module implementing it"),
    ("t2", "T2 — DAG-based organizations as their implementations describe them, built on one scenario"),
    ("t3", "T3 — related dataset discovery: the survey's columns from each implementation, P@2 and R@2 measured"),
    ("f2", "F2 — one batch through the three tiers of Fig. 2"),
    ("e1", "E1 — Aurum: MinHash + LSH candidate pairs against all-pairs comparisons"),
    ("e2", "E2 — JOSIE: postings read by the cost-model search and by a full posting scan (25 queries, top-10)"),
    ("e3", "E3 — D³L: each feature alone, the uniform and the trained combination, and the trained weights"),
    ("e4", "E4 — Aurum: re-profiles and staleness per threshold (200 edits of 3 %, 10 columns)"),
    ("e5", "E5 — KAYAK: the fewest unit-task rounds of the task-dependency DAG per worker count"),
    ("e6", "E6 — Nargesian et al.: probability of discovering an attribute of the standard lake by navigation"),
    ("e7", "E7 — D⁴ and DomainNet on 16 columns over 4 planted domains with 3 fruit/brand homographs"),
    ("e8", "E8 — cleaning: CLAMS on 400 rows with planted errors, Auto-Validate on a clean and a drifted batch"),
    ("e9", "E9 — federated predicate push-down: rows moved out of 2 sources of 20000 rows"),
    ("e10", "E10 — lakehouse: concurrent commits, point-lookup skipping, a reader pinned across compaction"),
    ("e11", "E11 — DATAMARAN: templates and records recovered from logs without supervision"),
    ("e12", "E12 — ALITE: full disjunction against a chain of binary outer joins over 6 embedding-aligned columns"),
    ("e13", "E13 — §8.2: discover unionable tables, union them in, retrain (600 held-out rows)"),
    ("e14", "E14 — degraded against strict federated execution under injected faults (sim ms: virtual time)"),
    ("a1", "A1 — storage ablation: encoded bytes of a key column beside 20000 values per profile"),
];

/// Compute and render the artifact `id`; `None` for an unknown id.
pub fn rendered(id: &str) -> Option<Result<String>> {
    fn text(id: &str, r: Result<impl Report>) -> Result<String> {
        r.map(|r| render(id, &r))
    }
    Some(match id {
        "t1" => text(id, Ok(tables::t1())),
        "t2" => text(id, tables::t2()),
        "t3" => text(id, Ok(tables::t3())),
        "f2" => text(id, tables::f2()),
        "e1" => text(id, Ok(discovery::e1())),
        "e2" => text(id, Ok(discovery::e2())),
        "e3" => text(id, Ok(discovery::e3())),
        "e4" => text(id, Ok(discovery::e4())),
        "e5" => text(id, maintenance::e5()),
        "e6" => text(id, Ok(maintenance::e6())),
        "e7" => text(id, maintenance::e7()),
        "e8" => text(id, maintenance::e8()),
        "e9" => text(id, storage::e9()),
        "e10" => text(id, storage::e10()),
        "e11" => text(id, Ok(maintenance::e11())),
        "e12" => text(id, maintenance::e12()),
        "e13" => text(id, discovery::e13()),
        "e14" => text(id, storage::e14()),
        "a1" => text(id, storage::a1()),
        _ => return None,
    })
}

/// Artifact `id`'s report as text: its title, then each table in Markdown
/// with columns padded to their widest cell.
pub fn render(id: &str, report: &dyn Report) -> String {
    let mut out = ARTIFACTS.iter().find(|a| a.0 == id).map_or(id, |a| a.1).to_string() + "\n";
    for (header, rows) in report.grids() {
        let head: Vec<String> = header.iter().map(|h| h.to_string()).collect();
        let mut widths = vec![3; head.len()];
        for row in std::iter::once(&head).chain(&rows) {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.chars().count());
            }
        }
        let rule: Vec<String> = widths.iter().map(|&w| "-".repeat(w)).collect();
        out.push('\n');
        for row in [&head, &rule].into_iter().chain(&rows) {
            for (cell, w) in row.iter().zip(&widths) {
                out += &format!("| {cell}{} ", " ".repeat(w - cell.chars().count()));
            }
            out += "|\n";
        }
    }
    out
}

/// The standard benchmark lake: 5 groups × 3 related tables + 6 noise
/// tables, with planted ground truth.
pub(crate) fn standard_lake() -> (Vec<lake_core::Table>, GroundTruth) {
    let cfg = LakeGenConfig { groups: 5, tables_per_group: 3, noise_tables: 6, ..Default::default() };
    let lake = generate_lake(&cfg);
    (lake.tables, lake.truth)
}

/// The standard lake, profiled.
pub(crate) fn standard_corpus() -> (TableCorpus, GroundTruth) {
    let (tables, truth) = standard_lake();
    (TableCorpus::new(tables), truth)
}
