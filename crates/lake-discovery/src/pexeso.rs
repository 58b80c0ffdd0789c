//! PEXESO: semantically joinable table discovery over textual attributes
//! (§6.2.3).
//!
//! "It transforms textual values into high-dimensional vectors, and
//! computes their vector similarities. For efficient similarity
//! computation … it utilizes an inverted index, and a hierarchical grid
//! which is used for partitioning the space."
//!
//! Two textual columns are *semantically joinable* when at least a
//! fraction `join_ratio` of the query column's values have some candidate
//! value within embedding distance `tau`. Value vectors come from the
//! hashed-n-gram encoder (the substitution for pre-trained embeddings, see
//! DESIGN.md), and candidate matches are found through the
//! [`HierGrid`] range query, whose pruning statistics the tests check.

use crate::corpus::TableCorpus;
use crate::{DiscoverySystem, SystemInfo};
use lake_index::embed::HashedNgramEncoder;
use lake_index::grid::HierGrid;

/// PEXESO configuration.
#[derive(Debug, Clone, Copy)]
pub struct PexesoConfig {
    /// Embedding-distance threshold for a value match.
    pub tau: f64,
    /// Fraction of query values that must match for joinability.
    pub join_ratio: f64,
    /// Cap on values embedded per column (cost control).
    pub max_values: usize,
}

impl Default for PexesoConfig {
    fn default() -> Self {
        // n-gram embeddings are unit vectors: cosine c ⇒ distance
        // √(2−2c); τ = 1.1 accepts pairs with cosine ≳ 0.4 (morphological
        // variants) and rejects unrelated strings (cosine ≈ 0, d ≈ 1.41).
        PexesoConfig { tau: 1.1, join_ratio: 0.5, max_values: 64 }
    }
}

/// The PEXESO system.
#[derive(Debug, Default)]
pub struct Pexeso {
    /// Configuration.
    pub config: PexesoConfig,
    encoder: HashedNgramEncoder,
    /// One grid per textual column: vectors of its sampled values.
    grids: Vec<Option<HierGrid>>,
}

impl Pexeso {
    /// A system with the given config.
    pub fn new(config: PexesoConfig) -> Pexeso {
        Pexeso { config, ..Default::default() }
    }

    /// Joinability of column `a` (query) into column `b` (candidate): the
    /// fraction of `a`'s sampled values with a τ-close value in `b`.
    pub fn joinability(&self, corpus: &TableCorpus, a: usize, b: usize) -> f64 {
        let pa = &corpus.profiles()[a];
        let Some(grid) = self.grids.get(b).and_then(Option::as_ref) else {
            return 0.0;
        };
        let values: Vec<&String> = pa.domain.iter().take(self.config.max_values).collect();
        if values.is_empty() {
            return 0.0;
        }
        let mut matched = 0usize;
        for v in &values {
            let q = self.encoder.encode(v);
            let (hits, _) = grid.range_query(&q, self.config.tau);
            if !hits.is_empty() {
                matched += 1;
            }
        }
        matched as f64 / values.len() as f64
    }
}

impl DiscoverySystem for Pexeso {
    fn info(&self) -> SystemInfo {
        SystemInfo {
            name: "PEXESO",
            criteria: vec!["(Textual) instance values"],
            metrics: vec!["Any similarity function in a metric space"],
            technique: vec!["High-dimensional vectors", "Hierarchical grids", "Inverted Index"],
        }
    }

    fn build(&mut self, corpus: &TableCorpus) {
        self.grids = corpus
            .profiles()
            .iter()
            .map(|p| {
                if p.dtype != lake_core::DataType::Str || p.domain.is_empty() {
                    return None;
                }
                let vecs: Vec<Vec<f64>> = p
                    .domain
                    .iter()
                    .take(self.config.max_values)
                    .map(|v| self.encoder.encode(v))
                    .collect();
                Some(HierGrid::build(vecs, &[(2, 4), (4, 6)]))
            })
            .collect();
    }

    fn top_k_related(&self, corpus: &TableCorpus, query: usize, k: usize) -> Vec<(usize, f64)> {
        let scores = corpus
            .column_pairs(query)
            .filter(|((_, qp), (b, _))| {
                qp.dtype == lake_core::DataType::Str && self.grids[*b].is_some()
            })
            .map(|((qi, _), (b, _))| (b, self.joinability(corpus, qi, b)))
            .filter(|&(_, j)| j >= self.config.join_ratio);
        corpus.aggregate_to_tables(query, scores, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lake_core::{Column, Table, Value};

    fn col(name: &str, vals: &[&str]) -> Column {
        Column::new(name, vals.iter().map(|v| Value::str(*v)).collect())
    }

    fn corpus() -> TableCorpus {
        let t0 = Table::from_columns(
            "q",
            vec![col("color", &["red", "green", "blue", "white", "black"])],
        )
        .unwrap();
        // Candidate 1: morphological variants (semantically joinable under
        // n-gram embeddings).
        let t1 = Table::from_columns(
            "variants",
            vec![col("colour", &["reds", "greens", "blues", "whites", "blacks"])],
        )
        .unwrap();
        // Candidate 2: unrelated vocabulary.
        let t2 = Table::from_columns(
            "other",
            vec![col("animal", &["zebra", "okapi", "lynx", "ibis", "newt"])],
        )
        .unwrap();
        TableCorpus::new(vec![t0, t1, t2])
    }

    #[test]
    fn variants_are_joinable_unrelated_are_not() {
        let c = corpus();
        let mut p = Pexeso::default();
        p.build(&c);
        let j_var = p.joinability(&c, 0, 1);
        let j_other = p.joinability(&c, 0, 2);
        assert!(j_var > 0.6, "variant joinability {j_var}");
        assert!(j_other < j_var, "unrelated {j_other} must score below {j_var}");
    }

    #[test]
    fn top_k_ranks_semantic_candidate_first() {
        let c = corpus();
        let mut p = Pexeso::default();
        p.build(&c);
        let top = p.top_k_related(&c, 0, 2);
        assert!(!top.is_empty());
        assert_eq!(top[0].0, 1, "{top:?}");
    }

    #[test]
    fn identical_columns_fully_joinable() {
        let t0 = Table::from_columns("a", vec![col("x", &["aa", "bb", "cc"])]).unwrap();
        let t1 = Table::from_columns("b", vec![col("y", &["aa", "bb", "cc"])]).unwrap();
        let c = TableCorpus::new(vec![t0, t1]);
        let mut p = Pexeso::default();
        p.build(&c);
        assert_eq!(p.joinability(&c, 0, 1), 1.0);
    }

    #[test]
    fn numeric_columns_are_skipped() {
        let t0 = Table::from_columns(
            "n",
            vec![Column::new("v", vec![Value::Int(1), Value::Int(2)])],
        )
        .unwrap();
        let t1 = Table::from_columns("s", vec![col("x", &["aa"])]).unwrap();
        let c = TableCorpus::new(vec![t0, t1]);
        let mut p = Pexeso::default();
        p.build(&c);
        // Numeric column got no grid; joinability into it is 0.
        assert_eq!(p.joinability(&c, 1, 0), 0.0);
        assert!(p.top_k_related(&c, 0, 2).is_empty());
    }

    #[test]
    fn info_row() {
        assert!(Pexeso::default()
            .info()
            .technique
            .contains(&"Hierarchical grids"));
    }
}
