//! Table union search (Nargesian et al. \[106\], referenced throughout the
//! survey: §6.1.3 builds organizations on its attribute representations,
//! §6.1.4 names "semantics-aware dataset unionability" as the relatedness
//! simple metadata features cannot cover, and §7.1's exploration mode 2
//! returns "tables that contain relevant attributes for populating T").
//!
//! Two tables are *unionable* when their attributes can be aligned so that
//! aligned columns draw from the same domain. Attribute unionability
//! combines three of the original paper's signals:
//!
//! * set-unionability — Jaccard of value domains (syntactic overlap);
//! * semantic-unionability — cosine of value-bag embeddings (the
//!   n-dimensional representations of \[106\], per DESIGN.md's substitution
//!   table);
//! * name compatibility — q-gram similarity of attribute names.
//!
//! Table unionability is the score of the best greedy 1:1 alignment of the
//! query's attributes, normalized by query arity (aligning more attributes
//! is better — the "c-alignment" intuition).

use crate::corpus::TableCorpus;
use crate::{DiscoverySystem, SystemInfo};
use lake_core::stats::cosine;
use lake_index::embed::HashedNgramEncoder;
use lake_index::qgram::qgram_similarity;

/// Weights over the three attribute-unionability signals.
#[derive(Debug, Clone, Copy)]
pub struct UnionWeights {
    /// Set (value-overlap) unionability.
    pub set: f64,
    /// Semantic (embedding) unionability.
    pub semantic: f64,
    /// Attribute-name compatibility.
    pub name: f64,
}

impl Default for UnionWeights {
    fn default() -> Self {
        UnionWeights { set: 0.4, semantic: 0.45, name: 0.15 }
    }
}

/// The union-search system.
#[derive(Debug)]
pub struct UnionSearch {
    /// Signal weights.
    pub weights: UnionWeights,
    /// Minimum attribute score for an alignment edge.
    pub min_attr_score: f64,
    encoder: HashedNgramEncoder,
    embeddings: Vec<Vec<f64>>,
}

impl Default for UnionSearch {
    fn default() -> Self {
        UnionSearch {
            weights: UnionWeights::default(),
            min_attr_score: 0.15,
            encoder: HashedNgramEncoder::default(),
            embeddings: Vec::new(),
        }
    }
}

/// One aligned attribute pair in a union alignment.
#[derive(Debug, Clone, PartialEq)]
pub struct AlignedPair {
    /// Query column index (within its table).
    pub query_column: usize,
    /// Candidate column index.
    pub candidate_column: usize,
    /// Attribute-unionability score.
    pub score: f64,
}

impl UnionSearch {
    /// Attribute unionability of two profiled columns.
    pub fn attribute_unionability(
        &self,
        corpus: &TableCorpus,
        a: usize,
        b: usize,
    ) -> f64 {
        let pa = &corpus.profiles()[a];
        let pb = &corpus.profiles()[b];
        // Different broad types are never unionable.
        if pa.numeric.is_empty() != pb.numeric.is_empty() {
            return 0.0;
        }
        let set = pa.jaccard_est(pb);
        let semantic = cosine(&self.embeddings[a], &self.embeddings[b]).max(0.0);
        let name = qgram_similarity(&pa.name, &pb.name, 3);
        let w = self.weights;
        w.set * set + w.semantic * semantic + w.name * name
    }

    /// The best greedy alignment of `query`'s attributes onto
    /// `candidate`'s, with the table-unionability score.
    pub fn align(
        &self,
        corpus: &TableCorpus,
        query: usize,
        candidate: usize,
    ) -> (f64, Vec<AlignedPair>) {
        let qcols: Vec<usize> = corpus.table_columns(query).map(|(a, _)| a).collect();
        let ccols: Vec<usize> = corpus.table_columns(candidate).map(|(b, _)| b).collect();
        if qcols.is_empty() || ccols.is_empty() {
            return (0.0, Vec::new());
        }
        let mut edges: Vec<(usize, usize, f64)> = Vec::new();
        for (qi, &a) in qcols.iter().enumerate() {
            for (ci, &b) in ccols.iter().enumerate() {
                let s = self.attribute_unionability(corpus, a, b);
                if s >= self.min_attr_score {
                    edges.push((qi, ci, s));
                }
            }
        }
        edges.sort_by(|x, y| y.2.total_cmp(&x.2));
        let mut used_q = vec![false; qcols.len()];
        let mut used_c = vec![false; ccols.len()];
        let mut pairs = Vec::new();
        let mut total = 0.0;
        for (qi, ci, s) in edges {
            if used_q[qi] || used_c[ci] {
                continue;
            }
            used_q[qi] = true;
            used_c[ci] = true;
            total += s;
            pairs.push(AlignedPair { query_column: qi, candidate_column: ci, score: s });
        }
        (total / qcols.len() as f64, pairs)
    }

    /// Top-k unionable tables for `query`.
    pub fn top_k_unionable(
        &self,
        corpus: &TableCorpus,
        query: usize,
        k: usize,
    ) -> Vec<(usize, f64)> {
        let mut scores: Vec<(usize, f64)> = (0..corpus.len())
            .filter(|&t| t != query)
            .map(|t| (t, self.align(corpus, query, t).0))
            .filter(|&(_, s)| s > 0.0)
            .collect();
        scores.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        scores.truncate(k);
        scores
    }

    /// Materialize the union of `query` with `candidate` under the best
    /// alignment: candidate rows are projected into the query's schema
    /// (unaligned query attributes become null).
    pub fn union_into(
        &self,
        corpus: &TableCorpus,
        query: usize,
        candidate: usize,
    ) -> lake_core::Result<lake_core::Table> {
        let (_, pairs) = self.align(corpus, query, candidate);
        let qt = &corpus.tables()[query];
        let ct = &corpus.tables()[candidate];
        let mut out = qt.clone();
        out.name = format!("{}_union_{}", qt.name, ct.name);
        for r in 0..ct.num_rows() {
            let row: Vec<lake_core::Value> = (0..qt.num_columns())
                .map(|qi| {
                    pairs
                        .iter()
                        .find(|p| p.query_column == qi)
                        .map(|p| ct.columns()[p.candidate_column].values[r].clone())
                        .unwrap_or(lake_core::Value::Null)
                })
                .collect();
            out.push_row(row)?;
        }
        Ok(out)
    }
}

impl DiscoverySystem for UnionSearch {
    fn info(&self) -> SystemInfo {
        SystemInfo {
            name: "Table Union Search",
            criteria: vec!["Attribute domain overlap", "Semantics", "Attribute name"],
            metrics: vec!["Jaccard similarity (MinHash)", "Cosine similarity"],
            technique: vec!["Attribute alignment"],
        }
    }

    fn build(&mut self, corpus: &TableCorpus) {
        self.embeddings = corpus
            .profiles()
            .iter()
            .map(|p| self.encoder.encode_bag(p.domain.iter().map(String::as_str).take(48)))
            .collect();
    }

    fn top_k_related(&self, corpus: &TableCorpus, query: usize, k: usize) -> Vec<(usize, f64)> {
        self.top_k_unionable(corpus, query, k)
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
        // Query: EU cities with country.
        let q = Table::from_columns(
            "eu",
            vec![
                col("city", &["delft", "paris", "rome", "madrid"]),
                col("country", &["nl", "fr", "it", "es"]),
            ],
        )
        .unwrap();
        // Unionable: nordic cities, same attribute names, one shared value
        // (open-data tables that union typically overlap a little).
        let u = Table::from_columns(
            "eu_more",
            vec![
                col("city", &["oslo", "bergen", "malmo", "paris"]),
                col("country", &["no", "no", "se", "fr"]),
            ],
        )
        .unwrap();
        // Not unionable: numeric sensor data.
        let n = Table::from_columns(
            "sensors",
            vec![
                Column::new("temp", (0..4).map(|i| Value::Float(i as f64)).collect()),
                Column::new("hum", (0..4).map(|i| Value::Float(i as f64 * 2.0)).collect()),
            ],
        )
        .unwrap();
        TableCorpus::new(vec![q, u, n])
    }

    fn built() -> (TableCorpus, UnionSearch) {
        let c = corpus();
        let mut us = UnionSearch::default();
        us.build(&c);
        (c, us)
    }

    #[test]
    fn city_tables_are_unionable_sensor_tables_are_not() {
        let (c, us) = built();
        let top = us.top_k_unionable(&c, 0, 2);
        assert!(!top.is_empty());
        assert_eq!(top[0].0, 1, "{top:?}");
        assert!(!top.iter().any(|&(t, _)| t == 2), "numeric table must not union: {top:?}");
    }

    #[test]
    fn alignment_maps_city_to_town() {
        let (c, us) = built();
        let (score, pairs) = us.align(&c, 0, 1);
        assert!(score > 0.0);
        // city (q col 0) ↔ town (c col 0); country ↔ nation.
        let city = pairs.iter().find(|p| p.query_column == 0).expect("city aligned");
        assert_eq!(city.candidate_column, 0);
        let country = pairs.iter().find(|p| p.query_column == 1).expect("country aligned");
        assert_eq!(country.candidate_column, 1);
    }

    #[test]
    fn type_mismatch_zeroes_attribute_unionability() {
        let (c, us) = built();
        // city (text) vs temp (numeric).
        let city = c.profile_index(crate::ColumnRef { table: 0, column: 0 }).unwrap();
        let temp = c.profile_index(crate::ColumnRef { table: 2, column: 0 }).unwrap();
        assert_eq!(us.attribute_unionability(&c, city, temp), 0.0);
    }

    #[test]
    fn union_materializes_combined_table() {
        let (c, us) = built();
        let u = us.union_into(&c, 0, 1).unwrap();
        assert_eq!(u.num_rows(), 8);
        assert_eq!(u.num_columns(), 2);
        let cities = u.column("city").unwrap();
        assert!(cities.values.contains(&Value::str("oslo")));
        assert!(cities.values.contains(&Value::str("delft")));
    }

    #[test]
    fn self_alignment_is_perfect() {
        let (c, us) = built();
        let (score, pairs) = us.align(&c, 0, 0);
        assert!(score > 0.9, "{score}");
        assert_eq!(pairs.len(), 2);
    }

    #[test]
    fn works_on_the_synthetic_lake() {
        let lake = lake_core::synth::generate_lake(&lake_core::synth::LakeGenConfig::default());
        let truth = lake.truth.clone();
        let c = TableCorpus::new(lake.tables);
        let mut us = UnionSearch::default();
        us.build(&c);
        let q = c.table_index("g0_t0").unwrap();
        let top = us.top_k_related(&c, q, 2);
        let hits = top
            .iter()
            .filter(|(t, _)| truth.tables_related("g0_t0", &c.tables()[*t].name))
            .count();
        assert!(hits >= 1, "{top:?}");
    }
}
