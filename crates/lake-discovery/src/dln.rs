//! DLN: Data Lake Navigator — related-column discovery at enterprise scale
//! via classifiers trained on query logs (§6.2.4).
//!
//! "The core solution of DLN is building random-forest classification
//! models … it extracts two types of features: metadata features,
//! including attribute names and uniqueness, and data-based features.
//! Accordingly, it builds two classifiers. The first classifier uses only
//! metadata features. The second classifier is an ensemble model … for
//! learning classification models DLN needs labeled samples. In essence,
//! it labels the attribute-pairs in the JOIN clauses of queries as
//! positive samples, whereas it samples negative examples of attribute
//! pairs that never appear in any JOIN clause."
//!
//! [`synthesize_query_log`] reproduces DLN's label source: a synthetic
//! workload whose JOIN clauses connect the planted joinable columns. The
//! metadata-only classifier never touches data values (that is DLN's
//! scalability trick — metadata fits in memory at exabyte scale); the
//! ensemble adds value-sketch features for textual columns only.

use crate::corpus::TableCorpus;
use crate::{DiscoverySystem, SystemInfo};
use lake_core::synth::GroundTruth;
use lake_index::qgram::qgram_similarity;
use lake_ml::forest::{ForestConfig, RandomForest};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A JOIN clause from the (synthetic) enterprise query log. Borrows its
/// names from the log's source (e.g. the ground truth): logs are only
/// ever read during training, so owning copies of every table/column
/// name per repeated query would be pure allocation churn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinClause<'a> {
    /// Left table name.
    pub left_table: &'a str,
    /// Left column name.
    pub left_column: &'a str,
    /// Right table name.
    pub right_table: &'a str,
    /// Right column name.
    pub right_column: &'a str,
}

/// Generate a query log whose JOIN clauses follow the planted joinable
/// ground truth — the label source DLN mines.
pub fn synthesize_query_log(truth: &GroundTruth, queries_per_pair: usize) -> Vec<JoinClause<'_>> {
    truth
        .joinable
        .iter()
        .flat_map(|p| {
            std::iter::repeat_n(
                JoinClause {
                    left_table: &p.table_a,
                    left_column: &p.column_a,
                    right_table: &p.table_b,
                    right_column: &p.column_b,
                },
                queries_per_pair,
            )
        })
        .collect()
}

/// Which feature set a DLN classifier uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeatureSet {
    /// Metadata only (names, types, uniqueness) — the scalable classifier.
    MetadataOnly,
    /// Metadata + data sketches for textual attributes — the ensemble.
    Ensemble,
}

/// The DLN system.
#[derive(Debug)]
pub struct Dln {
    /// Active feature set.
    pub feature_set: FeatureSet,
    forest: Option<RandomForest>,
    /// Training seed.
    pub seed: u64,
}

impl Default for Dln {
    fn default() -> Self {
        Dln { feature_set: FeatureSet::Ensemble, forest: None, seed: 7 }
    }
}

impl Dln {
    /// A system with the chosen feature set.
    pub fn with_features(feature_set: FeatureSet) -> Dln {
        Dln { feature_set, ..Default::default() }
    }

    fn pair_features(&self, corpus: &TableCorpus, a: usize, b: usize) -> Vec<f64> {
        let pa = &corpus.profiles()[a];
        let pb = &corpus.profiles()[b];
        let mut f = vec![
            qgram_similarity(&pa.name, &pb.name, 3),
            f64::from(pa.dtype == pb.dtype),
            f64::from(pa.unique) - f64::from(pb.unique),
            (pa.unique_fraction() - pb.unique_fraction()).abs(),
        ];
        if self.feature_set == FeatureSet::Ensemble {
            // Data features only for textual attributes (DLN's rule).
            let textual = pa.numeric.is_empty() && pb.numeric.is_empty();
            f.push(if textual { pa.jaccard_est(pb) } else { 0.0 });
            f.push(if textual {
                pa.overlap(pb) as f64 / pa.domain.len().max(1) as f64
            } else {
                0.0
            });
        }
        f
    }

    /// Train from a query log: JOIN-clause column pairs are positives;
    /// random never-joined pairs are sampled as negatives.
    pub fn train_from_log(&mut self, corpus: &TableCorpus, log: &[JoinClause<'_>]) {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        let mut positives = std::collections::HashSet::new();
        for j in log {
            let Some((a, b)) = resolve(corpus, j) else { continue };
            positives.insert((a.min(b), a.max(b)));
        }
        for &(a, b) in &positives {
            xs.push(self.pair_features(corpus, a, b));
            ys.push(1usize);
        }
        // Negative sampling: pairs never joined.
        let n = corpus.profiles().len();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut negatives = 0;
        let target = positives.len().max(4) * 2;
        let mut guard = 0;
        while negatives < target && guard < 10_000 {
            guard += 1;
            let a = rng.random_range(0..n);
            let b = rng.random_range(0..n);
            if a == b || positives.contains(&(a.min(b), a.max(b))) {
                continue;
            }
            if corpus.profiles()[a].at.table == corpus.profiles()[b].at.table {
                continue;
            }
            xs.push(self.pair_features(corpus, a, b));
            ys.push(0usize);
            negatives += 1;
        }
        if !xs.is_empty() {
            self.forest = Some(RandomForest::fit(
                &xs,
                &ys,
                2,
                ForestConfig { seed: self.seed, ..Default::default() },
            ));
        }
    }

    /// Probability that two columns are related.
    pub fn relatedness(&self, corpus: &TableCorpus, a: usize, b: usize) -> f64 {
        let f = self.pair_features(corpus, a, b);
        match &self.forest {
            Some(m) => m.predict_proba(&f)[1],
            None => 0.0,
        }
    }

    /// Whether a model has been trained.
    pub fn is_trained(&self) -> bool {
        self.forest.is_some()
    }
}

fn resolve(corpus: &TableCorpus, j: &JoinClause<'_>) -> Option<(usize, usize)> {
    let ta = corpus.table_index(j.left_table)?;
    let tb = corpus.table_index(j.right_table)?;
    let ca = corpus.tables()[ta].column_index(j.left_column)?;
    let cb = corpus.tables()[tb].column_index(j.right_column)?;
    let a = corpus.profile_index(crate::ColumnRef { table: ta, column: ca })?;
    let b = corpus.profile_index(crate::ColumnRef { table: tb, column: cb })?;
    Some((a, b))
}

impl DiscoverySystem for Dln {
    fn info(&self) -> SystemInfo {
        SystemInfo {
            name: "DLN",
            criteria: vec!["Attribute name", "Instance values"],
            metrics: vec!["Jaccard similarity", "Cosine similarity"],
            technique: vec!["Classification models"],
        }
    }

    fn build(&mut self, _corpus: &TableCorpus) {
        // Training requires a query log; see `train_from_log`. The eval
        // harness calls it through `DlnWithLog` in lake-bench or directly.
    }

    fn top_k_related(&self, corpus: &TableCorpus, query: usize, k: usize) -> Vec<(usize, f64)> {
        if self.forest.is_none() {
            return Vec::new();
        }
        let scores = corpus
            .column_pairs(query)
            .map(|((qi, _), (b, _))| (b, self.relatedness(corpus, qi, b)))
            .filter(|&(_, p)| p > 0.5);
        corpus.aggregate_to_tables(query, scores, k)
    }
}

/// Unique-fraction helper on profiles (cardinality / rows).
trait UniqueFraction {
    fn unique_fraction(&self) -> f64;
}

impl UniqueFraction for crate::corpus::ColumnProfile {
    fn unique_fraction(&self) -> f64 {
        if self.rows == 0 {
            0.0
        } else {
            self.domain.len() as f64 / self.rows as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lake_core::synth::{generate_lake, LakeGenConfig};

    fn setup() -> (TableCorpus, GroundTruth) {
        let lake = generate_lake(&LakeGenConfig::default());
        (TableCorpus::new(lake.tables), lake.truth)
    }

    #[test]
    fn query_log_covers_planted_pairs() {
        let (_, truth) = setup();
        let log = synthesize_query_log(&truth, 3);
        assert_eq!(log.len(), truth.joinable.len() * 3);
    }

    #[test]
    fn trained_ensemble_separates_joined_from_random() {
        let (corpus, truth) = setup();
        let mut dln = Dln::default();
        dln.train_from_log(&corpus, &synthesize_query_log(&truth, 1));
        assert!(dln.is_trained());
        // A planted pair scores high.
        let p = truth.joinable.iter().next().unwrap();
        let j = JoinClause {
            left_table: &p.table_a,
            left_column: &p.column_a,
            right_table: &p.table_b,
            right_column: &p.column_b,
        };
        let (a, b) = resolve(&corpus, &j).unwrap();
        let pos = dln.relatedness(&corpus, a, b);
        // A noise-vs-group pair scores low.
        let noise = corpus
            .profiles()
            .iter()
            .position(|pr| corpus.tables()[pr.at.table].name.starts_with("noise"))
            .unwrap();
        let neg = dln.relatedness(&corpus, a, noise);
        assert!(pos > neg, "pos {pos} vs neg {neg}");
        assert!(pos > 0.5, "{pos}");
    }

    #[test]
    fn metadata_only_classifier_also_learns() {
        let (corpus, truth) = setup();
        let mut dln = Dln::with_features(FeatureSet::MetadataOnly);
        dln.train_from_log(&corpus, &synthesize_query_log(&truth, 1));
        let q = corpus.table_index("g0_t0").unwrap();
        let _top = dln.top_k_related(&corpus, q, 3);
        // Metadata-only may be less precise, but it must be trained and
        // produce bounded scores.
        assert!(dln.is_trained());
    }

    #[test]
    fn untrained_returns_nothing() {
        let (corpus, _) = setup();
        let dln = Dln::default();
        assert!(dln.top_k_related(&corpus, 0, 3).is_empty());
    }

    #[test]
    fn top_k_prefers_group_members() {
        let (corpus, truth) = setup();
        let mut dln = Dln::default();
        dln.train_from_log(&corpus, &synthesize_query_log(&truth, 1));
        let q = corpus.table_index("g2_t1").unwrap();
        let top = dln.top_k_related(&corpus, q, 2);
        let hits = top
            .iter()
            .filter(|(t, _)| truth.tables_related("g2_t1", &corpus.tables()[*t].name))
            .count();
        assert!(hits >= 1, "{top:?}");
    }
}
