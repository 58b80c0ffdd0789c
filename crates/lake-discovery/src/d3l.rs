//! D³L: dataset discovery via five similarity signals in a weighted
//! Euclidean space (§6.2.1).
//!
//! "Given table attributes, D³L first transforms schemata and data
//! instances to intermediate representations of q-grams, TF/IDF tokens,
//! regular expressions, word-embeddings, and the Kolmogorov-Smirnov
//! statistic. Based on these five features, D³L transforms the problem of
//! finding the relatedness between tables to the calculation of weighted
//! Euclidean distance in a 5-dimensional space … To tune the feature
//! weights, D³L trains a binary classifier over a training dataset with
//! relatedness ground truth, and applies the coefficients of the trained
//! model as the weight of features."
//!
//! **Per column**, once per (re)profiled column ([`DiscoverySystem::build`],
//! [`D3l::rebuild_profiles`]), the intermediate representations: the
//! distinct 3-grams of the name, the distinct format patterns of the
//! domain (both ascending), the numeric sample in ascending
//! `f64::total_cmp` order, and the bag embedding of the domain. The
//! MinHash signature is the profile's own.
//!
//! **Per pair**, [`D3l::features`] only reads two columns' representations
//! (all similarities in `[0, 1]`):
//! 1. attribute-name similarity (sorted-merge Jaccard of name 3-grams),
//! 2. instance-value overlap (MinHash-estimated Jaccard),
//! 3. embedding similarity (cosine of bag embeddings — word-embedding
//!    stand-in, see DESIGN.md),
//! 4. value-format similarity (sorted-merge Jaccard of format patterns /
//!    the "regular expression" feature),
//! 5. numeric-distribution similarity (1 − KS statistic, a two-pointer
//!    walk over the two sorted samples).
//!
//! Bit-equality contract: every feature equals, `to_bits()`-exact, what
//! `lake_index`'s slice-in functions (`qgram_similarity`,
//! `format_similarity`, `ks_similarity`) return for the raw column — those
//! derive the same representation and call the same kernel — so a score
//! does not depend on when the representation was derived.
//!
//! Distance is `sqrt(Σ wᵢ (1 − simᵢ)²)` with weights from a logistic
//! regression trained on labelled pairs. Experiment E3 ablates each
//! feature against the trained combination.

use crate::corpus::{ColumnProfile, TableCorpus};
use crate::{DiscoverySystem, SystemInfo};
use lake_core::par::{self, Parallelism};
use lake_core::stats::cosine;
use lake_index::embed::HashedNgramEncoder;
use lake_index::ks::{ks_similarity_sorted, sorted_sample};
use lake_index::qgram::{format_patterns, qgram_set, sorted_jaccard};
use lake_ml::logistic::{LogisticConfig, LogisticRegression};

/// Number of similarity features.
pub const NUM_FEATURES: usize = 5;

/// Human-readable feature names (for the E3 ablation report).
pub const FEATURE_NAMES: [&str; NUM_FEATURES] =
    ["name", "value_overlap", "embedding", "format", "distribution"];

/// The D³L system.
#[derive(Debug)]
pub struct D3l {
    /// Feature weights (sum 1); uniform until [`D3l::train_weights`].
    pub weights: [f64; NUM_FEATURES],
    /// Worker count for embedding construction in
    /// [`DiscoverySystem::build`].
    pub par: Parallelism,
    encoder: HashedNgramEncoder,
    /// One entry per corpus profile, in profile order.
    columns: Vec<ColumnFeatures>,
}

/// What pair scoring reads of one column besides its profile's MinHash
/// signature. A pure function of the column's profile.
#[derive(Debug, Clone, Default)]
struct ColumnFeatures {
    /// Distinct 3-grams of the name, ascending.
    name_grams: Vec<String>,
    /// Distinct format patterns of the domain, ascending.
    formats: Vec<String>,
    /// The numeric sample, ascending by `f64::total_cmp`.
    numeric: Vec<f64>,
    /// Bag embedding of (the first 64 values of) the domain.
    embedding: Vec<f64>,
}

impl ColumnFeatures {
    fn of(p: &ColumnProfile, encoder: &HashedNgramEncoder) -> ColumnFeatures {
        ColumnFeatures {
            name_grams: qgram_set(&p.name, 3),
            formats: format_patterns(p.domain.iter().map(String::as_str)),
            numeric: sorted_sample(&p.numeric),
            embedding: encoder.encode_bag(p.domain.iter().map(String::as_str).take(64)),
        }
    }
}

impl Default for D3l {
    fn default() -> Self {
        D3l {
            weights: [1.0 / NUM_FEATURES as f64; NUM_FEATURES],
            par: Parallelism::default(),
            encoder: HashedNgramEncoder::default(),
            columns: Vec::new(),
        }
    }
}

impl D3l {
    /// A default system with an explicit worker count for
    /// [`DiscoverySystem::build`].
    pub fn with_parallelism(par: Parallelism) -> D3l {
        D3l { par, ..D3l::default() }
    }

    /// The 5 similarity features of a column pair, read from the two
    /// columns' precomputed representations. All zero for a column this
    /// system was not built over.
    pub fn features(&self, corpus: &TableCorpus, a: usize, b: usize) -> [f64; NUM_FEATURES] {
        let profiles = corpus.profiles();
        let (Some(pa), Some(pb)) = (profiles.get(a), profiles.get(b)) else {
            return [0.0; NUM_FEATURES];
        };
        let (Some(fa), Some(fb)) = (self.columns.get(a), self.columns.get(b)) else {
            return [0.0; NUM_FEATURES];
        };
        [
            sorted_jaccard(&fa.name_grams, &fb.name_grams),
            pa.jaccard_est(pb),
            cosine(&fa.embedding, &fb.embedding),
            sorted_jaccard(&fa.formats, &fb.formats),
            numeric_feature(fa, fb),
        ]
    }

    /// Weighted distance between two columns.
    pub fn distance(&self, feats: &[f64; NUM_FEATURES]) -> f64 {
        feats
            .iter()
            .zip(&self.weights)
            .map(|(s, w)| w * (1.0 - s) * (1.0 - s))
            .sum::<f64>()
            .sqrt()
    }

    /// Train feature weights from labelled column pairs
    /// `(profile_a, profile_b, related?)` — the D³L classifier step.
    pub fn train_weights(&mut self, corpus: &TableCorpus, labelled: &[(usize, usize, bool)]) {
        let xs: Vec<Vec<f64>> = labelled
            .iter()
            .map(|&(a, b, _)| self.features(corpus, a, b).to_vec())
            .collect();
        let ys: Vec<bool> = labelled.iter().map(|&(_, _, y)| y).collect();
        if xs.is_empty() {
            return;
        }
        let model = LogisticRegression::fit(&xs, &ys, LogisticConfig::default());
        for (slot, w) in self.weights.iter_mut().zip(model.normalized_weights()) {
            *slot = w;
        }
    }

    /// Restrict to a single feature (weight 1 on `feature`) — E3 ablation.
    pub fn with_single_feature(feature: usize) -> D3l {
        let mut weights = [0.0; NUM_FEATURES];
        if let Some(w) = weights.get_mut(feature) {
            *w = 1.0;
        }
        D3l {
            weights,
            ..Default::default()
        }
    }

    /// The per-profile bag embeddings, in profile order (none until
    /// [`DiscoverySystem::build`] or [`D3l::rebuild_profiles`]).
    pub fn embeddings(&self) -> impl Iterator<Item = &[f64]> {
        self.columns.iter().map(|c| c.embedding.as_slice())
    }

    /// Re-derive the representations of just the given profile indices
    /// (resizing to the corpus's profile count first) — the
    /// incremental-maintenance delta matching a [`DiscoverySystem::build`]
    /// from scratch, since each depends only on its own column.
    pub fn rebuild_profiles(&mut self, corpus: &TableCorpus, indices: &[usize]) {
        let profiles = corpus.profiles();
        self.columns
            .resize(profiles.len(), ColumnFeatures::default());
        for &pi in indices {
            if let (Some(p), Some(slot)) = (profiles.get(pi), self.columns.get_mut(pi)) {
                *slot = ColumnFeatures::of(p, &self.encoder);
            }
        }
    }
}

/// Distribution similarity, defined only when both columns are numeric;
/// textual pairs fall back to neutral 0 similarity contribution unless
/// both are textual (then distribution is irrelevant → neutral 0.5? No:
/// D³L computes KS only for numerical attributes; for non-numeric pairs
/// the feature carries no signal, so we return 0 for mixed pairs (type
/// clash is evidence of unrelatedness) and 0.5 for textual-textual.
fn numeric_feature(a: &ColumnFeatures, b: &ColumnFeatures) -> f64 {
    let a_num = !a.numeric.is_empty();
    let b_num = !b.numeric.is_empty();
    match (a_num, b_num) {
        (true, true) => ks_similarity_sorted(&a.numeric, &b.numeric),
        (false, false) => 0.5,
        _ => 0.0,
    }
}

impl DiscoverySystem for D3l {
    fn info(&self) -> SystemInfo {
        SystemInfo {
            name: "D3L",
            criteria: vec![
                "Instance value overlap",
                "Attribute name",
                "Semantics",
                "Data value representation pattern",
                "(Numerical) data distribution",
            ],
            metrics: vec![
                "Jaccard similarity (MinHash)",
                "Cosine similarity (Random projections)",
            ],
            technique: vec!["5-dim Euclidean space"],
        }
    }

    fn build(&mut self, corpus: &TableCorpus) {
        // Each column's representations depend only on its own profile,
        // so deriving them fans out over workers; `par::map` keeps
        // profile order.
        let encoder = &self.encoder;
        self.columns = par::map(self.par, corpus.profiles(), |p| {
            ColumnFeatures::of(p, encoder)
        });
    }

    fn top_k_related(&self, corpus: &TableCorpus, query: usize, k: usize) -> Vec<(usize, f64)> {
        let scores = corpus.column_pairs(query).map(|((qi, _), (b, _))| {
            let d = self.distance(&self.features(corpus, qi, b));
            // Convert distance to a similarity score for ranking.
            (b, 1.0 / (1.0 + d))
        });
        corpus.aggregate_to_tables(query, scores, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lake_core::synth::{generate_lake, LakeGenConfig};

    fn setup() -> (TableCorpus, lake_core::synth::GroundTruth, D3l) {
        let lake = generate_lake(&LakeGenConfig::default());
        let corpus = TableCorpus::new(lake.tables);
        let mut d3l = D3l::default();
        d3l.build(&corpus);
        (corpus, lake.truth, d3l)
    }

    fn labelled_pairs(
        corpus: &TableCorpus,
        truth: &lake_core::synth::GroundTruth,
    ) -> Vec<(usize, usize, bool)> {
        let mut out = Vec::new();
        let n = corpus.profiles().len();
        for a in 0..n {
            for b in a + 1..n.min(a + 12) {
                let ta = &corpus.tables()[corpus.profiles()[a].at.table].name;
                let tb = &corpus.tables()[corpus.profiles()[b].at.table].name;
                if ta == tb {
                    continue;
                }
                out.push((a, b, truth.tables_related(ta, tb)));
            }
        }
        out
    }

    #[test]
    fn features_are_bounded_and_reflexive() {
        let (corpus, _, d3l) = setup();
        let f_self = d3l.features(&corpus, 0, 0);
        for (i, f) in f_self.iter().enumerate() {
            assert!((0.0..=1.0).contains(f), "feature {i} out of range: {f}");
        }
        assert_eq!(f_self[0], 1.0);
        assert_eq!(f_self[1], 1.0);
        assert!(d3l.distance(&f_self) < 0.3);
    }

    #[test]
    fn trained_weights_sum_to_one_and_prefer_informative_features() {
        let (corpus, truth, mut d3l) = setup();
        let labelled = labelled_pairs(&corpus, &truth);
        assert!(labelled.iter().any(|&(_, _, y)| y));
        d3l.train_weights(&corpus, &labelled);
        let sum: f64 = d3l.weights.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "{:?}", d3l.weights);
    }

    #[test]
    fn top_k_finds_group_members() {
        let (corpus, truth, mut d3l) = setup();
        let labelled = labelled_pairs(&corpus, &truth);
        d3l.train_weights(&corpus, &labelled);
        let q = corpus.table_index("g0_t1").unwrap();
        let top = d3l.top_k_related(&corpus, q, 2);
        assert_eq!(top.len(), 2);
        let hits = top
            .iter()
            .filter(|(t, _)| truth.tables_related("g0_t1", &corpus.tables()[*t].name))
            .count();
        assert!(hits >= 1, "top: {top:?}");
    }

    #[test]
    fn single_feature_ablation_runs() {
        let (corpus, _, _) = setup();
        for f in 0..NUM_FEATURES {
            let mut sys = D3l::with_single_feature(f);
            sys.build(&corpus);
            let top = sys.top_k_related(&corpus, 0, 3);
            assert!(top.len() <= 3);
            assert_eq!(sys.weights[f], 1.0);
        }
    }

    #[test]
    fn numeric_feature_cases() {
        let (corpus, _, d3l) = setup();
        // price columns are numeric in every table; find two.
        let (nums, texts): (Vec<&ColumnFeatures>, Vec<&ColumnFeatures>) =
            d3l.columns.iter().partition(|c| !c.numeric.is_empty());
        assert_eq!(nums.len() + texts.len(), corpus.profiles().len());
        assert!(
            numeric_feature(nums[0], nums[1]) > 0.5,
            "same uniform price distribution"
        );
        assert_eq!(numeric_feature(nums[0], texts[0]), 0.0);
        assert_eq!(numeric_feature(texts[0], texts[0]), 0.5);
    }

    #[test]
    fn unknown_columns_score_zero_instead_of_panicking() {
        let (corpus, _, d3l) = setup();
        let n = corpus.profiles().len();
        assert_eq!(d3l.features(&corpus, 0, n), [0.0; NUM_FEATURES]);
        assert_eq!(D3l::default().features(&corpus, 0, 1), [0.0; NUM_FEATURES]);
        assert!(D3l::default()
            .top_k_related(&corpus, corpus.len(), 3)
            .is_empty());
        assert_eq!(
            D3l::with_single_feature(NUM_FEATURES).weights,
            [0.0; NUM_FEATURES]
        );
    }
}
