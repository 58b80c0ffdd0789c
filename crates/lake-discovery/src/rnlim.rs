//! RNLIM: relational natural-language inference for semantic attribute
//! relatedness (§6.2.3).
//!
//! "RNLIM considers four signals and separates them into two groups: table
//! and attribute names, attribute data types and attribute value domains.
//! For each such group, it uses multiple matching methods. For instance,
//! to perform the domain match between numerical attributes, it uses the
//! Kolmogorov-Smirnov statistic … Using pre-trained language
//! representation models from BERT, RNLIM generates similarity-preserving
//! representations from these two groups of signals, which enable the
//! training of a classification model."
//!
//! Per the substitution table, BERT is replaced by the hashed-n-gram text
//! encoder (similarity-preserving on identifier text), and the
//! classification model is a logistic head over the grouped signals:
//!
//! * group 1 (naming): cosine of table-name encodings, cosine of
//!   attribute-name encodings;
//! * group 2 (typing/domain): type agreement, KS similarity for numeric
//!   pairs, value-embedding cosine for textual pairs.

use crate::corpus::TableCorpus;
use crate::{DiscoverySystem, SystemInfo};
use lake_core::stats::cosine;
use lake_index::embed::HashedNgramEncoder;
use lake_index::ks::{ks_similarity_sorted, sorted_sample};
use lake_ml::logistic::{LogisticConfig, LogisticRegression};

/// The RNLIM system.
#[derive(Debug, Default)]
pub struct Rnlim {
    encoder: HashedNgramEncoder,
    name_vecs: Vec<Vec<f64>>,
    table_vecs: Vec<Vec<f64>>,
    value_vecs: Vec<Vec<f64>>,
    /// Per profile, the numeric sample in the order the KS kernel walks.
    numeric_sorted: Vec<Vec<f64>>,
    model: Option<LogisticRegression>,
}

/// Number of pair features.
pub const NUM_FEATURES: usize = 5;

impl Rnlim {
    /// Grouped signals for a column pair.
    pub fn features(&self, corpus: &TableCorpus, a: usize, b: usize) -> [f64; NUM_FEATURES] {
        let pa = &corpus.profiles()[a];
        let pb = &corpus.profiles()[b];
        let type_match = f64::from(pa.dtype == pb.dtype);
        let (na, nb) = (&self.numeric_sorted[a], &self.numeric_sorted[b]);
        let domain = match (!na.is_empty(), !nb.is_empty()) {
            (true, true) => ks_similarity_sorted(na, nb),
            (false, false) => cosine(&self.value_vecs[a], &self.value_vecs[b]),
            _ => 0.0,
        };
        [
            cosine(&self.table_vecs[pa.at.table], &self.table_vecs[pb.at.table]),
            cosine(&self.name_vecs[a], &self.name_vecs[b]),
            type_match,
            domain,
            // Interaction term: naming × domain agreement.
            cosine(&self.name_vecs[a], &self.name_vecs[b]) * domain,
        ]
    }

    /// Train the classification head on labelled pairs.
    pub fn train(&mut self, corpus: &TableCorpus, labelled: &[(usize, usize, bool)]) {
        let xs: Vec<Vec<f64>> = labelled
            .iter()
            .map(|&(a, b, _)| self.features(corpus, a, b).to_vec())
            .collect();
        let ys: Vec<bool> = labelled.iter().map(|&(_, _, y)| y).collect();
        if !xs.is_empty() {
            self.model = Some(LogisticRegression::fit(&xs, &ys, LogisticConfig::default()));
        }
    }

    /// Probability that columns `a` and `b` are semantically related.
    pub fn relatedness(&self, corpus: &TableCorpus, a: usize, b: usize) -> f64 {
        let feats = self.features(corpus, a, b);
        match &self.model {
            Some(m) => m.predict_proba(&feats),
            // Untrained fallback: mean of the signals.
            None => feats.iter().sum::<f64>() / NUM_FEATURES as f64,
        }
    }
}

impl DiscoverySystem for Rnlim {
    fn info(&self) -> SystemInfo {
        SystemInfo {
            name: "RNLIM",
            criteria: vec![
                "Table name",
                "Attribute name",
                "Attribute data type",
                "Attribute value domain",
            ],
            metrics: vec!["-"],
            technique: vec!["BERT"],
        }
    }

    fn build(&mut self, corpus: &TableCorpus) {
        self.name_vecs = corpus
            .profiles()
            .iter()
            .map(|p| self.encoder.encode(&p.name))
            .collect();
        self.table_vecs = corpus
            .tables()
            .iter()
            .map(|t| self.encoder.encode(&t.name))
            .collect();
        self.value_vecs = corpus
            .profiles()
            .iter()
            .map(|p| self.encoder.encode_bag(p.domain.iter().map(String::as_str).take(32)))
            .collect();
        self.numeric_sorted = corpus
            .profiles()
            .iter()
            .map(|p| sorted_sample(&p.numeric))
            .collect();
    }

    fn top_k_related(&self, corpus: &TableCorpus, query: usize, k: usize) -> Vec<(usize, f64)> {
        let scores = corpus
            .column_pairs(query)
            .map(|((qi, _), (b, _))| (b, self.relatedness(corpus, qi, b)));
        corpus.aggregate_to_tables(query, scores, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lake_core::synth::{generate_lake, vocab, LakeGenConfig};

    fn setup() -> (TableCorpus, lake_core::synth::GroundTruth, Rnlim) {
        let lake = generate_lake(&LakeGenConfig::default());
        let corpus = TableCorpus::new(lake.tables);
        let mut r = Rnlim::default();
        r.build(&corpus);
        (corpus, lake.truth, r)
    }

    fn semantic_pairs(
        corpus: &TableCorpus,
        truth: &lake_core::synth::GroundTruth,
    ) -> Vec<(usize, usize, bool)> {
        // Positives: planted semantic (synonym) column pairs.
        let mut out = Vec::new();
        for p in truth.semantic.iter().take(60) {
            let (Some(ta), Some(tb)) = (corpus.table_index(&p.table_a), corpus.table_index(&p.table_b)) else {
                continue;
            };
            let ca = corpus.tables()[ta].column_index(&p.column_a).unwrap();
            let cb = corpus.tables()[tb].column_index(&p.column_b).unwrap();
            let a = corpus.profile_index(crate::ColumnRef { table: ta, column: ca }).unwrap();
            let b = corpus.profile_index(crate::ColumnRef { table: tb, column: cb }).unwrap();
            out.push((a, b, true));
        }
        // Negatives: columns from noise vs group tables.
        let noise: Vec<usize> = corpus
            .profiles()
            .iter()
            .enumerate()
            .filter(|(_, p)| corpus.tables()[p.at.table].name.starts_with("noise"))
            .map(|(i, _)| i)
            .collect();
        let group: Vec<usize> = (0..corpus.profiles().len())
            .filter(|i| !noise.contains(i))
            .take(noise.len())
            .collect();
        for (&a, &b) in noise.iter().zip(&group) {
            out.push((a, b, false));
        }
        out
    }

    #[test]
    fn synonym_columns_score_above_unrelated() {
        let (corpus, truth, mut r) = setup();
        let pairs = semantic_pairs(&corpus, &truth);
        r.train(&corpus, &pairs);
        let pos: Vec<f64> = pairs
            .iter()
            .filter(|&&(_, _, y)| y)
            .map(|&(a, b, _)| r.relatedness(&corpus, a, b))
            .collect();
        let neg: Vec<f64> = pairs
            .iter()
            .filter(|&&(_, _, y)| !y)
            .map(|&(a, b, _)| r.relatedness(&corpus, a, b))
            .collect();
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        assert!(
            mean(&pos) > mean(&neg) + 0.2,
            "positives {} vs negatives {}",
            mean(&pos),
            mean(&neg)
        );
    }

    #[test]
    fn untrained_fallback_still_ranks() {
        let (corpus, truth, r) = setup();
        let q = corpus.table_index("g0_t0").unwrap();
        let top = r.top_k_related(&corpus, q, 3);
        assert_eq!(top.len(), 3);
        // Top hit should at least not be a noise table.
        let name = &corpus.tables()[top[0].0].name;
        assert!(truth.tables_related("g0_t0", name) || name.starts_with("g"), "{name}");
    }

    #[test]
    fn synonym_name_signal_is_present() {
        // Synonyms share substrings ("customer_id"/"cust_id") → n-gram
        // encodings overlap; sanity-check the signal on raw vocab.
        let enc = HashedNgramEncoder::default();
        // Synonym groups whose members share character n-grams (not all
        // do — "city"/"town" are pure-semantic and need the value-domain
        // signal instead, which the trained model covers).
        for (a, b) in [("customer_id", "cust_id"), ("color", "colour"), ("price", "unit_price")] {
            let va = enc.encode(a);
            let vb = enc.encode(b);
            let vz = enc.encode("zzzzqqq");
            assert!(cosine(&va, &vb) > cosine(&va, &vz), "{a} vs {b}");
        }
        let _ = vocab::SYNONYMS;
    }

    #[test]
    fn features_bounded() {
        let (corpus, _, r) = setup();
        let f = r.features(&corpus, 0, 5);
        for (i, v) in f.iter().enumerate() {
            assert!((-1.0..=1.0).contains(v), "feature {i}: {v}");
        }
    }
}
