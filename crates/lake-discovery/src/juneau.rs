//! Juneau: task-driven table discovery for data science (§6.2.2, §7.1).
//!
//! Juneau extends computational notebooks: "when users specify the desired
//! target table, the system can automatically return a ranked list of
//! tables" using signals chosen *per task type* — instance overlap, domain
//! overlap, attribute names, matched key pairs, new-attribute/new-instance
//! rates (for augmentation), provenance similarity over variable
//! dependency graphs, descriptive metadata, and null-value differences
//! (for cleaning).
//!
//! The notebook/workflow machinery itself lives in `lake-organize`
//! (§6.1.3's variable-dependency DAGs); discovery consumes a distilled
//! *provenance signature* per table — the multiset of workflow operations
//! that produced it — and measures Jaccard similarity of signatures.

use crate::corpus::{ColumnProfile, TableCorpus};
use crate::{DiscoverySystem, SystemInfo};
use lake_core::stats::jaccard;
use std::collections::HashMap;

/// The search task type, which selects the relatedness signals (§7.1's
/// exploration mode 3: "given the user-specified table T and the search
/// type τ").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SearchType {
    /// Find additional rows for training/validation data: rewards instance
    /// overlap on keys plus *new instance rate*.
    AugmentTraining,
    /// Feature engineering: rewards joinable keys plus *new attribute rate*.
    FeatureEngineering,
    /// Data cleaning: rewards schema overlap, provenance similarity, and
    /// null-value differences.
    Cleaning,
    /// Default blend.
    #[default]
    General,
}

/// Per-signal weights (sum needn't be 1; ranking is scale-free).
#[derive(Debug, Clone, Copy)]
pub struct SignalWeights {
    /// Instance-value overlap.
    pub instance_overlap: f64,
    /// Attribute-name overlap.
    pub name_overlap: f64,
    /// Matched key-pair presence.
    pub key_match: f64,
    /// New-attribute rate (candidate attributes absent from the query).
    pub new_attributes: f64,
    /// New-instance rate (candidate values absent from the query).
    pub new_instances: f64,
    /// Provenance (workflow) similarity.
    pub provenance: f64,
    /// Null-fraction difference (rewarding candidates with *fewer* nulls).
    pub null_diff: f64,
}

impl SearchType {
    /// The signal profile Juneau uses for this task.
    pub fn weights(self) -> SignalWeights {
        match self {
            SearchType::AugmentTraining => SignalWeights {
                instance_overlap: 1.0,
                name_overlap: 1.0,
                key_match: 1.0,
                new_attributes: 0.0,
                new_instances: 1.5,
                provenance: 0.3,
                null_diff: 0.0,
            },
            SearchType::FeatureEngineering => SignalWeights {
                instance_overlap: 1.0,
                name_overlap: 0.5,
                key_match: 1.5,
                new_attributes: 1.5,
                new_instances: 0.0,
                provenance: 0.3,
                null_diff: 0.0,
            },
            SearchType::Cleaning => SignalWeights {
                instance_overlap: 1.0,
                name_overlap: 1.0,
                key_match: 0.5,
                new_attributes: 0.0,
                new_instances: 0.0,
                provenance: 1.0,
                null_diff: 1.0,
            },
            SearchType::General => SignalWeights {
                instance_overlap: 1.0,
                name_overlap: 1.0,
                key_match: 1.0,
                new_attributes: 0.3,
                new_instances: 0.3,
                provenance: 0.5,
                null_diff: 0.2,
            },
        }
    }
}

/// The Juneau system.
#[derive(Debug, Default)]
pub struct Juneau {
    /// Active search type.
    pub search_type: SearchType,
    /// Table index → provenance signature (workflow operations that
    /// produced the table), supplied by the notebook layer.
    pub provenance: HashMap<usize, Vec<String>>,
    /// Schema-overlap pruning threshold: candidates sharing no attribute
    /// token with the query are skipped (Juneau's pruning strategy).
    pub prune_threshold: f64,
}

impl Juneau {
    /// A system for a given task.
    pub fn for_task(search_type: SearchType) -> Juneau {
        Juneau { search_type, ..Default::default() }
    }

    /// Register a table's provenance signature.
    pub fn set_provenance(&mut self, table: usize, ops: Vec<String>) {
        self.provenance.insert(table, ops);
    }

    /// Pairwise table score under the active task profile.
    pub fn table_score(&self, corpus: &TableCorpus, query: usize, cand: usize) -> f64 {
        let w = self.search_type.weights();
        let qcols: Vec<&ColumnProfile> = corpus.table_profiles(query).collect();
        let ccols: Vec<&ColumnProfile> = corpus.table_profiles(cand).collect();
        if qcols.is_empty() || ccols.is_empty() {
            return 0.0;
        }

        // Attribute-name overlap (Jaccard of name sets).
        let qnames: Vec<&str> = qcols.iter().map(|p| p.name.as_str()).collect();
        let cnames: Vec<&str> = ccols.iter().map(|p| p.name.as_str()).collect();
        let name_overlap = jaccard(&qnames, &cnames);
        if name_overlap < self.prune_threshold {
            return 0.0;
        }

        // Best instance overlap over column pairs + key-match flag.
        let mut best_overlap = 0.0f64;
        let mut key_match = 0.0f64;
        for qc in &qcols {
            for cc in &ccols {
                let j = qc.jaccard_est(cc);
                if j > best_overlap {
                    best_overlap = j;
                }
                if j > 0.3 && (qc.unique || cc.unique) {
                    key_match = 1.0;
                }
            }
        }

        // New-attribute rate: candidate attributes not in the query.
        let new_attrs = cnames.iter().filter(|n| !qnames.contains(n)).count() as f64
            / cnames.len() as f64;

        // New-instance rate on the best-matching column pair.
        let mut new_instances = 0.0;
        if let Some((qc, cc)) = best_pair(&qcols, &ccols) {
            let new = cc.domain.difference(&qc.domain).count();
            new_instances = if cc.domain.is_empty() { 0.0 } else { new as f64 / cc.domain.len() as f64 };
            // Only counts as augmentation when the columns actually join.
            if qc.jaccard_est(cc) < 0.1 {
                new_instances = 0.0;
            }
        }

        // Provenance similarity.
        let empty = Vec::new();
        let qp = self.provenance.get(&query).unwrap_or(&empty);
        let cp = self.provenance.get(&cand).unwrap_or(&empty);
        let provenance = if qp.is_empty() && cp.is_empty() { 0.0 } else { jaccard(qp, cp) };

        // Null difference: reward candidates with lower null fraction.
        let frac = |cols: &[&ColumnProfile]| {
            let nulls: usize = cols.iter().map(|p| p.nulls).sum();
            let rows: usize = cols.iter().map(|p| p.rows).sum();
            if rows == 0 {
                0.0
            } else {
                nulls as f64 / rows as f64
            }
        };
        let null_diff = (frac(&qcols) - frac(&ccols)).max(0.0);

        w.instance_overlap * best_overlap
            + w.name_overlap * name_overlap
            + w.key_match * key_match
            + w.new_attributes * new_attrs
            + w.new_instances * new_instances
            + w.provenance * provenance
            + w.null_diff * null_diff
    }
}

fn best_pair<'a>(
    qcols: &[&'a ColumnProfile],
    ccols: &[&'a ColumnProfile],
) -> Option<(&'a ColumnProfile, &'a ColumnProfile)> {
    let mut best = None;
    let mut best_j = -1.0;
    for qc in qcols {
        for cc in ccols {
            let j = qc.jaccard_est(cc);
            if j > best_j {
                best_j = j;
                best = Some((*qc, *cc));
            }
        }
    }
    best
}

impl DiscoverySystem for Juneau {
    fn info(&self) -> SystemInfo {
        SystemInfo {
            name: "Juneau",
            criteria: vec![
                "Instance value overlap",
                "Domain overlap",
                "Attribute name",
                "Key constraint",
                "New attributes rate",
                "New instance rate",
                "Variable dependency",
                "Descriptive metadata",
                "Null Values",
            ],
            metrics: vec!["Jaccard similarity"],
            technique: vec!["Workflow graph", "Variable dependency graph"],
        }
    }

    fn build(&mut self, _corpus: &TableCorpus) {}

    fn top_k_related(&self, corpus: &TableCorpus, query: usize, k: usize) -> Vec<(usize, f64)> {
        let mut scores: Vec<(usize, f64)> = (0..corpus.len())
            .filter(|&t| t != query)
            .map(|t| (t, self.table_score(corpus, query, t)))
            .filter(|&(_, s)| s > 0.0)
            .collect();
        scores.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        scores.truncate(k);
        scores
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lake_core::synth::{generate_lake, LakeGenConfig};

    fn setup() -> (TableCorpus, lake_core::synth::GroundTruth) {
        let lake = generate_lake(&LakeGenConfig::default());
        (TableCorpus::new(lake.tables), lake.truth)
    }

    #[test]
    fn general_search_finds_group_members() {
        let (corpus, truth) = setup();
        let j = Juneau::default();
        let q = corpus.table_index("g0_t0").unwrap();
        let top = j.top_k_related(&corpus, q, 2);
        assert!(!top.is_empty());
        let hits = top
            .iter()
            .filter(|(t, _)| truth.tables_related("g0_t0", &corpus.tables()[*t].name))
            .count();
        assert!(hits >= 1, "{top:?}");
    }

    #[test]
    fn provenance_signal_boosts_workflow_siblings() {
        let (corpus, _) = setup();
        let mut j = Juneau::for_task(SearchType::Cleaning);
        let q = corpus.table_index("g0_t0").unwrap();
        let sibling = corpus.table_index("g0_t1").unwrap();
        let base = j.table_score(&corpus, q, sibling);
        j.set_provenance(q, vec!["load".into(), "dropna".into()]);
        j.set_provenance(sibling, vec!["load".into(), "dropna".into()]);
        let boosted = j.table_score(&corpus, q, sibling);
        assert!(boosted > base, "{boosted} vs {base}");
    }

    #[test]
    fn task_profiles_rank_differently() {
        let (corpus, _) = setup();
        let q = corpus.table_index("g1_t0").unwrap();
        let aug = Juneau::for_task(SearchType::AugmentTraining).top_k_related(&corpus, q, 5);
        let fea = Juneau::for_task(SearchType::FeatureEngineering).top_k_related(&corpus, q, 5);
        // Scores must differ between task profiles (weights differ).
        let s_aug: Vec<f64> = aug.iter().map(|&(_, s)| s).collect();
        let s_fea: Vec<f64> = fea.iter().map(|&(_, s)| s).collect();
        assert_ne!(s_aug, s_fea);
    }

    #[test]
    fn pruning_threshold_drops_disjoint_schemas() {
        let (corpus, _) = setup();
        let mut j = Juneau::default();
        j.prune_threshold = 0.01;
        let q = corpus.table_index("g0_t0").unwrap();
        let noise = corpus.table_index("noise_t0").unwrap();
        // Noise tables share no attribute names with group tables.
        assert_eq!(j.table_score(&corpus, q, noise), 0.0);
    }

    #[test]
    fn self_query_excluded() {
        let (corpus, _) = setup();
        let j = Juneau::default();
        let top = j.top_k_related(&corpus, 0, 10);
        assert!(top.iter().all(|&(t, _)| t != 0));
    }
}
