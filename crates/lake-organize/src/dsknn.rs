//! DS-Prox / DS-kNN: classification-model-based dataset organization
//! (§6.1.2).
//!
//! "DS-kNN incrementally adds every dataset into a new or existing
//! category by applying k-nearest-neighbour search. Before the step of
//! classification, DS-kNN first conducts data preparation by feature
//! extraction. For each attribute, depending on whether its values are
//! continuous or discrete, DS-kNN extracts statistical or
//! distribution-based features respectively … together with other
//! features based on extracted metadata, e.g., the number of attributes,
//! and types of each attribute. … Finally, the datasets in the lake can
//! be visualized as a graph: each node is a dataset, and edges between two
//! nodes are labeled with the similarity of the two datasets."
//!
//! The purpose is *pre-filtering for schema matching* (DS-Prox): only
//! datasets in the same category are worth matching in detail.

use lake_core::stats::NumericSummary;
use lake_core::Table;
use lake_ml::knn::KnnClassifier;

/// The fixed-length feature vector extracted from one dataset.
pub fn dataset_features(table: &Table) -> Vec<f64> {
    let ncols = table.num_columns().max(1) as f64;
    let mut numeric_cols = 0.0;
    let mut text_cols = 0.0;
    let mut mean_cardinality_ratio = 0.0;
    let mut mean_null_frac = 0.0;
    let mut mean_numeric_mean = 0.0;
    let mut mean_value_len = 0.0;
    for col in table.columns() {
        let rows = col.len().max(1) as f64;
        let nums = col.numeric_values();
        if !nums.is_empty() {
            numeric_cols += 1.0;
            if let Some(s) = NumericSummary::of(&nums) {
                // Scale-free statistical feature (avg numeric mean, §6.1.2,
                // squashed so huge ids don't dominate distances).
                mean_numeric_mean += s.mean.abs().ln_1p();
            }
        } else {
            text_cols += 1.0;
            let total_len: usize = col
                .values
                .iter()
                .filter(|v| !v.is_null())
                .map(|v| v.render().len())
                .sum();
            let non_null = (col.len() - col.null_count()).max(1);
            mean_value_len += total_len as f64 / non_null as f64;
        }
        mean_cardinality_ratio += col.cardinality() as f64 / rows;
        mean_null_frac += col.null_count() as f64 / rows;
    }
    vec![
        (table.num_columns() as f64).ln_1p(),
        (table.num_rows() as f64).ln_1p(),
        numeric_cols / ncols,
        text_cols / ncols,
        mean_cardinality_ratio / ncols,
        mean_null_frac / ncols,
        mean_numeric_mean / ncols,
        (mean_value_len / ncols).ln_1p(),
    ]
}

/// A category assignment produced by the organizer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assignment {
    /// Dataset (by insertion order).
    pub dataset: usize,
    /// Assigned category id.
    pub category: usize,
    /// Whether a new category was opened for it.
    pub opened_new: bool,
}

/// The incremental DS-kNN organizer.
#[derive(Debug)]
pub struct DsKnn {
    /// Neighbours consulted per assignment.
    pub k: usize,
    /// Distance above which a new category opens.
    pub new_category_dist: f64,
    classifier: KnnClassifier,
    next_category: usize,
    assignments: Vec<Assignment>,
    features: Vec<Vec<f64>>,
}

impl Default for DsKnn {
    fn default() -> Self {
        DsKnn {
            k: 3,
            new_category_dist: 0.8,
            classifier: KnnClassifier::new(),
            next_category: 0,
            assignments: Vec::new(),
            features: Vec::new(),
        }
    }
}

impl DsKnn {
    /// Add one dataset; returns its assignment.
    pub fn add(&mut self, table: &Table) -> Assignment {
        let feats = dataset_features(table);
        let (category, opened_new) = self.classifier.assign_category(
            feats.clone(),
            self.k,
            self.new_category_dist,
            self.next_category,
        );
        if opened_new {
            self.next_category = category + 1;
        }
        let a = Assignment { dataset: self.assignments.len(), category, opened_new };
        self.assignments.push(a.clone());
        self.features.push(feats);
        a
    }

    /// All assignments so far.
    pub fn assignments(&self) -> &[Assignment] {
        &self.assignments
    }

    /// Number of categories opened.
    pub fn num_categories(&self) -> usize {
        self.next_category
    }

    /// The similarity graph view: `(a, b, similarity)` for all dataset
    /// pairs, similarity = `1 / (1 + distance)`.
    pub fn similarity_graph(&self) -> Vec<(usize, usize, f64)> {
        let mut out = Vec::new();
        for a in 0..self.features.len() {
            for b in a + 1..self.features.len() {
                let d = lake_core::stats::euclidean(&self.features[a], &self.features[b]);
                out.push((a, b, 1.0 / (1.0 + d)));
            }
        }
        out
    }

    /// DS-Prox pre-filtering: dataset pairs worth full schema matching —
    /// those sharing a category.
    pub fn matching_candidates(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for a in 0..self.assignments.len() {
            for b in a + 1..self.assignments.len() {
                if self.assignments[a].category == self.assignments[b].category {
                    out.push((a, b));
                }
            }
        }
        out
    }
}

/// The supervised DS-Prox variant ("a later work uses supervised ensemble
/// models to obtain the similarity values between dataset pairs",
/// §6.1.2): a random forest over the absolute feature differences of a
/// dataset pair predicts whether the pair is proximate — replacing the
/// fixed Euclidean distance with a learned notion of proximity.
#[derive(Debug)]
pub struct DsProxEnsemble {
    forest: lake_ml::forest::RandomForest,
}

impl DsProxEnsemble {
    /// Train from labelled dataset pairs `(table_a, table_b, proximate?)`.
    pub fn train(pairs: &[(&Table, &Table, bool)], seed: u64) -> DsProxEnsemble {
        let xs: Vec<Vec<f64>> = pairs
            .iter()
            .map(|(a, b, _)| pair_features(a, b))
            .collect();
        let ys: Vec<usize> = pairs.iter().map(|&(_, _, y)| usize::from(y)).collect();
        let cfg = lake_ml::forest::ForestConfig { seed, ..Default::default() };
        DsProxEnsemble { forest: lake_ml::forest::RandomForest::fit(&xs, &ys, 2, cfg) }
    }

    /// Learned proximity score for a pair (probability of "proximate").
    pub fn similarity(&self, a: &Table, b: &Table) -> f64 {
        self.forest.predict_proba(&pair_features(a, b))[1]
    }
}

/// Pairwise features: element-wise absolute difference of the two
/// datasets' feature vectors.
fn pair_features(a: &Table, b: &Table) -> Vec<f64> {
    dataset_features(a)
        .iter()
        .zip(dataset_features(b))
        .map(|(x, y)| (x - y).abs())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lake_core::{Column, Value};
    use rand::{RngExt, SeedableRng};

    /// Wide numeric "sensor" tables vs narrow textual "person" tables.
    fn sensor_table(seed: u64) -> Table {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let cols = (0..6)
            .map(|i| {
                Column::new(
                    format!("m{i}"),
                    (0..50).map(|_| Value::Float(rng.random::<f64>())).collect(),
                )
            })
            .collect();
        Table::from_columns(format!("sensor{seed}"), cols).unwrap()
    }

    fn person_table(seed: u64) -> Table {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let names: Vec<Value> = (0..20)
            .map(|_| Value::str(format!("person_{}", rng.random_range(0..1000))))
            .collect();
        let cities: Vec<Value> = (0..20)
            .map(|_| Value::str(["delft", "paris"][rng.random_range(0..2usize)]))
            .collect();
        Table::from_columns(
            format!("people{seed}"),
            vec![Column::new("name", names), Column::new("city", cities)],
        )
        .unwrap()
    }

    #[test]
    fn similar_shapes_share_a_category() {
        let mut org = DsKnn::default();
        let a0 = org.add(&sensor_table(1));
        assert!(a0.opened_new);
        let a1 = org.add(&sensor_table(2));
        assert_eq!(a1.category, a0.category, "similar sensor tables share a category");
        let b0 = org.add(&person_table(1));
        assert_ne!(b0.category, a0.category, "different shape opens a new category");
        let b1 = org.add(&person_table(2));
        assert_eq!(b1.category, b0.category);
        assert_eq!(org.num_categories(), 2);
    }

    #[test]
    fn matching_candidates_stay_within_categories() {
        let mut org = DsKnn::default();
        org.add(&sensor_table(1));
        org.add(&sensor_table(2));
        org.add(&person_table(1));
        let cands = org.matching_candidates();
        assert_eq!(cands, vec![(0, 1)]);
    }

    #[test]
    fn similarity_graph_is_complete_and_bounded() {
        let mut org = DsKnn::default();
        org.add(&sensor_table(1));
        org.add(&sensor_table(2));
        org.add(&person_table(1));
        let g = org.similarity_graph();
        assert_eq!(g.len(), 3);
        for &(_, _, s) in &g {
            assert!((0.0..=1.0).contains(&s));
        }
        // Sensor-sensor similarity beats sensor-person.
        let ss = g.iter().find(|&&(a, b, _)| (a, b) == (0, 1)).unwrap().2;
        let sp = g.iter().find(|&&(a, b, _)| (a, b) == (0, 2)).unwrap().2;
        assert!(ss > sp);
    }

    #[test]
    fn supervised_ensemble_learns_proximity() {
        // Train on sensor-sensor / person-person positives and
        // cross-shape negatives; test on unseen seeds.
        let sensors: Vec<Table> = (0..6).map(sensor_table).collect();
        let people: Vec<Table> = (0..6).map(person_table).collect();
        let mut pairs: Vec<(&Table, &Table, bool)> = Vec::new();
        for i in 0..4 {
            for j in (i + 1)..4 {
                pairs.push((&sensors[i], &sensors[j], true));
                pairs.push((&people[i], &people[j], true));
                pairs.push((&sensors[i], &people[j], false));
            }
        }
        let model = DsProxEnsemble::train(&pairs, 11);
        let same = model.similarity(&sensors[4], &sensors[5]);
        let cross = model.similarity(&sensors[4], &people[5]);
        assert!(same > 0.5, "{same}");
        assert!(cross < 0.5, "{cross}");
        assert!(same > cross);
    }

    #[test]
    fn features_are_fixed_length_and_finite() {
        let f = dataset_features(&sensor_table(5));
        assert_eq!(f.len(), 8);
        assert!(f.iter().all(|x| x.is_finite()));
        let empty = Table::empty("e");
        let fe = dataset_features(&empty);
        assert_eq!(fe.len(), 8);
        assert!(fe.iter().all(|x| x.is_finite()));
    }
}
