//! k-nearest-neighbour classification.
//!
//! DS-kNN "incrementally adds every dataset into a new or existing category
//! by applying k-nearest-neighbour search" (§6.1.2): find the top-k closest
//! labelled items, take the most frequent category, or open a new category
//! when nothing is close enough. The classifier is incremental — items are
//! added one at a time, matching that workflow.

use lake_core::stats::euclidean;

/// An incremental kNN classifier over dense feature vectors.
#[derive(Debug, Clone, Default)]
pub struct KnnClassifier {
    samples: Vec<Vec<f64>>,
    labels: Vec<usize>,
}

impl KnnClassifier {
    /// An empty classifier.
    pub fn new() -> KnnClassifier {
        KnnClassifier::default()
    }

    /// Add one labelled sample.
    pub fn add(&mut self, sample: Vec<f64>, label: usize) {
        self.samples.push(sample);
        self.labels.push(label);
    }

    /// Number of stored samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` when no samples are stored.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The `k` nearest stored samples: `(index, distance, label)`,
    /// nearest first.
    pub fn neighbors(&self, sample: &[f64], k: usize) -> Vec<(usize, f64, usize)> {
        let mut d: Vec<(usize, f64, usize)> = self
            .samples
            .iter()
            .enumerate()
            .map(|(i, s)| (i, euclidean(sample, s), self.labels[i]))
            .collect();
        d.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        d.truncate(k);
        d
    }

    /// Distance-weighted majority label among the `k` nearest (weight
    /// `1/(d+ε)`, so a close neighbour outvotes several far ones — the
    /// behaviour incremental categorizers like DS-kNN rely on when a new
    /// category still has few members). Returns `None` when empty.
    pub fn predict(&self, sample: &[f64], k: usize) -> Option<usize> {
        let mut votes: Vec<f64> = Vec::new();
        for (_, d, l) in self.neighbors(sample, k) {
            if votes.len() <= l {
                votes.resize(l + 1, 0.0);
            }
            votes[l] += 1.0 / (d + 1e-9);
        }
        votes
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1).then(b.0.cmp(&a.0)))
            .map(|(l, _)| l)
    }

    /// The DS-kNN assignment rule: if the nearest neighbour is farther than
    /// `new_category_dist`, open a fresh category (`next_label`), else take
    /// the kNN majority. Returns the chosen label and whether it is new.
    pub fn assign_category(
        &mut self,
        sample: Vec<f64>,
        k: usize,
        new_category_dist: f64,
        next_label: usize,
    ) -> (usize, bool) {
        let nn = self.neighbors(&sample, k);
        let label = match nn.first() {
            Some(&(_, d, _)) if d <= new_category_dist => self.predict(&sample, k),
            _ => None,
        }
        .unwrap_or(next_label);
        let is_new = nn.first().is_none_or(|&(_, d, _)| d > new_category_dist);
        self.add(sample, label);
        (label, is_new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trained() -> KnnClassifier {
        let mut c = KnnClassifier::new();
        for i in 0..10 {
            c.add(vec![i as f64 * 0.1, 0.0], 0);
            c.add(vec![5.0 + i as f64 * 0.1, 5.0], 1);
        }
        c
    }

    #[test]
    fn predicts_nearest_cluster() {
        let c = trained();
        assert_eq!(c.predict(&[0.2, 0.1], 3), Some(0));
        assert_eq!(c.predict(&[5.3, 4.9], 3), Some(1));
        assert_eq!(c.len(), 20);
    }

    #[test]
    fn empty_classifier_predicts_none() {
        let c = KnnClassifier::new();
        assert_eq!(c.predict(&[1.0], 3), None);
        assert!(c.is_empty());
    }

    #[test]
    fn neighbors_sorted_by_distance() {
        let c = trained();
        let nn = c.neighbors(&[0.0, 0.0], 5);
        assert_eq!(nn.len(), 5);
        for w in nn.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
        assert_eq!(nn[0].2, 0);
    }

    #[test]
    fn k_larger_than_data_is_fine() {
        let mut c = KnnClassifier::new();
        c.add(vec![0.0], 7);
        assert_eq!(c.predict(&[0.1], 100), Some(7));
    }

    #[test]
    fn assign_category_opens_new_when_far() {
        let mut c = KnnClassifier::new();
        let (l0, new0) = c.assign_category(vec![0.0, 0.0], 3, 1.0, 0);
        assert!(new0);
        assert_eq!(l0, 0);
        // Close to the first sample → joins category 0.
        let (l1, new1) = c.assign_category(vec![0.2, 0.0], 3, 1.0, 1);
        assert!(!new1);
        assert_eq!(l1, 0);
        // Far away → category 1.
        let (l2, new2) = c.assign_category(vec![50.0, 50.0], 3, 1.0, 1);
        assert!(new2);
        assert_eq!(l2, 1);
    }
}
