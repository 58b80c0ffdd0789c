//! The Markov navigation model of data-lake organizations.
//!
//! Nargesian et al. formalize navigating an organization DAG as "a Markov
//! model, where the states are the nodes (i.e., sets of attributes) and
//! transitions are the edges" (§6.1.3): from the current node, a user
//! follows a child with probability proportional to the child's similarity
//! to the query topic. The organization-optimization experiment (E6) uses
//! [`MarkovNavigator::success_probability`] — the probability that a
//! navigation starting at the root reaches a given target leaf — as its
//! objective, exactly the quantity the paper's algorithms maximize.

use std::collections::HashMap;

/// A DAG with per-edge transition affinities (not yet normalized).
#[derive(Debug, Clone, Default)]
pub struct MarkovNavigator {
    children: Vec<Vec<(usize, f64)>>,
}

impl MarkovNavigator {
    /// A model with `n` states and no transitions.
    pub fn with_states(n: usize) -> MarkovNavigator {
        MarkovNavigator { children: vec![Vec::new(); n] }
    }

    /// Add a transition with raw affinity `w > 0` (normalized per state
    /// when probabilities are computed).
    pub fn add_transition(&mut self, from: usize, to: usize, affinity: f64) {
        assert!(affinity >= 0.0);
        self.children[from].push((to, affinity));
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.children.len()
    }

    /// `true` when the model has no states.
    pub fn is_empty(&self) -> bool {
        self.children.is_empty()
    }

    /// Normalized transition probabilities from `state`.
    pub fn transition_probs(&self, state: usize) -> Vec<(usize, f64)> {
        let total: f64 = self.children[state].iter().map(|(_, w)| w).sum();
        if total == 0.0 {
            return Vec::new();
        }
        self.children[state]
            .iter()
            .map(|&(to, w)| (to, w / total))
            .collect()
    }

    /// Probability that a walk from `start` reaches `target`, assuming the
    /// user follows transition probabilities and stops at sinks.
    ///
    /// Because the organization is a DAG, this is computed exactly by
    /// memoized depth-first evaluation (no simulation noise).
    pub fn success_probability(&self, start: usize, target: usize) -> f64 {
        let mut memo: HashMap<usize, f64> = HashMap::new();
        self.prob(start, target, &mut memo)
    }

    fn prob(&self, state: usize, target: usize, memo: &mut HashMap<usize, f64>) -> f64 {
        if state == target {
            return 1.0;
        }
        if let Some(&p) = memo.get(&state) {
            return p;
        }
        let p = self
            .transition_probs(state)
            .into_iter()
            .map(|(to, tp)| tp * self.prob(to, target, memo))
            .sum();
        memo.insert(state, p);
        p
    }

    /// The expected number of steps of a walk from `start` until it
    /// reaches a sink — the navigation-cost metric.
    pub fn expected_walk_length(&self, start: usize) -> f64 {
        let mut memo: HashMap<usize, f64> = HashMap::new();
        self.walk_len(start, &mut memo)
    }

    fn walk_len(&self, state: usize, memo: &mut HashMap<usize, f64>) -> f64 {
        if let Some(&v) = memo.get(&state) {
            return v;
        }
        let probs = self.transition_probs(state);
        let v = if probs.is_empty() {
            0.0
        } else {
            1.0 + probs
                .into_iter()
                .map(|(to, p)| p * self.walk_len(to, memo))
                .sum::<f64>()
        };
        memo.insert(state, v);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// root → {a (0.8), b (0.2)}; a → {leaf1}; b → {leaf2}.
    fn chain() -> MarkovNavigator {
        let mut m = MarkovNavigator::with_states(5);
        m.add_transition(0, 1, 0.8);
        m.add_transition(0, 2, 0.2);
        m.add_transition(1, 3, 1.0);
        m.add_transition(2, 4, 1.0);
        m
    }

    #[test]
    fn success_probability_multiplies_along_path() {
        let m = chain();
        assert!((m.success_probability(0, 3) - 0.8).abs() < 1e-12);
        assert!((m.success_probability(0, 4) - 0.2).abs() < 1e-12);
        assert_eq!(m.success_probability(0, 0), 1.0);
        assert_eq!(m.success_probability(3, 4), 0.0);
    }

    #[test]
    fn diamond_paths_sum() {
        // Two routes to the same leaf must add up.
        let mut m = MarkovNavigator::with_states(4);
        m.add_transition(0, 1, 1.0);
        m.add_transition(0, 2, 1.0);
        m.add_transition(1, 3, 1.0);
        m.add_transition(2, 3, 1.0);
        assert!((m.success_probability(0, 3) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn probabilities_normalize() {
        let m = chain();
        let probs = m.transition_probs(0);
        let total: f64 = probs.iter().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!(m.transition_probs(3).is_empty());
    }

    #[test]
    fn expected_walk_length_counts_levels() {
        let m = chain();
        // root → mid → leaf = 2 steps regardless of branch.
        assert!((m.expected_walk_length(0) - 2.0).abs() < 1e-12);
        assert_eq!(m.expected_walk_length(3), 0.0);
    }

    #[test]
    fn zero_affinity_edges_are_never_taken() {
        let mut m = MarkovNavigator::with_states(3);
        m.add_transition(0, 1, 0.0);
        m.add_transition(0, 2, 1.0);
        assert_eq!(m.success_probability(0, 1), 0.0);
        assert_eq!(m.success_probability(0, 2), 1.0);
    }
}
