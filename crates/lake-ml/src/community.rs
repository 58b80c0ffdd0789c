//! Label-propagation community detection on undirected weighted graphs.
//!
//! DomainNet builds "a network graph using data values and attribute
//! names, followed by applying community detection over such a network"
//! (§6.4.1). Label propagation is the classic near-linear algorithm: every
//! node repeatedly adopts the (weight-summed) majority label among its
//! neighbours until a fixed point; surviving labels are the communities.
//! Iteration order is seeded-shuffled each round, with deterministic
//! tie-breaking, so results are reproducible.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

/// A lightweight undirected weighted graph for community detection.
#[derive(Debug, Clone, Default)]
pub struct UndirectedGraph {
    adj: Vec<Vec<(usize, f64)>>,
}

impl UndirectedGraph {
    /// A graph with `n` isolated nodes.
    pub fn with_nodes(n: usize) -> UndirectedGraph {
        UndirectedGraph { adj: vec![Vec::new(); n] }
    }

    /// Add a node, returning its id.
    pub fn add_node(&mut self) -> usize {
        self.adj.push(Vec::new());
        self.adj.len() - 1
    }

    /// Add an undirected weighted edge.
    pub fn add_edge(&mut self, a: usize, b: usize, weight: f64) {
        self.adj[a].push((b, weight));
        self.adj[b].push((a, weight));
    }

    /// Node count.
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// `true` when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Neighbors of `n` with edge weights.
    pub fn neighbors(&self, n: usize) -> &[(usize, f64)] {
        &self.adj[n]
    }
}

/// Run label propagation; returns a community id per node (ids compacted
/// to `0..num_communities`).
pub fn label_propagation(graph: &UndirectedGraph, max_rounds: usize, seed: u64) -> Vec<usize> {
    let n = graph.len();
    let mut labels: Vec<usize> = (0..n).collect();
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..max_rounds {
        lake_core::synth::shuffle(&mut order, &mut rng);
        let mut changed = false;
        for &node in &order {
            if graph.neighbors(node).is_empty() {
                continue;
            }
            let mut votes: HashMap<usize, f64> = HashMap::new();
            for &(nb, w) in graph.neighbors(node) {
                *votes.entry(labels[nb]).or_insert(0.0) += w;
            }
            // Deterministic tie-break: highest weight, then smallest label.
            let Some((best, _)) =
                votes.into_iter().max_by(|a, b| a.1.total_cmp(&b.1).then(b.0.cmp(&a.0)))
            else {
                continue;
            };
            if labels[node] != best {
                labels[node] = best;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    // Compact ids.
    let mut remap: HashMap<usize, usize> = HashMap::new();
    labels
        .into_iter()
        .map(|l| {
            let next = remap.len();
            *remap.entry(l).or_insert(next)
        })
        .collect()
}

/// Number of distinct communities in an assignment.
pub fn community_count(assignment: &[usize]) -> usize {
    let mut seen: Vec<usize> = assignment.to_vec();
    seen.sort_unstable();
    seen.dedup();
    seen.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two dense cliques joined by one weak edge.
    fn two_cliques() -> UndirectedGraph {
        let mut g = UndirectedGraph::with_nodes(10);
        for a in 0..5 {
            for b in a + 1..5 {
                g.add_edge(a, b, 1.0);
                g.add_edge(a + 5, b + 5, 1.0);
            }
        }
        g.add_edge(4, 5, 0.05);
        g
    }

    #[test]
    fn detects_two_cliques() {
        let g = two_cliques();
        let comm = label_propagation(&g, 50, 7);
        assert_eq!(community_count(&comm), 2, "{comm:?}");
        for i in 1..5 {
            assert_eq!(comm[0], comm[i]);
        }
        for i in 6..10 {
            assert_eq!(comm[5], comm[i]);
        }
        assert_ne!(comm[0], comm[5]);
    }

    #[test]
    fn isolated_nodes_keep_own_community() {
        let g = UndirectedGraph::with_nodes(3);
        let comm = label_propagation(&g, 10, 1);
        assert_eq!(community_count(&comm), 3);
    }

    #[test]
    fn deterministic_given_seed() {
        let g = two_cliques();
        assert_eq!(label_propagation(&g, 50, 3), label_propagation(&g, 50, 3));
    }

    #[test]
    fn single_edge_merges_pair() {
        let mut g = UndirectedGraph::with_nodes(2);
        g.add_edge(0, 1, 1.0);
        let comm = label_propagation(&g, 10, 1);
        assert_eq!(comm[0], comm[1]);
    }

    #[test]
    fn empty_graph() {
        let g = UndirectedGraph::default();
        assert!(label_propagation(&g, 10, 1).is_empty());
        assert!(g.is_empty());
    }

    #[test]
    fn weights_influence_votes() {
        // Node 2 has a weak edge to community {0,1} and a strong edge to {3,4}.
        let mut g = UndirectedGraph::with_nodes(5);
        g.add_edge(0, 1, 1.0);
        g.add_edge(3, 4, 1.0);
        g.add_edge(1, 2, 0.1);
        g.add_edge(2, 3, 2.0);
        let comm = label_propagation(&g, 50, 2);
        assert_eq!(comm[2], comm[3]);
        assert_ne!(comm[2], comm[0]);
    }
}
