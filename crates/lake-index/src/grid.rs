//! A PEXESO-style hierarchical grid index over unit vectors.
//!
//! PEXESO "utilizes an inverted index, and a hierarchical grid which is
//! used for partitioning the space" (§6.2.3). Vectors are quantized at
//! several resolutions; a query with a Euclidean-distance threshold τ
//! visits only grid cells whose bounding boxes can contain matches,
//! pruning most candidates before any exact distance computation.
//!
//! To keep cell keys tractable in higher dimensions, the grid quantizes a
//! fixed subset of leading dimensions per level (coarse → fine), which
//! preserves correctness (cell pruning uses only quantized dimensions —
//! an admissible lower bound on the full distance).

use std::collections::HashMap;

/// The hierarchical grid index.
#[derive(Debug, Clone)]
pub struct HierGrid {
    levels: Vec<Level>,
    vectors: Vec<Vec<f64>>,
}

#[derive(Debug, Clone)]
struct Level {
    /// Number of quantized leading dimensions.
    dims: usize,
    /// Cells per dimension over [-1, 1].
    resolution: usize,
    cells: HashMap<Vec<u32>, Vec<usize>>,
}

impl Level {
    fn cell_of(&self, v: &[f64]) -> Vec<u32> {
        (0..self.dims)
            .map(|d| {
                let x = v.get(d).copied().unwrap_or(0.0).clamp(-1.0, 1.0);
                // Map [-1,1] → [0, resolution).
                (((x + 1.0) / 2.0 * self.resolution as f64) as u32).min(self.resolution as u32 - 1)
            })
            .collect()
    }

    /// Minimum distance from `v` to cell `c` along the quantized dims — an
    /// admissible lower bound on full Euclidean distance.
    fn min_dist(&self, v: &[f64], cell: &[u32]) -> f64 {
        let width = 2.0 / self.resolution as f64;
        let mut s = 0.0;
        for (d, &c) in cell.iter().enumerate().take(self.dims) {
            let x = v.get(d).copied().unwrap_or(0.0);
            let lo = -1.0 + c as f64 * width;
            let hi = lo + width;
            let gap = if x < lo {
                lo - x
            } else if x > hi {
                x - hi
            } else {
                0.0
            };
            s += gap * gap;
        }
        s.sqrt()
    }
}

/// Count of exact distance computations in the last query — the pruning
/// metric PEXESO's evaluation reports.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GridQueryStats {
    /// Candidates whose exact distance was computed.
    pub exact_checks: usize,
    /// Grid cells inspected.
    pub cells_visited: usize,
}

impl HierGrid {
    /// Build over `vectors` (expected roughly unit-normalized) with the
    /// given levels, e.g. `&[(2, 4), (4, 8)]` = coarse 2-dim/4-cell level
    /// plus finer 4-dim/8-cell level.
    pub fn build(vectors: Vec<Vec<f64>>, levels: &[(usize, usize)]) -> HierGrid {
        let mut built = Vec::new();
        for &(dims, resolution) in levels {
            let mut level = Level { dims, resolution, cells: HashMap::new() };
            for (i, v) in vectors.iter().enumerate() {
                let c = level.cell_of(v);
                level.cells.entry(c).or_default().push(i);
            }
            built.push(level);
        }
        HierGrid { levels: built, vectors }
    }

    /// Number of indexed vectors.
    pub fn len(&self) -> usize {
        self.vectors.len()
    }

    /// `true` when no vectors are indexed.
    pub fn is_empty(&self) -> bool {
        self.vectors.is_empty()
    }

    /// All vector ids within Euclidean distance `tau` of `query`, with
    /// pruning statistics. Exact and complete (pruning is admissible).
    pub fn range_query(&self, query: &[f64], tau: f64) -> (Vec<usize>, GridQueryStats) {
        let mut stats = GridQueryStats::default();
        // Use the *finest* level for pruning (most selective admissible bound).
        let Some(level) = self.levels.last() else {
            // No levels: brute force.
            let hits = self.brute(query, tau, &mut stats);
            return (hits, stats);
        };
        let mut hits = Vec::new();
        for (cell, ids) in &level.cells {
            stats.cells_visited += 1;
            if level.min_dist(query, cell) > tau {
                continue;
            }
            for &id in ids {
                stats.exact_checks += 1;
                if euclid(query, &self.vectors[id]) <= tau {
                    hits.push(id);
                }
            }
        }
        hits.sort_unstable();
        (hits, stats)
    }

    fn brute(&self, query: &[f64], tau: f64, stats: &mut GridQueryStats) -> Vec<usize> {
        let mut hits = Vec::new();
        for (id, v) in self.vectors.iter().enumerate() {
            stats.exact_checks += 1;
            if euclid(query, v) <= tau {
                hits.push(id);
            }
        }
        hits
    }
}

fn euclid(a: &[f64], b: &[f64]) -> f64 {
    lake_core::stats::euclidean(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngExt, SeedableRng};

    fn unit(v: Vec<f64>) -> Vec<f64> {
        let n: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
        v.into_iter().map(|x| x / n).collect()
    }

    fn corpus(n: usize, dim: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| unit((0..dim).map(|_| rng.random::<f64>() * 2.0 - 1.0).collect()))
            .collect()
    }

    #[test]
    fn range_query_is_exact_vs_brute_force() {
        let vecs = corpus(300, 8, 1);
        let grid = HierGrid::build(vecs.clone(), &[(2, 4), (4, 8)]);
        let q = &vecs[0];
        for tau in [0.1, 0.5, 1.0] {
            let (hits, _) = grid.range_query(q, tau);
            let brute: Vec<usize> = vecs
                .iter()
                .enumerate()
                .filter(|(_, v)| euclid(q, v) <= tau)
                .map(|(i, _)| i)
                .collect();
            assert_eq!(hits, brute, "tau={tau}");
        }
    }

    #[test]
    fn pruning_reduces_exact_checks() {
        let vecs = corpus(2000, 8, 2);
        let grid = HierGrid::build(vecs.clone(), &[(4, 8)]);
        let (_, stats) = grid.range_query(&vecs[0], 0.3);
        assert!(
            stats.exact_checks < vecs.len() / 2,
            "grid should prune most candidates: {} of {}",
            stats.exact_checks,
            vecs.len()
        );
    }

    #[test]
    fn self_is_always_found() {
        let vecs = corpus(50, 4, 3);
        let grid = HierGrid::build(vecs.clone(), &[(2, 4), (4, 8)]);
        for (i, v) in vecs.iter().enumerate() {
            let (hits, _) = grid.range_query(v, 1e-9);
            assert!(hits.contains(&i));
        }
    }

    #[test]
    fn empty_grid() {
        let grid = HierGrid::build(Vec::new(), &[(2, 4)]);
        assert!(grid.is_empty());
        let (hits, _) = grid.range_query(&[0.0, 0.0], 1.0);
        assert!(hits.is_empty());
    }

    #[test]
    fn no_levels_falls_back_to_brute_force() {
        let vecs = corpus(20, 4, 4);
        let grid = HierGrid::build(vecs.clone(), &[]);
        let (hits, stats) = grid.range_query(&vecs[0], 0.5);
        assert!(hits.contains(&0));
        assert_eq!(stats.exact_checks, 20);
    }
}
