//! Clustering: k-means and threshold-cut agglomerative clustering.
//!
//! ALITE "applies hierarchical clustering in order to obtain sets of
//! columns that are related" (§6.3); Brackenbury et al. cluster files by
//! MinHash similarity (§6.2.1). Agglomerative average-linkage with a
//! distance cut-off serves both. k-means is provided for organization
//! experiments needing flat partitions.

use lake_core::stats::euclidean;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// k-means result: assignment per point and final centroids.
#[derive(Debug, Clone)]
pub struct KMeansResult {
    /// Cluster id per input point.
    pub assignment: Vec<usize>,
    /// Final centroids.
    pub centroids: Vec<Vec<f64>>,
    /// Iterations executed.
    pub iterations: usize,
}

/// Lloyd's k-means with seeded random init and early convergence.
pub fn kmeans(points: &[Vec<f64>], k: usize, max_iter: usize, seed: u64) -> KMeansResult {
    assert!(k > 0, "k must be positive");
    assert!(!points.is_empty(), "no points");
    let k = k.min(points.len());
    let mut rng = StdRng::seed_from_u64(seed);
    // Init: k distinct random points.
    let mut order: Vec<usize> = (0..points.len()).collect();
    lake_core::synth::shuffle(&mut order, &mut rng);
    let mut centroids: Vec<Vec<f64>> = order[..k].iter().map(|&i| points[i].clone()).collect();
    let mut assignment = vec![0usize; points.len()];
    let mut iterations = 0;
    for it in 0..max_iter {
        iterations = it + 1;
        let mut changed = false;
        for (i, p) in points.iter().enumerate() {
            let best = centroids
                .iter()
                .enumerate()
                .min_by(|a, b| euclidean(p, a.1).total_cmp(&euclidean(p, b.1)))
                .map_or(0, |(c, _)| c);
            if assignment[i] != best {
                assignment[i] = best;
                changed = true;
            }
        }
        if !changed && it > 0 {
            break;
        }
        let dim = points[0].len();
        let mut sums = vec![vec![0.0; dim]; k];
        let mut counts = vec![0usize; k];
        for (i, p) in points.iter().enumerate() {
            counts[assignment[i]] += 1;
            for (s, x) in sums[assignment[i]].iter_mut().zip(p) {
                *s += x;
            }
        }
        for (c, (sum, count)) in centroids.iter_mut().zip(sums.into_iter().zip(counts)) {
            if count > 0 {
                *c = sum.into_iter().map(|s| s / count as f64).collect();
            }
        }
    }
    KMeansResult { assignment, centroids, iterations }
}

/// Agglomerative average-linkage clustering with a distance cut:
/// repeatedly merge the two clusters with the smallest average pairwise
/// distance until it exceeds `cut`. Returns the cluster id per point.
///
/// Works on an arbitrary distance function, so callers can cluster by
/// `1 - cosine` of embeddings (ALITE) or `1 - Jaccard` of MinHash sketches
/// (Brackenbury) equally well.
pub fn agglomerative_by<T>(
    items: &[T],
    cut: f64,
    mut dist: impl FnMut(&T, &T) -> f64,
) -> Vec<usize> {
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    // Precompute the distance matrix once.
    let mut d = vec![vec![0.0f64; n]; n];
    for i in 0..n {
        for j in i + 1..n {
            let v = dist(&items[i], &items[j]);
            d[i][j] = v;
            d[j][i] = v;
        }
    }
    let mut clusters: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
    loop {
        // Find the closest pair under average linkage.
        let mut best: Option<(usize, usize, f64)> = None;
        for a in 0..clusters.len() {
            for b in a + 1..clusters.len() {
                let mut s = 0.0;
                for &i in &clusters[a] {
                    for &j in &clusters[b] {
                        s += d[i][j];
                    }
                }
                let avg = s / (clusters[a].len() * clusters[b].len()) as f64;
                if best.is_none_or(|(_, _, bd)| avg < bd) {
                    best = Some((a, b, avg));
                }
            }
        }
        match best {
            Some((a, b, avg)) if avg <= cut => {
                let merged = clusters.remove(b);
                clusters[a].extend(merged);
            }
            _ => break,
        }
    }
    let mut out = vec![0usize; n];
    for (cid, members) in clusters.iter().enumerate() {
        for &i in members {
            out[i] = cid;
        }
    }
    out
}

/// Agglomerative clustering of dense vectors under Euclidean distance.
pub fn agglomerative(points: &[Vec<f64>], cut: f64) -> Vec<usize> {
    agglomerative_by(points, cut, |a, b| euclidean(a, b))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_blobs() -> Vec<Vec<f64>> {
        let mut pts = Vec::new();
        for i in 0..10 {
            pts.push(vec![i as f64 * 0.01, 0.0]);
            pts.push(vec![10.0 + i as f64 * 0.01, 0.0]);
        }
        pts
    }

    #[test]
    fn kmeans_separates_blobs() {
        let pts = two_blobs();
        let r = kmeans(&pts, 2, 50, 1);
        // All even indices (first blob) share a cluster distinct from odds.
        let c0 = r.assignment[0];
        let c1 = r.assignment[1];
        assert_ne!(c0, c1);
        for i in 0..pts.len() {
            assert_eq!(r.assignment[i], if i % 2 == 0 { c0 } else { c1 });
        }
        assert_eq!(r.centroids.len(), 2);
    }

    #[test]
    fn kmeans_k_clamped_to_points() {
        let pts = vec![vec![0.0], vec![1.0]];
        let r = kmeans(&pts, 10, 10, 1);
        assert_eq!(r.centroids.len(), 2);
    }

    #[test]
    fn agglomerative_cut_controls_granularity() {
        let pts = two_blobs();
        let coarse = agglomerative(&pts, 1.0);
        let ids: std::collections::HashSet<usize> = coarse.iter().copied().collect();
        assert_eq!(ids.len(), 2, "{coarse:?}");

        let fine = agglomerative(&pts, 0.001);
        let fine_ids: std::collections::HashSet<usize> = fine.iter().copied().collect();
        assert!(fine_ids.len() > 2);
    }

    #[test]
    fn agglomerative_with_custom_distance() {
        let items = ["apple", "apples", "zebra"];
        let assign = agglomerative_by(&items, 0.5, |a, b| {
            1.0 - lake_index_stub_jaccard(a, b)
        });
        assert_eq!(assign[0], assign[1]);
        assert_ne!(assign[0], assign[2]);

        fn lake_index_stub_jaccard(a: &str, b: &str) -> f64 {
            let sa: std::collections::HashSet<char> = a.chars().collect();
            let sb: std::collections::HashSet<char> = b.chars().collect();
            let i = sa.intersection(&sb).count() as f64;
            let u = sa.union(&sb).count() as f64;
            if u == 0.0 {
                0.0
            } else {
                i / u
            }
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        assert!(agglomerative(&[], 1.0).is_empty());
        assert_eq!(agglomerative(&[vec![1.0]], 1.0), vec![0]);
    }

    #[test]
    #[should_panic(expected = "no points")]
    fn kmeans_empty_panics() {
        kmeans(&[], 2, 10, 1);
    }
}
