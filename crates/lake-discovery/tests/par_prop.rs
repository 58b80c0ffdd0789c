//! Property tests for the determinism contract of the parallel discovery
//! engine: for *any* synthetic lake and any worker count, a parallel
//! `TableCorpus` build produces profiles identical to the sequential
//! build — same order, same signatures, same domains — and, for each of
//! Aurum, JOSIE and D³L, a parallel build and evaluation fan-out
//! reproduces the sequential precision/recall bits and top-k answers.

use lake_core::par::Parallelism;
use lake_core::synth::{generate_lake, LakeGenConfig};
use lake_discovery::aurum::Aurum;
use lake_discovery::d3l::D3l;
use lake_discovery::eval::evaluate_with_options;
use lake_discovery::josie::Josie;
use lake_discovery::{DiscoverySystem, TableCorpus};
use proptest::prelude::*;

fn config(seed: u64, groups: usize, noise: usize, zipf_alpha: f64) -> LakeGenConfig {
    LakeGenConfig {
        seed,
        groups,
        noise_tables: noise,
        rows: (20, 40),
        zipf_alpha,
        ..LakeGenConfig::default()
    }
}

/// Discovery system `which` (0 JOSIE, 1 Aurum, 2 D³L) building and
/// querying at `par`.
fn system(which: usize, par: Parallelism) -> Box<dyn DiscoverySystem> {
    match which {
        0 => {
            let mut s = Josie::default();
            s.par = par;
            Box::new(s)
        }
        1 => {
            let mut s = Aurum::default();
            s.par = par;
            Box::new(s)
        }
        _ => Box::new(D3l::with_parallelism(par)),
    }
}

proptest! {
    // Column profiling is a pure per-column function; fanning it out must
    // not change a single profile, for any lake shape or worker count.
    #[test]
    fn parallel_profiling_matches_sequential(
        seed in any::<u64>(),
        groups in 1usize..4,
        noise in 0usize..4,
        zipf_alpha in 0.0f64..1.5,
        workers in 2usize..9,
    ) {
        let cfg = config(seed, groups, noise, zipf_alpha);
        let seq =
            TableCorpus::with_parallelism(generate_lake(&cfg).tables, Parallelism::sequential());
        let par =
            TableCorpus::with_parallelism(generate_lake(&cfg).tables, Parallelism::fixed(workers));
        prop_assert_eq!(seq.profiles().len(), par.profiles().len());
        for (a, b) in seq.profiles().iter().zip(par.profiles()) {
            prop_assert_eq!(a, b);
        }
    }

    // End-to-end: building and querying any system with a parallel
    // fan-out yields bit-identical precision/recall to the sequential
    // path, and the same top-k answer (table ids and score bits) for
    // every table — noise tables included, which precision skips.
    #[test]
    fn parallel_evaluation_scores_match_sequential(
        seed in any::<u64>(),
        workers in 2usize..7,
        which in 0usize..3,
    ) {
        let cfg = config(seed, 2, 2, 0.8);
        let lake = generate_lake(&cfg);
        let corpus = TableCorpus::new(lake.tables);
        let sequential = Parallelism::sequential();
        let mut a = system(which, sequential);
        let seq = evaluate_with_options(a.as_mut(), &corpus, &lake.truth, 2, sequential);
        let fanned = Parallelism::fixed(workers);
        let mut b = system(which, fanned);
        let par = evaluate_with_options(b.as_mut(), &corpus, &lake.truth, 2, fanned);
        prop_assert_eq!(seq.precision_at_k.to_bits(), par.precision_at_k.to_bits());
        prop_assert_eq!(seq.recall_at_k.to_bits(), par.recall_at_k.to_bits());
        prop_assert_eq!(seq.queries, par.queries);
        let bits = |top: Vec<(usize, f64)>| -> Vec<(usize, u64)> {
            top.into_iter().map(|(t, s)| (t, s.to_bits())).collect()
        };
        for q in 0..corpus.len() {
            let top_seq = bits(a.top_k_related(&corpus, q, 2));
            let top_par = bits(b.top_k_related(&corpus, q, 2));
            prop_assert_eq!((q, top_seq), (q, top_par));
        }
    }
}
