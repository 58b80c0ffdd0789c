//! E15 — deterministic parallel discovery: sequential vs parallel wall
//! times for corpus profiling, index construction, and query fan-out,
//! with the determinism contract asserted on every row.
//!
//! The north-star claims the reproduction should run "as fast as the
//! hardware allows" *without* giving up replayability. This bench proves
//! both halves at once: every parallel build/evaluation is compared
//! bit-for-bit against its sequential twin (profiles, EKG edges,
//! precision, recall) before any speedup is reported, so a row that
//! printed is a row whose parallel result was byte-identical. On hosts
//! with ≥ 4 workers the corpus-profiling speedup is additionally
//! asserted to reach 1.5×; below that the bench still verifies
//! determinism and reports whatever the hardware gives.

use lake_core::par::Parallelism;
use lake_core::retry::SystemClock;
use lake_core::synth::{generate_lake, LakeGenConfig};
use lake_discovery::aurum::Aurum;
use lake_discovery::d3l::D3l;
use lake_discovery::eval::evaluate_with_options;
use lake_discovery::josie::Josie;
use lake_discovery::{DiscoverySystem, TableCorpus};
use std::time::Instant;

/// Builds a discovery system at a given parallelism.
type SystemCtor = Box<dyn Fn(Parallelism) -> Box<dyn DiscoverySystem>>;

fn lake_config() -> LakeGenConfig {
    LakeGenConfig {
        groups: 6,
        tables_per_group: 4,
        noise_tables: 8,
        rows: (150, 250),
        key_pool: 120,
        ..LakeGenConfig::default()
    }
}

fn main() {
    let auto = Parallelism::auto();
    let workers = auto.workers();
    println!("E15 — deterministic parallel discovery ({workers} workers)\n");

    // Corpus profiling: sequential vs parallel, identical profiles.
    let cfg = lake_config();
    let lake = generate_lake(&cfg);
    let t0 = Instant::now();
    let seq_corpus =
        TableCorpus::with_parallelism(lake.tables.clone(), Parallelism::sequential());
    let seq_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t1 = Instant::now();
    let par_corpus = TableCorpus::with_parallelism(lake.tables.clone(), auto);
    let par_ms = t1.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        seq_corpus.profiles(),
        par_corpus.profiles(),
        "parallel profiling must be bit-identical to sequential"
    );
    let profile_speedup = seq_ms / par_ms.max(1e-9);
    println!(
        "{:>24} {:>10} {:>12} {:>12} {:>9}",
        "stage", "columns", "seq ms", "par ms", "speedup"
    );
    println!(
        "{:>24} {:>10} {:>12.2} {:>12.2} {:>8.2}x",
        "corpus profiling",
        seq_corpus.profiles().len(),
        seq_ms,
        par_ms,
        profile_speedup
    );

    // Per-system: build + query fan-out, identical precision/recall.
    println!(
        "\n{:>24} {:>10} {:>12} {:>12} {:>9}  p@k / r@k (verified equal)",
        "system", "queries", "seq bld ms", "par bld ms", "speedup"
    );
    let clock = SystemClock;
    let systems: Vec<(&str, SystemCtor)> = vec![
        (
            "Aurum",
            Box::new(|p| {
                let mut s = Aurum::default();
                s.par = p;
                Box::new(s)
            }),
        ),
        (
            "JOSIE",
            Box::new(|p| {
                let mut s = Josie::default();
                s.par = p;
                Box::new(s)
            }),
        ),
        (
            "D3L",
            Box::new(|p| {
                let mut s = D3l::default();
                s.par = p;
                Box::new(s)
            }),
        ),
    ];
    for (name, make) in &systems {
        let mut seq_sys = make(Parallelism::sequential());
        let seq = evaluate_with_options(
            seq_sys.as_mut(),
            &seq_corpus,
            &lake.truth,
            3,
            &clock,
            Parallelism::sequential(),
        );
        let mut par_sys = make(auto);
        let par = evaluate_with_options(
            par_sys.as_mut(),
            &par_corpus,
            &lake.truth,
            3,
            &clock,
            auto,
        );
        assert_eq!(
            seq.precision_at_k.to_bits(),
            par.precision_at_k.to_bits(),
            "{name}: parallel precision diverged from sequential"
        );
        assert_eq!(
            seq.recall_at_k.to_bits(),
            par.recall_at_k.to_bits(),
            "{name}: parallel recall diverged from sequential"
        );
        assert_eq!(seq.queries, par.queries);
        println!(
            "{:>24} {:>10} {:>12.2} {:>12.2} {:>8.2}x  p@3={:.3} r@3={:.3}",
            name,
            par.queries,
            seq.build_ms,
            par.build_ms,
            seq.build_ms / par.build_ms.max(1e-9),
            par.precision_at_k,
            par.recall_at_k
        );
    }

    // The speedup floor is a *hardware* claim: workers can be forced up
    // with RUSTLAKE_WORKERS, but oversubscribing one physical core cannot
    // make profiling faster, so gate on actual cores as well.
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    if workers >= 4 && cores >= 4 {
        assert!(
            profile_speedup >= 1.5,
            "expected ≥1.5x profiling speedup with {workers} workers on {cores} cores, \
             got {profile_speedup:.2}x"
        );
        println!("\nOK: profiling speedup {profile_speedup:.2}x meets the ≥1.5x floor at {workers} workers.");
    } else {
        println!(
            "\nNOTE: {workers} worker(s) on {cores} core(s); the ≥1.5x speedup floor applies \
             from 4 cores up. Determinism was still verified on every row."
        );
    }
}
