//! E3 — D³L's claim (§6.2.1): combining five similarity features with
//! trained weights "improves the accuracy of discovered related tables"
//! over single signals.
//!
//! Ablation: each of the 5 features alone vs the uniform combination vs
//! the classifier-trained weighted combination, on the standard lake.

use lake_bench::standard_corpus;
use lake_discovery::d3l::{D3l, FEATURE_NAMES, NUM_FEATURES};
use lake_discovery::{evaluate, DiscoverySystem};

fn main() {
    let (corpus, truth) = standard_corpus();
    println!("E3 — D³L feature ablation\n");
    println!("{:<24} {:>6} {:>6}", "configuration", "P@2", "R@2");
    println!("{}", "-".repeat(40));

    for (f, name) in FEATURE_NAMES.iter().enumerate().take(NUM_FEATURES) {
        let mut sys = D3l::with_single_feature(f);
        let r = evaluate(&mut sys, &corpus, &truth, 2);
        println!("{:<24} {:>6.2} {:>6.2}", format!("only {name}"), r.precision_at_k, r.recall_at_k);
    }

    let mut uniform = D3l::default();
    let ru = evaluate(&mut uniform, &corpus, &truth, 2);
    println!("{:<24} {:>6.2} {:>6.2}", "uniform combination", ru.precision_at_k, ru.recall_at_k);

    // Trained weights.
    let mut trained = D3l::default();
    trained.build(&corpus);
    let mut labelled = Vec::new();
    for a in 0..corpus.profiles().len() {
        for b in (a + 1)..corpus.profiles().len().min(a + 14) {
            let ta = &corpus.tables()[corpus.profiles()[a].at.table].name;
            let tb = &corpus.tables()[corpus.profiles()[b].at.table].name;
            if ta != tb {
                labelled.push((a, b, truth.tables_related(ta, tb)));
            }
        }
    }
    trained.train_weights(&corpus, &labelled);
    let weights = trained.weights;
    let rt = evaluate(&mut trained, &corpus, &truth, 2);
    println!("{:<24} {:>6.2} {:>6.2}", "trained combination", rt.precision_at_k, rt.recall_at_k);

    println!("\nlearned weights:");
    for (name, w) in FEATURE_NAMES.iter().zip(weights) {
        println!("  {name:<14} {w:.3}");
    }
    println!("\nshape check: combination ≥ best single feature; value overlap is the strongest single signal.");
}
