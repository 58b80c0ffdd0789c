//! Cross-system discovery-quality integration test: every implemented
//! discovery system must clearly beat a random baseline on the synthetic
//! lake, and the evaluation harness's qualitative "shape" expectations
//! from the survey must hold (JOSIE/Aurum strong on joinable overlap,
//! multi-signal systems competitive, everything above chance).

use lake_core::synth::{generate_lake, LakeGenConfig};
use lake_discovery::corpus::TableCorpus;
use lake_discovery::dln::synthesize_query_log;
use lake_discovery::eval::labelled_pairs;
use lake_discovery::{evaluate, DiscoverySystem, SystemInfo};

struct RandomBaseline;

impl DiscoverySystem for RandomBaseline {
    fn info(&self) -> SystemInfo {
        SystemInfo { name: "Random", criteria: vec![], metrics: vec![], technique: vec![] }
    }
    fn build(&mut self, _corpus: &TableCorpus) {}
    fn top_k_related(&self, corpus: &TableCorpus, query: usize, k: usize) -> Vec<(usize, f64)> {
        // Deterministic pseudo-random pick: next k tables cyclically.
        (1..=k).map(|i| ((query + i * 3) % corpus.len(), 0.5)).filter(|&(t, _)| t != query).collect()
    }
}

fn setup() -> (TableCorpus, lake_core::synth::GroundTruth) {
    let lake = generate_lake(&LakeGenConfig::default());
    (TableCorpus::new(lake.tables), lake.truth)
}

#[test]
fn every_system_beats_the_random_baseline() {
    let (corpus, truth) = setup();
    let baseline = evaluate(&mut RandomBaseline, &corpus, &truth, 2);

    let mut dln = lake_discovery::dln::Dln::default();
    dln.train_from_log(&corpus, &synthesize_query_log(&truth, 2));

    let mut systems: Vec<Box<dyn DiscoverySystem>> = vec![
        Box::new(lake_discovery::aurum::Aurum::default()),
        Box::new(lake_discovery::josie::Josie::default()),
        Box::new(lake_discovery::d3l::D3l::default()),
        Box::new(lake_discovery::juneau::Juneau::default()),
        Box::new(lake_discovery::brackenbury::Brackenbury::default()),
        Box::new(lake_discovery::rnlim::Rnlim::default()),
        Box::new(dln),
    ];
    for sys in &mut systems {
        let r = evaluate(sys.as_mut(), &corpus, &truth, 2);
        assert!(
            r.precision_at_k > baseline.precision_at_k + 0.15,
            "{} precision {:.2} vs baseline {:.2}",
            r.system,
            r.precision_at_k,
            baseline.precision_at_k
        );
    }
}

#[test]
fn overlap_specialists_score_high_on_joinable_truth() {
    let (corpus, truth) = setup();
    for sys in [
        &mut lake_discovery::aurum::Aurum::default() as &mut dyn DiscoverySystem,
        &mut lake_discovery::josie::Josie::default(),
    ] {
        let r = evaluate(sys, &corpus, &truth, 2);
        assert!(r.precision_at_k > 0.8, "{}: {:.2}", r.system, r.precision_at_k);
        assert!(r.recall_at_k > 0.8, "{}: {:.2}", r.system, r.recall_at_k);
    }
}

#[test]
fn evaluation_is_deterministic() {
    let (corpus, truth) = setup();
    let mut a = lake_discovery::josie::Josie::default();
    let mut b = lake_discovery::josie::Josie::default();
    let ra = evaluate(&mut a, &corpus, &truth, 2);
    let rb = evaluate(&mut b, &corpus, &truth, 2);
    assert_eq!(ra.precision_at_k, rb.precision_at_k);
    assert_eq!(ra.recall_at_k, rb.recall_at_k);
}

#[test]
fn trained_d3l_does_not_regress_against_untrained() {
    let (corpus, truth) = setup();
    let untrained = evaluate(&mut lake_discovery::d3l::D3l::default(), &corpus, &truth, 2);

    let mut trained = lake_discovery::d3l::D3l::default();
    trained.build(&corpus);
    // Label pairs from ground truth (as D³L's training step prescribes).
    trained.train_weights(&corpus, &labelled_pairs(&corpus, &truth, 15));
    let r = evaluate(&mut trained, &corpus, &truth, 2);
    assert!(
        r.precision_at_k >= untrained.precision_at_k - 0.05,
        "trained {:.2} vs untrained {:.2}",
        r.precision_at_k,
        untrained.precision_at_k
    );
}
