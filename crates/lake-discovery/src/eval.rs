//! The discovery evaluation harness: precision@k / recall@k against a
//! synthetic lake's planted ground truth — the measured columns of
//! Table 3 — and the ground-truth pair labels the trainable systems learn
//! from. Scores only: wall-clock numbers come from `bench/`.

use crate::corpus::TableCorpus;
use crate::DiscoverySystem;
use lake_core::par::{self, Parallelism};
use lake_core::synth::GroundTruth;

/// Evaluation results of one system on one corpus.
#[derive(Debug, Clone)]
pub struct EvalReport {
    /// System name (the `&'static` survey name from [`crate::SystemInfo`];
    /// no owned copy needed).
    pub system: &'static str,
    /// Mean precision@k over queried tables with ≥1 true relative.
    pub precision_at_k: f64,
    /// Mean recall@k.
    pub recall_at_k: f64,
    /// Number of queries executed.
    pub queries: usize,
}

/// Run a system over every table of the corpus as a query, comparing its
/// top-k answers to the ground truth's `related_tables`. Queries fan out
/// over the default (auto) worker count.
pub fn evaluate(
    system: &mut dyn DiscoverySystem,
    corpus: &TableCorpus,
    truth: &GroundTruth,
    k: usize,
) -> EvalReport {
    evaluate_with_options(system, corpus, truth, k, Parallelism::auto())
}

/// Tables related to query `q` under the ground truth — the answer set.
fn relevant_names<'a>(corpus: &'a TableCorpus, truth: &GroundTruth, q: usize) -> Vec<&'a str> {
    let qname = &corpus.tables()[q].name;
    corpus
        .tables()
        .iter()
        .map(|t| t.name.as_str())
        .filter(|n| *n != qname && truth.tables_related(qname, n))
        .collect()
}

/// Precision@k and recall@k of one answer list against its answer set.
fn score_top(
    corpus: &TableCorpus,
    relevant: &[&str],
    top: &[(usize, f64)],
    k: usize,
) -> (f64, f64) {
    let hits = top
        .iter()
        .filter(|(t, _)| relevant.contains(&corpus.tables()[*t].name.as_str()))
        .count();
    let denom_p = top.len().min(k).max(1);
    (hits as f64 / denom_p as f64, hits as f64 / relevant.len().min(k) as f64)
}

/// [`evaluate`] with an explicit worker count for the query fan-out.
/// Per-query scores are folded back *in query order*, so precision/recall
/// are bit-identical for every worker count.
pub fn evaluate_with_options(
    system: &mut dyn DiscoverySystem,
    corpus: &TableCorpus,
    truth: &GroundTruth,
    k: usize,
    par: Parallelism,
) -> EvalReport {
    system.build(corpus);
    let sys: &dyn DiscoverySystem = system;
    let scores = par::map_range(par, 0..corpus.len(), |q| {
        let relevant = relevant_names(corpus, truth, q);
        if relevant.is_empty() {
            return None; // noise table: no defined answer set
        }
        let top = sys.top_k_related(corpus, q, k);
        Some(score_top(corpus, &relevant, &top, k))
    });
    let (mut precision_sum, mut recall_sum, mut queries) = (0.0, 0.0, 0usize);
    for (p, r) in scores.into_iter().flatten() {
        precision_sum += p;
        recall_sum += r;
        queries += 1;
    }
    EvalReport {
        system: system.info().name,
        precision_at_k: if queries == 0 { 0.0 } else { precision_sum / queries as f64 },
        recall_at_k: if queries == 0 { 0.0 } else { recall_sum / queries as f64 },
        queries,
    }
}

/// Ground-truth training labels for D³L and RNLIM: every pair of profiled
/// columns `(a, b)` with `a < b < a + window` from two different tables,
/// labelled `true` when the ground truth relates the tables.
pub fn labelled_pairs(
    corpus: &TableCorpus,
    truth: &GroundTruth,
    window: usize,
) -> Vec<(usize, usize, bool)> {
    let table = |p: usize| corpus.tables()[corpus.profiles()[p].at.table].name.as_str();
    let n = corpus.profiles().len();
    let mut out = Vec::new();
    for a in 0..n {
        for b in (a + 1)..n.min(a + window) {
            let (ta, tb) = (table(a), table(b));
            if ta != tb {
                out.push((a, b, truth.tables_related(ta, tb)));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SystemInfo;

    /// An oracle that answers from the ground truth — must score 1.0.
    struct Oracle {
        truth: GroundTruth,
    }

    impl DiscoverySystem for Oracle {
        fn info(&self) -> SystemInfo {
            SystemInfo { name: "Oracle", criteria: vec![], metrics: vec![], technique: vec![] }
        }
        fn build(&mut self, _corpus: &TableCorpus) {}
        fn top_k_related(&self, corpus: &TableCorpus, query: usize, k: usize) -> Vec<(usize, f64)> {
            let qname = &corpus.tables()[query].name;
            corpus
                .tables()
                .iter()
                .enumerate()
                .filter(|(i, t)| *i != query && self.truth.tables_related(qname, &t.name))
                .map(|(i, _)| (i, 1.0))
                .take(k)
                .collect()
        }
    }

    /// Returns nothing — must score 0.0.
    struct Mute;
    impl DiscoverySystem for Mute {
        fn info(&self) -> SystemInfo {
            SystemInfo { name: "Mute", criteria: vec![], metrics: vec![], technique: vec![] }
        }
        fn build(&mut self, _corpus: &TableCorpus) {}
        fn top_k_related(&self, _c: &TableCorpus, _q: usize, _k: usize) -> Vec<(usize, f64)> {
            Vec::new()
        }
    }

    #[test]
    fn oracle_scores_perfectly_and_mute_scores_zero() {
        let lake = lake_core::synth::generate_lake(&lake_core::synth::LakeGenConfig::default());
        let corpus = TableCorpus::new(lake.tables.clone());
        let mut oracle = Oracle { truth: lake.truth.clone() };
        let r = evaluate(&mut oracle, &corpus, &lake.truth, 2);
        assert!((r.precision_at_k - 1.0).abs() < 1e-9, "{r:?}");
        assert!((r.recall_at_k - 1.0).abs() < 1e-9);
        assert_eq!(r.queries, 12); // 4 groups × 3 tables; noise skipped

        let mut mute = Mute;
        let r0 = evaluate(&mut mute, &corpus, &lake.truth, 2);
        assert_eq!(r0.precision_at_k, 0.0);
        assert_eq!(r0.recall_at_k, 0.0);
    }

    #[test]
    fn parallel_fanout_scores_match_sequential() {
        let lake = lake_core::synth::generate_lake(&lake_core::synth::LakeGenConfig::default());
        let corpus = TableCorpus::new(lake.tables.clone());
        let mut a = Oracle { truth: lake.truth.clone() };
        let seq = evaluate_with_options(&mut a, &corpus, &lake.truth, 2, Parallelism::sequential());
        let mut b = Oracle { truth: lake.truth.clone() };
        let par4 = evaluate_with_options(&mut b, &corpus, &lake.truth, 2, Parallelism::fixed(4));
        assert_eq!(seq.precision_at_k.to_bits(), par4.precision_at_k.to_bits());
        assert_eq!(seq.recall_at_k.to_bits(), par4.recall_at_k.to_bits());
        assert_eq!(seq.queries, par4.queries);
    }
}
