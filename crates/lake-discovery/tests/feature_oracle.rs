//! D³L and RNLIM score a column pair from representations derived once
//! per column. This test recomputes every feature of every pair from the
//! raw profiles with `lake_index`'s slice-in free functions — which derive
//! per call — and demands `to_bits()` equality, on generated lakes and on
//! columns chosen to break a sort, a set or a tokenizer. The free
//! functions are themselves pinned to the plain set definitions of the two
//! Jaccards, so the chain reaches the hash-set formulas pair scoring used
//! before the representations were cached.

use lake_core::stats::{cosine, jaccard_from_counts};
use lake_core::synth::{generate_lake, LakeGenConfig};
use lake_core::{Table, Value};
use lake_discovery::corpus::ColumnProfile;
use lake_discovery::d3l::{self, D3l};
use lake_discovery::rnlim::{self, Rnlim};
use lake_discovery::{DiscoverySystem, TableCorpus};
use lake_index::embed::HashedNgramEncoder;
use lake_index::ks::ks_similarity;
use lake_index::qgram::{format_pattern, format_similarity, qgram_similarity, qgrams};
use std::collections::HashSet;

/// Columns with an empty domain (zero rows, all null), a single value,
/// numerics whose order or rendering is ambiguous (NaN of both signs in
/// two tables, ±0.0, `Int(3)` beside `Float(3.0)`), and names outside
/// ASCII, shorter than a 3-gram, or empty.
fn adversarial_tables() -> Vec<Table> {
    let nan = Value::Float(f64::NAN);
    vec![
        Table::from_rows("zero_rows", &["z", "größe"], vec![]).unwrap(),
        Table::from_rows(
            "nulls_and_one",
            &["always_null", "only", ""],
            vec![
                vec![Value::Null, Value::str("same"), Value::Int(1)],
                vec![Value::Null, Value::str("same"), Value::Null],
                vec![Value::Null, Value::str("same"), Value::Int(1)],
            ],
        )
        .unwrap(),
        Table::from_rows(
            "mixed",
            &["x", "naïve_y", "价格"],
            vec![
                vec![Value::Int(3), Value::Float(0.0), Value::str("¥12")],
                vec![Value::Float(3.0), Value::Float(-0.0), Value::str("¥ 7,50")],
                vec![Value::Int(3), nan.clone(), Value::str("n/a")],
                vec![Value::Null, Value::Int(0), Value::Float(2.5)],
            ],
        )
        .unwrap(),
        Table::from_rows(
            "more_nans",
            &["w", "é"],
            vec![
                vec![nan, Value::Float(-0.0)],
                vec![Value::Float(-f64::NAN), Value::Float(0.0)],
                vec![Value::Float(1.0), Value::Float(f64::INFINITY)],
                vec![Value::Float(-0.0), Value::Float(f64::NEG_INFINITY)],
            ],
        )
        .unwrap(),
    ]
}

fn corpus(seed: u64) -> TableCorpus {
    let mut tables = generate_lake(&LakeGenConfig {
        seed,
        ..LakeGenConfig::default()
    })
    .tables;
    tables.extend(adversarial_tables());
    TableCorpus::new(tables)
}

fn bits<const N: usize>(features: [f64; N]) -> [u64; N] {
    features.map(f64::to_bits)
}

fn domain(p: &ColumnProfile) -> impl Iterator<Item = &str> {
    p.domain.iter().map(String::as_str)
}

/// `|A ∩ B| / |A ∪ B|` over hash sets.
fn set_jaccard(a: HashSet<String>, b: HashSet<String>) -> f64 {
    jaccard_from_counts(a.len(), b.len(), a.intersection(&b).count())
}

#[test]
fn d3l_features_equal_the_free_functions_on_every_pair() {
    for seed in [7, 42, 1337] {
        let corpus = corpus(seed);
        let mut d3l = D3l::default();
        d3l.build(&corpus);
        let embeddings: Vec<&[f64]> = d3l.embeddings().collect();
        let encoder = HashedNgramEncoder::default();
        for (a, pa) in corpus.profiles().iter().enumerate() {
            assert_eq!(
                embeddings[a],
                encoder.encode_bag(domain(pa).take(64)),
                "embedding of {}",
                pa.name
            );
            for (b, pb) in corpus.profiles().iter().enumerate() {
                let numeric = match (pa.numeric.is_empty(), pb.numeric.is_empty()) {
                    (false, false) => ks_similarity(&pa.numeric, &pb.numeric),
                    (true, true) => 0.5,
                    _ => 0.0,
                };
                let oracle: [f64; d3l::NUM_FEATURES] = [
                    qgram_similarity(&pa.name, &pb.name, 3),
                    pa.jaccard_est(pb),
                    cosine(embeddings[a], embeddings[b]),
                    format_similarity(domain(pa), domain(pb)),
                    numeric,
                ];
                let pair = format!(
                    "seed {seed}: {:?} {:?} × {:?} {:?}",
                    pa.at, pa.name, pb.at, pb.name
                );
                assert_eq!(bits(d3l.features(&corpus, a, b)), bits(oracle), "{pair}");

                let grams = |p: &ColumnProfile| qgrams(&p.name, 3).into_iter().collect();
                let formats = |p: &ColumnProfile| domain(p).map(format_pattern).collect();
                assert_eq!(
                    oracle[0].to_bits(),
                    set_jaccard(grams(pa), grams(pb)).to_bits(),
                    "{pair}"
                );
                assert_eq!(
                    oracle[3].to_bits(),
                    set_jaccard(formats(pa), formats(pb)).to_bits(),
                    "{pair}"
                );
            }
        }
    }
}

#[test]
fn rnlim_features_equal_the_free_functions_on_every_pair() {
    for seed in [7, 42, 1337] {
        let corpus = corpus(seed);
        let mut rnlim = Rnlim::default();
        rnlim.build(&corpus);
        let encoder = HashedNgramEncoder::default();
        let names: Vec<Vec<f64>> = corpus
            .profiles()
            .iter()
            .map(|p| encoder.encode(&p.name))
            .collect();
        let values: Vec<Vec<f64>> = corpus
            .profiles()
            .iter()
            .map(|p| encoder.encode_bag(domain(p).take(32)))
            .collect();
        let tables: Vec<Vec<f64>> = corpus
            .tables()
            .iter()
            .map(|t| encoder.encode(&t.name))
            .collect();
        for (a, pa) in corpus.profiles().iter().enumerate() {
            for (b, pb) in corpus.profiles().iter().enumerate() {
                let domain = match (pa.numeric.is_empty(), pb.numeric.is_empty()) {
                    (false, false) => ks_similarity(&pa.numeric, &pb.numeric),
                    (true, true) => cosine(&values[a], &values[b]),
                    _ => 0.0,
                };
                let name = cosine(&names[a], &names[b]);
                let oracle: [f64; rnlim::NUM_FEATURES] = [
                    cosine(&tables[pa.at.table], &tables[pb.at.table]),
                    name,
                    f64::from(pa.dtype == pb.dtype),
                    domain,
                    name * domain,
                ];
                assert_eq!(
                    bits(rnlim.features(&corpus, a, b)),
                    bits(oracle),
                    "seed {seed}: {:?} × {:?}",
                    pa.at,
                    pb.at
                );
            }
        }
    }
}
