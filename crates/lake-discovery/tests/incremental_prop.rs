//! Property tests for incremental index maintenance: absorbing any number
//! of [`StreamIngestor`] flushes delta-by-delta leaves every discovery
//! index — corpus profiles, LSH buckets, inverted postings, D³L
//! embeddings and top-k answers — **byte-identical** to a from-scratch
//! build over the final table set, for any stream content and any worker
//! count.
//!
//! A fixed matrix of seeds (7 / 42 / 1337) × worker counts (1 / 2 / 4)
//! runs as a deterministic regression grid; a proptest sweeps random
//! seeds, shapes, and flush counts on top.

use lake_core::par::Parallelism;
use lake_core::synth::{generate_lake, LakeGenConfig};
use lake_core::{Table, Value};
use lake_discovery::{DiscoverySystem, IncrementalDiscovery};
use lake_ingest::stream::StreamIngestor;
use proptest::prelude::*;

/// Full structural equality through the public accessors: profiles, LSH
/// answers and signatures, inverted postings, embedding bits, and every
/// table's D³L top-5 (table ids and score bits).
fn assert_states_equal(inc: &IncrementalDiscovery, scratch: &IncrementalDiscovery) {
    assert_eq!(inc.corpus().profiles(), scratch.corpus().profiles());
    assert_eq!(inc.lsh().len(), scratch.lsh().len());
    assert_eq!(inc.lsh().candidate_pairs(), scratch.lsh().candidate_pairs());
    assert_eq!(inc.inverted().num_sets(), scratch.inverted().num_sets());
    assert_eq!(inc.inverted().num_tokens(), scratch.inverted().num_tokens());
    for (pi, p) in scratch.corpus().profiles().iter().enumerate() {
        assert_eq!(inc.lsh().signature(pi), scratch.lsh().signature(pi), "lsh sig {pi}");
        assert_eq!(
            inc.lsh().query(&p.signature),
            scratch.lsh().query(&p.signature),
            "lsh query {pi}"
        );
        assert_eq!(inc.inverted().set_tokens(pi), scratch.inverted().set_tokens(pi), "toks {pi}");
        for tok in scratch.inverted().set_tokens(pi) {
            assert_eq!(inc.inverted().posting(tok), scratch.inverted().posting(tok), "{tok:?}");
        }
    }
    let bits = |d: &lake_discovery::d3l::D3l| -> Vec<Vec<u64>> {
        d.embeddings()
            .map(|e| e.iter().map(|f| f.to_bits()).collect())
            .collect()
    };
    assert_eq!(bits(inc.d3l()), bits(scratch.d3l()), "embedding bits");
    let top5 = |s: &IncrementalDiscovery, q: usize| -> Vec<(usize, u64)> {
        let top = s.d3l().top_k_related(s.corpus(), q, 5);
        top.into_iter()
            .map(|(t, score)| (t, score.to_bits()))
            .collect()
    };
    for q in 0..scratch.corpus().len() {
        assert_eq!(top5(inc, q), top5(scratch, q), "d3l top-5 of table {q}");
    }
}

/// splitmix64 — deterministic row content from a seed.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const VOCAB: [&str; 8] =
    ["delft", "paris", "oslo", "berlin", "lyon", "porto", "turin", "ghent"];

/// Push one batch of rows: an id column, a vocab city column, and a
/// quantity column that is *always null* in the ingestor named
/// `null_qty` — exercising the empty-domain LSH filter on the delta path.
fn push_batch(ing: &mut StreamIngestor, rng: &mut u64, rows: usize, null_qty: bool) {
    for _ in 0..rows {
        let id = (mix(rng) % 1000) as i64;
        let city = VOCAB[(mix(rng) % VOCAB.len() as u64) as usize];
        let qty =
            if null_qty { Value::Null } else { Value::Int((mix(rng) % 50) as i64) };
        ing.push(vec![Value::Int(id), Value::str(city), qty]).unwrap();
    }
}

/// The property: seed a lake, interleave `rounds` flush cycles over
/// several streams into an incremental build, then compare against a
/// scratch build over the exact final table set.
fn flushes_match_scratch(seed: u64, workers: usize, rounds: usize) {
    let cfg = LakeGenConfig {
        seed,
        groups: 2,
        noise_tables: 1,
        rows: (15, 30),
        ..LakeGenConfig::default()
    };
    let lake = generate_lake(&cfg);
    let par = Parallelism::fixed(workers);
    let mut inc = IncrementalDiscovery::with_parallelism(lake.tables.clone(), par);

    let cols = ["event_id", "city", "qty"];
    let mut streams = vec![
        ("stream_a".to_string(), StreamIngestor::new(&cols, 64, seed ^ 0xA).unwrap(), false),
        ("stream_b".to_string(), StreamIngestor::new(&cols, 64, seed ^ 0xB).unwrap(), false),
        ("null_qty".to_string(), StreamIngestor::new(&cols, 64, seed ^ 0xC).unwrap(), true),
    ];
    let mut rng = seed;
    for round in 0..rounds {
        for (name, ing, null_qty) in streams.iter_mut() {
            push_batch(ing, &mut rng, 10 + round * 5, *null_qty);
            inc.absorb_flush(ing, name).unwrap();
        }
    }
    assert_eq!(inc.flushes_absorbed, rounds * streams.len());

    // Scratch build over the final tables, in first-upsert order.
    let mut finals: Vec<Table> = lake.tables;
    for (name, ing, _) in &streams {
        finals.push(ing.sample_table(name).unwrap());
    }
    let scratch = IncrementalDiscovery::with_parallelism(finals, par);
    assert_states_equal(&inc, &scratch);

    // The all-null quantity column must be absent from LSH in both.
    let ti = inc.corpus().table_index("null_qty").expect("stream table indexed");
    let qty = lake_discovery::corpus::ColumnRef { table: ti, column: 2 };
    let pi = inc.corpus().profile_index(qty).unwrap();
    assert!(inc.lsh().signature(pi).is_none(), "all-null column never LSH-indexed");
}

#[test]
fn flush_grid_seeds_by_workers_matches_scratch() {
    for &seed in &[7u64, 42, 1337] {
        for &workers in &[1usize, 2, 4] {
            flushes_match_scratch(seed, workers, 3);
        }
    }
}

proptest! {
    // Any seed, any worker count, any flush depth: same invariant.
    #[test]
    fn any_flush_sequence_matches_scratch(
        seed in any::<u64>(),
        workers in 1usize..6,
        rounds in 1usize..4,
    ) {
        flushes_match_scratch(seed, workers, rounds);
    }
}
