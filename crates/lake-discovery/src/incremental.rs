//! Incremental discovery-index maintenance over streaming ingestion.
//!
//! "When changes occur in the data, Aurum does not re-read it from
//! scratch" (§6.2.1). [`IncrementalDiscovery`] keeps the three index
//! structures the discovery systems share — the MinHash/LSH bucket index,
//! the JOSIE-style inverted index, and the D³L bag embeddings — in sync
//! with a changing corpus by applying **per-profile deltas** instead of
//! rebuilding from scratch:
//!
//! * a [`StreamIngestor`] flush ([`IncrementalDiscovery::absorb_flush`])
//!   re-profiles only the flushed table's columns,
//! * each changed profile is removed from and re-inserted into the LSH
//!   and inverted indexes (both keep canonical, insertion-order-free
//!   state, so the result is byte-identical to a from-scratch rebuild —
//!   the property `incremental_prop.rs` checks across seeds and worker
//!   counts),
//! * the D³L representations of each changed column (embedding, name
//!   3-grams, format patterns, sorted numeric sample) are re-derived in
//!   place.
//!
//! Per-flush cost is O(changed columns), not O(corpus).

#![deny(clippy::indexing_slicing)]

use crate::aurum::{signature_lsh, upsert_signature};
use crate::corpus::{ColumnRef, TableCorpus};
use crate::d3l::D3l;
use crate::josie::Josie;
use crate::DiscoverySystem;
use lake_core::par::Parallelism;
use lake_core::{Result, Table};
use lake_index::inverted::InvertedIndex;
use lake_index::lsh::LshIndex;
use lake_ingest::stream::StreamIngestor;

/// Discovery indexes maintained by delta application.
#[derive(Debug)]
pub struct IncrementalDiscovery {
    corpus: TableCorpus,
    lsh: LshIndex,
    josie: Josie,
    d3l: D3l,
    /// Number of ingestor flushes absorbed so far.
    pub flushes_absorbed: usize,
}

impl IncrementalDiscovery {
    /// Build over an initial table set with the default worker count.
    pub fn new(tables: Vec<Table>) -> IncrementalDiscovery {
        IncrementalDiscovery::with_parallelism(tables, Parallelism::auto())
    }

    /// Build over an initial table set, fanning profile and index
    /// construction out over `par` workers. The bulk build and the delta
    /// path land on identical index state (both are canonical in the
    /// final `(id, profile)` mapping), so it does not matter which path
    /// indexed a given table.
    pub fn with_parallelism(tables: Vec<Table>, par: Parallelism) -> IncrementalDiscovery {
        let corpus = TableCorpus::with_parallelism(tables, par);
        let lsh = signature_lsh(corpus.profiles(), par);
        let mut josie = Josie { par, ..Josie::default() };
        josie.build(&corpus);
        let mut d3l = D3l::with_parallelism(par);
        d3l.build(&corpus);
        IncrementalDiscovery { corpus, lsh, josie, d3l, flushes_absorbed: 0 }
    }

    /// Insert-or-replace one table, re-profiling only its columns and
    /// applying index deltas for exactly those profiles. Returns the
    /// table index and the changed profile indices. A replacement that
    /// changes the column count is rejected (profile indices must stay
    /// stable for the index ids to stay meaningful).
    pub fn upsert_table(&mut self, table: Table) -> Result<(usize, Vec<usize>)> {
        let (ti, changed) = self.corpus.upsert_table(table)?;
        self.apply_deltas(&changed);
        Ok((ti, changed))
    }

    /// Absorb a [`StreamIngestor`] flush: materialize its current sample
    /// as table `name` and upsert it. This is the ingestion-maintenance
    /// hook — discovery stays current without replaying the stream or
    /// rebuilding any index.
    pub fn absorb_flush(
        &mut self,
        ingestor: &StreamIngestor,
        name: &str,
    ) -> Result<(usize, Vec<usize>)> {
        let table = ingestor.sample_table(name)?;
        let r = self.upsert_table(table)?;
        self.flushes_absorbed += 1;
        Ok(r)
    }

    /// Apply per-profile deltas: replace each changed profile in both
    /// token indexes and re-derive its D³L representations.
    fn apply_deltas(&mut self, changed: &[usize]) {
        for &pi in changed {
            let Some(p) = self.corpus.profiles().get(pi) else { continue };
            upsert_signature(&mut self.lsh, pi, p);
            self.josie.insert_sorted(pi, &p.domain);
        }
        self.d3l.rebuild_profiles(&self.corpus, changed);
    }

    /// The maintained corpus.
    pub fn corpus(&self) -> &TableCorpus {
        &self.corpus
    }

    /// The maintained LSH index (profile id → signature buckets).
    pub fn lsh(&self) -> &LshIndex {
        &self.lsh
    }

    /// The maintained inverted index (token → profile ids).
    pub fn inverted(&self) -> &InvertedIndex {
        self.josie.index()
    }

    /// The maintained D³L system (current per-column representations).
    pub fn d3l(&self) -> &D3l {
        &self.d3l
    }

    /// Columns likely joinable with `at` (LSH candidates verified by
    /// MinHash-estimated Jaccard ≥ `threshold`), excluding `at` itself.
    pub fn joinable_columns(&self, at: ColumnRef, threshold: f64) -> Vec<(usize, f64)> {
        let Some(pi) = self.corpus.profile_index(at) else { return Vec::new() };
        let Some(p) = self.corpus.profiles().get(pi) else { return Vec::new() };
        self.lsh
            .query_verified(&p.signature, threshold)
            .into_iter()
            .filter(|&(id, _)| id != pi)
            .collect()
    }

    /// Exact domain-overlap counts of `at` against every indexed column,
    /// descending, excluding `at` itself.
    pub fn top_k_overlap(&self, at: ColumnRef, k: usize) -> Vec<(usize, usize)> {
        let Some(pi) = self.corpus.profile_index(at) else { return Vec::new() };
        // Profile `pi` is indexed as set `pi`: count on its token ids.
        let mut hits = self.inverted().overlap_counts(pi);
        hits.retain(|&(id, _)| id != pi);
        hits.truncate(k);
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lake_core::synth::{generate_lake, LakeGenConfig};
    use lake_core::Value;

    /// Full structural equality of two states: corpus profiles, LSH
    /// answers, inverted postings, embeddings and every table's D³L
    /// top-5 (bitwise).
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
            assert_eq!(
                inc.inverted().set_tokens(pi),
                scratch.inverted().set_tokens(pi),
                "tokens {pi}"
            );
            for tok in scratch.inverted().set_tokens(pi) {
                assert_eq!(inc.inverted().posting(tok), scratch.inverted().posting(tok));
            }
        }
        let bits = |d: &D3l| -> Vec<Vec<u64>> {
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

    #[test]
    fn upserts_match_from_scratch_build() {
        let lake = generate_lake(&LakeGenConfig::default());
        let mut tables = lake.tables;
        let extra = Table::from_rows(
            "late_arrival",
            &["customer_id", "always_null"],
            vec![
                vec![Value::str("c1"), Value::Null],
                vec![Value::str("c2"), Value::Null],
            ],
        )
        .unwrap();

        // Incremental: build over the initial lake, then upsert.
        let mut inc = IncrementalDiscovery::with_parallelism(
            tables.clone(),
            Parallelism::sequential(),
        );
        let (ti, changed) = inc.upsert_table(extra.clone()).unwrap();
        assert_eq!(ti, tables.len());
        assert_eq!(changed.len(), 2);

        // Scratch: build over the final table set directly.
        tables.push(extra);
        let scratch = IncrementalDiscovery::with_parallelism(tables, Parallelism::sequential());
        assert_states_equal(&inc, &scratch);

        // The all-null column is indexed nowhere in LSH.
        let null_pi = changed.last().copied().unwrap();
        assert!(inc.lsh().signature(null_pi).is_none());
    }

    #[test]
    fn replacement_applies_remove_and_reinsert() {
        let t1 = Table::from_rows(
            "t",
            &["k"],
            vec![vec![Value::str("a")], vec![Value::str("b")]],
        )
        .unwrap();
        let t2 = Table::from_rows(
            "t",
            &["k"],
            vec![vec![Value::str("b")], vec![Value::str("c")]],
        )
        .unwrap();
        let mut inc = IncrementalDiscovery::new(vec![t1]);
        assert_eq!(inc.inverted().posting("a"), &[0]);
        inc.upsert_table(t2.clone()).unwrap();
        // The stale token left the index; the new one arrived.
        assert_eq!(inc.inverted().posting("a"), &[] as &[usize]);
        assert_eq!(inc.inverted().posting("c"), &[0]);
        let scratch = IncrementalDiscovery::new(vec![t2]);
        assert_states_equal(&inc, &scratch);
    }

    #[test]
    fn d3l_answers_follow_a_column_that_grows_shrinks_changes_and_empties() {
        let lake = generate_lake(&LakeGenConfig::default());
        let version = |rows: Vec<(Value, Value)>| {
            let rows = rows
                .into_iter()
                .map(|(code, amount)| vec![code, amount])
                .collect();
            Table::from_rows("late_arrival", &["code", "amount"], rows).unwrap()
        };
        let coded = |n: i64| {
            (0..n)
                .map(|i| (Value::str(format!("c{i}")), Value::Float(i as f64)))
                .collect()
        };
        let versions = [
            version(coded(3)),
            // Grown, shrunk, then every value, format and type replaced.
            version(coded(40)),
            version(coded(2)),
            version(vec![
                (Value::Int(7), Value::str("06-1234")),
                (Value::Int(9), Value::str("n/a")),
            ]),
            // All-null: both columns leave LSH and lose their samples.
            version(vec![(Value::Null, Value::Null), (Value::Null, Value::Null)]),
            version(coded(5)),
        ];
        let par = Parallelism::sequential();
        let mut inc = IncrementalDiscovery::with_parallelism(lake.tables.clone(), par);
        for v in versions {
            inc.upsert_table(v.clone()).unwrap();
            let mut finals = lake.tables.clone();
            finals.push(v);
            assert_states_equal(&inc, &IncrementalDiscovery::with_parallelism(finals, par));
        }
    }

    #[test]
    fn absorb_flush_upserts_the_sample() {
        use lake_ingest::stream::StreamIngestor;
        let mut ing = StreamIngestor::new(&["id", "city"], 32, 7).unwrap();
        for i in 0..20i64 {
            ing.push(vec![Value::Int(i), Value::str(if i % 2 == 0 { "delft" } else { "paris" })])
                .unwrap();
        }
        let mut inc = IncrementalDiscovery::new(Vec::new());
        let (ti, changed) = inc.absorb_flush(&ing, "stream_sample").unwrap();
        assert_eq!((ti, changed.len()), (0, 2));
        assert_eq!(inc.flushes_absorbed, 1);
        assert_eq!(inc.corpus().table_index("stream_sample"), Some(0));
        // More data, another flush: same table upserted in place.
        for i in 20..40i64 {
            ing.push(vec![Value::Int(i), Value::str("oslo")]).unwrap();
        }
        let (ti2, _) = inc.absorb_flush(&ing, "stream_sample").unwrap();
        assert_eq!(ti2, 0);
        assert_eq!(inc.flushes_absorbed, 2);
        let scratch =
            IncrementalDiscovery::new(vec![ing.sample_table("stream_sample").unwrap()]);
        assert_states_equal(&inc, &scratch);
    }

    #[test]
    fn query_helpers_answer_from_current_state() {
        let t1 = Table::from_rows(
            "orders",
            &["customer_id"],
            vec![vec![Value::str("c1")], vec![Value::str("c2")], vec![Value::str("c3")]],
        )
        .unwrap();
        let t2 = Table::from_rows(
            "customers",
            &["customer_id"],
            vec![vec![Value::str("c1")], vec![Value::str("c2")], vec![Value::str("c3")]],
        )
        .unwrap();
        let inc = IncrementalDiscovery::new(vec![t1, t2]);
        let at = ColumnRef { table: 0, column: 0 };
        let joinable = inc.joinable_columns(at, 0.5);
        assert_eq!(joinable.first().map(|&(id, _)| id), Some(1));
        let overlap = inc.top_k_overlap(at, 5);
        assert_eq!(overlap, vec![(1, 3)]);
        // Unknown column: empty answers, no panic.
        let missing = ColumnRef { table: 9, column: 9 };
        assert!(inc.joinable_columns(missing, 0.0).is_empty());
        assert!(inc.top_k_overlap(missing, 5).is_empty());
    }
}
