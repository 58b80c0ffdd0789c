//! JOSIE: exact top-k overlap set similarity search (§6.2.1).
//!
//! "The measurement used in JOSIE is the *intersection size* of the sets
//! … For returning top-k sets JOSIE has applied inverted indexes … JOSIE
//! employs a cost model to eliminate the unqualified candidates
//! effectively. Such a method makes the performance robust to different
//! data distributions."
//!
//! The search interleaves two actions, choosing by estimated cost:
//!
//! * **read** the next (shortest-first) posting list of an unread query
//!   token, incrementing candidate counters; or
//! * **probe** a candidate set directly (exact merge of its token list
//!   with the remaining query tokens) when its posting-driven upper bound
//!   still qualifies but reading further lists would cost more.
//!
//! Candidates whose upper bound (current partial count + remaining unread
//! query tokens) cannot beat the current k-th best exact overlap are
//! pruned. The result is *exact* top-k, no similarity threshold needed —
//! the property JOSIE argues for over θ-threshold search. Work counters
//! ([`JosieStats`]) expose cost-model effectiveness for experiment E2.
//!
//! As in JOSIE, the search runs on integer token ids: a query is turned
//! into ids once (a corpus column's ids come straight from the index),
//! and per-query state is dense over set ids — partial counts with a
//! touched list, a probed mark, an exclusion bitmap — plus a query-token
//! mark that makes a probe one pass over the candidate's ids. Lists are
//! still read by (posting length, token bytes): pruning makes the read
//! order part of the answer when overlaps tie, and ids are first-seen,
//! so they differ between an incremental index and a rebuild and must
//! never break ties.

use crate::corpus::TableCorpus;
use crate::{DiscoverySystem, SystemInfo};
use lake_core::par::{self, Parallelism};
use lake_index::inverted::InvertedIndex;
use std::collections::HashMap;

/// Work counters of one top-k search.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JosieStats {
    /// Posting-list entries read.
    pub postings_read: usize,
    /// Candidate sets probed exactly.
    pub candidates_probed: usize,
    /// Posting lists skipped entirely thanks to pruning.
    pub lists_skipped: usize,
}

/// The JOSIE system over a corpus of column domains.
#[derive(Debug, Default)]
pub struct Josie {
    pub(crate) index: InvertedIndex,
    /// Worker count for posting construction in [`DiscoverySystem::build`].
    pub par: Parallelism,
}

impl Josie {
    /// Direct access to the underlying inverted index.
    pub fn index(&self) -> &InvertedIndex {
        &self.index
    }

    /// Index one set directly (corpus-independent usage, e.g. benchmarks
    /// over raw web-table domains).
    pub fn insert_set(&mut self, id: usize, tokens: impl IntoIterator<Item = String>) {
        self.index.insert(id, tokens);
    }

    /// Insert or replace set `id` from an **already sorted, already
    /// distinct** token list (a column profile's domain) — the delta of
    /// [`DiscoverySystem::build`] for one re-profiled column, landing on
    /// the index a rebuild would produce.
    pub fn insert_sorted<T>(&mut self, id: usize, tokens: impl IntoIterator<Item = T>)
    where
        T: AsRef<str> + Into<String>,
    {
        self.index.insert_sorted(id, tokens);
    }

    /// Exact top-k sets by overlap with `query` tokens, with work stats.
    ///
    /// `exclude` removes specific set ids (e.g. the query's own columns).
    pub fn top_k_overlap(
        &self,
        query: &[String],
        k: usize,
        exclude: &[usize],
    ) -> (Vec<(usize, usize)>, JosieStats) {
        // Borrow the tokens; sorting `&str` views compares the same
        // string bytes a sorted clone would, without the allocations.
        let mut q: Vec<&str> = query.iter().map(String::as_str).collect();
        q.sort_unstable();
        q.dedup();
        self.top_k_overlap_sorted(&q, k, exclude)
    }

    /// [`Josie::top_k_overlap`] over an **already sorted, already
    /// distinct** borrowed token list — the zero-clone fast path for
    /// callers holding a `BTreeSet`-backed column domain. Tokens are
    /// translated to ids once; unknown ones occur in no set and are
    /// dropped without changing any overlap.
    pub fn top_k_overlap_sorted(
        &self,
        q: &[&str],
        k: usize,
        exclude: &[usize],
    ) -> (Vec<(usize, usize)>, JosieStats) {
        let ids: Vec<u32> = q.iter().filter_map(|t| self.index.token_id(t)).collect();
        self.top_k_ids(&ids, k, exclude)
    }

    /// The search proper, over a query's distinct token ids listed in
    /// ascending *string* order.
    fn top_k_ids(&self, q: &[u32], k: usize, exclude: &[usize]) -> (Vec<(usize, usize)>, JosieStats) {
        let mut stats = JosieStats::default();
        if k == 0 {
            // Guard: the kth-best closure below indexes `results[k - 1]`,
            // which underflows for k == 0 — an empty answer is the only
            // consistent result for "top zero".
            return (Vec::new(), stats);
        }
        let ix = &self.index;
        // Order query tokens by posting length ascending (cheap lists
        // first), ties in string order: `q` is in string order and the
        // sort is stable. Pruning at `partial + remaining <= kth` makes
        // the read order part of the answer when overlaps tie, so ids
        // must never break ties — their first-seen numbering differs
        // between an incrementally maintained index and a rebuild.
        let mut toks: Vec<(u32, usize)> = q
            .iter()
            .map(|&t| (t, ix.posting_by_id(t).len()))
            .filter(|&(_, l)| l > 0)
            .collect();
        toks.sort_by_key(|&(_, l)| l);

        // Per-query state, dense over set ids and token ids.
        let num_sets = ix.set_id_bound();
        let mut excluded = vec![false; num_sets];
        for &id in exclude {
            if let Some(x) = excluded.get_mut(id) {
                *x = true;
            }
        }
        let mut in_query = vec![false; ix.token_id_bound()];
        for &t in q {
            in_query[t as usize] = true;
        }
        let mut partial = vec![0usize; num_sets]; // candidate → count so far
        let mut touched: Vec<usize> = Vec::new(); // candidates with a count
        let mut probed = vec![false; num_sets]; // exact overlap pushed
        let mut results: Vec<(usize, usize)> = Vec::new(); // (set, exact overlap)
        // Exact overlap of a candidate: one mark lookup per set token.
        let overlap = |id: usize| ix.set_token_ids(id).iter().filter(|&&t| in_query[t as usize]).count();

        let kth_best = |results: &Vec<(usize, usize)>| -> usize {
            if results.len() < k {
                0
            } else {
                results[k - 1].1
            }
        };

        // Suffix sums of posting lengths: remaining read cost in O(1).
        let mut suffix_cost = vec![0usize; toks.len() + 1];
        for i in (0..toks.len()).rev() {
            suffix_cost[i] = suffix_cost[i + 1] + toks[i].1;
        }

        let mut remaining_tokens = toks.len();
        let mut ti = 0usize;
        // Aggregate set size of unprobed candidates, maintained
        // incrementally so the cost-model check is O(1) per list.
        let mut unprobed_cost = 0usize;
        while ti < toks.len() {
            // Termination: with k exact answers in hand, stop once no
            // unseen candidate (upper bound = remaining unread tokens) and
            // no partial candidate can beat the k-th best.
            if results.len() >= k && remaining_tokens <= kth_best(&results) {
                let threshold = kth_best(&results);
                // Outstanding partial candidates may still qualify.
                for &id in &touched {
                    if !probed[id] && partial[id] + remaining_tokens > threshold {
                        stats.candidates_probed += 1;
                        probed[id] = true;
                        push_result(&mut results, k, id, overlap(id));
                    }
                }
                stats.lists_skipped += toks.len() - ti;
                remaining_tokens = usize::MAX; // mark early exit
                break;
            }

            // Cost model: probing all qualifying unprobed candidates costs
            // ~ Σ their set sizes; reading the remaining lists costs
            // ~ Σ posting lengths. Probe when cheaper — it can raise the
            // k-th best and let the loop terminate sooner.
            let remaining_read_cost: usize = suffix_cost[ti];
            if unprobed_cost > 0 && unprobed_cost < remaining_read_cost {
                let threshold = kth_best(&results);
                for &id in &touched {
                    if probed[id] {
                        continue;
                    }
                    // Pruned candidates stay pruned: their upper bound only
                    // shrinks and the threshold only rises.
                    if results.len() >= k && partial[id] + remaining_tokens <= threshold {
                        continue;
                    }
                    stats.candidates_probed += 1;
                    probed[id] = true;
                    push_result(&mut results, k, id, overlap(id));
                }
                unprobed_cost = 0;
                // Re-check termination before paying for the next list.
                if results.len() >= k && remaining_tokens <= kth_best(&results) {
                    stats.lists_skipped += toks.len() - ti;
                    remaining_tokens = usize::MAX;
                    break;
                }
            }

            // Read this posting list.
            let (tok, plen) = toks[ti];
            stats.postings_read += plen;
            for &id in ix.posting_by_id(tok) {
                if excluded[id] {
                    continue;
                }
                if partial[id] == 0 {
                    touched.push(id);
                    unprobed_cost += ix.set_size(id);
                }
                partial[id] += 1;
            }
            remaining_tokens -= 1;
            ti += 1;
        }

        // Finalize: if every list was read, partial counts *are* exact.
        if remaining_tokens == 0 {
            for &id in &touched {
                if !probed[id] {
                    push_result(&mut results, k, id, partial[id]);
                }
            }
        }

        results.truncate(k);
        (results, stats)
    }

    /// Brute-force baseline (scan every posting list fully) for E2.
    pub fn top_k_baseline(&self, query: &[String], k: usize, exclude: &[usize]) -> (Vec<(usize, usize)>, usize) {
        let mut q: Vec<&str> = query.iter().map(String::as_str).collect();
        q.sort_unstable();
        q.dedup();
        // Scan every posting list, counting overlaps — the "merge
        // everything" plan whose cost is the work baseline.
        let mut work = 0;
        let mut counts: HashMap<usize, usize> = HashMap::new();
        for &t in &q {
            work += self.index.posting_len(t);
            for &id in self.index.posting(t) {
                *counts.entry(id).or_insert(0) += 1;
            }
        }
        let mut all: Vec<(usize, usize)> = counts.into_iter().collect();
        all.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let filtered: Vec<(usize, usize)> = all
            .into_iter()
            .filter(|(id, _)| !exclude.contains(id))
            .take(k)
            .collect();
        (filtered, work)
    }
}

fn push_result(results: &mut Vec<(usize, usize)>, k: usize, id: usize, ov: usize) {
    results.push((id, ov));
    results.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    if results.len() > k {
        results.truncate(k);
    }
}

impl DiscoverySystem for Josie {
    fn info(&self) -> SystemInfo {
        SystemInfo {
            name: "JOSIE",
            criteria: vec!["Instance value overlap"],
            metrics: vec!["Intersection size of sets"],
            technique: vec!["Inverted Index"],
        }
    }

    fn build(&mut self, corpus: &TableCorpus) {
        // Shard posting construction over contiguous ascending profile-id
        // ranges; merging shards back in shard order reproduces the index a
        // sequential insert loop would build (see `InvertedIndex::merge`).
        let profiles = corpus.profiles();
        let pieces = self.par.workers() * 4;
        let shards = par::shards(profiles.len(), pieces);
        let built: Vec<InvertedIndex> = par::map(self.par, &shards, |&(lo, hi)| {
            let mut shard = InvertedIndex::new();
            for (pi, p) in (lo..hi).zip(&profiles[lo..hi]) {
                // Profile domains are BTreeSets: already sorted and
                // distinct, so the re-sort/dedup of `insert` is skipped.
                shard.insert_sorted(pi, &p.domain);
            }
            shard
        });
        self.index = InvertedIndex::new();
        for shard in built {
            self.index.merge(shard);
        }
    }

    fn top_k_related(&self, corpus: &TableCorpus, query: usize, k: usize) -> Vec<(usize, f64)> {
        // Union the top-k joinable sets over each query column.
        let exclude: Vec<usize> = corpus.table_columns(query).map(|(pi, _)| pi).collect();
        let mut scores: Vec<(usize, f64)> = Vec::new();
        for (pi, p) in corpus.table_columns(query) {
            // Profile `pi` is indexed as set `pi`: its token ids, already
            // in string order, are the query — no hashing.
            let (hits, _) = self.top_k_ids(self.index.set_token_ids(pi), k * 4, &exclude);
            for (id, ov) in hits {
                // Normalize overlap by query domain size for comparability.
                let denom = p.domain.len().max(1) as f64;
                scores.push((id, ov as f64 / denom));
            }
        }
        corpus.aggregate_to_tables(query, scores, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lake_core::synth::{generate_lake, shuffle, LakeGenConfig, Zipf};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn toks(s: &[&str]) -> Vec<String> {
        s.iter().map(|t| t.to_string()).collect()
    }

    /// The string-keyed search the id core replaced, kept as the oracle:
    /// hash-map candidate state, string posting lookups, probes by sorted
    /// string merge, lists read by (posting length, token bytes).
    fn string_reference(
        ix: &InvertedIndex,
        q: &[&str],
        k: usize,
        exclude: &[usize],
    ) -> (Vec<(usize, usize)>, JosieStats) {
        let mut stats = JosieStats::default();
        if k == 0 {
            return (Vec::new(), stats);
        }
        let mut toks: Vec<(&str, usize)> =
            q.iter().map(|&t| (t, ix.posting_len(t))).filter(|(_, l)| *l > 0).collect();
        toks.sort_by(|a, b| a.1.cmp(&b.1).then(a.0.cmp(b.0)));
        let mut partial: HashMap<usize, usize> = HashMap::new();
        let mut exact: HashMap<usize, usize> = HashMap::new();
        let mut results: Vec<(usize, usize)> = Vec::new();
        let kth_best = |results: &Vec<(usize, usize)>| if results.len() < k { 0 } else { results[k - 1].1 };
        let mut suffix_cost = vec![0usize; toks.len() + 1];
        for i in (0..toks.len()).rev() {
            suffix_cost[i] = suffix_cost[i + 1] + toks[i].1;
        }
        let mut remaining_tokens = toks.len();
        let mut ti = 0usize;
        let mut unprobed_cost = 0usize;
        while ti < toks.len() {
            if results.len() >= k && remaining_tokens <= kth_best(&results) {
                let threshold = kth_best(&results);
                let ids: Vec<usize> = partial.keys().copied().collect();
                for id in ids {
                    if !exact.contains_key(&id) && partial[&id] + remaining_tokens > threshold {
                        stats.candidates_probed += 1;
                        let ov = ix.overlap_with(q, id);
                        exact.insert(id, ov);
                        push_result(&mut results, k, id, ov);
                    }
                }
                stats.lists_skipped += toks.len() - ti;
                remaining_tokens = usize::MAX;
                break;
            }
            if unprobed_cost > 0 && unprobed_cost < suffix_cost[ti] {
                let threshold = kth_best(&results);
                let ids: Vec<usize> = partial.keys().copied().collect();
                for id in ids {
                    if exact.contains_key(&id)
                        || (results.len() >= k && partial[&id] + remaining_tokens <= threshold)
                    {
                        continue;
                    }
                    stats.candidates_probed += 1;
                    let ov = ix.overlap_with(q, id);
                    exact.insert(id, ov);
                    push_result(&mut results, k, id, ov);
                }
                unprobed_cost = 0;
                if results.len() >= k && remaining_tokens <= kth_best(&results) {
                    stats.lists_skipped += toks.len() - ti;
                    remaining_tokens = usize::MAX;
                    break;
                }
            }
            let (tok, plen) = toks[ti];
            stats.postings_read += plen;
            for &id in ix.posting(tok) {
                if exclude.contains(&id) {
                    continue;
                }
                let counter = partial.entry(id).or_insert(0);
                if *counter == 0 && !exact.contains_key(&id) {
                    unprobed_cost += ix.set_size(id);
                }
                *counter += 1;
            }
            remaining_tokens -= 1;
            ti += 1;
        }
        if remaining_tokens == 0 {
            for (&id, &count) in &partial {
                if !exact.contains_key(&id) {
                    push_result(&mut results, k, id, count);
                }
            }
        }
        results.truncate(k);
        (results, stats)
    }

    /// `Josie::top_k_related` on top of [`string_reference`].
    fn reference_related(j: &Josie, corpus: &TableCorpus, query: usize, k: usize) -> Vec<(usize, f64)> {
        let exclude: Vec<usize> = corpus.table_columns(query).map(|(pi, _)| pi).collect();
        let mut scores: Vec<(usize, f64)> = Vec::new();
        for p in corpus.table_profiles(query) {
            let q: Vec<&str> = p.domain.iter().map(String::as_str).collect();
            let (hits, _) = string_reference(&j.index, &q, k * 4, &exclude);
            let denom = p.domain.len().max(1) as f64;
            scores.extend(hits.into_iter().map(|(id, ov)| (id, ov as f64 / denom)));
        }
        corpus.aggregate_to_tables(query, scores, k)
    }

    /// Zipfian sets `0..n` over a small vocabulary (so overlaps tie
    /// often), inserted in shuffled id order so token ids are not in
    /// string order, then every third set replaced in place. Returns the
    /// index and each set's final tokens.
    fn shuffled_corpus(seed: u64, alpha: f64, n: usize) -> (Josie, Vec<Vec<String>>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let zipf = Zipf::new(200, alpha);
        let draw = |rng: &mut StdRng, prefix: &str| -> Vec<String> {
            let len = rng.random_range(1..40usize);
            let mut s: Vec<String> = (0..len).map(|_| format!("{prefix}{}", zipf.sample(rng))).collect();
            s.sort();
            s.dedup();
            s
        };
        let mut sets: Vec<Vec<String>> = (0..n).map(|_| draw(&mut rng, "v")).collect();
        let mut order: Vec<usize> = (0..n).collect();
        shuffle(&mut order, &mut rng);
        let mut j = Josie::default();
        for &id in &order {
            j.insert_sorted(id, &sets[id]);
        }
        for id in (0..n).step_by(3) {
            // Keep every other token and add fresh ones, some never seen.
            let prefix = if id % 2 == 0 { "v" } else { "w" };
            let mut s: Vec<String> = sets[id].iter().step_by(2).cloned().collect();
            s.extend(draw(&mut rng, prefix));
            s.sort();
            s.dedup();
            j.insert_sorted(id, &s);
            sets[id] = s;
        }
        (j, sets)
    }

    #[test]
    fn full_answers_match_string_reference_on_random_corpora() {
        for (seed, alpha) in [(3u64, 0.0), (5, 0.8), (8, 1.2)] {
            let n = 80;
            let (j, sets) = shuffled_corpus(seed, alpha, n);
            // The shuffle must leave some set with ids out of string order.
            let unordered = (0..n).any(|id| j.index.set_token_ids(id).windows(2).any(|w| w[0] > w[1]));
            assert!(unordered, "seed {seed}: token ids happen to follow string order");
            for q in 0..n {
                let mut query = sets[q].clone();
                query.push(format!("unknown{q}"));
                query.extend(sets[(q * 7 + 1) % n].iter().take(3).cloned());
                let mut strs: Vec<&str> = query.iter().map(String::as_str).collect();
                strs.sort_unstable();
                strs.dedup();
                for k in [0, 1, 2, 5, 10] {
                    for exclude in [vec![], vec![q], vec![q, (q + 1) % n, 10 * n]] {
                        let got = j.top_k_overlap(&query, k, &exclude);
                        let want = string_reference(&j.index, &strs, k, &exclude);
                        assert_eq!(got, want, "seed {seed} q={q} k={k} exclude={exclude:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn ties_at_the_kth_overlap_follow_string_order() {
        // Sets 0 = {b, c} and 1 = {a, b} both overlap {a, b, c} in two.
        // Lists "a" and "c" are equally long, so the first one read
        // decides which set is probed first; after that probe the two
        // unread tokens cannot beat an overlap of two and the search
        // stops. String order reads "a" first and answers set 1. Set 0
        // is inserted first, so "c" has the smaller id: breaking the
        // tie by id would read "c" first and answer set 0.
        let mut j = Josie::default();
        j.insert_sorted(0, ["b", "c"]);
        j.insert_sorted(1, ["a", "b"]);
        assert!(j.index.token_id("c") < j.index.token_id("a"));
        let query = toks(&["a", "b", "c"]);
        let (top, stats) = j.top_k_overlap(&query, 1, &[]);
        assert_eq!(top, vec![(1, 2)]);
        assert_eq!(stats.lists_skipped, 2);
        assert_eq!((top, stats), string_reference(&j.index, &["a", "b", "c"], 1, &[]));
    }

    #[test]
    fn top_k_related_matches_string_reference_on_seeded_lakes() {
        for seed in [7u64, 42, 1337] {
            let lake = generate_lake(&LakeGenConfig { seed, ..LakeGenConfig::default() });
            let corpus = TableCorpus::new(lake.tables);
            let mut j = Josie::default();
            j.build(&corpus);
            let bits = |v: Vec<(usize, f64)>| -> Vec<(usize, u64)> {
                v.into_iter().map(|(t, s)| (t, s.to_bits())).collect()
            };
            for q in 0..corpus.len() {
                assert_eq!(
                    bits(j.top_k_related(&corpus, q, 5)),
                    bits(reference_related(&j, &corpus, q, 5)),
                    "seed {seed} table {q}"
                );
            }
        }
    }

    fn small_index() -> Josie {
        let mut j = Josie::default();
        j.index.insert(0, toks(&["a", "b", "c", "d"]));
        j.index.insert(1, toks(&["a", "b", "x"]));
        j.index.insert(2, toks(&["x", "y", "z"]));
        j.index.insert(3, toks(&["a", "q"]));
        j
    }

    #[test]
    fn exact_top_k_on_small_corpus() {
        let j = small_index();
        let (top, _) = j.top_k_overlap(&toks(&["a", "b", "c"]), 2, &[]);
        assert_eq!(top, vec![(0, 3), (1, 2)]);
    }

    #[test]
    fn exclusion_removes_self() {
        let j = small_index();
        let (top, _) = j.top_k_overlap(&toks(&["a", "b", "c"]), 2, &[0]);
        assert_eq!(top[0], (1, 2));
    }

    #[test]
    fn matches_baseline_on_random_corpora() {
        // Exactness: the cost-model search must agree with brute force.
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        for alpha in [0.0, 1.0] {
            let zipf = Zipf::new(300, alpha);
            let mut j = Josie::default();
            let mut sets: Vec<Vec<String>> = Vec::new();
            for id in 0..60 {
                let set: Vec<String> = (0..40).map(|_| format!("v{}", zipf.sample(&mut rng))).collect();
                j.index.insert(id, set.iter().cloned());
                sets.push(set);
            }
            for (q, set) in sets.iter().enumerate().take(10) {
                let (fast, _) = j.top_k_overlap(set, 5, &[q]);
                let (slow, _) = j.top_k_baseline(set, 5, &[q]);
                let fast_ov: Vec<usize> = fast.iter().map(|&(_, o)| o).collect();
                let slow_ov: Vec<usize> = slow.iter().map(|&(_, o)| o).collect();
                assert_eq!(fast_ov, slow_ov, "alpha={alpha} q={q}");
            }
        }
    }

    #[test]
    fn cost_model_reduces_work_on_skewed_data() {
        // With Zipfian tokens, some posting lists are huge; the cost model
        // should avoid reading all of them.
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let zipf = Zipf::new(500, 1.2);
        let mut j = Josie::default();
        let mut sets = Vec::new();
        for id in 0..150 {
            let set: Vec<String> = (0..60).map(|_| format!("v{}", zipf.sample(&mut rng))).collect();
            j.index.insert(id, set.iter().cloned());
            sets.push(set);
        }
        let (_, stats) = j.top_k_overlap(&sets[0], 5, &[0]);
        let (_, baseline_work) = j.top_k_baseline(&sets[0], 5, &[0]);
        assert!(
            stats.postings_read < baseline_work,
            "cost model should read fewer postings: {} vs {}",
            stats.postings_read,
            baseline_work
        );
    }

    #[test]
    fn top_zero_returns_empty_instead_of_panicking() {
        // Regression: k == 0 made the kth-best closure index
        // `results[k - 1]`, underflowing the subtraction and panicking.
        let j = small_index();
        let (top, stats) = j.top_k_overlap(&toks(&["a", "b", "c"]), 0, &[]);
        assert!(top.is_empty());
        assert_eq!(stats, JosieStats::default());
        let (base, _) = j.top_k_baseline(&toks(&["a", "b", "c"]), 0, &[]);
        assert!(base.is_empty());
        // And with exclusions / unknown tokens for good measure.
        assert!(j.top_k_overlap(&toks(&["nope"]), 0, &[0]).0.is_empty());
    }

    #[test]
    fn parallel_build_matches_sequential_build() {
        let lake = generate_lake(&LakeGenConfig::default());
        let corpus = TableCorpus::new(lake.tables);
        let mut seq = Josie { par: Parallelism::sequential(), ..Josie::default() };
        seq.build(&corpus);
        let mut par4 = Josie { par: Parallelism::fixed(4), ..Josie::default() };
        par4.build(&corpus);
        assert_eq!(seq.index.num_sets(), par4.index.num_sets());
        assert_eq!(seq.index.num_tokens(), par4.index.num_tokens());
        for pi in 0..corpus.profiles().len() {
            // Shards re-intern in ascending set order: same token ids too.
            assert_eq!(seq.index.set_token_ids(pi), par4.index.set_token_ids(pi));
            assert_eq!(seq.index.set_tokens(pi), par4.index.set_tokens(pi));
            for tok in seq.index.set_tokens(pi) {
                assert_eq!(seq.index.posting(tok), par4.index.posting(tok));
            }
        }
    }

    #[test]
    fn empty_query_and_missing_tokens() {
        let j = small_index();
        let (top, _) = j.top_k_overlap(&[], 3, &[]);
        assert!(top.is_empty());
        let (top2, _) = j.top_k_overlap(&toks(&["nope"]), 3, &[]);
        assert!(top2.is_empty());
    }

    #[test]
    fn table_level_discovery_finds_group() {
        let lake = generate_lake(&LakeGenConfig::default());
        let truth = lake.truth.clone();
        let corpus = TableCorpus::new(lake.tables);
        let mut j = Josie::default();
        j.build(&corpus);
        let q = corpus.table_index("g1_t0").unwrap();
        let top = j.top_k_related(&corpus, q, 2);
        assert_eq!(top.len(), 2);
        for (t, _) in &top {
            assert!(truth.tables_related("g1_t0", &corpus.tables()[*t].name));
        }
    }
}
