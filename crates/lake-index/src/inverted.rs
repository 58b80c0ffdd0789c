//! A token → posting-list inverted index.
//!
//! "For returning top-k sets JOSIE has applied inverted indexes, which map
//! between the sets and their distinct values" (§6.2.1). The index stores,
//! for every distinct token, the sorted list of set ids containing it, and
//! exposes posting-list lengths — the statistic JOSIE's cost model uses to
//! decide whether reading a posting list or probing a candidate set is
//! cheaper.

use std::collections::HashMap;

/// An inverted index over sets of string tokens.
#[derive(Debug, Clone, Default)]
pub struct InvertedIndex {
    postings: HashMap<String, Vec<usize>>,
    set_sizes: HashMap<usize, usize>,
    /// Tokens per set, kept for probing (set id → sorted distinct tokens).
    sets: HashMap<usize, Vec<String>>,
}

impl InvertedIndex {
    /// An empty index.
    pub fn new() -> InvertedIndex {
        InvertedIndex::default()
    }

    /// Index `tokens` as set `id` (duplicates are collapsed; replaces any
    /// previous set with the same id).
    pub fn insert(&mut self, id: usize, tokens: impl IntoIterator<Item = String>) {
        let mut distinct: Vec<String> = tokens.into_iter().collect();
        distinct.sort();
        distinct.dedup();
        self.insert_sorted(id, distinct);
    }

    /// Index an **already sorted, already distinct** token list as set
    /// `id` — the fast path for callers holding a `BTreeSet`-backed
    /// domain (column profiles), skipping the re-sort/dedup. Tokens that
    /// are out of order or duplicated are dropped rather than corrupting
    /// the postings invariant.
    ///
    /// Replacing an existing set applies the sorted diff of its old and
    /// new token lists: postings are touched only for tokens that left or
    /// arrived, and a token that stayed keeps its allocation. The state
    /// reached is the one a [`InvertedIndex::remove`] and fresh insert
    /// would reach.
    pub fn insert_sorted<T>(&mut self, id: usize, tokens: impl IntoIterator<Item = T>)
    where
        T: AsRef<str> + Into<String>,
    {
        let mut old = self
            .sets
            .remove(&id)
            .unwrap_or_default()
            .into_iter()
            .peekable();
        let mut distinct: Vec<String> = Vec::with_capacity(old.len());
        // Positions in `distinct` of the tokens the old set did not hold.
        let mut arrived: Vec<usize> = Vec::new();
        for tok in tokens {
            let new = tok.as_ref();
            if distinct.last().is_some_and(|prev| prev.as_str() >= new) {
                continue;
            }
            while let Some(left) = old.next_if(|o| o.as_str() < new) {
                self.unpost(&left, id);
            }
            match old.next_if(|o| o.as_str() == new) {
                Some(stayed) => distinct.push(stayed),
                None => {
                    arrived.push(distinct.len());
                    distinct.push(tok.into());
                }
            }
        }
        for left in old {
            self.unpost(&left, id);
        }
        // Posting keys are cloned after the set's own tokens, so each
        // group stays contiguous on the heap for `merge` to walk.
        for tok in arrived.into_iter().filter_map(|at| distinct.get(at)) {
            self.post(tok, id);
        }
        self.set_sizes.insert(id, distinct.len());
        self.sets.insert(id, distinct);
    }

    /// Fold another index into this one (set ids must be disjoint; a
    /// colliding id keeps `other`'s tokens, mirroring [`InvertedIndex::insert`]
    /// replacement semantics).
    ///
    /// This is the reassembly half of parallel posting construction:
    /// shards built over *contiguous, ascending* id ranges merge in shard
    /// order, each posting-list append lands at (or binary-searches to)
    /// the tail, and the merged index is byte-identical to one built by a
    /// single sequential insert loop.
    pub fn merge(&mut self, other: InvertedIndex) {
        for (id, tokens) in other.sets {
            if self.sets.contains_key(&id) {
                self.remove(id);
            }
            for tok in &tokens {
                self.post(tok, id);
            }
            self.set_sizes.insert(id, tokens.len());
            self.sets.insert(id, tokens);
        }
    }

    /// Remove a set.
    pub fn remove(&mut self, id: usize) {
        let Some(tokens) = self.sets.remove(&id) else { return };
        self.set_sizes.remove(&id);
        for tok in tokens {
            self.unpost(&tok, id);
        }
    }

    /// Add `id` to the posting list of `tok`.
    fn post(&mut self, tok: &str, id: usize) {
        let list = self.postings.entry(tok.to_owned()).or_default();
        if let Err(pos) = list.binary_search(&id) {
            list.insert(pos, id);
        }
    }

    /// Take `id` off the posting list of `tok`, dropping an emptied list.
    fn unpost(&mut self, tok: &str, id: usize) {
        if let Some(list) = self.postings.get_mut(tok) {
            if let Ok(pos) = list.binary_search(&id) {
                list.remove(pos);
            }
            if list.is_empty() {
                self.postings.remove(tok);
            }
        }
    }

    /// Number of indexed sets.
    pub fn num_sets(&self) -> usize {
        self.sets.len()
    }

    /// Number of distinct tokens.
    pub fn num_tokens(&self) -> usize {
        self.postings.len()
    }

    /// The posting list for `token` (sorted set ids), empty if absent.
    pub fn posting(&self, token: &str) -> &[usize] {
        self.postings.get(token).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Posting-list length for `token` — the cost-model statistic.
    pub fn posting_len(&self, token: &str) -> usize {
        self.posting(token).len()
    }

    /// Size (distinct tokens) of set `id`.
    pub fn set_size(&self, id: usize) -> usize {
        self.set_sizes.get(&id).copied().unwrap_or(0)
    }

    /// The sorted distinct tokens of set `id` (empty if absent).
    pub fn set_tokens(&self, id: usize) -> &[String] {
        self.sets.get(&id).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Exact overlap (intersection size) between a query token list and
    /// set `id`, by merging sorted token lists.
    pub fn overlap_with(&self, query_sorted: &[String], id: usize) -> usize {
        merge_overlap(query_sorted.iter().map(String::as_str), self.set_tokens(id))
    }

    /// Borrowed-token variant of [`InvertedIndex::overlap_with`] — lets
    /// callers probe with `&str` views of a profile domain without
    /// cloning the query tokens first.
    pub fn overlap_with_strs(&self, query_sorted: &[&str], id: usize) -> usize {
        merge_overlap(query_sorted.iter().copied(), self.set_tokens(id))
    }

    /// Accumulate overlap counts for `query` across all indexed sets by
    /// scanning posting lists — the "merge everything" baseline JOSIE's
    /// cost model improves on. Returns `(set id, overlap)` sorted by
    /// overlap descending.
    pub fn overlap_counts(&self, query: impl IntoIterator<Item = String>) -> Vec<(usize, usize)> {
        let mut distinct: Vec<String> = query.into_iter().collect();
        distinct.sort();
        distinct.dedup();
        let mut counts: HashMap<usize, usize> = HashMap::new();
        for tok in &distinct {
            for &id in self.posting(tok) {
                *counts.entry(id).or_insert(0) += 1;
            }
        }
        let mut v: Vec<(usize, usize)> = counts.into_iter().collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }
}

/// Sorted-merge intersection count of two ascending token sequences.
pub(crate) fn merge_overlap<'a>(query: impl Iterator<Item = &'a str>, set: &[String]) -> usize {
    let mut it = set.iter();
    let mut cur = it.next();
    let mut n = 0;
    for q in query {
        while let Some(s) = cur {
            match s.as_str().cmp(q) {
                std::cmp::Ordering::Less => cur = it.next(),
                std::cmp::Ordering::Equal => {
                    n += 1;
                    cur = it.next();
                    break;
                }
                std::cmp::Ordering::Greater => break,
            }
        }
        if cur.is_none() {
            break;
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &[&str]) -> Vec<String> {
        s.iter().map(|t| t.to_string()).collect()
    }

    fn index() -> InvertedIndex {
        let mut ix = InvertedIndex::new();
        ix.insert(1, toks(&["a", "b", "c"]));
        ix.insert(2, toks(&["b", "c", "d"]));
        ix.insert(3, toks(&["x", "y"]));
        ix
    }

    #[test]
    fn postings_are_sorted_and_complete() {
        let ix = index();
        assert_eq!(ix.posting("b"), &[1, 2]);
        assert_eq!(ix.posting("x"), &[3]);
        assert_eq!(ix.posting("zz"), &[] as &[usize]);
        assert_eq!(ix.num_sets(), 3);
        assert_eq!(ix.num_tokens(), 6);
        assert_eq!(ix.posting_len("c"), 2);
    }

    #[test]
    fn duplicates_collapse() {
        let mut ix = InvertedIndex::new();
        ix.insert(9, toks(&["a", "a", "b"]));
        assert_eq!(ix.set_size(9), 2);
        assert_eq!(ix.posting("a"), &[9]);
    }

    #[test]
    fn insert_sorted_matches_insert() {
        let mut plain = InvertedIndex::new();
        plain.insert(1, toks(&["c", "a", "b", "a"]));
        let mut fast = InvertedIndex::new();
        fast.insert_sorted(1, toks(&["a", "b", "c"]));
        assert_eq!(fast.set_tokens(1), plain.set_tokens(1));
        for t in ["a", "b", "c"] {
            assert_eq!(fast.posting(t), plain.posting(t));
        }
        // Out-of-order / duplicate tokens are dropped, preserving the
        // sorted-distinct invariant instead of corrupting it.
        let mut bad = InvertedIndex::new();
        bad.insert_sorted(2, toks(&["b", "a", "b", "c"]));
        assert_eq!(bad.set_tokens(2), &["b", "c"]);
    }

    #[test]
    fn replacing_a_set_matches_remove_and_fresh_insert() {
        // Grow, shrink, disjoint replacement, emptying, and borrowed tokens.
        let versions: [&[&str]; 6] = [
            &["b", "c", "d"],
            &["a", "b", "d", "e"],
            &["d"],
            &["x", "y"],
            &[],
            &["b", "c"],
        ];
        let mut diffed = index();
        for v in versions {
            diffed.insert_sorted(2, v.iter().copied());
            let mut fresh = index();
            fresh.remove(2);
            fresh.insert_sorted(2, toks(v));
            assert_eq!(diffed.set_tokens(2), fresh.set_tokens(2), "{v:?}");
            assert_eq!(diffed.set_size(2), fresh.set_size(2));
            assert_eq!(diffed.num_sets(), fresh.num_sets());
            assert_eq!(diffed.num_tokens(), fresh.num_tokens(), "{v:?}");
            for t in ["a", "b", "c", "d", "e", "x", "y"] {
                assert_eq!(diffed.posting(t), fresh.posting(t), "{t} after {v:?}");
            }
        }
    }

    #[test]
    fn borrowed_overlap_matches_owned() {
        let ix = index();
        let q = toks(&["b", "c", "d"]);
        let qs: Vec<&str> = q.iter().map(String::as_str).collect();
        for id in [1, 2, 3, 99] {
            assert_eq!(ix.overlap_with_strs(&qs, id), ix.overlap_with(&q, id));
        }
    }

    #[test]
    fn overlap_counts_rank_by_intersection() {
        let ix = index();
        let res = ix.overlap_counts(toks(&["b", "c", "d"]));
        assert_eq!(res[0], (2, 3));
        assert_eq!(res[1], (1, 2));
        assert!(!res.iter().any(|&(id, _)| id == 3));
    }

    #[test]
    fn probe_overlap_matches_scan() {
        let ix = index();
        let mut q = toks(&["b", "c", "d"]);
        q.sort();
        assert_eq!(ix.overlap_with(&q, 2), 3);
        assert_eq!(ix.overlap_with(&q, 1), 2);
        assert_eq!(ix.overlap_with(&q, 3), 0);
        assert_eq!(ix.overlap_with(&q, 99), 0);
    }

    #[test]
    fn merge_of_contiguous_shards_matches_sequential_build() {
        let sets: Vec<Vec<String>> = (0..9)
            .map(|i| toks(&["a", "b"]).into_iter().chain([format!("t{}", i % 4)]).collect())
            .collect();
        let mut seq = InvertedIndex::new();
        for (id, s) in sets.iter().enumerate() {
            seq.insert(id, s.iter().cloned());
        }
        let mut merged = InvertedIndex::new();
        for (lo, hi) in [(0usize, 4usize), (4, 7), (7, 9)] {
            let mut shard = InvertedIndex::new();
            for id in lo..hi {
                shard.insert(id, sets[id].iter().cloned());
            }
            merged.merge(shard);
        }
        assert_eq!(merged.num_sets(), seq.num_sets());
        assert_eq!(merged.num_tokens(), seq.num_tokens());
        for tok in ["a", "b", "t0", "t1", "t2", "t3"] {
            assert_eq!(merged.posting(tok), seq.posting(tok), "token {tok}");
        }
        for id in 0..9 {
            assert_eq!(merged.set_tokens(id), seq.set_tokens(id));
            assert_eq!(merged.set_size(id), seq.set_size(id));
        }
    }

    #[test]
    fn merge_replaces_colliding_ids() {
        let mut a = InvertedIndex::new();
        a.insert(1, toks(&["x", "y"]));
        let mut b = InvertedIndex::new();
        b.insert(1, toks(&["z"]));
        a.merge(b);
        assert_eq!(a.posting("x"), &[] as &[usize]);
        assert_eq!(a.posting("z"), &[1]);
        assert_eq!(a.set_size(1), 1);
    }

    #[test]
    fn remove_and_reinsert() {
        let mut ix = index();
        ix.remove(2);
        assert_eq!(ix.posting("d"), &[] as &[usize]);
        assert_eq!(ix.posting("b"), &[1]);
        assert_eq!(ix.num_sets(), 2);
        // Replacement via same id.
        ix.insert(1, toks(&["zz"]));
        assert_eq!(ix.posting("a"), &[] as &[usize]);
        assert_eq!(ix.posting("zz"), &[1]);
    }
}
