//! A token → posting-list inverted index.
//!
//! "For returning top-k sets JOSIE has applied inverted indexes, which map
//! between the sets and their distinct values" (§6.2.1). The index stores,
//! for every distinct token, the sorted list of set ids containing it, and
//! exposes posting-list lengths — the statistic JOSIE's cost model uses to
//! decide whether reading a posting list or probing a candidate set is
//! cheaper.
//!
//! Tokens are interned, as JOSIE defines its search over integer token
//! ids. A dictionary maps each distinct string to a `u32` id and back;
//! postings are a `Vec` indexed by token id, and a set is the list of its
//! token ids in the set's *string* order. Ids are append-only and handed
//! out in first-seen order, so an incrementally maintained index and a
//! rebuild over the same sets may number tokens differently: nothing
//! observable may depend on the numbering, and anything ordered reads
//! the strings through the id → string table. A token whose posting list
//! empties keeps its id (and gets it back if it returns);
//! [`InvertedIndex::num_tokens`] counts only live tokens, those with a
//! non-empty posting list, so it still equals a rebuild's count.
//!
//! Set ids index dense per-set tables, so they should be small.

use std::collections::HashMap;
use std::sync::Arc;

/// An inverted index over sets of string tokens, stored as token ids.
#[derive(Debug, Clone, Default)]
pub struct InvertedIndex {
    /// Token dictionary, string → id.
    ids: HashMap<Arc<str>, u32>,
    /// Token dictionary, id → string.
    tokens: Vec<Arc<str>>,
    /// Posting list per token id: ascending set ids.
    postings: Vec<Vec<usize>>,
    /// Tokens with a non-empty posting list.
    live_tokens: usize,
    /// Set id → its distinct token ids, in ascending string order.
    sets: Vec<Option<Vec<u32>>>,
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
    /// new token lists, reading the old tokens through the dictionary:
    /// postings are touched, and the dictionary is hashed, only for
    /// tokens that left or arrived. The state reached is the one a
    /// [`InvertedIndex::remove`] and fresh insert would reach.
    pub fn insert_sorted<T>(&mut self, id: usize, tokens: impl IntoIterator<Item = T>)
    where
        T: AsRef<str> + Into<String>,
    {
        let mut old = self.take_set(id).unwrap_or_default().into_iter().peekable();
        let mut distinct: Vec<u32> = Vec::with_capacity(old.len());
        for tok in tokens {
            let new = tok.as_ref();
            if distinct.last().is_some_and(|&prev| self.token(prev) >= new) {
                continue;
            }
            while let Some(left) = old.next_if(|&o| self.token(o) < new) {
                self.unpost(left, id);
            }
            let tid = match old.next_if(|&o| self.token(o) == new) {
                Some(stayed) => stayed,
                None => {
                    let arrived = self.intern(new);
                    self.post(arrived, id);
                    arrived
                }
            };
            distinct.push(tid);
        }
        for left in old {
            self.unpost(left, id);
        }
        self.put_set(id, distinct);
    }

    /// Fold another index into this one (set ids must be disjoint; a
    /// colliding id keeps `other`'s tokens, mirroring [`InvertedIndex::insert`]
    /// replacement semantics).
    ///
    /// This is the reassembly half of parallel posting construction:
    /// shards built over *contiguous, ascending* id ranges merge in shard
    /// order, each posting-list append lands at (or binary-searches to)
    /// the tail, and `other`'s sets are re-interned in ascending id
    /// order, so the merged index — token ids included — is identical to
    /// one built by a single sequential insert loop.
    pub fn merge(&mut self, other: InvertedIndex) {
        let mut remap: Vec<Option<u32>> = vec![None; other.tokens.len()];
        for (id, set) in other.sets.into_iter().enumerate() {
            let Some(mut set) = set else { continue };
            self.remove(id);
            for tid in &mut set {
                let mine = *remap[*tid as usize]
                    .get_or_insert_with(|| self.intern(Arc::clone(&other.tokens[*tid as usize])));
                self.post(mine, id);
                *tid = mine;
            }
            self.put_set(id, set);
        }
    }

    /// Remove a set.
    pub fn remove(&mut self, id: usize) {
        for tid in self.take_set(id).unwrap_or_default() {
            self.unpost(tid, id);
        }
    }

    /// The id of `tok`, adding it to the dictionary if it is new.
    fn intern<S: AsRef<str> + Into<Arc<str>>>(&mut self, tok: S) -> u32 {
        if let Some(&tid) = self.ids.get(tok.as_ref()) {
            return tid;
        }
        // 2^32 distinct strings would not fit in memory, so no id wraps.
        let tid = self.tokens.len() as u32;
        let tok: Arc<str> = tok.into();
        self.ids.insert(Arc::clone(&tok), tid);
        self.tokens.push(tok);
        self.postings.push(Vec::new());
        tid
    }

    /// Add `id` to the posting list of token `tid`.
    fn post(&mut self, tid: u32, id: usize) {
        let list = &mut self.postings[tid as usize];
        if list.is_empty() {
            self.live_tokens += 1;
        }
        if let Err(pos) = list.binary_search(&id) {
            list.insert(pos, id);
        }
    }

    /// Take `id` off the posting list of token `tid`, freeing an emptied
    /// list (the token keeps its id).
    fn unpost(&mut self, tid: u32, id: usize) {
        let list = &mut self.postings[tid as usize];
        if let Ok(pos) = list.binary_search(&id) {
            list.remove(pos);
            if list.is_empty() {
                self.live_tokens -= 1;
                *list = Vec::new();
            }
        }
    }

    fn take_set(&mut self, id: usize) -> Option<Vec<u32>> {
        self.sets.get_mut(id).and_then(Option::take)
    }

    fn put_set(&mut self, id: usize, tokens: Vec<u32>) {
        if self.sets.len() <= id {
            self.sets.resize_with(id + 1, || None);
        }
        self.sets[id] = Some(tokens);
    }

    /// Number of indexed sets.
    pub fn num_sets(&self) -> usize {
        self.sets.iter().filter(|s| s.is_some()).count()
    }

    /// Number of live tokens: those some indexed set holds.
    pub fn num_tokens(&self) -> usize {
        self.live_tokens
    }

    /// One past the largest set id ever indexed: the length of a dense
    /// per-set table.
    pub fn set_id_bound(&self) -> usize {
        self.sets.len()
    }

    /// Number of token ids handed out, live or not: the length of a
    /// dense per-token table.
    pub fn token_id_bound(&self) -> usize {
        self.tokens.len()
    }

    /// The id of `tok`, if the dictionary holds it.
    pub fn token_id(&self, tok: &str) -> Option<u32> {
        self.ids.get(tok).copied()
    }

    /// The string of token id `tid`.
    fn token(&self, tid: u32) -> &str {
        &self.tokens[tid as usize]
    }

    /// The posting list for `token` (sorted set ids), empty if absent.
    pub fn posting(&self, token: &str) -> &[usize] {
        self.token_id(token).map_or(&[], |tid| self.posting_by_id(tid))
    }

    /// The posting list of token id `tid` (sorted set ids).
    pub fn posting_by_id(&self, tid: u32) -> &[usize] {
        &self.postings[tid as usize]
    }

    /// Posting-list length for `token` — the cost-model statistic.
    pub fn posting_len(&self, token: &str) -> usize {
        self.posting(token).len()
    }

    /// Size (distinct tokens) of set `id`.
    pub fn set_size(&self, id: usize) -> usize {
        self.set_token_ids(id).len()
    }

    /// The token ids of set `id` in ascending string order (empty if
    /// absent).
    pub fn set_token_ids(&self, id: usize) -> &[u32] {
        self.sets.get(id).and_then(Option::as_deref).unwrap_or(&[])
    }

    /// The sorted distinct tokens of set `id` (empty if absent).
    pub fn set_tokens(&self, id: usize) -> Vec<&str> {
        self.set_token_ids(id).iter().map(|&tid| self.token(tid)).collect()
    }

    /// Exact overlap (intersection size) between a sorted query token
    /// list and set `id`, by merging sorted token lists.
    pub fn overlap_with<S: AsRef<str>>(&self, query_sorted: &[S], id: usize) -> usize {
        let set = self.set_token_ids(id).iter().map(|&tid| self.token(tid));
        merge_overlap(query_sorted.iter().map(AsRef::as_ref), set)
    }

    /// Overlap counts of indexed set `set` against every indexed set
    /// (itself included) by scanning the posting list of each of its
    /// tokens — the "merge everything" baseline JOSIE's cost model
    /// improves on. Returns `(set id, overlap)` by overlap descending,
    /// then id ascending; empty if `set` is not indexed.
    pub fn overlap_counts(&self, set: usize) -> Vec<(usize, usize)> {
        let mut counts = vec![0usize; self.sets.len()];
        let mut touched: Vec<usize> = Vec::new();
        for &tid in self.set_token_ids(set) {
            for &id in self.posting_by_id(tid) {
                if counts[id] == 0 {
                    touched.push(id);
                }
                counts[id] += 1;
            }
        }
        let mut v: Vec<(usize, usize)> = touched.into_iter().map(|id| (id, counts[id])).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }
}

/// Sorted-merge intersection count of two ascending token sequences.
pub(crate) fn merge_overlap<'a>(
    query: impl Iterator<Item = &'a str>,
    set: impl Iterator<Item = &'a str>,
) -> usize {
    let mut it = set;
    let mut cur = it.next();
    let mut n = 0;
    for q in query {
        while let Some(s) = cur {
            match s.cmp(q) {
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
            assert_eq!(ix.overlap_with(&qs, id), ix.overlap_with(&q, id));
        }
    }

    #[test]
    fn overlap_counts_rank_by_intersection() {
        let ix = index();
        // Set 2 is {b, c, d}: it overlaps itself fully and set 1 in two.
        let res = ix.overlap_counts(2);
        assert_eq!(res, vec![(2, 3), (1, 2)]);
        assert!(ix.overlap_counts(99).is_empty());
    }

    #[test]
    fn token_ids_are_first_seen_and_outlive_their_postings() {
        let mut ix = InvertedIndex::new();
        ix.insert(0, toks(&["m", "z"]));
        ix.insert(1, toks(&["a", "m"]));
        let id = |ix: &InvertedIndex, t| ix.token_id(t).unwrap();
        assert_eq!((id(&ix, "m"), id(&ix, "z"), id(&ix, "a")), (0, 1, 2));
        // A set lists its ids in string order, not id order.
        assert_eq!(ix.set_token_ids(1), &[2, 0]);
        assert_eq!(ix.set_tokens(1), ["a", "m"]);
        // "z" leaves every set: it stops counting but keeps its id, and
        // gets the same id back when it returns.
        ix.remove(0);
        assert_eq!((ix.num_tokens(), ix.token_id_bound()), (2, 3));
        assert_eq!(ix.posting("z"), &[] as &[usize]);
        ix.insert_sorted(5, ["z"]);
        assert_eq!(id(&ix, "z"), 1);
        assert_eq!(ix.num_tokens(), 3);
        assert_eq!((ix.num_sets(), ix.set_id_bound()), (2, 6));
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
            for (id, s) in sets.iter().enumerate().take(hi).skip(lo) {
                shard.insert(id, s.iter().cloned());
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
