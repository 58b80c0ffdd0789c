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

    /// The index an [`InvertedIndex::insert_sorted`] loop over `sets`
    /// builds, numbering the sets `0, 1, …` in order, each an **already
    /// sorted, already distinct** token list — token ids included.
    ///
    /// It takes two passes. The first interns every set's tokens in set
    /// order, so ids stay first-seen, and counts each token's sets. The
    /// second allocates every posting list at its exact length, in
    /// token-id order, and fills it in set order: no list grows or is
    /// searched. Tokens out of order or repeated are dropped, as
    /// `insert_sorted` drops them.
    pub fn from_sorted_sets<S, T>(sets: impl IntoIterator<Item = S>) -> InvertedIndex
    where
        S: IntoIterator<Item = T>,
        T: AsRef<str>,
    {
        let mut ix = InvertedIndex::new();
        let mut lens: Vec<usize> = Vec::new();
        for tokens in sets {
            let tokens = tokens.into_iter();
            let mut set: Vec<u32> = Vec::with_capacity(tokens.size_hint().0);
            for tok in tokens {
                let tok = tok.as_ref();
                if set.last().is_some_and(|&prev| ix.token(prev) >= tok) {
                    continue;
                }
                let tid = ix.intern(tok);
                match lens.get_mut(tid as usize) {
                    Some(len) => *len += 1,
                    None => lens.push(1),
                }
                set.push(tid);
            }
            ix.sets.push(Some(set));
        }
        for (list, &len) in ix.postings.iter_mut().zip(&lens) {
            *list = Vec::with_capacity(len);
        }
        for (id, set) in ix.sets.iter().enumerate() {
            for &tid in set.iter().flatten() {
                ix.postings[tid as usize].push(id);
            }
        }
        ix.live_tokens = ix.tokens.len();
        ix
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

    /// Remove a set.
    pub fn remove(&mut self, id: usize) {
        for tid in self.take_set(id).unwrap_or_default() {
            self.unpost(tid, id);
        }
    }

    /// The id of `tok`, adding it to the dictionary if it is new.
    fn intern(&mut self, tok: &str) -> u32 {
        if let Some(&tid) = self.ids.get(tok) {
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
    use proptest::prelude::*;
    use std::collections::BTreeSet;

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

    /// `a` and `b` agree on everything observable and on their token
    /// numbering: every set's ids, every token's id and postings, and the
    /// counts and bounds.
    fn same_index(a: &InvertedIndex, b: &InvertedIndex) -> Result<(), String> {
        let counts = |ix: &InvertedIndex| {
            (ix.num_sets(), ix.set_id_bound(), ix.num_tokens(), ix.token_id_bound())
        };
        if counts(a) != counts(b) {
            return Err(format!("counts {:?} vs {:?}", counts(a), counts(b)));
        }
        for id in 0..a.set_id_bound() {
            if a.set_token_ids(id) != b.set_token_ids(id) {
                return Err(format!("set {id}: {:?} vs {:?}", a.set_tokens(id), b.set_tokens(id)));
            }
        }
        for (tid, tok) in a.tokens.iter().enumerate() {
            if b.token_id(tok) != Some(tid as u32) || a.posting(tok) != b.posting(tok) {
                return Err(format!("token {tok}: {:?} vs {:?}", a.posting(tok), b.posting(tok)));
            }
        }
        Ok(())
    }

    fn insert_loop(sets: &[Vec<String>]) -> InvertedIndex {
        let mut ix = InvertedIndex::new();
        for (id, set) in sets.iter().enumerate() {
            ix.insert_sorted(id, set);
        }
        ix
    }

    #[test]
    fn bulk_build_matches_an_insert_sorted_loop() {
        let sets = vec![
            toks(&["m", "z"]),
            toks(&[]),
            toks(&["a", "m", "q"]),
            // Out of order and repeated tokens are dropped by both.
            toks(&["b", "a", "b", "c", "z"]),
            toks(&["a", "z"]),
        ];
        let bulk = InvertedIndex::from_sorted_sets(&sets);
        same_index(&bulk, &insert_loop(&sets)).unwrap();
        assert_eq!((bulk.num_sets(), bulk.num_tokens()), (5, 6));
        // Ids are first-seen: "m" then "z", "a", "q", "b", "c".
        assert_eq!(bulk.set_token_ids(2), &[2, 0, 3]);
        assert_eq!(bulk.posting("z"), &[0, 3, 4]);
        // Every posting list was allocated at its exact length.
        for list in &bulk.postings {
            assert_eq!(list.capacity(), list.len());
        }
        assert_eq!(InvertedIndex::from_sorted_sets(Vec::<Vec<String>>::new()).num_sets(), 0);
    }

    proptest! {
        // A bulk build equals the insert loop, and stays equal under the
        // same later inserts and removals.
        #[test]
        fn bulk_build_stays_equal_to_an_insert_loop_under_updates(
            sets in proptest::collection::vec(proptest::collection::btree_set(0usize..16, 0..8), 0..12),
            ops in proptest::collection::vec(
                (0usize..14, proptest::collection::btree_set(0usize..20, 0..6), 0usize..4),
                0..24,
            ),
        ) {
            // String order differs from numeric order ("t10" < "t2").
            let named = |set: BTreeSet<usize>| -> Vec<String> {
                set.into_iter().map(|t| format!("t{t}")).collect::<BTreeSet<_>>().into_iter().collect()
            };
            let sets: Vec<Vec<String>> = sets.into_iter().map(named).collect();
            let mut bulk = InvertedIndex::from_sorted_sets(&sets);
            let mut looped = insert_loop(&sets);
            let outcome = same_index(&bulk, &looped);
            prop_assert!(outcome.is_ok(), "after build: {outcome:?}");
            for (id, set, kind) in ops {
                if kind == 0 {
                    bulk.remove(id);
                    looped.remove(id);
                } else {
                    let set = named(set);
                    bulk.insert_sorted(id, &set);
                    looped.insert_sorted(id, &set);
                }
                let outcome = same_index(&bulk, &looped);
                prop_assert!(outcome.is_ok(), "after op on set {id}: {outcome:?}");
            }
        }
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
