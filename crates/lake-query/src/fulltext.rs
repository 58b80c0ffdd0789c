//! Full-text search over the lake — the Elasticsearch stand-in behind
//! CoreDB's unified interface (§7.2: "It applies Elasticsearch for the
//! underlying full-text search").
//!
//! Every dataset is indexed as one document: table cell values + column
//! names, flattened JSON leaves, log tokens, or prose words. Queries are
//! ranked by summed TF-IDF weight of matched terms, so rare terms dominate
//! — the behaviour that makes "find the dataset mentioning `<entity>`"
//! useful in a big lake.

use lake_core::{Dataset, DatasetId, Json};
use lake_index::tfidf::{tokenize_identifier, TfIdfCorpus};
use std::collections::BTreeMap;

/// A ranked search hit.
#[derive(Debug, Clone, PartialEq)]
pub struct Hit {
    /// The matching dataset.
    pub dataset: DatasetId,
    /// Summed TF-IDF score of matched query terms.
    pub score: f64,
    /// Which query terms matched.
    pub matched_terms: Vec<String>,
}

/// The lake-wide full-text index.
#[derive(Debug, Default)]
pub struct FullTextIndex {
    docs: BTreeMap<DatasetId, Vec<String>>,
    /// `None` until fitted, and again after any insert.
    fitted: Option<Fitted>,
}

/// TF-IDF weights over the indexed corpus, with each document's
/// sorted-dedup token list so [`FullTextIndex::search`] does membership
/// tests by binary search with no per-query allocation.
#[derive(Debug)]
struct Fitted {
    model: TfIdfCorpus,
    sorted: BTreeMap<DatasetId, Vec<String>>,
}

impl Fitted {
    fn new(docs: &BTreeMap<DatasetId, Vec<String>>) -> Fitted {
        let refs: Vec<&[String]> = docs.values().map(Vec::as_slice).collect();
        let sorted = docs
            .iter()
            .map(|(&id, toks)| {
                let mut s = toks.clone();
                s.sort_unstable();
                s.dedup();
                (id, s)
            })
            .collect();
        Fitted { model: TfIdfCorpus::fit(refs), sorted }
    }
}

/// Extract the searchable token bag of a dataset.
pub fn dataset_tokens(dataset: &Dataset) -> Vec<String> {
    let mut toks = Vec::new();
    match dataset {
        Dataset::Table(t) => {
            for col in t.columns() {
                toks.extend(tokenize_identifier(&col.name));
                for v in col.text_domain() {
                    toks.extend(tokenize_identifier(&v));
                }
            }
        }
        Dataset::Documents(docs) => {
            fn walk(j: &Json, out: &mut Vec<String>) {
                match j {
                    Json::Str(s) => out.extend(tokenize_identifier(s)),
                    Json::Array(a) => a.iter().for_each(|x| walk(x, out)),
                    Json::Object(m) => {
                        for (k, v) in m {
                            out.extend(tokenize_identifier(k));
                            walk(v, out);
                        }
                    }
                    _ => {}
                }
            }
            docs.iter().for_each(|d| walk(d, &mut toks));
        }
        Dataset::Log(lines) => {
            for l in lines {
                toks.extend(tokenize_identifier(l));
            }
        }
        Dataset::Text(t) => toks.extend(tokenize_identifier(t)),
        Dataset::Graph(g) => {
            for id in g.node_ids() {
                toks.extend(tokenize_identifier(&g.node(id).label));
                for v in g.node(id).props.values() {
                    toks.extend(tokenize_identifier(&v.render()));
                }
            }
        }
    }
    toks
}

impl FullTextIndex {
    /// An empty index.
    pub fn new() -> FullTextIndex {
        FullTextIndex::default()
    }

    /// Index (or re-index) a dataset. Call [`FullTextIndex::refit`] after
    /// a batch of inserts to update IDF weights.
    pub fn index(&mut self, id: DatasetId, dataset: &Dataset) {
        self.docs.insert(id, dataset_tokens(dataset));
        self.fitted = None;
    }

    /// Fit TF-IDF weights over the indexed corpus (lazy; [`Self::search`]
    /// calls it automatically when stale).
    pub fn refit(&mut self) {
        self.fitted = Some(Fitted::new(&self.docs));
    }

    /// Number of indexed datasets.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// `true` when nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// Ranked search: datasets containing any query term, scored by
    /// summed TF-IDF of matched terms.
    pub fn search(&mut self, query: &str, k: usize) -> Vec<Hit> {
        let Fitted { model, sorted } = self.fitted.get_or_insert_with(|| Fitted::new(&self.docs));
        let terms: Vec<String> = tokenize_identifier(query);
        let mut hits = Vec::new();
        for (&id, toks) in sorted.iter() {
            let mut score = 0.0;
            let mut matched = Vec::new();
            for term in &terms {
                if toks.binary_search(term).is_ok() {
                    score += model.idf(term);
                    matched.push(term.clone());
                }
            }
            if score > 0.0 {
                hits.push(Hit { dataset: id, score, matched_terms: matched });
            }
        }
        hits.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.dataset.cmp(&b.dataset)));
        hits.truncate(k);
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lake_core::{Table, Value};

    fn index() -> FullTextIndex {
        let mut ix = FullTextIndex::new();
        let sales = Table::from_rows(
            "sales",
            &["customer_id", "city"],
            vec![
                vec![Value::str("c1"), Value::str("delft")],
                vec![Value::str("c2"), Value::str("paris")],
            ],
        )
        .unwrap();
        ix.index(DatasetId(1), &Dataset::Table(sales));
        ix.index(
            DatasetId(2),
            &Dataset::Text("quarterly revenue report for the delft office".into()),
        );
        ix.index(
            DatasetId(3),
            &Dataset::Log(vec!["2024 ERROR reactor overheat".into(), "2024 INFO ok".into()]),
        );
        ix
    }

    #[test]
    fn search_finds_datasets_by_content() {
        let mut ix = index();
        let hits = ix.search("delft", 5);
        assert_eq!(hits.len(), 2);
        let ids: Vec<DatasetId> = hits.iter().map(|h| h.dataset).collect();
        assert!(ids.contains(&DatasetId(1)));
        assert!(ids.contains(&DatasetId(2)));
    }

    #[test]
    fn rare_terms_rank_above_common_ones() {
        let mut ix = index();
        // "reactor" appears in one dataset, "2024" effectively common.
        let hits = ix.search("reactor 2024", 5);
        assert_eq!(hits[0].dataset, DatasetId(3));
        assert!(hits[0].matched_terms.contains(&"reactor".to_string()));
    }

    #[test]
    fn misses_return_empty() {
        let mut ix = index();
        assert!(ix.search("zzzznotthere", 5).is_empty());
        assert!(ix.search("", 5).is_empty());
    }

    #[test]
    fn reindexing_replaces_content() {
        let mut ix = index();
        ix.index(DatasetId(2), &Dataset::Text("now about amsterdam".into()));
        let hits = ix.search("delft", 5);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].dataset, DatasetId(1));
        let hits2 = ix.search("amsterdam", 5);
        assert_eq!(hits2[0].dataset, DatasetId(2));
    }

    #[test]
    fn multi_term_scores_accumulate() {
        let mut ix = index();
        let both = ix.search("delft paris", 5);
        let one = ix.search("paris", 5);
        // The sales table matches both terms and must outrank its
        // single-term score.
        assert_eq!(both[0].dataset, DatasetId(1));
        assert!(both[0].score > one[0].score);
    }
}
