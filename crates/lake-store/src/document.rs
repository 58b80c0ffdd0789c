//! A JSON document store — the MongoDB stand-in.
//!
//! Constance routes JSON sources here (§4.3: "a JSON file will be stored
//! in MongoDB"); the personal data lake serializes heterogeneous fragments
//! to JSON objects (§4.2). Documents live in named collections and are
//! queried by dotted-path predicates, with the same scanned-documents
//! counter the relational store keeps, so push-down is measurable on this
//! store too.

use crate::predicate::{self, Predicate};
use lake_core::{Json, LakeError, Result};
use lake_core::sync::LeafRwLock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// A collection-organized document store.
#[derive(Debug)]
pub struct DocumentStore {
    collections: LeafRwLock<BTreeMap<String, Vec<Json>>>,
    docs_scanned: AtomicU64,
}

impl Default for DocumentStore {
    fn default() -> DocumentStore {
        DocumentStore::new()
    }
}

impl DocumentStore {
    /// An empty store.
    pub fn new() -> DocumentStore {
        DocumentStore {
            collections: LeafRwLock::new(BTreeMap::new(), "store.document.collections"),
            docs_scanned: AtomicU64::new(0),
        }
    }

    /// Insert a document into `collection` (created on first use);
    /// returns the document's index within the collection.
    pub fn insert(&self, collection: &str, doc: Json) -> usize {
        let mut cols = self.collections.write();
        let col = cols.entry(collection.to_string()).or_default();
        col.push(doc);
        col.len() - 1
    }

    /// Bulk-insert documents.
    pub fn insert_many(&self, collection: &str, docs: Vec<Json>) {
        self.collections
            .write()
            .entry(collection.to_string())
            .or_default()
            .extend(docs);
    }

    /// Collection names, sorted.
    pub fn collection_names(&self) -> Vec<String> {
        self.collections.read().keys().cloned().collect()
    }

    /// Number of documents in `collection` (0 if missing).
    pub fn count(&self, collection: &str) -> usize {
        self.collections.read().get(collection).map_or(0, Vec::len)
    }

    /// Fetch one document by index.
    pub fn get(&self, collection: &str, index: usize) -> Result<Json> {
        self.collections
            .read()
            .get(collection)
            .and_then(|c| c.get(index))
            .cloned()
            .ok_or_else(|| LakeError::not_found(format!("{collection}[{index}]")))
    }

    /// Find documents matching all `predicates`, evaluated against dotted
    /// paths inside the store (push-down). Missing paths never match.
    pub fn find(&self, collection: &str, predicates: &[Predicate]) -> Result<Vec<Json>> {
        let cols = self.collections.read();
        let col = cols
            .get(collection)
            .ok_or_else(|| LakeError::not_found(collection))?;
        // lint: ordering — push-down metric counter, no ordering dependency.
        self.docs_scanned.fetch_add(col.len() as u64, Ordering::Relaxed);
        Ok(col.iter().filter(|d| predicate::document_matches(d, predicates)).cloned().collect())
    }

    /// Delete all documents of a collection.
    pub fn drop_collection(&self, collection: &str) -> Result<()> {
        self.collections
            .write()
            .remove(collection)
            .map(|_| ())
            .ok_or_else(|| LakeError::not_found(collection))
    }

    /// Documents inspected by all finds so far.
    pub fn docs_scanned(&self) -> u64 {
        // lint: ordering — metric read, approximate by design.
        self.docs_scanned.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::CompareOp;

    fn store() -> DocumentStore {
        let s = DocumentStore::new();
        s.insert(
            "users",
            Json::obj(vec![
                ("name", Json::str("ada")),
                ("address", Json::obj(vec![("city", Json::str("delft"))])),
                ("age", Json::Num(36.0)),
            ]),
        );
        s.insert(
            "users",
            Json::obj(vec![
                ("name", Json::str("alan")),
                ("address", Json::obj(vec![("city", Json::str("london"))])),
                ("age", Json::Num(41.0)),
            ]),
        );
        s.insert("events", Json::obj(vec![("kind", Json::str("login"))]));
        s
    }

    #[test]
    fn insert_count_get() {
        let s = store();
        assert_eq!(s.count("users"), 2);
        assert_eq!(s.count("none"), 0);
        assert_eq!(s.get("users", 1).unwrap().path("name").unwrap().as_str(), Some("alan"));
        assert!(s.get("users", 9).is_err());
    }

    #[test]
    fn find_by_nested_path() {
        let s = store();
        let hits = s
            .find("users", &[Predicate::new("address.city", CompareOp::Eq, "delft")])
            .unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].path("name").unwrap().as_str(), Some("ada"));
        assert_eq!(s.docs_scanned(), 2);
    }

    #[test]
    fn find_numeric_and_missing_path() {
        let s = store();
        let hits = s.find("users", &[Predicate::new("age", CompareOp::Gt, 40i64)]).unwrap();
        assert_eq!(hits.len(), 1);
        let none = s.find("users", &[Predicate::new("nope.deep", CompareOp::Eq, 1i64)]).unwrap();
        assert!(none.is_empty());
    }

    #[test]
    fn find_unknown_collection_errors() {
        let s = store();
        assert!(s.find("ghost", &[]).is_err());
    }

    #[test]
    fn drop_collection_works() {
        let s = store();
        s.drop_collection("events").unwrap();
        assert!(s.drop_collection("events").is_err());
        assert_eq!(s.collection_names(), vec!["users"]);
    }

    #[test]
    fn insert_many_bulk() {
        let s = DocumentStore::new();
        s.insert_many("logs", vec![Json::Null, Json::Bool(true)]);
        assert_eq!(s.count("logs"), 2);
    }
}
