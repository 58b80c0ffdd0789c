//! The polystore router — Constance-style hybrid storage (§4.3).
//!
//! "Constance applies polystore, and stores the diverse raw data according
//! to its original format": tables go to the relational store, documents
//! to the document store, graphs to the graph store, and anything else
//! (logs, text, binaries) to the object store as files. The router keeps a
//! placement registry so datasets can be retrieved uniformly by id, and —
//! as Constance's UI allows — callers may override the default placement.

use crate::document::DocumentStore;
use crate::graphstore::GraphStore;
use crate::object::{MemoryStore, ObjectStore};
use crate::relational::RelationalStore;
use lake_core::retry::{retry_with_stats, Clock, RetryPolicy, RetryStats, SystemClock};
use lake_core::sync::{LeafMutex, LeafRwLock};
use lake_core::{Dataset, DatasetId, DatasetKind, Json, LakeError, PropertyGraph, Result};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Which underlying store holds a dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StoreKind {
    /// Relational store.
    Relational,
    /// Document store.
    Document,
    /// Graph store.
    Graph,
    /// Object store (raw files).
    File,
}

impl StoreKind {
    /// Default placement for a dataset shape (the Constance routing rule).
    pub fn default_for(kind: DatasetKind) -> StoreKind {
        match kind {
            DatasetKind::Table => StoreKind::Relational,
            DatasetKind::Documents => StoreKind::Document,
            DatasetKind::Graph => StoreKind::Graph,
            DatasetKind::Log | DatasetKind::Text => StoreKind::File,
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            StoreKind::Relational => "relational",
            StoreKind::Document => "document",
            StoreKind::Graph => "graph",
            StoreKind::File => "file",
        }
    }
}

/// Where a dataset was placed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    /// The store holding the data.
    pub store: StoreKind,
    /// Store-local location (table name, collection, graph name, or key).
    pub location: String,
}

/// The polystore: one instance of each substrate plus the placement map.
pub struct Polystore {
    /// Relational substrate (also queried directly by the federated executor).
    pub relational: RelationalStore,
    /// Document substrate.
    pub documents: DocumentStore,
    /// Graph substrate.
    pub graphs: GraphStore,
    /// File substrate — pluggable, so deployments can swap the in-memory
    /// default for a local directory (or a fault-injecting decorator in
    /// chaos tests).
    pub files: Box<dyn ObjectStore>,
    placements: LeafRwLock<BTreeMap<DatasetId, Placement>>,
    retry: RetryPolicy,
    clock: Arc<dyn Clock>,
    stats: LeafMutex<RetryStats>,
}

impl Default for Polystore {
    fn default() -> Self {
        Polystore::new()
    }
}

impl Polystore {
    /// A polystore with empty substrates.
    pub fn new() -> Polystore {
        Polystore::with_file_store(Box::new(MemoryStore::new()))
    }

    /// A polystore whose file substrate is the given object store.
    pub fn with_file_store(files: Box<dyn ObjectStore>) -> Polystore {
        Polystore {
            relational: RelationalStore::new(),
            documents: DocumentStore::new(),
            graphs: GraphStore::new(),
            files,
            placements: LeafRwLock::new(BTreeMap::new(), "store.polystore.placements"),
            retry: RetryPolicy::default(),
            clock: Arc::new(SystemClock),
            stats: LeafMutex::new(RetryStats::default(), "store.polystore.stats"),
        }
    }

    /// Replace the retry policy governing file-substrate I/O.
    pub fn with_retry(mut self, policy: RetryPolicy) -> Polystore {
        self.retry = policy;
        self
    }

    /// Replace the backoff clock (tests inject a
    /// [`lake_core::ManualClock`] so retries never sleep).
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> Polystore {
        self.clock = clock;
        self
    }

    /// Retry counters accumulated by file-substrate routing.
    pub fn retry_stats(&self) -> RetryStats {
        *self.stats.lock()
    }

    fn run_retry<T>(&self, op: impl FnMut() -> Result<T>) -> Result<T> {
        // Accumulate into a local block and merge under a short lock
        // afterwards: holding the stats guard across the retried store
        // I/O (as this used to) is exactly the guard-across-blocking
        // hazard lake-lint rule 7 exists to catch.
        let mut delta = RetryStats::default();
        let out = retry_with_stats(&self.retry, self.clock.as_ref(), &mut delta, op);
        self.stats.lock().merge(&delta);
        out
    }

    /// Store `dataset` under `id`/`name` using the default placement rule.
    pub fn store(&self, id: DatasetId, name: &str, dataset: Dataset) -> Result<Placement> {
        let store = StoreKind::default_for(dataset.kind());
        self.store_in(id, name, dataset, store)
    }

    /// Store with an explicit placement override (Constance lets users pick
    /// the store via the UI; e.g. large tables may go to files instead).
    pub fn store_in(
        &self,
        id: DatasetId,
        name: &str,
        dataset: Dataset,
        store: StoreKind,
    ) -> Result<Placement> {
        let location = match (&dataset, store) {
            (Dataset::Table(t), StoreKind::Relational) => {
                let mut t = t.clone();
                t.name = name.to_string();
                self.relational.put_table(t);
                name.to_string()
            }
            (Dataset::Table(t), StoreKind::File) => {
                let key = format!("tables/{name}.pql");
                let body = lake_formats::columnar::encode(t);
                self.run_retry(|| self.files.put(&key, &body))?;
                key
            }
            (Dataset::Documents(docs), StoreKind::Document) => {
                self.documents.insert_many(name, docs.clone());
                name.to_string()
            }
            (Dataset::Graph(g), StoreKind::Graph) => {
                self.graphs.put_graph(name, g.clone());
                name.to_string()
            }
            (Dataset::Log(lines), StoreKind::File) => {
                let key = format!("logs/{name}.log");
                let body = lines.join("\n");
                self.run_retry(|| self.files.put(&key, body.as_bytes()))?;
                key
            }
            (Dataset::Text(t), StoreKind::File) => {
                let key = format!("texts/{name}.txt");
                self.run_retry(|| self.files.put(&key, t.as_bytes()))?;
                key
            }
            (d, s) => {
                return Err(LakeError::invalid(format!(
                    "cannot place a {} dataset in the {} store",
                    d.kind(),
                    s.name()
                )))
            }
        };
        let placement = Placement { store, location };
        self.placements.write().insert(id, placement.clone());
        Ok(placement)
    }

    /// Where a dataset lives.
    pub fn placement(&self, id: DatasetId) -> Result<Placement> {
        self.placements
            .read()
            .get(&id)
            .cloned()
            .ok_or_else(|| LakeError::not_found(id))
    }

    /// Retrieve a dataset by id, whichever store it is in.
    pub fn retrieve(&self, id: DatasetId) -> Result<Dataset> {
        let p = self.placement(id)?;
        Ok(match p.store {
            StoreKind::Relational => Dataset::Table(self.relational.get_table(&p.location)?),
            StoreKind::Document => {
                let n = self.documents.count(&p.location);
                let docs: Result<Vec<Json>> =
                    (0..n).map(|i| self.documents.get(&p.location, i)).collect();
                Dataset::Documents(docs?)
            }
            StoreKind::Graph => Dataset::Graph(self.graphs.get_graph(&p.location)?),
            StoreKind::File => {
                let bytes = self.run_retry(|| self.files.get(&p.location))?;
                if p.location.ends_with(".pql") {
                    Dataset::Table(lake_formats::columnar::decode(&bytes)?)
                } else if p.location.ends_with(".log") {
                    Dataset::Log(
                        String::from_utf8_lossy(&bytes).lines().map(str::to_string).collect(),
                    )
                } else {
                    Dataset::Text(String::from_utf8_lossy(&bytes).into_owned())
                }
            }
        })
    }

    /// Remove a dataset by id, wherever it lives, releasing both the
    /// placement entry and the substrate object. Multi-tenant servers
    /// lean on this for namespace deletion: a tenant's datasets are
    /// stored under scoped locations, so removal never touches another
    /// tenant's objects.
    pub fn remove(&self, id: DatasetId) -> Result<Placement> {
        let p = self.placement(id)?;
        match p.store {
            StoreKind::Relational => self.relational.drop_table(&p.location)?,
            StoreKind::Document => self.documents.drop_collection(&p.location)?,
            StoreKind::Graph => self.graphs.drop_graph(&p.location)?,
            StoreKind::File => self.run_retry(|| self.files.delete(&p.location))?,
        }
        self.placements.write().remove(&id);
        Ok(p)
    }

    /// Count of datasets per store kind — for architecture demos.
    pub fn placement_summary(&self) -> BTreeMap<&'static str, usize> {
        let mut out = BTreeMap::new();
        for p in self.placements.read().values() {
            *out.entry(p.store.name()).or_insert(0) += 1;
        }
        out
    }
}

/// A convenience constructor for graph datasets in tests/examples.
pub fn graph_of(edges: &[(&str, &str, &str)]) -> PropertyGraph {
    let mut g = PropertyGraph::new();
    let mut ids = BTreeMap::new();
    for (a, label, b) in edges {
        let ia = *ids
            .entry(a.to_string())
            .or_insert_with(|| g.add_node_with("Entity", vec![("name", lake_core::Value::str(*a))]));
        let ib = *ids
            .entry(b.to_string())
            .or_insert_with(|| g.add_node_with("Entity", vec![("name", lake_core::Value::str(*b))]));
        g.add_edge(ia, ib, *label);
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use lake_core::{Table, Value};

    fn table() -> Table {
        Table::from_rows("t", &["a"], vec![vec![Value::Int(1)]]).unwrap()
    }

    #[test]
    fn default_routing_per_kind() {
        let ps = Polystore::new();
        let p1 = ps.store(DatasetId(1), "tab", Dataset::Table(table())).unwrap();
        assert_eq!(p1.store, StoreKind::Relational);
        let p2 = ps
            .store(DatasetId(2), "docs", Dataset::Documents(vec![Json::Bool(true)]))
            .unwrap();
        assert_eq!(p2.store, StoreKind::Document);
        let p3 = ps
            .store(DatasetId(3), "g", Dataset::Graph(graph_of(&[("a", "r", "b")])))
            .unwrap();
        assert_eq!(p3.store, StoreKind::Graph);
        let p4 = ps.store(DatasetId(4), "l", Dataset::Log(vec!["x".into()])).unwrap();
        assert_eq!(p4.store, StoreKind::File);
        assert_eq!(ps.placement_summary().len(), 4);
    }

    #[test]
    fn retrieve_roundtrips_each_store() {
        let ps = Polystore::new();
        ps.store(DatasetId(1), "tab", Dataset::Table(table())).unwrap();
        ps.store(DatasetId(2), "docs", Dataset::Documents(vec![Json::Num(1.0)])).unwrap();
        ps.store(DatasetId(3), "g", Dataset::Graph(graph_of(&[("a", "r", "b")]))).unwrap();
        ps.store(DatasetId(4), "l", Dataset::Log(vec!["x".into(), "y".into()])).unwrap();
        ps.store(DatasetId(5), "txt", Dataset::Text("hello".into())).unwrap();

        assert_eq!(ps.retrieve(DatasetId(1)).unwrap().as_table().unwrap().num_rows(), 1);
        assert_eq!(ps.retrieve(DatasetId(2)).unwrap().as_documents().unwrap().len(), 1);
        assert_eq!(ps.retrieve(DatasetId(3)).unwrap().as_graph().unwrap().edge_count(), 1);
        assert_eq!(ps.retrieve(DatasetId(4)).unwrap().record_count(), 2);
        assert!(matches!(ps.retrieve(DatasetId(5)).unwrap(), Dataset::Text(t) if t == "hello"));
        assert!(ps.retrieve(DatasetId(9)).is_err());
    }

    #[test]
    fn explicit_file_placement_for_table() {
        // The Constance scalability case: route a table to the file store.
        let ps = Polystore::new();
        let p = ps
            .store_in(DatasetId(1), "big", Dataset::Table(table()), StoreKind::File)
            .unwrap();
        assert_eq!(p.store, StoreKind::File);
        assert!(p.location.ends_with(".pql"));
        let back = ps.retrieve(DatasetId(1)).unwrap();
        assert_eq!(back.as_table().unwrap().num_rows(), 1);
        // The relational store was not touched.
        assert!(ps.relational.table_names().is_empty());
    }

    #[test]
    fn pluggable_faulty_file_store_is_absorbed_by_retry() {
        use crate::fault::{FaultPlan, FaultStore, Op};
        use lake_core::ManualClock;
        use lake_core::RetryPolicy;

        let faulty = FaultStore::new(
            MemoryStore::new(),
            FaultPlan::new().fail_next(Op::Put, 1).fail_next(Op::Get, 1),
        );
        let ps = Polystore::with_file_store(Box::new(faulty))
            .with_retry(RetryPolicy::new(3))
            .with_clock(Arc::new(ManualClock::new()));
        ps.store(DatasetId(1), "l", Dataset::Log(vec!["x".into(), "y".into()])).unwrap();
        assert_eq!(ps.retrieve(DatasetId(1)).unwrap().record_count(), 2);
        let stats = ps.retry_stats();
        assert_eq!(stats.retries, 2, "one put and one get transient absorbed");
        assert_eq!(stats.gave_up, 0);
    }

    #[test]
    fn remove_releases_every_substrate() {
        let ps = Polystore::new();
        ps.store(DatasetId(1), "tab", Dataset::Table(table())).unwrap();
        ps.store(DatasetId(2), "docs", Dataset::Documents(vec![Json::Num(1.0)])).unwrap();
        ps.store(DatasetId(3), "g", Dataset::Graph(graph_of(&[("a", "r", "b")]))).unwrap();
        ps.store(DatasetId(4), "l", Dataset::Log(vec!["x".into()])).unwrap();
        for id in 1..=4u64 {
            let p = ps.remove(DatasetId(id)).unwrap();
            assert!(!p.location.is_empty());
            assert!(ps.retrieve(DatasetId(id)).is_err(), "id {id} still retrievable");
        }
        assert!(ps.placement_summary().is_empty());
        assert!(ps.relational.table_names().is_empty());
        assert!(ps.graphs.graph_names().is_empty());
        // Removing twice is a typed NotFound, not a panic.
        assert!(matches!(ps.remove(DatasetId(1)), Err(LakeError::NotFound(_))));
    }

    #[test]
    fn invalid_placement_rejected() {
        let ps = Polystore::new();
        let r = ps.store_in(
            DatasetId(1),
            "g",
            Dataset::Graph(graph_of(&[("a", "r", "b")])),
            StoreKind::Relational,
        );
        assert!(r.is_err());
    }
}
