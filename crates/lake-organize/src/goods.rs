//! GOODS-style catalog organization (§6.1.1).
//!
//! "For each dataset, it collects various metadata and adds it as one
//! entry in the GOODS catalog … the metadata is classified into six
//! categories, including basic, content-based, provenance, user-supplied,
//! team, project, and temporal metadata." Post-hoc collection is the
//! defining trait: datasets exist first, the catalog crawls them later.
//! GOODS also clusters different versions of the same dataset (by
//! version-suffix convention) and exports provenance as
//! subject–predicate–object triples for graph visualization (§6.7).

use lake_core::{Dataset, DatasetId, Value};
use std::collections::BTreeMap;

/// The six GOODS metadata categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Category {
    /// Size, format, aliases.
    Basic,
    /// Schema, fields, statistics crawled from the data.
    Content,
    /// Jobs that read/wrote the dataset, lineage.
    Provenance,
    /// Descriptions, annotations from people.
    UserSupplied,
    /// Team / project context.
    TeamProject,
    /// Change history timestamps.
    Temporal,
}

impl Category {
    /// All categories in catalog order.
    pub const ALL: [Category; 6] = [
        Category::Basic,
        Category::Content,
        Category::Provenance,
        Category::UserSupplied,
        Category::TeamProject,
        Category::Temporal,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Category::Basic => "basic",
            Category::Content => "content",
            Category::Provenance => "provenance",
            Category::UserSupplied => "user-supplied",
            Category::TeamProject => "team/project",
            Category::Temporal => "temporal",
        }
    }
}

/// One catalog entry: per-category key→value metadata.
#[derive(Debug, Clone, Default)]
pub struct CatalogEntry {
    sections: BTreeMap<&'static str, BTreeMap<String, Value>>,
}

impl CatalogEntry {
    /// Set a metadata cell.
    pub fn set(&mut self, cat: Category, key: &str, value: Value) {
        self.sections
            .entry(cat.name())
            .or_default()
            .insert(key.to_string(), value);
    }

    /// Read a metadata cell.
    pub fn get(&self, cat: Category, key: &str) -> Option<&Value> {
        self.sections.get(cat.name())?.get(key)
    }

    /// All cells of one category.
    pub fn section(&self, cat: Category) -> Vec<(&str, &Value)> {
        self.sections
            .get(cat.name())
            .map(|m| m.iter().map(|(k, v)| (k.as_str(), v)).collect())
            .unwrap_or_default()
    }
}

/// The GOODS catalog.
#[derive(Debug, Default)]
pub struct GoodsCatalog {
    entries: BTreeMap<String, CatalogEntry>, // keyed by dataset path/name
    provenance: Vec<(String, String, String)>, // (subject, predicate, object)
    clock: u64,
}

impl GoodsCatalog {
    /// An empty catalog.
    pub fn new() -> GoodsCatalog {
        GoodsCatalog::default()
    }

    /// Crawl a dataset *post hoc* (GOODS's defining mode): derive basic +
    /// content + temporal metadata automatically.
    pub fn crawl(&mut self, path: &str, id: DatasetId, dataset: &Dataset) {
        self.clock += 1;
        let e = self.entries.entry(path.to_string()).or_default();
        e.set(Category::Basic, "id", Value::Int(id.0 as i64));
        e.set(Category::Basic, "format", Value::str(dataset.kind().name()));
        e.set(Category::Basic, "size", Value::Int(dataset.approx_size() as i64));
        e.set(Category::Content, "records", Value::Int(dataset.record_count() as i64));
        if let Dataset::Table(t) = dataset {
            e.set(Category::Content, "columns", Value::Int(t.num_columns() as i64));
            e.set(Category::Content, "schema", Value::str(t.schema().to_string()));
        }
        e.set(Category::Temporal, "crawled_at", Value::Int(self.clock as i64));
    }

    /// Record user-supplied metadata (the crowdsourced enrichment path of
    /// §6.4.3 — owners, auditors, users exchanging dataset information).
    pub fn annotate(&mut self, path: &str, user: &str, key: &str, value: &str) {
        self.clock += 1;
        let e = self.entries.entry(path.to_string()).or_default();
        e.set(Category::UserSupplied, key, Value::str(value));
        e.set(Category::UserSupplied, &format!("{key}__by"), Value::str(user));
        e.set(Category::Temporal, "annotated_at", Value::Int(self.clock as i64));
    }

    /// Record a provenance event as a triple, e.g.
    /// `(job:etl1, wrote, logs/day1)`.
    pub fn record_provenance(&mut self, subject: &str, predicate: &str, object: &str) {
        self.provenance
            .push((subject.to_string(), predicate.to_string(), object.to_string()));
        if let Some(e) = self.entries.get_mut(object) {
            e.set(Category::Provenance, subject, Value::str(predicate));
        }
    }

    /// Export provenance triples (for graph rendering / path queries).
    pub fn provenance_triples(&self) -> &[(String, String, String)] {
        &self.provenance
    }

    /// A catalog entry.
    pub fn entry(&self, path: &str) -> Option<&CatalogEntry> {
        self.entries.get(path)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Cluster dataset versions: entries whose path differs only by a
    /// trailing version/date segment (`sales/2024-01-01`, `sales/v2`, …)
    /// group under their common stem. Returns stem → sorted members.
    pub fn version_clusters(&self) -> BTreeMap<String, Vec<String>> {
        let mut clusters: BTreeMap<String, Vec<String>> = BTreeMap::new();
        for path in self.entries.keys() {
            let stem = match path.rsplit_once('/') {
                Some((stem, last)) if is_versionish(last) => stem.to_string(),
                _ => path.clone(),
            };
            clusters.entry(stem).or_default().push(path.clone());
        }
        clusters
    }

    /// Keyword search over all metadata values; returns matching paths.
    pub fn search(&self, keyword: &str) -> Vec<String> {
        let kw = keyword.to_lowercase();
        self.entries
            .iter()
            .filter(|(path, e)| {
                path.to_lowercase().contains(&kw)
                    || Category::ALL.iter().any(|&c| {
                        e.section(c)
                            .iter()
                            .any(|(_, v)| v.render().to_lowercase().contains(&kw))
                    })
            })
            .map(|(p, _)| p.clone())
            .collect()
    }
}

/// Is this path segment a version marker (digits, dates, `v<digits>`)?
fn is_versionish(seg: &str) -> bool {
    if seg.is_empty() {
        return false;
    }
    let body = seg.strip_prefix('v').unwrap_or(seg);
    !body.is_empty() && body.chars().all(|c| c.is_ascii_digit() || matches!(c, '-' | '_' | '.'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lake_core::{Table, Value};

    fn table() -> Dataset {
        Dataset::Table(
            Table::from_rows("t", &["a", "b"], vec![vec![Value::Int(1), Value::str("x")]]).unwrap(),
        )
    }

    #[test]
    fn crawl_fills_basic_content_temporal() {
        let mut c = GoodsCatalog::new();
        c.crawl("datasets/sales", DatasetId(3), &table());
        let e = c.entry("datasets/sales").unwrap();
        assert_eq!(e.get(Category::Basic, "format"), Some(&Value::str("table")));
        assert_eq!(e.get(Category::Content, "columns"), Some(&Value::Int(2)));
        assert!(e.get(Category::Temporal, "crawled_at").is_some());
        assert!(e.get(Category::Provenance, "x").is_none());
    }

    #[test]
    fn annotations_record_author() {
        let mut c = GoodsCatalog::new();
        c.crawl("d", DatasetId(1), &table());
        c.annotate("d", "ada", "description", "daily sales export");
        let e = c.entry("d").unwrap();
        assert_eq!(e.get(Category::UserSupplied, "description"), Some(&Value::str("daily sales export")));
        assert_eq!(e.get(Category::UserSupplied, "description__by"), Some(&Value::str("ada")));
    }

    #[test]
    fn provenance_triples_link_jobs_to_datasets() {
        let mut c = GoodsCatalog::new();
        c.crawl("logs/day1", DatasetId(1), &table());
        c.record_provenance("job:etl", "wrote", "logs/day1");
        c.record_provenance("job:report", "read", "logs/day1");
        assert_eq!(c.provenance_triples().len(), 2);
        let e = c.entry("logs/day1").unwrap();
        assert_eq!(e.get(Category::Provenance, "job:etl"), Some(&Value::str("wrote")));
    }

    #[test]
    fn version_clustering_groups_by_stem() {
        let mut c = GoodsCatalog::new();
        for p in ["sales/2024-01-01", "sales/2024-01-02", "sales/v3", "hr/roster"] {
            c.crawl(p, DatasetId(0), &table());
        }
        let clusters = c.version_clusters();
        assert_eq!(clusters["sales"].len(), 3);
        assert_eq!(clusters["hr/roster"], vec!["hr/roster"]);
    }

    #[test]
    fn search_spans_paths_and_values() {
        let mut c = GoodsCatalog::new();
        c.crawl("finance/ledger", DatasetId(1), &table());
        c.annotate("finance/ledger", "bob", "note", "quarterly audit data");
        assert_eq!(c.search("ledger"), vec!["finance/ledger"]);
        assert_eq!(c.search("audit"), vec!["finance/ledger"]);
        assert!(c.search("zzz").is_empty());
    }

    #[test]
    fn versionish_detection() {
        assert!(is_versionish("2024-01-01"));
        assert!(is_versionish("v12"));
        assert!(is_versionish("1.2.3"));
        assert!(!is_versionish("roster"));
        assert!(!is_versionish("v"));
    }
}
