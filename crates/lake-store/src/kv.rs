//! A sorted key-value store with column families — the Bigtable stand-in.
//!
//! GOODS keeps its dataset catalog "stored in Bigtable" (§6.1.1): rows are
//! keyed by dataset name, and metadata lives in column families. This store
//! provides exactly that access pattern: `(row, family, column) → value`,
//! sorted row scans, and prefix scans.

use lake_core::{LakeError, Result, Value};
use lake_core::sync::LeafRwLock;
use std::collections::BTreeMap;

type Row = BTreeMap<(String, String), Value>; // (family, column) → value

/// A sorted multi-family key-value store.
#[derive(Debug)]
pub struct KvStore {
    rows: LeafRwLock<BTreeMap<String, Row>>,
    families: LeafRwLock<Vec<String>>,
}

impl Default for KvStore {
    fn default() -> KvStore {
        KvStore::with_families(&[])
    }
}

impl KvStore {
    /// A new store with the given column families.
    pub fn with_families(families: &[&str]) -> KvStore {
        KvStore {
            rows: LeafRwLock::new(BTreeMap::new(), "store.kv.rows"),
            families: LeafRwLock::new(
                families.iter().map(|s| s.to_string()).collect(),
                "store.kv.families",
            ),
        }
    }

    /// Registered column families.
    pub fn families(&self) -> Vec<String> {
        self.families.read().clone()
    }

    fn check_family(&self, family: &str) -> Result<()> {
        if self.families.read().iter().any(|f| f == family) {
            Ok(())
        } else {
            Err(LakeError::not_found(format!("column family {family}")))
        }
    }

    /// Write one cell.
    pub fn put(&self, row: &str, family: &str, column: &str, value: Value) -> Result<()> {
        self.check_family(family)?;
        self.rows
            .write()
            .entry(row.to_string())
            .or_default()
            .insert((family.to_string(), column.to_string()), value);
        Ok(())
    }

    /// Read one cell.
    pub fn get(&self, row: &str, family: &str, column: &str) -> Option<Value> {
        self.rows
            .read()
            .get(row)
            .and_then(|r| r.get(&(family.to_string(), column.to_string())).cloned())
    }

    /// All `(column, value)` pairs of one family in one row.
    pub fn get_family(&self, row: &str, family: &str) -> Vec<(String, Value)> {
        self.rows
            .read()
            .get(row)
            .map(|r| {
                r.iter()
                    .filter(|((f, _), _)| f == family)
                    .map(|((_, c), v)| (c.clone(), v.clone()))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Delete a whole row.
    pub fn delete_row(&self, row: &str) {
        self.rows.write().remove(row);
    }

    /// Row keys in `[start, end)`, sorted.
    pub fn scan_range(&self, start: &str, end: &str) -> Vec<String> {
        self.rows
            .read()
            .range(start.to_string()..end.to_string())
            .map(|(k, _)| k.clone())
            .collect()
    }

    /// Row keys starting with `prefix`, sorted.
    pub fn scan_prefix(&self, prefix: &str) -> Vec<String> {
        self.rows
            .read()
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, _)| k.clone())
            .collect()
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.rows.read().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> KvStore {
        let s = KvStore::with_families(&["basic", "content", "provenance"]);
        s.put("ds/alpha", "basic", "owner", Value::str("ops")).unwrap();
        s.put("ds/alpha", "content", "rows", Value::Int(100)).unwrap();
        s.put("ds/beta", "basic", "owner", Value::str("science")).unwrap();
        s.put("logs/x", "basic", "owner", Value::str("infra")).unwrap();
        s
    }

    #[test]
    fn cell_read_write() {
        let s = store();
        assert_eq!(s.get("ds/alpha", "basic", "owner"), Some(Value::str("ops")));
        assert_eq!(s.get("ds/alpha", "content", "rows"), Some(Value::Int(100)));
        assert_eq!(s.get("ds/alpha", "basic", "missing"), None);
        assert_eq!(s.get("nope", "basic", "owner"), None);
    }

    #[test]
    fn unknown_family_is_error() {
        let s = store();
        assert!(s.put("r", "unknown", "c", Value::Int(1)).is_err());
    }

    #[test]
    fn family_listing() {
        let s = store();
        s.put("ds/alpha", "basic", "zone", Value::str("raw")).unwrap();
        let fam = s.get_family("ds/alpha", "basic");
        assert_eq!(fam.len(), 2);
        assert!(fam.iter().any(|(c, _)| c == "zone"));
    }

    #[test]
    fn prefix_and_range_scans_are_sorted() {
        let s = store();
        assert_eq!(s.scan_prefix("ds/"), vec!["ds/alpha", "ds/beta"]);
        assert_eq!(s.scan_range("ds/alpha", "ds/b"), vec!["ds/alpha"]);
        assert_eq!(s.scan_prefix("zzz"), Vec::<String>::new());
    }

    #[test]
    fn delete_row_removes_all_cells() {
        let s = store();
        s.delete_row("ds/alpha");
        assert_eq!(s.get("ds/alpha", "basic", "owner"), None);
        assert_eq!(s.row_count(), 2);
    }

    #[test]
    fn overwrite_replaces() {
        let s = store();
        s.put("ds/alpha", "basic", "owner", Value::str("new")).unwrap();
        assert_eq!(s.get("ds/alpha", "basic", "owner"), Some(Value::str("new")));
    }
}
