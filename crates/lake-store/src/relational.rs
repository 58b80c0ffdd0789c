//! A minimal relational store — the MySQL/PostgreSQL stand-in.
//!
//! Holds named tables, supports inserts and *server-side* predicate
//! evaluation. The point of evaluating predicates here rather than in the
//! mediator is that federated query push-down (Constance §6.3, Ontario
//! §7.2) becomes observable: [`RelationalStore::rows_scanned`] counts the
//! rows the store touched, and the scan result size is the data that would
//! cross the wire.

use crate::predicate::{self, Predicate};
use lake_core::{LakeError, Result, Row, Table};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// A named-table relational store with predicate scans.
#[derive(Debug, Default)]
pub struct RelationalStore {
    tables: RwLock<BTreeMap<String, Table>>,
    rows_scanned: AtomicU64,
}

impl RelationalStore {
    /// An empty store.
    pub fn new() -> RelationalStore {
        RelationalStore::default()
    }

    /// Create a table (errors if the name exists).
    pub fn create_table(&self, table: Table) -> Result<()> {
        let mut tables = self.tables.write();
        if tables.contains_key(&table.name) {
            return Err(LakeError::AlreadyExists(table.name.clone()));
        }
        tables.insert(table.name.clone(), table);
        Ok(())
    }

    /// Replace or create a table.
    pub fn put_table(&self, table: Table) {
        self.tables.write().insert(table.name.clone(), table);
    }

    /// Drop a table.
    pub fn drop_table(&self, name: &str) -> Result<()> {
        self.tables
            .write()
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| LakeError::not_found(name))
    }

    /// Table names, sorted.
    pub fn table_names(&self) -> Vec<String> {
        self.tables.read().keys().cloned().collect()
    }

    /// Clone out a full table.
    pub fn get_table(&self, name: &str) -> Result<Table> {
        self.tables
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| LakeError::not_found(name))
    }

    /// Insert one row.
    pub fn insert(&self, table: &str, row: Row) -> Result<()> {
        let mut tables = self.tables.write();
        let t = tables.get_mut(table).ok_or_else(|| LakeError::not_found(table))?;
        t.push_row(row)
    }

    /// Scan `table`, applying `predicates` *inside the store* (push-down),
    /// and optionally projecting to `columns`. Every base row inspected is
    /// counted in [`Self::rows_scanned`]; only matching (projected) rows
    /// are returned — they model the data shipped to the mediator.
    pub fn scan(
        &self,
        table: &str,
        predicates: &[Predicate],
        columns: Option<&[&str]>,
    ) -> Result<Table> {
        let tables = self.tables.read();
        let t = tables.get(table).ok_or_else(|| LakeError::not_found(table))?;
        // lint: ordering — push-down metric counter, no ordering dependency.
        self.rows_scanned.fetch_add(t.num_rows() as u64, Ordering::Relaxed);

        // This store alone is strict: a query naming a column the table
        // lacks is the caller's mistake, not an empty answer.
        let filtered = predicates.iter().map(|p| p.attribute.as_str());
        let projected = columns.into_iter().flatten().copied();
        if let Some(c) = filtered.chain(projected).find(|c| t.column(c).is_none()) {
            return Err(LakeError::not_found(format!("column {c} in {table}")));
        }
        let rows = predicate::matching_rows(t, predicates);
        Table::from_columns(t.name.clone(), predicate::gather(t, &rows, columns))
    }

    /// Rows inspected by all scans so far (the push-down metric).
    pub fn rows_scanned(&self) -> u64 {
        // lint: ordering — metric read, approximate by design.
        self.rows_scanned.load(Ordering::Relaxed)
    }

    /// Reset the scan counter (benchmarks call this between runs).
    pub fn reset_counters(&self) {
        // lint: ordering — benchmark-only reset of a metric counter.
        self.rows_scanned.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::CompareOp;
    use lake_core::Value;

    fn store() -> RelationalStore {
        let s = RelationalStore::new();
        s.create_table(
            Table::from_rows(
                "orders",
                &["id", "city", "total"],
                vec![
                    vec![Value::Int(1), Value::str("delft"), Value::Float(10.0)],
                    vec![Value::Int(2), Value::str("paris"), Value::Float(20.0)],
                    vec![Value::Int(3), Value::str("delft"), Value::Float(30.0)],
                ],
            )
            .unwrap(),
        )
        .unwrap();
        s
    }

    #[test]
    fn create_conflicts_and_drop() {
        let s = store();
        assert!(s.create_table(Table::empty("orders")).is_err());
        assert_eq!(s.table_names(), vec!["orders"]);
        s.drop_table("orders").unwrap();
        assert!(s.drop_table("orders").is_err());
    }

    #[test]
    fn scan_with_pushdown_filters_and_projects() {
        let s = store();
        let preds = [Predicate::new("city", CompareOp::Eq, "delft")];
        let r = s.scan("orders", &preds, Some(&["id", "total"])).unwrap();
        assert_eq!(r.num_rows(), 2);
        assert_eq!(r.num_columns(), 2);
        assert_eq!(s.rows_scanned(), 3);
    }

    #[test]
    fn scan_without_predicates_returns_all() {
        let s = store();
        let r = s.scan("orders", &[], None).unwrap();
        assert_eq!(r.num_rows(), 3);
    }

    #[test]
    fn scan_unknown_column_errors() {
        let s = store();
        let preds = [Predicate::new("nope", CompareOp::Eq, 1i64)];
        assert!(s.scan("orders", &preds, None).is_err());
    }

    #[test]
    fn insert_appends() {
        let s = store();
        s.insert("orders", vec![Value::Int(4), Value::str("rome"), Value::Float(40.0)])
            .unwrap();
        assert_eq!(s.get_table("orders").unwrap().num_rows(), 4);
        assert!(s.insert("nope", vec![]).is_err());
    }

    #[test]
    fn counter_reset() {
        let s = store();
        s.scan("orders", &[], None).unwrap();
        assert!(s.rows_scanned() > 0);
        s.reset_counters();
        assert_eq!(s.rows_scanned(), 0);
    }

    #[test]
    fn multiple_predicates_conjoin() {
        let s = store();
        let preds = [
            Predicate::new("city", CompareOp::Eq, "delft"),
            Predicate::new("total", CompareOp::Gt, 15.0),
        ];
        let r = s.scan("orders", &preds, None).unwrap();
        assert_eq!(r.num_rows(), 1);
        assert_eq!(r.column("id").unwrap().values[0], Value::Int(3));
    }
}
