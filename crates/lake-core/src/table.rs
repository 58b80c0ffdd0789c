//! Columnar tables: the workhorse representation for tabular datasets.
//!
//! Discovery, integration, cleaning and profiling algorithms in the survey
//! overwhelmingly operate column-at-a-time (signatures, sketches, domain
//! statistics), so [`Table`] stores data by column. Row-oriented access is
//! provided for ingestion and query execution.

use crate::error::{LakeError, Result};
use crate::schema::{Field, Schema};
use crate::value::{DataType, Value};
use std::collections::BTreeSet;
use std::fmt;

/// A row: one value per schema field, in schema order.
pub type Row = Vec<Value>;

/// One named column of values.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    /// Column (attribute) name.
    pub name: String,
    /// Values, one per row.
    pub values: Vec<Value>,
}

impl Column {
    /// Create a column.
    pub fn new(name: impl Into<String>, values: Vec<Value>) -> Column {
        Column { name: name.into(), values }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Infer the widest type over all non-null values.
    pub fn inferred_type(&self) -> DataType {
        self.values
            .iter()
            .map(Value::data_type)
            .fold(DataType::Null, DataType::unify)
    }

    /// Number of null values.
    pub fn null_count(&self) -> usize {
        self.values.iter().filter(|v| v.is_null()).count()
    }

    /// The set of distinct non-null values.
    pub fn distinct(&self) -> BTreeSet<&Value> {
        self.values.iter().filter(|v| !v.is_null()).collect()
    }

    /// Number of distinct non-null values (the column's cardinality).
    pub fn cardinality(&self) -> usize {
        self.distinct().len()
    }

    /// `true` if every non-null value is unique — a key candidate.
    pub fn is_unique(&self) -> bool {
        let non_null = self.values.iter().filter(|v| !v.is_null()).count();
        non_null > 0 && self.cardinality() == non_null
    }

    /// Non-null numeric values as `f64` (empty if the column is textual).
    pub fn numeric_values(&self) -> Vec<f64> {
        self.values.iter().filter_map(Value::as_f64).collect()
    }

    /// Distinct non-null values rendered to text — the column's *domain* as
    /// used by set-overlap discovery (JOSIE, Aurum).
    pub fn text_domain(&self) -> BTreeSet<String> {
        self.values
            .iter()
            .filter(|v| !v.is_null())
            .map(Value::render)
            .collect()
    }
}

/// A named, schema-typed columnar table.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Table name (unique within its dataset).
    pub name: String,
    columns: Vec<Column>,
    rows: usize,
}

impl Table {
    /// An empty table with no columns.
    pub fn empty(name: impl Into<String>) -> Table {
        Table { name: name.into(), columns: Vec::new(), rows: 0 }
    }

    /// Build from columns. All columns must have equal length.
    pub fn from_columns(name: impl Into<String>, columns: Vec<Column>) -> Result<Table> {
        let rows = columns.first().map_or(0, Column::len);
        if let Some(c) = columns.iter().find(|c| c.len() != rows) {
            return Err(LakeError::schema(format!(
                "column {} has {} rows, expected {rows}",
                c.name,
                c.len()
            )));
        }
        Ok(Table { name: name.into(), columns, rows })
    }

    /// Build from header + rows. Short rows are padded with nulls; long
    /// rows are an error.
    pub fn from_rows(
        name: impl Into<String>,
        header: &[&str],
        rows: Vec<Row>,
    ) -> Result<Table> {
        let mut columns: Vec<Column> = header
            .iter()
            .map(|h| Column::new(*h, Vec::with_capacity(rows.len())))
            .collect();
        for (i, row) in rows.into_iter().enumerate() {
            if row.len() > header.len() {
                return Err(LakeError::schema(format!(
                    "row {i} has {} values, header has {}",
                    row.len(),
                    header.len()
                )));
            }
            let pad = header.len() - row.len();
            for (col, v) in columns.iter_mut().zip(row) {
                col.values.push(v);
            }
            for col in columns.iter_mut().rev().take(pad) {
                col.values.push(Value::Null);
            }
        }
        Table::from_columns(name, columns)
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// The columns in order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// The columns in order, by value.
    pub fn into_columns(self) -> Vec<Column> {
        self.columns
    }

    /// The column named `name`, if any.
    pub fn column(&self, name: &str) -> Option<&Column> {
        self.columns.iter().find(|c| c.name == name)
    }

    /// Position of the column named `name`.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// The inferred schema (types widened over observed values).
    pub fn schema(&self) -> Schema {
        self.columns
            .iter()
            .map(|c| {
                let mut f = Field::new(c.name.clone(), c.inferred_type());
                f.nullable = c.null_count() > 0;
                f
            })
            .collect()
    }

    /// Materialize row `i`.
    pub fn row(&self, i: usize) -> Row {
        self.columns.iter().map(|c| c.values[i].clone()).collect()
    }

    /// Iterate rows (materializing each).
    pub fn iter_rows(&self) -> impl Iterator<Item = Row> + '_ {
        (0..self.rows).map(move |i| self.row(i))
    }

    /// Append a row. The row length must match the column count.
    pub fn push_row(&mut self, row: Row) -> Result<()> {
        if row.len() != self.columns.len() {
            return Err(LakeError::schema(format!(
                "row has {} values, table {} has {} columns",
                row.len(),
                self.name,
                self.columns.len()
            )));
        }
        for (col, v) in self.columns.iter_mut().zip(row) {
            col.values.push(v);
        }
        self.rows += 1;
        Ok(())
    }

    /// Project onto the named columns, in the given order.
    pub fn project(&self, names: &[&str]) -> Result<Table> {
        let cols = names
            .iter()
            .map(|n| {
                self.column(n)
                    .cloned()
                    .ok_or_else(|| LakeError::not_found(format!("column {n} in {}", self.name)))
            })
            .collect::<Result<Vec<_>>>()?;
        Table::from_columns(self.name.clone(), cols)
    }

    /// Keep only rows where `pred` holds.
    pub fn filter(&self, mut pred: impl FnMut(&[&Value]) -> bool) -> Table {
        let mut keep = Vec::new();
        let mut scratch: Vec<&Value> = Vec::with_capacity(self.columns.len());
        for i in 0..self.rows {
            scratch.clear();
            scratch.extend(self.columns.iter().map(|c| &c.values[i]));
            if pred(&scratch) {
                keep.push(i);
            }
        }
        let columns = self
            .columns
            .iter()
            .map(|c| Column::new(c.name.clone(), keep.iter().map(|&i| c.values[i].clone()).collect()))
            .collect();
        Table { name: self.name.clone(), columns, rows: keep.len() }
    }

    /// Total cell count, a rough size measure for catalogs.
    pub fn cell_count(&self) -> usize {
        self.rows * self.columns.len()
    }
}

impl fmt::Display for Table {
    /// Render a compact preview (at most 10 rows), for examples and demos.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} [{} rows]", self.name, self.rows)?;
        let names: Vec<&str> = self.columns.iter().map(|c| c.name.as_str()).collect();
        writeln!(f, "| {} |", names.join(" | "))?;
        for i in 0..self.rows.min(10) {
            let cells: Vec<String> = self.columns.iter().map(|c| c.values[i].to_string()).collect();
            writeln!(f, "| {} |", cells.join(" | "))?;
        }
        if self.rows > 10 {
            writeln!(f, "… ({} more rows)", self.rows - 10)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        Table::from_rows(
            "t",
            &["id", "city", "pop"],
            vec![
                vec![Value::Int(1), Value::str("berlin"), Value::Int(3_600_000)],
                vec![Value::Int(2), Value::str("paris"), Value::Int(2_100_000)],
                vec![Value::Int(3), Value::str("delft"), Value::Null],
            ],
        )
        .unwrap()
    }

    #[test]
    fn from_rows_builds_columns() {
        let t = sample();
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.num_columns(), 3);
        assert_eq!(t.column("city").unwrap().values[1], Value::str("paris"));
    }

    #[test]
    fn short_rows_pad_with_null() {
        let t = Table::from_rows("t", &["a", "b"], vec![vec![Value::Int(1)]]).unwrap();
        assert_eq!(t.column("b").unwrap().values[0], Value::Null);
    }

    #[test]
    fn long_rows_error() {
        let r = Table::from_rows("t", &["a"], vec![vec![Value::Int(1), Value::Int(2)]]);
        assert!(r.is_err());
    }

    #[test]
    fn mismatched_columns_error() {
        let r = Table::from_columns(
            "t",
            vec![
                Column::new("a", vec![Value::Int(1)]),
                Column::new("b", vec![]),
            ],
        );
        assert!(r.is_err());
    }

    #[test]
    fn schema_inference() {
        let t = sample();
        let s = t.schema();
        assert_eq!(s.field("id").unwrap().dtype, DataType::Int);
        assert_eq!(s.field("city").unwrap().dtype, DataType::Str);
        assert!(s.field("pop").unwrap().nullable);
        assert!(!s.field("id").unwrap().nullable);
    }

    #[test]
    fn column_profile_stats() {
        let t = sample();
        let pop = t.column("pop").unwrap();
        assert_eq!(pop.null_count(), 1);
        assert_eq!(pop.cardinality(), 2);
        assert!(t.column("id").unwrap().is_unique());
        assert_eq!(pop.numeric_values().len(), 2);
    }

    #[test]
    fn project_and_filter() {
        let t = sample();
        let p = t.project(&["city"]).unwrap();
        assert_eq!(p.num_columns(), 1);
        let big = t.filter(|row| row[2].as_i64().is_some_and(|p| p > 3_000_000));
        assert_eq!(big.num_rows(), 1);
        assert_eq!(big.column("city").unwrap().values[0], Value::str("berlin"));
        assert!(t.project(&["nope"]).is_err());
    }

    #[test]
    fn push_row_and_roundtrip() {
        let mut t = sample();
        t.push_row(vec![Value::Int(4), Value::str("rome"), Value::Int(2_800_000)]).unwrap();
        assert_eq!(t.num_rows(), 4);
        assert_eq!(t.row(3)[1], Value::str("rome"));
        assert!(t.push_row(vec![Value::Int(5)]).is_err());
    }
}
