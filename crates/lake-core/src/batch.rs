//! Dictionary-encoded columnar batches — the in-memory execution format
//! for discovery/query hot paths.
//!
//! The row-oriented [`Table`](crate::Table) stores every cell as an owned
//! [`Value`]; profiling kernels that walk it clone values at every hop
//! and re-render/re-hash duplicates once per row. A [`ColumnBatch`] holds
//! the same data dictionary-encoded: each column keeps a sorted dictionary
//! of **distinct value representations** plus a row-order vector of `u32`
//! codes ([`NULL_CODE`] marks nulls). Kernels then iterate dictionary
//! entries once — rendering, hashing, and type-unifying each distinct
//! value exactly once — and only touch the code vector where row order
//! matters.
//!
//! ## Strict dictionary order (the byte-equality contract)
//!
//! `Value`'s total order deliberately treats some *representations* as
//! equal: `Int(3) == Float(3.0)`, `0.0 == -0.0`, and all NaNs compare
//! `Equal`. A dictionary keyed on that order would collapse entries whose
//! observable behavior differs — `Int(3)` and `Float(3.0)` contribute
//! different [`DataType`]s to inference, `0.0`/`-0.0` render differently
//! (`"0"` vs `"-0"`), and NaN payload bits matter to bit-exact numeric
//! samples. The dictionary therefore sorts by a **strict** order: primary
//! [`Value::cmp`], tie-broken by representation (`Int` before `Float`,
//! floats by raw bits). Ord-equal entries stay *adjacent* under the strict
//! order, so Ord-distinct cardinality is a run count over the sorted
//! dictionary, and every profile statistic computed here is byte-identical
//! to the naive row path (`e19_discovery` gates this on the million-row
//! lake).

use crate::table::{Column, Table};
use crate::value::{DataType, Value};
use crate::{LakeError, Result};
use std::cmp::Ordering;
use std::collections::BTreeSet;

/// Code reserved for null cells in [`DictColumn::codes`].
pub const NULL_CODE: u32 = u32::MAX;

/// Strict total order on values: [`Value::cmp`] first, then representation
/// (`Int` before `Float`, floats by raw IEEE-754 bits). Distinguishes
/// `Int(3)`/`Float(3.0)`, `0.0`/`-0.0`, and NaN payloads while keeping all
/// Ord-equal representations adjacent when sorted.
pub fn strict_value_cmp(a: &Value, b: &Value) -> Ordering {
    fn repr_rank(v: &Value) -> u8 {
        match v {
            Value::Int(_) => 0,
            Value::Float(_) => 1,
            _ => 0,
        }
    }
    a.cmp(b).then_with(|| repr_rank(a).cmp(&repr_rank(b))).then_with(|| match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits().cmp(&y.to_bits()),
        _ => Ordering::Equal,
    })
}

/// Per-column profile statistics computed by [`column_stats`] — the
/// allocation-lean columnar profiling kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Renders of the strict-distinct non-null values, in strict order.
    /// May contain Ord-duplicate strings (`Int(3)`/`Float(3.0)` both
    /// render `"3"`); set consumers dedup, MinHash minima are idempotent
    /// under them — exactly the [`DictColumn::texts`] contract.
    pub texts: Vec<String>,
    /// Ord-distinct non-null count — matches `Column::cardinality`.
    pub cardinality: usize,
    /// Key-candidate flag — matches `Column::is_unique`.
    pub unique: bool,
    /// Unified type over all values — matches `Column::inferred_type`.
    pub dtype: DataType,
    /// Number of null cells.
    pub null_count: usize,
    /// Total rows.
    pub rows: usize,
}

/// Profile statistics in one strict sort over *borrowed* values: no
/// dictionary materialization, no value clones, no code vector — each
/// distinct value is rendered and type-unified exactly once, and the
/// rendered strings are owned by the caller (movable straight into a
/// profile's domain set). This is what [`DictColumn::from_values`] would
/// compute, minus everything profiling does not need; the two stay
/// byte-identical by construction (same strict order, same run logic).
pub fn column_stats(values: &[Value]) -> ColumnStats {
    // Single-typed columns — the overwhelmingly common case — sort
    // native primitives instead of dispatching `strict_value_cmp`
    // through `&Value`: same strict order, same run logic, a fraction
    // of the comparator cost. Anything mixed falls back to the generic
    // path, so the typed helpers may bail with `None` on surprise.
    match values.iter().find(|v| !v.is_null()) {
        Some(Value::Int(_)) => int_column_stats(values),
        Some(Value::Float(_)) => float_column_stats(values),
        Some(Value::Str(_)) => str_column_stats(values),
        _ => None,
    }
    .unwrap_or_else(|| generic_column_stats(values))
}

/// All-`Int` fast path: the strict order on ints is plain `i64` order
/// (repr ranks tie, no float tiebreak), and strict-distinct equals
/// Ord-distinct, so one primitive sort plus a run walk suffices.
fn int_column_stats(values: &[Value]) -> Option<ColumnStats> {
    let mut ints: Vec<i64> = Vec::with_capacity(values.len());
    let mut null_count = 0usize;
    for v in values {
        match v {
            Value::Int(i) => ints.push(*i),
            Value::Null => null_count += 1,
            _ => return None,
        }
    }
    ints.sort_unstable();
    let mut texts: Vec<String> = Vec::with_capacity(ints.len().min(1024));
    let mut cardinality = 0usize;
    let mut unique_rows = true;
    let mut run_total = 0u64;
    let mut prev: Option<i64> = None;
    for &n in &ints {
        if prev != Some(n) {
            if prev.is_some() && run_total != 1 {
                unique_rows = false;
            }
            texts.push(n.to_string());
            cardinality += 1;
            run_total = 0;
        }
        run_total = run_total.saturating_add(1);
        prev = Some(n);
    }
    if prev.is_some() && run_total != 1 {
        unique_rows = false;
    }
    Some(ColumnStats {
        texts,
        cardinality,
        unique: !ints.is_empty() && unique_rows,
        dtype: DataType::Int,
        null_count,
        rows: values.len(),
    })
}

/// All-`Str` fast path: the strict order on strings is plain `str`
/// order and strict-distinct equals Ord-distinct.
fn str_column_stats(values: &[Value]) -> Option<ColumnStats> {
    let mut strs: Vec<&str> = Vec::with_capacity(values.len());
    let mut null_count = 0usize;
    for v in values {
        match v {
            Value::Str(s) => strs.push(s.as_str()),
            Value::Null => null_count += 1,
            _ => return None,
        }
    }
    strs.sort_unstable();
    let mut texts: Vec<String> = Vec::with_capacity(strs.len().min(1024));
    let mut cardinality = 0usize;
    let mut unique_rows = true;
    let mut run_total = 0u64;
    let mut prev: Option<&str> = None;
    for &s in &strs {
        if prev != Some(s) {
            if prev.is_some() && run_total != 1 {
                unique_rows = false;
            }
            texts.push(s.to_string());
            cardinality += 1;
            run_total = 0;
        }
        run_total = run_total.saturating_add(1);
        prev = Some(s);
    }
    if prev.is_some() && run_total != 1 {
        unique_rows = false;
    }
    Some(ColumnStats {
        texts,
        cardinality,
        unique: !strs.is_empty() && unique_rows,
        dtype: DataType::Str,
        null_count,
        rows: values.len(),
    })
}

/// Order-preserving `u64` key for `total_f64_cmp` classes: monotone in
/// the total order (`-inf < … < inf < NaN`) and equal exactly on
/// Ord-equal floats — `±0.0` share one key and every NaN payload maps to
/// the maximum key, above `+inf`.
fn float_ord_key(f: f64) -> u64 {
    if f.is_nan() {
        return u64::MAX;
    }
    let bits = if f == 0.0 { 0u64 } else { f.to_bits() };
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

/// All-`Float` fast path: sorting `(ord key, raw bits)` pairs reproduces
/// the strict order exactly — primary `total_f64_cmp` via the monotone
/// key, bits as the representation tiebreak — so Ord runs are key runs
/// and strict-distinct entries are distinct bit patterns.
fn float_column_stats(values: &[Value]) -> Option<ColumnStats> {
    let mut keyed: Vec<(u64, u64)> = Vec::with_capacity(values.len());
    let mut null_count = 0usize;
    for v in values {
        match v {
            Value::Float(f) => keyed.push((float_ord_key(*f), f.to_bits())),
            Value::Null => null_count += 1,
            _ => return None,
        }
    }
    keyed.sort_unstable();
    let mut texts: Vec<String> = Vec::with_capacity(keyed.len().min(1024));
    let mut cardinality = 0usize;
    let mut unique_rows = true;
    let mut run_total = 0u64;
    let mut prev: Option<(u64, u64)> = None;
    for &(key, bits) in &keyed {
        if prev.is_none_or(|(_, pb)| pb != bits) {
            texts.push(format!("{}", f64::from_bits(bits)));
        }
        if prev.is_none_or(|(pk, _)| pk != key) {
            if prev.is_some() && run_total != 1 {
                unique_rows = false;
            }
            cardinality += 1;
            run_total = 0;
        }
        run_total = run_total.saturating_add(1);
        prev = Some((key, bits));
    }
    if prev.is_some() && run_total != 1 {
        unique_rows = false;
    }
    Some(ColumnStats {
        texts,
        cardinality,
        unique: !keyed.is_empty() && unique_rows,
        dtype: DataType::Float,
        null_count,
        rows: values.len(),
    })
}

/// Generic strict-sort path for mixed-type (or bool) columns.
fn generic_column_stats(values: &[Value]) -> ColumnStats {
    let mut sorted: Vec<&Value> = values.iter().filter(|v| !v.is_null()).collect();
    let null_count = values.len() - sorted.len();
    sorted.sort_unstable_by(|a, b| strict_value_cmp(a, b));
    let mut texts: Vec<String> = Vec::new();
    let mut dtype = DataType::Null;
    let mut cardinality = 0usize;
    let mut unique_rows = true;
    let mut run_total = 0u64;
    let mut prev: Option<&Value> = None;
    let mut strict_prev: Option<&Value> = None;
    for &v in &sorted {
        if strict_prev.is_none_or(|p| strict_value_cmp(p, v) != Ordering::Equal) {
            texts.push(v.render());
            dtype = dtype.unify(v.data_type());
            strict_prev = Some(v);
        }
        if prev.is_none_or(|p| p.cmp(v) != Ordering::Equal) {
            if prev.is_some() && run_total != 1 {
                unique_rows = false;
            }
            cardinality += 1;
            run_total = 0;
        }
        run_total = run_total.saturating_add(1);
        prev = Some(v);
    }
    if prev.is_some() && run_total != 1 {
        unique_rows = false;
    }
    let unique = !sorted.is_empty() && unique_rows;
    ColumnStats { texts, cardinality, unique, dtype, null_count, rows: values.len() }
}

/// One distinct (strict) non-null value with everything kernels need
/// precomputed exactly once.
#[derive(Debug, Clone, PartialEq)]
pub struct DictEntry {
    /// The value itself.
    pub value: Value,
    /// How many rows hold this value.
    pub count: u32,
    /// `value.render()`, computed once.
    pub text: String,
    /// `value.as_f64()`, computed once (bit-exact per representation).
    pub numeric: Option<f64>,
}

/// A dictionary-encoded column: strict-sorted distinct entries plus a
/// row-order code vector.
#[derive(Debug, Clone, PartialEq)]
pub struct DictColumn {
    name: String,
    entries: Vec<DictEntry>,
    codes: Vec<u32>,
    null_count: usize,
    /// Ord-distinct non-null count (runs of Ord-equal strict entries).
    cardinality: usize,
    unique: bool,
    dtype: DataType,
}

impl DictColumn {
    /// Dictionary-encode a row-oriented column. One strict sort over the
    /// rows; every per-distinct computation (render, `as_f64`, type
    /// unification) happens once.
    pub fn from_column(col: &Column) -> DictColumn {
        DictColumn::from_values(col.name.clone(), &col.values)
    }

    /// Dictionary-encode a named slice of values.
    pub fn from_values(name: String, values: &[Value]) -> DictColumn {
        // One strict sort over borrowed `(value, row)` pairs, then a
        // single run-detection pass: each run of strict-equal values
        // becomes a dictionary entry (rendered/converted exactly once)
        // and a scatter assigns the row codes. This beats a per-row
        // ordered-map build — no node allocation, no pointer chasing —
        // which is where the e19 profiling speedup comes from.
        let mut pairs: Vec<(&Value, u32)> = values
            .iter()
            .enumerate()
            .filter(|(_, v)| !v.is_null())
            .map(|(i, v)| (v, i as u32))
            .collect();
        let null_count = values.len() - pairs.len();
        pairs.sort_unstable_by(|a, b| strict_value_cmp(a.0, b.0));
        let mut codes: Vec<u32> = vec![NULL_CODE; values.len()];
        let mut entries: Vec<DictEntry> = Vec::new();
        for &(v, row) in &pairs {
            let fresh = entries
                .last()
                .is_none_or(|last| strict_value_cmp(&last.value, v) != Ordering::Equal);
            if fresh {
                entries.push(DictEntry {
                    text: v.render(),
                    numeric: v.as_f64(),
                    count: 0,
                    value: v.clone(),
                });
            }
            let code = entries.len() as u32 - 1;
            if let Some(e) = entries.last_mut() {
                e.count = e.count.saturating_add(1);
            }
            if let Some(slot) = codes.get_mut(row as usize) {
                *slot = code;
            }
        }
        // Profile statistics from the dictionary alone. Ord-equal entries
        // are adjacent under the strict order, so Ord-distinct cardinality
        // is a run count and uniqueness is "every Ord-run totals one row".
        let mut cardinality = 0usize;
        let mut unique_rows = true;
        let mut run_total = 0u64;
        let mut prev: Option<&Value> = None;
        for e in &entries {
            let same_run = prev.is_some_and(|p| p.cmp(&e.value) == Ordering::Equal);
            if !same_run {
                if prev.is_some() && run_total != 1 {
                    unique_rows = false;
                }
                cardinality += 1;
                run_total = 0;
            }
            run_total = run_total.saturating_add(u64::from(e.count));
            prev = Some(&e.value);
        }
        if prev.is_some() && run_total != 1 {
            unique_rows = false;
        }
        let non_null = values.len() - null_count;
        let unique = non_null > 0 && unique_rows;
        // `unify` is associative, commutative, and idempotent with `Null`
        // as identity, so folding over distinct entries equals folding
        // over every row value.
        let dtype = entries.iter().fold(DataType::Null, |t, e| t.unify(e.value.data_type()));
        DictColumn { name, entries, codes, null_count, cardinality, unique, dtype }
    }

    /// Column name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// `true` when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Number of null cells — matches `Column::null_count`.
    pub fn null_count(&self) -> usize {
        self.null_count
    }

    /// Ord-distinct non-null count — matches `Column::cardinality`.
    pub fn cardinality(&self) -> usize {
        self.cardinality
    }

    /// Key-candidate flag — matches `Column::is_unique`.
    pub fn is_unique(&self) -> bool {
        self.unique
    }

    /// Unified type over all values — matches `Column::inferred_type`.
    pub fn inferred_type(&self) -> DataType {
        self.dtype
    }

    /// Strict-sorted dictionary entries.
    pub fn entries(&self) -> &[DictEntry] {
        &self.entries
    }

    /// Row-order dictionary codes ([`NULL_CODE`] for nulls).
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// Rendered texts of the dictionary entries, one per strict-distinct
    /// value. May contain Ord-duplicate strings (`Int(3)`/`Float(3.0)`
    /// both render `"3"`); set consumers dedup, MinHash minima are
    /// idempotent under them.
    pub fn texts(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|e| e.text.as_str())
    }

    /// Distinct rendered non-null values — matches `Column::text_domain`.
    pub fn text_domain(&self) -> BTreeSet<String> {
        self.entries.iter().map(|e| e.text.clone()).collect()
    }

    /// Row-order numeric view — matches `Column::numeric_values` bit for
    /// bit (each entry's `f64` was computed once from its exact
    /// representation).
    pub fn numeric_values(&self) -> Vec<f64> {
        self.codes
            .iter()
            .filter_map(|&c| self.entries.get(c as usize).and_then(|e| e.numeric))
            .collect()
    }

    /// The value at `row`, if in range (`Value::Null` for null cells).
    pub fn value_at(&self, row: usize) -> Option<&Value> {
        static NULL: Value = Value::Null;
        self.codes.get(row).map(|&c| {
            if c == NULL_CODE {
                &NULL
            } else {
                self.entries.get(c as usize).map_or(&NULL, |e| &e.value)
            }
        })
    }

    /// Decode back to a row-oriented column (one clone per row).
    pub fn to_column(&self) -> Column {
        let values = self
            .codes
            .iter()
            .map(|&c| {
                if c == NULL_CODE {
                    Value::Null
                } else {
                    self.entries.get(c as usize).map_or(Value::Null, |e| e.value.clone())
                }
            })
            .collect();
        Column { name: self.name.clone(), values }
    }
}

/// A dictionary-encoded table: one [`DictColumn`] per source column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnBatch {
    /// Table name.
    pub name: String,
    columns: Vec<DictColumn>,
    rows: usize,
}

impl ColumnBatch {
    /// Encode a row-oriented table.
    pub fn from_table(table: &Table) -> ColumnBatch {
        let columns: Vec<DictColumn> =
            table.columns().iter().map(DictColumn::from_column).collect();
        ColumnBatch { name: table.name.clone(), columns, rows: table.num_rows() }
    }

    /// Assemble from already-encoded columns; fails if lengths disagree.
    pub fn from_columns(name: String, columns: Vec<DictColumn>) -> Result<ColumnBatch> {
        let rows = columns.first().map_or(0, DictColumn::len);
        for c in &columns {
            if c.len() != rows {
                return Err(LakeError::invalid(format!(
                    "batch column {} has {} rows, expected {rows}",
                    c.name(),
                    c.len()
                )));
            }
        }
        Ok(ColumnBatch { name, columns, rows })
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// `true` when the batch has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The encoded columns.
    pub fn columns(&self) -> &[DictColumn] {
        &self.columns
    }

    /// One column by index.
    pub fn column(&self, i: usize) -> Option<&DictColumn> {
        self.columns.get(i)
    }

    /// Decode back to a row-oriented table.
    pub fn to_table(&self) -> Result<Table> {
        Table::from_columns(
            self.name.clone(),
            self.columns.iter().map(DictColumn::to_column).collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_matches_row_path(name: &str, values: Vec<Value>) {
        let col = Column { name: name.to_string(), values };
        let dict = DictColumn::from_column(&col);
        // The lean profiling kernel agrees with both the dictionary and
        // the row path on every statistic it produces.
        let stats = column_stats(&col.values);
        let dict_texts: Vec<&str> = dict.texts().collect();
        let stat_texts: Vec<&str> = stats.texts.iter().map(String::as_str).collect();
        assert_eq!(stat_texts, dict_texts, "{name}: texts");
        assert_eq!(stats.cardinality, col.cardinality(), "{name}: stats cardinality");
        assert_eq!(stats.unique, col.is_unique(), "{name}: stats unique");
        assert_eq!(stats.dtype, col.inferred_type(), "{name}: stats dtype");
        assert_eq!(stats.null_count, col.null_count(), "{name}: stats nulls");
        assert_eq!(stats.rows, col.len(), "{name}: stats rows");
        assert_eq!(dict.len(), col.len(), "{name}: len");
        assert_eq!(dict.null_count(), col.null_count(), "{name}: nulls");
        assert_eq!(dict.cardinality(), col.cardinality(), "{name}: cardinality");
        assert_eq!(dict.is_unique(), col.is_unique(), "{name}: unique");
        assert_eq!(dict.inferred_type(), col.inferred_type(), "{name}: dtype");
        assert_eq!(dict.text_domain(), col.text_domain(), "{name}: domain");
        let dn: Vec<u64> = dict.numeric_values().iter().map(|f| f.to_bits()).collect();
        let cn: Vec<u64> = col.numeric_values().iter().map(|f| f.to_bits()).collect();
        assert_eq!(dn, cn, "{name}: numeric bits");
        // Round trip decodes to the same column.
        assert_eq!(dict.to_column(), col, "{name}: roundtrip");
    }

    #[test]
    fn profile_statistics_match_row_path() {
        check_matches_row_path(
            "plain",
            vec![Value::str("b"), Value::str("a"), Value::str("b"), Value::Null],
        );
        check_matches_row_path("ints", vec![Value::Int(3), Value::Int(1), Value::Int(3)]);
        check_matches_row_path("empty", vec![]);
        check_matches_row_path("all_null", vec![Value::Null, Value::Null]);
        check_matches_row_path("bools", vec![Value::Bool(true), Value::Bool(false)]);
    }

    #[test]
    fn mixed_int_float_representations_survive() {
        // Int(3) == Float(3.0) under Ord but they must stay distinct
        // dictionary entries: dtype unification and exact numeric bits
        // depend on the representation.
        check_matches_row_path(
            "mixed",
            vec![Value::Int(3), Value::Float(3.0), Value::Int(3), Value::Float(2.5)],
        );
        let col = Column {
            name: "m".into(),
            values: vec![Value::Int(3), Value::Float(3.0)],
        };
        let dict = DictColumn::from_column(&col);
        assert_eq!(dict.entries().len(), 2, "strict-distinct entries");
        assert_eq!(dict.cardinality(), 1, "Ord-distinct cardinality");
        assert_eq!(dict.inferred_type(), DataType::Float);
    }

    #[test]
    fn signed_zero_and_nan_representations_survive() {
        check_matches_row_path(
            "zeros",
            vec![Value::Float(0.0), Value::Float(-0.0), Value::Int(0)],
        );
        check_matches_row_path(
            "nans",
            vec![Value::Float(f64::NAN), Value::Float(-f64::NAN), Value::Float(1.0)],
        );
        // Float-only, so the typed fast path (not the generic fallback)
        // handles the ±0.0 class and duplicate runs.
        check_matches_row_path(
            "float_zeros",
            vec![
                Value::Float(0.0),
                Value::Float(-0.0),
                Value::Float(2.5),
                Value::Null,
                Value::Float(2.5),
            ],
        );
        let col = Column {
            name: "z".into(),
            values: vec![Value::Float(0.0), Value::Float(-0.0)],
        };
        let dict = DictColumn::from_column(&col);
        assert_eq!(dict.entries().len(), 2);
        // "0" and "-0" are different rendered domain elements.
        assert_eq!(dict.text_domain().len(), 2);
        assert_eq!(dict.cardinality(), 1);
        assert!(!dict.is_unique(), "0.0 and -0.0 are Ord-equal, not unique");
    }

    #[test]
    fn strict_order_keeps_ord_equal_entries_adjacent() {
        let vs = vec![
            Value::Float(3.0),
            Value::Int(3),
            Value::Float(2.5),
            Value::Int(4),
            Value::Float(3.0),
        ];
        let dict = DictColumn::from_values("s".into(), &vs);
        let order: Vec<&Value> = dict.entries().iter().map(|e| &e.value).collect();
        assert_eq!(
            order,
            vec![&Value::Float(2.5), &Value::Int(3), &Value::Float(3.0), &Value::Int(4)]
        );
        // Counts fold duplicates.
        assert_eq!(dict.entries()[2].count, 2);
        assert_eq!(dict.cardinality(), 3);
    }

    #[test]
    fn codes_reference_sorted_entries_in_row_order(){
        let vs = vec![Value::str("b"), Value::Null, Value::str("a"), Value::str("b")];
        let dict = DictColumn::from_values("c".into(), &vs);
        assert_eq!(dict.codes(), &[1, NULL_CODE, 0, 1]);
        assert_eq!(dict.value_at(0), Some(&Value::str("b")));
        assert_eq!(dict.value_at(1), Some(&Value::Null));
        assert_eq!(dict.value_at(4), None);
    }

    #[test]
    fn batch_roundtrips_tables() {
        let t = Table::from_rows(
            "t",
            &["id", "score"],
            vec![
                vec![Value::Int(1), Value::Float(0.5)],
                vec![Value::Int(2), Value::Null],
            ],
        )
        .unwrap();
        let b = ColumnBatch::from_table(&t);
        assert_eq!(b.len(), 2);
        assert_eq!(b.columns().len(), 2);
        assert_eq!(b.to_table().unwrap(), t);
        // Zero-row table.
        let empty = Table::from_rows("e", &["x"], vec![]).unwrap();
        let be = ColumnBatch::from_table(&empty);
        assert!(be.is_empty());
        assert_eq!(be.to_table().unwrap(), empty);
    }

    #[test]
    fn from_columns_rejects_ragged_lengths() {
        let a = DictColumn::from_values("a".into(), &[Value::Int(1)]);
        let b = DictColumn::from_values("b".into(), &[Value::Int(1), Value::Int(2)]);
        assert!(ColumnBatch::from_columns("t".into(), vec![a, b]).is_err());
    }
}
