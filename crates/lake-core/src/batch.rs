//! The column profiling kernel: [`column_stats`] derives a column's
//! rendered domain, Ord-distinct cardinality, key-candidate flag, unified
//! type and null count from one strict sort over borrowed values.
//!
//! The row methods on [`Column`](crate::table::Column) walk the values
//! once per statistic and re-render every duplicate; this kernel renders
//! and type-unifies each distinct value exactly once. It is the one
//! production profiler: `lake-discovery`'s corpus calls it for every
//! column it profiles.
//!
//! ## Strict order (the byte-equality contract)
//!
//! `Value`'s total order deliberately treats some *representations* as
//! equal: `Int(3) == Float(3.0)`, `0.0 == -0.0`, and all NaNs compare
//! `Equal`. Deduplicating on that order would collapse values whose
//! observable behavior differs — `Int(3)` and `Float(3.0)` contribute
//! different [`DataType`]s to inference, and `0.0`/`-0.0` render
//! differently (`"0"` vs `"-0"`). The kernel therefore sorts by a
//! **strict** order ([`strict_value_cmp`]): primary [`Value::cmp`],
//! tie-broken by representation (`Int` before `Float`, floats by raw
//! bits). Ord-equal values stay *adjacent* under the strict order, so
//! Ord-distinct cardinality is a run count over the sorted values, and
//! every statistic computed here is byte-identical to the row methods.
//! `lake-discovery`'s corpus tests hold whole profiles to a row-path
//! oracle built from those methods.

#![deny(clippy::indexing_slicing)]

use crate::value::{DataType, Value};
use std::cmp::Ordering;

/// Code reserved for null cells in a dictionary-encoded page's row-order
/// code vector (`lake-formats`' columnar files).
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
    /// under them.
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
/// value clones — each distinct value is rendered and type-unified
/// exactly once, and the rendered strings are owned by the caller
/// (movable straight into a profile's domain set).
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Column;
    use std::collections::BTreeSet;

    /// The texts contract, spelled out: strict-sort the non-null values,
    /// drop strict-equal duplicates, render what is left.
    fn strict_texts(values: &[Value]) -> Vec<String> {
        let mut sorted: Vec<&Value> = values.iter().filter(|v| !v.is_null()).collect();
        sorted.sort_by(|a, b| strict_value_cmp(a, b));
        sorted.dedup_by(|a, b| strict_value_cmp(a, b) == Ordering::Equal);
        sorted.iter().map(|v| v.render()).collect()
    }

    fn check_matches_row_path(name: &str, values: Vec<Value>) {
        let col = Column { name: name.to_string(), values };
        // The kernel agrees with the row path on every statistic it
        // produces.
        let stats = column_stats(&col.values);
        assert_eq!(stats.texts, strict_texts(&col.values), "{name}: texts");
        assert_eq!(stats.cardinality, col.cardinality(), "{name}: stats cardinality");
        assert_eq!(stats.unique, col.is_unique(), "{name}: stats unique");
        assert_eq!(stats.dtype, col.inferred_type(), "{name}: stats dtype");
        assert_eq!(stats.null_count, col.null_count(), "{name}: stats nulls");
        assert_eq!(stats.rows, col.len(), "{name}: stats rows");
        let domain: BTreeSet<String> = stats.texts.into_iter().collect();
        assert_eq!(domain, col.text_domain(), "{name}: domain");
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
        // strict entries: dtype unification and exact numeric bits
        // depend on the representation.
        check_matches_row_path(
            "mixed",
            vec![Value::Int(3), Value::Float(3.0), Value::Int(3), Value::Float(2.5)],
        );
        let vs = [Value::Int(3), Value::Float(3.0)];
        assert_eq!(strict_value_cmp(&vs[0], &vs[1]), Ordering::Less, "strict-distinct");
        let stats = column_stats(&vs);
        assert_eq!(stats.texts.len(), 2, "strict-distinct entries");
        assert_eq!(stats.cardinality, 1, "Ord-distinct cardinality");
        assert_eq!(stats.dtype, DataType::Float);
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
        let vs = [Value::Float(0.0), Value::Float(-0.0)];
        assert_ne!(strict_value_cmp(&vs[0], &vs[1]), Ordering::Equal, "strict-distinct");
        let stats = column_stats(&vs);
        assert_eq!(stats.texts.len(), 2);
        // "0" and "-0" are different rendered domain elements.
        assert_eq!(stats.texts.iter().collect::<BTreeSet<_>>().len(), 2);
        assert_eq!(stats.cardinality, 1);
        assert!(!stats.unique, "0.0 and -0.0 are Ord-equal, not unique");
    }

    #[test]
    fn strict_order_keeps_ord_equal_entries_adjacent() {
        let mut vs = vec![
            Value::Float(3.0),
            Value::Int(3),
            Value::Float(2.5),
            Value::Int(4),
            Value::Float(3.0),
        ];
        // `Value`'s `PartialEq` is Ord equality, so compare the
        // representations by their debug form.
        vs.sort_by(strict_value_cmp);
        let order: Vec<String> = vs.iter().map(|v| format!("{v:?}")).collect();
        assert_eq!(order, ["Float(2.5)", "Int(3)", "Float(3.0)", "Float(3.0)", "Int(4)"]);
        // Strict-equal duplicates fold into one text; the Ord-equal
        // Int(3)/Float(3.0) run counts once.
        let stats = column_stats(&vs);
        assert_eq!(stats.texts, ["2.5", "3", "3", "4"]);
        assert_eq!(stats.cardinality, 3);
    }
}
