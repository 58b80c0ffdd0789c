//! KAYAK's time-to-insight previews (§6.1.3: "Crossing the finish line
//! faster when paddling the data lake with KAYAK" — just-in-time data
//! preparation).
//!
//! KAYAK's insight is that users should not wait for full profiling
//! before seeing *something*: an approximate preview computed on a sample
//! arrives immediately, while the exact atomic tasks run behind it in the
//! task-dependency DAG. [`quick_profile`] is the sample-based preview;
//! [`full_profile`] is the exact version; they share a schema so the UI
//! can swap one for the other when the DAG finishes.

use lake_core::stats::NumericSummary;
use lake_core::Table;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeSet;

/// One column's (possibly approximate) profile.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnPreview {
    /// Column name.
    pub name: String,
    /// Estimated fraction of nulls.
    pub null_fraction: f64,
    /// Distinct values observed (a lower bound under sampling).
    pub distinct_at_least: usize,
    /// Numeric summary of observed values, when numeric.
    pub numeric: Option<NumericSummary>,
}

/// A table profile, flagged approximate or exact.
#[derive(Debug, Clone, PartialEq)]
pub struct TableProfile {
    /// Table name.
    pub table: String,
    /// Rows inspected.
    pub rows_inspected: usize,
    /// Total rows in the table.
    pub rows_total: usize,
    /// `true` when computed on a sample.
    pub approximate: bool,
    /// Per-column previews.
    pub columns: Vec<ColumnPreview>,
}

fn profile_rows(table: &Table, rows: &[usize], approximate: bool) -> TableProfile {
    let columns = table
        .columns()
        .iter()
        .map(|col| {
            let mut nulls = 0usize;
            let mut distinct: BTreeSet<String> = BTreeSet::new();
            let mut numeric: Vec<f64> = Vec::new();
            for &r in rows {
                let v = &col.values[r];
                if v.is_null() {
                    nulls += 1;
                } else {
                    distinct.insert(v.render());
                    if let Some(f) = v.as_f64() {
                        numeric.push(f);
                    }
                }
            }
            ColumnPreview {
                name: col.name.clone(),
                null_fraction: if rows.is_empty() { 0.0 } else { nulls as f64 / rows.len() as f64 },
                distinct_at_least: distinct.len(),
                numeric: NumericSummary::of(&numeric),
            }
        })
        .collect();
    TableProfile {
        table: table.name.clone(),
        rows_inspected: rows.len(),
        rows_total: table.num_rows(),
        approximate,
        columns,
    }
}

/// The instant preview: profile a uniform sample of at most `sample`
/// rows.
pub fn quick_profile(table: &Table, sample: usize, seed: u64) -> TableProfile {
    let n = table.num_rows();
    if n <= sample {
        return profile_rows(table, &(0..n).collect::<Vec<_>>(), false);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut idx: BTreeSet<usize> = BTreeSet::new();
    while idx.len() < sample {
        idx.insert(rng.random_range(0..n));
    }
    profile_rows(table, &idx.into_iter().collect::<Vec<_>>(), true)
}

/// The exact profile (what the DAG's atomic task computes).
pub fn full_profile(table: &Table) -> TableProfile {
    profile_rows(table, &(0..table.num_rows()).collect::<Vec<_>>(), false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lake_core::{Column, Value};

    fn big_table(rows: usize) -> Table {
        let mut rng = StdRng::seed_from_u64(3);
        let vals: Vec<Value> = (0..rows)
            .map(|_| {
                if rng.random_bool(0.2) {
                    Value::Null
                } else {
                    Value::Float(rng.random::<f64>() * 100.0)
                }
            })
            .collect();
        let cat: Vec<Value> = (0..rows)
            .map(|_| Value::str(["a", "b", "c", "d"][rng.random_range(0..4usize)]))
            .collect();
        Table::from_columns("big", vec![Column::new("x", vals), Column::new("cat", cat)]).unwrap()
    }

    #[test]
    fn preview_approximates_the_exact_profile() {
        let t = big_table(20_000);
        let quick = quick_profile(&t, 500, 1);
        let full = full_profile(&t);
        assert!(quick.approximate);
        assert!(!full.approximate);
        assert_eq!(quick.rows_inspected, 500);
        // Null fraction within sampling error.
        let qx = &quick.columns[0];
        let fx = &full.columns[0];
        assert!((qx.null_fraction - fx.null_fraction).abs() < 0.06, "{} vs {}", qx.null_fraction, fx.null_fraction);
        // Low-cardinality column: the sample sees the whole domain.
        assert_eq!(quick.columns[1].distinct_at_least, full.columns[1].distinct_at_least);
        // Numeric range approximated from inside.
        let (qn, fnm) = (qx.numeric.unwrap(), fx.numeric.unwrap());
        assert!(qn.min >= fnm.min && qn.max <= fnm.max);
        assert!((qn.mean - fnm.mean).abs() < 5.0);
    }

    #[test]
    fn small_tables_are_profiled_exactly() {
        let t = big_table(100);
        let p = quick_profile(&t, 500, 1);
        assert!(!p.approximate);
        assert_eq!(p, full_profile(&t));
    }

    #[test]
    fn distinct_is_a_lower_bound() {
        let t = big_table(5_000);
        let quick = quick_profile(&t, 200, 2);
        let full = full_profile(&t);
        assert!(quick.columns[0].distinct_at_least <= full.columns[0].distinct_at_least);
    }

    #[test]
    fn preview_is_cheaper_than_full_profile() {
        use lake_core::retry::{Clock, SystemClock};
        let t = big_table(200_000);
        let t0 = SystemClock.now_micros();
        let _ = quick_profile(&t, 500, 1);
        let t1 = SystemClock.now_micros();
        let _ = full_profile(&t);
        let t2 = SystemClock.now_micros();
        let (quick_us, full_us) = (t1 - t0, t2 - t1);
        assert!(
            quick_us * 10 < full_us,
            "preview {quick_us} µs should be ≫ faster than {full_us} µs"
        );
    }
}
