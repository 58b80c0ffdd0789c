//! Relaxed functional dependency discovery (Constance, §6.4.2).
//!
//! "The relaxed functional dependencies are relaxed in the sense that they
//! do not apply to all tuples of a relation, or that similar attribute
//! values are also considered to be matched. Such dependencies provide
//! insights that specific attributes functionally depend on some other
//! attributes in a loose manner, which apply to the ingested datasets even
//! though they have a certain percentage of inconsistent tuples."
//!
//! An RFD `X ⇝ Y` holds with confidence `c` when, after grouping rows by
//! the (canonicalized) value of X, a fraction `c` of rows agree with their
//! group's majority Y value. Canonicalization (trim + lowercase) is the
//! "similar values match" relaxation.

use lake_core::{Table, Value};
use std::collections::HashMap;

/// A discovered relaxed functional dependency on one table.
#[derive(Debug, Clone, PartialEq)]
pub struct Rfd {
    /// Determinant column index.
    pub lhs: usize,
    /// Dependent column index.
    pub rhs: usize,
    /// Fraction of rows consistent with the dependency.
    pub confidence: f64,
}

fn canon(v: &Value) -> String {
    v.render().trim().to_lowercase()
}

/// Confidence of `lhs ⇝ rhs` on `table` (1.0 = exact FD). Null-valued
/// determinants are skipped (they determine nothing).
pub fn rfd_confidence(table: &Table, lhs: usize, rhs: usize) -> f64 {
    let lcol = &table.columns()[lhs].values;
    let rcol = &table.columns()[rhs].values;
    let mut groups: HashMap<String, HashMap<String, usize>> = HashMap::new();
    let mut total = 0usize;
    for (l, r) in lcol.iter().zip(rcol) {
        if l.is_null() {
            continue;
        }
        total += 1;
        *groups
            .entry(canon(l))
            .or_default()
            .entry(canon(r))
            .or_insert(0) += 1;
    }
    if total == 0 {
        return 0.0;
    }
    let consistent: usize = groups
        .values()
        .map(|dist| dist.values().copied().max().unwrap_or(0))
        .sum();
    consistent as f64 / total as f64
}

/// Discover all single-column RFDs with confidence in
/// `[min_confidence, 1.0]`. Pairs where the determinant is a key
/// (trivially functional) can optionally be excluded.
pub fn discover_rfds(table: &Table, min_confidence: f64, skip_keys: bool) -> Vec<Rfd> {
    let mut out = Vec::new();
    for lhs in 0..table.num_columns() {
        if skip_keys && table.columns()[lhs].is_unique() {
            continue;
        }
        for rhs in 0..table.num_columns() {
            if lhs == rhs {
                continue;
            }
            let confidence = rfd_confidence(table, lhs, rhs);
            if confidence >= min_confidence {
                out.push(Rfd { lhs, rhs, confidence });
            }
        }
    }
    out.sort_by(|a, b| b.confidence.total_cmp(&a.confidence));
    out
}

/// Row indexes violating `rfd` (rows disagreeing with their group's
/// majority dependent value) — the data-cleaning hook of §6.5.1.
pub fn violations(table: &Table, rfd: &Rfd) -> Vec<usize> {
    let lcol = &table.columns()[rfd.lhs].values;
    let rcol = &table.columns()[rfd.rhs].values;
    let mut groups: HashMap<String, HashMap<String, usize>> = HashMap::new();
    for (l, r) in lcol.iter().zip(rcol) {
        if l.is_null() {
            continue;
        }
        *groups
            .entry(canon(l))
            .or_default()
            .entry(canon(r))
            .or_insert(0) += 1;
    }
    let majority: HashMap<String, String> = groups
        .into_iter()
        .map(|(k, dist)| {
            let best = dist
                .into_iter()
                .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
                .map(|(v, _)| v)
                .unwrap_or_default();
            (k, best)
        })
        .collect();
    (0..table.num_rows())
        .filter(|&i| {
            let l = &lcol[i];
            !l.is_null() && majority.get(&canon(l)).is_some_and(|m| m != &canon(&rcol[i]))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// city → country holds except one typo'd row.
    fn table() -> Table {
        Table::from_rows(
            "t",
            &["city", "country", "x"],
            vec![
                vec![Value::str("delft"), Value::str("nl"), Value::Int(1)],
                vec![Value::str("delft"), Value::str("nl"), Value::Int(2)],
                vec![Value::str("Delft "), Value::str("nl"), Value::Int(3)],
                vec![Value::str("paris"), Value::str("fr"), Value::Int(4)],
                vec![Value::str("paris"), Value::str("de"), Value::Int(5)], // error
                vec![Value::str("paris"), Value::str("fr"), Value::Int(6)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn confidence_counts_majority_agreement() {
        let t = table();
        let c = rfd_confidence(&t, 0, 1);
        assert!((c - 5.0 / 6.0).abs() < 1e-9, "{c}");
        // Reverse direction is weaker: nl→delft (3/3 via canon), fr→paris (2/2), de→paris(1).
        let rev = rfd_confidence(&t, 1, 0);
        assert!(rev > 0.9);
    }

    #[test]
    fn canonicalization_is_the_relaxation() {
        // "Delft " matches "delft" thanks to trim+lowercase.
        let t = table();
        let c = rfd_confidence(&t, 0, 1);
        assert!(c > 0.8);
    }

    #[test]
    fn discovery_finds_relaxed_dependency() {
        let t = table();
        let rfds = discover_rfds(&t, 0.8, true);
        assert!(rfds.iter().any(|r| r.lhs == 0 && r.rhs == 1));
        // x is a key and excluded as determinant.
        assert!(!rfds.iter().any(|r| r.lhs == 2));
        // Strict threshold excludes the noisy pair.
        let strict = discover_rfds(&t, 0.99, true);
        assert!(!strict.iter().any(|r| r.lhs == 0 && r.rhs == 1));
    }

    #[test]
    fn violations_point_at_erroneous_rows() {
        let t = table();
        let rfd = Rfd { lhs: 0, rhs: 1, confidence: 5.0 / 6.0 };
        assert_eq!(violations(&t, &rfd), vec![4]);
    }

    #[test]
    fn null_determinants_are_ignored() {
        let t = Table::from_rows(
            "n",
            &["a", "b"],
            vec![
                vec![Value::Null, Value::str("x")],
                vec![Value::str("k"), Value::str("y")],
            ],
        )
        .unwrap();
        assert_eq!(rfd_confidence(&t, 0, 1), 1.0);
        assert!(violations(&t, &Rfd { lhs: 0, rhs: 1, confidence: 1.0 }).is_empty());
    }

    #[test]
    fn empty_table_confidence_zero() {
        let t = Table::from_rows("e", &["a", "b"], vec![]).unwrap();
        assert_eq!(rfd_confidence(&t, 0, 1), 0.0);
    }
}
