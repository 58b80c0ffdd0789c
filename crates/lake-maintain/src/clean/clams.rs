//! CLAMS: bringing quality to data lakes with discovered denial
//! constraints (§6.5.1).
//!
//! "Given the RDF triples, a conditional denial constraint specifies a set
//! of negation conditions about the tuples. The proposed approach
//! automatically detects such constraints … It examines the triples
//! violating the obtained constraints and uses them to build a hypergraph,
//! which indicates the number of constraints violated by each triple.
//! Then, it accordingly ranks the RDF triples and asks the user to
//! validate whether such a candidate dirty triple should be removed."
//!
//! Pipeline: tables are viewed as RDF triples `(row, column, value)`;
//! constraints are inferred from the data (here: high-confidence relaxed
//! FDs as equality denial constraints, plus type-uniformity constraints);
//! violations form a hypergraph whose per-triple violation degree ranks
//! the review queue.

use crate::enrich::rfd::{discover_rfds, violations, Rfd};
use lake_core::{DataType, Table};
use std::collections::BTreeMap;

/// An RDF-ish triple view of one table cell.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct CellTriple {
    /// Row index (the subject).
    pub row: usize,
    /// Column name (the predicate).
    pub column: String,
    /// Rendered value (the object).
    pub value: String,
}

/// A discovered denial constraint.
#[derive(Debug, Clone, PartialEq)]
pub enum DenialConstraint {
    /// ¬(t.lhs = u.lhs ∧ t.rhs ≠ u.rhs): the FD `lhs → rhs` must hold
    /// (discovered as a high-confidence RFD).
    FunctionalEquality(Rfd),
    /// ¬(typeof(t.col) ≠ dominant_type): a column's values must share its
    /// dominant type (mixed-type cells are suspicious in raw CSVs).
    TypeUniformity {
        /// Column index.
        column: usize,
        /// The dominant type.
        dominant: DataType,
    },
}

/// The CLAMS analysis of one table.
#[derive(Debug, Clone)]
pub struct ClamsReport {
    /// Discovered constraints.
    pub constraints: Vec<DenialConstraint>,
    /// Violation hypergraph: triple → indexes of violated constraints.
    pub hypergraph: BTreeMap<CellTriple, Vec<usize>>,
    /// Review queue: triples ranked by violation degree (desc).
    pub review_queue: Vec<(CellTriple, usize)>,
}

/// Run CLAMS: infer constraints with the given RFD confidence threshold,
/// then rank violating triples.
pub fn analyze(table: &Table, min_rfd_confidence: f64) -> ClamsReport {
    let mut constraints: Vec<DenialConstraint> = Vec::new();
    // Functional denial constraints from confident RFDs.
    for rfd in discover_rfds(table, min_rfd_confidence, true) {
        if rfd.confidence < 1.0 {
            constraints.push(DenialConstraint::FunctionalEquality(rfd));
        }
    }
    // Type-uniformity constraints for columns with a dominant type.
    for (ci, col) in table.columns().iter().enumerate() {
        let mut counts: BTreeMap<DataType, usize> = BTreeMap::new();
        for v in &col.values {
            if !v.is_null() {
                *counts.entry(v.data_type()).or_insert(0) += 1;
            }
        }
        if counts.len() < 2 {
            continue;
        }
        if let Some((&dominant, &n)) = counts.iter().max_by_key(|&(_, &n)| n) {
            let total: usize = counts.values().sum();
            if n * 10 >= total * 8 {
                constraints.push(DenialConstraint::TypeUniformity { column: ci, dominant });
            }
        }
    }

    // Violations → hypergraph.
    let mut hypergraph: BTreeMap<CellTriple, Vec<usize>> = BTreeMap::new();
    for (k, c) in constraints.iter().enumerate() {
        match c {
            DenialConstraint::FunctionalEquality(rfd) => {
                for row in violations(table, rfd) {
                    let col = &table.columns()[rfd.rhs];
                    let t = CellTriple {
                        row,
                        column: col.name.clone(),
                        value: col.values[row].render(),
                    };
                    hypergraph.entry(t).or_default().push(k);
                }
            }
            DenialConstraint::TypeUniformity { column, dominant } => {
                let col = &table.columns()[*column];
                for (row, v) in col.values.iter().enumerate() {
                    if !v.is_null() && v.data_type() != *dominant {
                        let t = CellTriple {
                            row,
                            column: col.name.clone(),
                            value: v.render(),
                        };
                        hypergraph.entry(t).or_default().push(k);
                    }
                }
            }
        }
    }
    let mut review_queue: Vec<(CellTriple, usize)> = hypergraph
        .iter()
        .map(|(t, ks)| (t.clone(), ks.len()))
        .collect();
    review_queue.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    ClamsReport { constraints, hypergraph, review_queue }
}

/// Apply user validation: remove the rows of confirmed-dirty triples.
pub fn remove_confirmed(table: &Table, confirmed: &[CellTriple]) -> Table {
    let dirty_rows: Vec<usize> = confirmed.iter().map(|t| t.row).collect();
    let mut i = 0;
    table.filter(|_| {
        let keep = !dirty_rows.contains(&i);
        i += 1;
        keep
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lake_core::Value;

    /// city→country with one violation; "pop" has one stray string.
    fn dirty() -> Table {
        Table::from_rows(
            "cities",
            &["city", "country", "pop"],
            vec![
                vec![Value::str("delft"), Value::str("nl"), Value::Int(100)],
                vec![Value::str("delft"), Value::str("nl"), Value::Int(101)],
                vec![Value::str("delft"), Value::str("nl"), Value::Int(99)],
                vec![Value::str("paris"), Value::str("fr"), Value::Int(500)],
                vec![Value::str("paris"), Value::str("fr"), Value::str("n/a?")],
                vec![Value::str("paris"), Value::str("xx"), Value::Int(502)], // dirty
                vec![Value::str("rome"), Value::str("it"), Value::Int(300)],
                vec![Value::str("rome"), Value::str("it"), Value::Int(301)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn discovers_both_constraint_kinds() {
        let report = analyze(&dirty(), 0.8);
        assert!(report
            .constraints
            .iter()
            .any(|c| matches!(c, DenialConstraint::FunctionalEquality(r) if r.lhs == 0 && r.rhs == 1)));
        assert!(report
            .constraints
            .iter()
            .any(|c| matches!(c, DenialConstraint::TypeUniformity { column: 2, dominant: DataType::Int })));
    }

    #[test]
    fn review_queue_surfaces_planted_errors() {
        let report = analyze(&dirty(), 0.8);
        assert!(!report.review_queue.is_empty());
        let flagged_rows: Vec<usize> = report.review_queue.iter().map(|(t, _)| t.row).collect();
        assert!(flagged_rows.contains(&5), "FD violation row flagged");
        assert!(flagged_rows.contains(&4), "type anomaly row flagged");
        // Clean rows are not in the queue.
        assert!(!flagged_rows.contains(&0));
    }

    #[test]
    fn user_confirmation_removes_rows() {
        let t = dirty();
        let report = analyze(&t, 0.8);
        let confirmed: Vec<CellTriple> =
            report.review_queue.iter().map(|(t, _)| t.clone()).collect();
        let cleaned = remove_confirmed(&t, &confirmed);
        assert_eq!(cleaned.num_rows(), 6);
        let report2 = analyze(&cleaned, 0.8);
        assert!(report2.review_queue.is_empty(), "{:?}", report2.review_queue);
    }

    #[test]
    fn clean_table_yields_empty_queue() {
        let t = Table::from_rows(
            "ok",
            &["a", "b"],
            vec![
                vec![Value::str("x"), Value::Int(1)],
                vec![Value::str("y"), Value::Int(2)],
            ],
        )
        .unwrap();
        let report = analyze(&t, 0.8);
        assert!(report.review_queue.is_empty());
    }
}
