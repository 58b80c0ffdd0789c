//! ALITE: integrating data lake tables via holistic column alignment and
//! Full Disjunction (§6.3).
//!
//! "The method gathers results from top-k unionable and joinable queries
//! on datasets and applies holistic schema matching … it leverages
//! embeddings … and then applies hierarchical clustering in order to
//! obtain sets of columns that are related. Finally, based on the aligned
//! columns, it computes the Full Disjunction among discovered datasets in
//! an optimized way."
//!
//! * Column embeddings: bag encodings of header + sampled values (TURL
//!   stand-in per DESIGN.md).
//! * Alignment: threshold-cut agglomerative clustering on cosine distance.
//! * [`full_disjunction`]: associate tuples across tables on shared
//!   aligned attributes, keeping *maximal* combinations and subsuming
//!   partial tuples — the natural-outer-join generalization that, unlike
//!   a chain of binary outer joins, is associative and complete
//!   (experiment E12 demonstrates the difference).

use lake_core::{Column, Result, Table, Value};
use lake_index::embed::HashedNgramEncoder;
use lake_ml::cluster::agglomerative_by;

/// The alignment of source columns into integrated attributes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alignment {
    /// For each table, for each column: integrated attribute id.
    pub assignment: Vec<Vec<usize>>,
    /// Number of integrated attributes.
    pub num_attributes: usize,
    /// Display name per integrated attribute.
    pub names: Vec<String>,
}

/// Align columns across tables by embedding + agglomerative clustering.
pub fn align_columns(tables: &[&Table], cut: f64) -> Alignment {
    let enc = HashedNgramEncoder::new(64, 3);
    let mut flat: Vec<(usize, usize)> = Vec::new();
    let mut vecs: Vec<Vec<f64>> = Vec::new();
    for (ti, t) in tables.iter().enumerate() {
        for (ci, col) in t.columns().iter().enumerate() {
            flat.push((ti, ci));
            let values: Vec<String> = col.text_domain().into_iter().take(24).collect();
            let mut items: Vec<&str> = vec![col.name.as_str(), col.name.as_str()];
            items.extend(values.iter().map(String::as_str));
            vecs.push(enc.encode_bag(items));
        }
    }
    let clusters = agglomerative_by(&vecs, cut, |a, b| 1.0 - lake_core::stats::cosine(a, b));
    let num_attributes = clusters.iter().copied().max().map_or(0, |m| m + 1);
    let mut assignment: Vec<Vec<usize>> = tables.iter().map(|t| vec![0; t.num_columns()]).collect();
    let mut names = vec![String::new(); num_attributes];
    for (i, &(ti, ci)) in flat.iter().enumerate() {
        assignment[ti][ci] = clusters[i];
        if names[clusters[i]].is_empty() {
            names[clusters[i]] = tables[ti].columns()[ci].name.clone();
        }
    }
    Alignment { assignment, num_attributes, names }
}

/// A partial tuple over the integrated attributes (None = labeled null).
pub type PartialTuple = Vec<Option<Value>>;

/// Does `a` subsume `b` (agrees wherever `b` is non-null, and has at least
/// as many non-nulls)?
fn subsumes(a: &PartialTuple, b: &PartialTuple) -> bool {
    b.iter().zip(a).all(|(bv, av)| match (bv, av) {
        (None, _) => true,
        (Some(x), Some(y)) => x == y,
        (Some(_), None) => false,
    })
}

/// Can two partial tuples merge? They must agree on every attribute where
/// both are non-null, *and* share at least one non-null attribute value
/// (the join condition).
fn joinable(a: &PartialTuple, b: &PartialTuple) -> bool {
    let mut shared = false;
    for (x, y) in a.iter().zip(b) {
        match (x, y) {
            (Some(vx), Some(vy)) => {
                if vx != vy {
                    return false;
                }
                shared = true;
            }
            _ => {}
        }
    }
    shared
}

fn merge(a: &PartialTuple, b: &PartialTuple) -> PartialTuple {
    a.iter()
        .zip(b)
        .map(|(x, y)| x.clone().or_else(|| y.clone()))
        .collect()
}

/// Compute the Full Disjunction of `tables` under `alignment`.
///
/// Algorithm: map every source row to a partial tuple over the integrated
/// attributes; iteratively saturate the set with all pairwise merges of
/// joinable tuples until a fixpoint; drop tuples subsumed by another.
/// (ALITE's optimized algorithm computes the same result with complement
/// pruning; saturation keeps this implementation obviously correct at
/// laptop scale, and the bench measures its cost honestly.)
pub fn full_disjunction(tables: &[&Table], alignment: &Alignment) -> Result<Table> {
    let width = alignment.num_attributes;
    let mut tuples: Vec<PartialTuple> = Vec::new();
    for (ti, t) in tables.iter().enumerate() {
        for r in 0..t.num_rows() {
            let mut tup: PartialTuple = vec![None; width];
            for (ci, col) in t.columns().iter().enumerate() {
                let v = &col.values[r];
                if !v.is_null() {
                    tup[alignment.assignment[ti][ci]] = Some(v.clone());
                }
            }
            tuples.push(tup);
        }
    }
    // Saturate with merges.
    let mut changed = true;
    while changed {
        changed = false;
        let snapshot = tuples.clone();
        for i in 0..snapshot.len() {
            for j in i + 1..snapshot.len() {
                if joinable(&snapshot[i], &snapshot[j]) {
                    let m = merge(&snapshot[i], &snapshot[j]);
                    if !tuples.contains(&m) {
                        tuples.push(m);
                        changed = true;
                    }
                }
            }
        }
    }
    // Keep only maximal tuples.
    let mut keep: Vec<PartialTuple> = Vec::new();
    for (i, t) in tuples.iter().enumerate() {
        let dominated = tuples
            .iter()
            .enumerate()
            .any(|(j, o)| j != i && subsumes(o, t) && (!subsumes(t, o) || j < i));
        if !dominated {
            keep.push(t.clone());
        }
    }
    keep.sort();
    keep.dedup();

    let mut cols: Vec<Column> = alignment
        .names
        .iter()
        .map(|n| Column::new(n.clone(), Vec::new()))
        .collect();
    for tup in keep {
        for (c, v) in cols.iter_mut().zip(tup) {
            c.values.push(v.unwrap_or(Value::Null));
        }
    }
    Table::from_columns("full_disjunction", cols)
}

/// Baseline for E12: a left-deep chain of binary full outer joins on the
/// aligned attributes, which — unlike full disjunction — can lose
/// associations depending on the order.
pub fn outer_join_chain(tables: &[&Table], alignment: &Alignment) -> Result<Table> {
    let width = alignment.num_attributes;
    let mut acc: Vec<PartialTuple> = Vec::new();
    for (ti, t) in tables.iter().enumerate() {
        let mut incoming: Vec<PartialTuple> = Vec::new();
        for r in 0..t.num_rows() {
            let mut tup: PartialTuple = vec![None; width];
            for (ci, col) in t.columns().iter().enumerate() {
                let v = &col.values[r];
                if !v.is_null() {
                    tup[alignment.assignment[ti][ci]] = Some(v.clone());
                }
            }
            incoming.push(tup);
        }
        if ti == 0 {
            acc = incoming;
            continue;
        }
        let mut next = Vec::new();
        let mut matched_right = vec![false; incoming.len()];
        for a in &acc {
            let mut matched = false;
            for (ri, b) in incoming.iter().enumerate() {
                if joinable(a, b) {
                    next.push(merge(a, b));
                    matched = true;
                    matched_right[ri] = true;
                }
            }
            if !matched {
                next.push(a.clone());
            }
        }
        for (ri, b) in incoming.iter().enumerate() {
            if !matched_right[ri] {
                next.push(b.clone());
            }
        }
        acc = next;
    }
    let mut cols: Vec<Column> = alignment
        .names
        .iter()
        .map(|n| Column::new(n.clone(), Vec::new()))
        .collect();
    acc.sort();
    acc.dedup();
    for tup in acc {
        for (c, v) in cols.iter_mut().zip(tup) {
            c.values.push(v.unwrap_or(Value::Null));
        }
    }
    Table::from_columns("outer_join_chain", cols)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The classic FD example: R(a,b), S(b,c), T(c,a) — chained outer
    /// joins cannot recover all associations in every order.
    fn classic() -> (Vec<Table>, Alignment) {
        let r = Table::from_rows(
            "r",
            &["a", "b"],
            vec![vec![Value::str("a1"), Value::str("b1")]],
        )
        .unwrap();
        let s = Table::from_rows(
            "s",
            &["b", "c"],
            vec![vec![Value::str("b1"), Value::str("c1")]],
        )
        .unwrap();
        let t = Table::from_rows(
            "t",
            &["c", "a"],
            vec![vec![Value::str("c1"), Value::str("a2")]],
        )
        .unwrap();
        let alignment = Alignment {
            assignment: vec![vec![0, 1], vec![1, 2], vec![2, 0]],
            num_attributes: 3,
            names: vec!["a".into(), "b".into(), "c".into()],
        };
        (vec![r, s, t], alignment)
    }

    #[test]
    fn alignment_clusters_same_named_columns() {
        let t0 = Table::from_rows(
            "x",
            &["city", "price"],
            vec![vec![Value::str("delft"), Value::Float(1.0)]],
        )
        .unwrap();
        let t1 = Table::from_rows(
            "y",
            &["city", "price"],
            vec![vec![Value::str("delft"), Value::Float(2.0)]],
        )
        .unwrap();
        let refs = vec![&t0, &t1];
        let al = align_columns(&refs, 0.5);
        assert_eq!(al.assignment[0][0], al.assignment[1][0]);
        assert_eq!(al.assignment[0][1], al.assignment[1][1]);
        assert_ne!(al.assignment[0][0], al.assignment[0][1]);
        assert_eq!(al.num_attributes, 2);
    }

    #[test]
    fn full_disjunction_covers_every_source_tuple() {
        let (ts, al) = classic();
        let refs: Vec<&Table> = ts.iter().collect();
        let fd = full_disjunction(&refs, &al).unwrap();
        // Every source tuple is subsumed by some FD tuple.
        for (ti, t) in refs.iter().enumerate() {
            for r in 0..t.num_rows() {
                let mut tup: PartialTuple = vec![None; al.num_attributes];
                for (ci, col) in t.columns().iter().enumerate() {
                    tup[al.assignment[ti][ci]] = Some(col.values[r].clone());
                }
                let covered = fd.iter_rows().any(|row| {
                    tup.iter().enumerate().all(|(i, v)| match v {
                        None => true,
                        Some(x) => &row[i] == x,
                    })
                });
                assert!(covered, "source tuple {tup:?} lost");
            }
        }
    }

    #[test]
    fn full_disjunction_merges_transitive_associations() {
        let (ts, al) = classic();
        let refs: Vec<&Table> = ts.iter().collect();
        let fd = full_disjunction(&refs, &al).unwrap();
        // R⋈S gives (a1,b1,c1); T contributes (a2,_,c1) which joins on c1.
        let has_full = fd
            .iter_rows()
            .any(|row| row[1] == Value::str("b1") && row[2] == Value::str("c1"));
        assert!(has_full, "{fd}");
    }

    #[test]
    fn fd_is_at_least_as_complete_as_join_chain() {
        let (ts, al) = classic();
        let refs: Vec<&Table> = ts.iter().collect();
        let fd = full_disjunction(&refs, &al).unwrap();
        let chain = outer_join_chain(&refs, &al).unwrap();
        // Every non-null cell combination in the chain appears in FD.
        assert!(fd.num_rows() <= chain.num_rows() || fd.num_rows() >= 1);
        // FD never loses an association the chain found: every chain row
        // equals or is subsumed by (strictly contained in) some FD row.
        for row in chain.iter_rows() {
            let covered = fd.iter_rows().any(|frow| {
                row.iter().zip(&frow).all(|(c, f)| c.is_null() || c == f)
            });
            assert!(covered, "chain row {row:?} missing from FD");
        }
    }

    #[test]
    fn disjoint_tables_stack_without_merging() {
        let t0 = Table::from_rows("a", &["x"], vec![vec![Value::str("1")]]).unwrap();
        let t1 = Table::from_rows("b", &["y"], vec![vec![Value::str("2")]]).unwrap();
        let al = Alignment {
            assignment: vec![vec![0], vec![1]],
            num_attributes: 2,
            names: vec!["x".into(), "y".into()],
        };
        let refs = vec![&t0, &t1];
        let fd = full_disjunction(&refs, &al).unwrap();
        assert_eq!(fd.num_rows(), 2);
        assert!(fd.iter_rows().all(|r| r.iter().any(Value::is_null)));
    }
}
