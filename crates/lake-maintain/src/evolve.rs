//! Schema evolution: uncovering the evolution history of data lakes
//! (Klettke et al., §6.6).
//!
//! "The proposed approach first extracts each entity type from loaded
//! datasets, with assigned timestamps that indicate its residing time
//! interval. Then from different structure versions of the entity types,
//! it detects the possible operations between two consecutive versions. In
//! the case of multiple alternative operations, users will make the final
//! validation. … an algorithm is proposed to detect k-ary inclusion
//! dependencies" (NoSQL schemata being less normalized than relational).

use lake_core::{DataType, Json, Schema};
use std::collections::{BTreeMap, BTreeSet};

/// One structural version of an entity type.
#[derive(Debug, Clone, PartialEq)]
pub struct EntityVersion {
    /// Logical timestamp of the first batch exhibiting this structure.
    pub since: u64,
    /// Property name → inferred scalar type.
    pub properties: BTreeMap<String, DataType>,
}

/// A detected schema-change operation between two consecutive versions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemaOp {
    /// A property appeared.
    AddProperty(String),
    /// A property disappeared.
    RemoveProperty(String),
    /// A property changed type.
    ChangeType {
        /// Property name.
        property: String,
        /// Old type name.
        from: String,
        /// New type name.
        to: String,
    },
    /// A remove+add pair that *may* be a rename (same type); flagged for
    /// user validation, as the paper prescribes for ambiguous cases.
    MaybeRename {
        /// Removed name.
        from: String,
        /// Added name.
        to: String,
    },
}

/// The evolution history of one entity type.
#[derive(Debug, Clone, Default)]
pub struct EvolutionHistory {
    /// Versions in chronological order.
    pub versions: Vec<EntityVersion>,
}

/// Extract the property structure of a batch of documents (the "entity
/// type" of the batch): union of flattened top-level scalar paths.
pub fn entity_type_of(docs: &[Json]) -> BTreeMap<String, DataType> {
    let mut props: BTreeMap<String, DataType> = BTreeMap::new();
    for d in docs {
        for (path, v) in d.flatten() {
            let t = v.data_type();
            props
                .entry(path)
                .and_modify(|old| *old = old.unify(t))
                .or_insert(t);
        }
    }
    props
}

impl EvolutionHistory {
    /// Ingest a batch at `tick`; a new version is recorded only when the
    /// structure changed.
    pub fn ingest(&mut self, tick: u64, docs: &[Json]) {
        let props = entity_type_of(docs);
        if self.versions.last().map(|v| &v.properties) != Some(&props) {
            self.versions.push(EntityVersion { since: tick, properties: props });
        }
    }

    /// Detected operations between consecutive versions `i` and `i+1`.
    pub fn operations(&self, i: usize) -> Vec<SchemaOp> {
        let (Some(a), Some(b)) = (self.versions.get(i), self.versions.get(i + 1)) else {
            return Vec::new();
        };
        diff_versions(&a.properties, &b.properties)
    }
}

/// Diff two property maps into schema operations, pairing same-typed
/// removals/additions as candidate renames.
pub fn diff_versions(
    old: &BTreeMap<String, DataType>,
    new: &BTreeMap<String, DataType>,
) -> Vec<SchemaOp> {
    let mut ops = Vec::new();
    let removed: Vec<&String> = old.keys().filter(|k| !new.contains_key(*k)).collect();
    let added: Vec<&String> = new.keys().filter(|k| !old.contains_key(*k)).collect();
    let mut consumed_added: BTreeSet<&String> = BTreeSet::new();
    let mut consumed_removed: BTreeSet<&String> = BTreeSet::new();
    // Candidate renames: unique type match between a removal and addition.
    for r in &removed {
        let rtype = old[*r];
        let candidates: Vec<&&String> = added
            .iter()
            .filter(|a| new[**a] == rtype && !consumed_added.contains(**a))
            .collect();
        if candidates.len() == 1 {
            let a = *candidates[0];
            ops.push(SchemaOp::MaybeRename { from: (*r).clone(), to: a.clone() });
            consumed_added.insert(a);
            consumed_removed.insert(*r);
        }
    }
    for r in removed {
        if !consumed_removed.contains(r) {
            ops.push(SchemaOp::RemoveProperty(r.clone()));
        }
    }
    for a in added {
        if !consumed_added.contains(a) {
            ops.push(SchemaOp::AddProperty(a.clone()));
        }
    }
    for (k, t) in old {
        if let Some(nt) = new.get(k) {
            if nt != t {
                ops.push(SchemaOp::ChangeType {
                    property: k.clone(),
                    from: t.name().to_string(),
                    to: nt.name().to_string(),
                });
            }
        }
    }
    ops
}

/// A k-ary inclusion dependency: the value combinations of `from`'s
/// columns are contained in those of `to`'s columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InclusionDependency {
    /// Source schema name and its k columns.
    pub from: (String, Vec<String>),
    /// Target schema name and its k columns.
    pub to: (String, Vec<String>),
    /// Arity.
    pub k: usize,
}

/// Detect k-ary (k ∈ {1, 2}) inclusion dependencies among named tables.
pub fn detect_inclusion_dependencies(
    tables: &[&lake_core::Table],
    max_k: usize,
) -> Vec<InclusionDependency> {
    let mut out = Vec::new();
    // Precompute value sets for all 1- and 2-column combos.
    type Combo = (usize, Vec<String>, BTreeSet<Vec<String>>);
    let mut combos: Vec<Combo> = Vec::new();
    for (ti, t) in tables.iter().enumerate() {
        let n = t.num_columns();
        for a in 0..n {
            let vals: BTreeSet<Vec<String>> = (0..t.num_rows())
                .filter(|&r| !t.columns()[a].values[r].is_null())
                .map(|r| vec![t.columns()[a].values[r].render()])
                .collect();
            combos.push((ti, vec![t.columns()[a].name.clone()], vals));
            if max_k >= 2 {
                for b in 0..n {
                    if a == b {
                        continue;
                    }
                    let vals: BTreeSet<Vec<String>> = (0..t.num_rows())
                        .filter(|&r| {
                            !t.columns()[a].values[r].is_null()
                                && !t.columns()[b].values[r].is_null()
                        })
                        .map(|r| {
                            vec![
                                t.columns()[a].values[r].render(),
                                t.columns()[b].values[r].render(),
                            ]
                        })
                        .collect();
                    combos.push((
                        ti,
                        vec![t.columns()[a].name.clone(), t.columns()[b].name.clone()],
                        vals,
                    ));
                }
            }
        }
    }
    for (i, (ti, cols_i, vals_i)) in combos.iter().enumerate() {
        if vals_i.is_empty() {
            continue;
        }
        for (j, (tj, cols_j, vals_j)) in combos.iter().enumerate() {
            if i == j || ti == tj || cols_i.len() != cols_j.len() {
                continue;
            }
            if vals_i.is_subset(vals_j) {
                out.push(InclusionDependency {
                    from: (tables[*ti].name.clone(), cols_i.clone()),
                    to: (tables[*tj].name.clone(), cols_j.clone()),
                    k: cols_i.len(),
                });
            }
        }
    }
    out
}

/// Convenience: schema fingerprint history from tabular batches (the
/// relational flavour of evolution tracking).
pub fn schema_history(batches: &[Schema]) -> Vec<u64> {
    let mut out = Vec::new();
    for s in batches {
        let fp = s.fingerprint();
        if out.last() != Some(&fp) {
            out.push(fp);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lake_formats::json::parse;

    fn batch(src: &[&str]) -> Vec<Json> {
        src.iter().map(|s| parse(s).unwrap()).collect()
    }

    #[test]
    fn versions_recorded_only_on_change() {
        let mut h = EvolutionHistory::default();
        h.ingest(1, &batch(&[r#"{"id": 1, "name": "a"}"#]));
        h.ingest(2, &batch(&[r#"{"id": 2, "name": "b"}"#]));
        h.ingest(3, &batch(&[r#"{"id": 3, "name": "c", "email": "x"}"#]));
        assert_eq!(h.versions.len(), 2);
        assert_eq!(h.versions[1].since, 3);
    }

    #[test]
    fn operations_detect_add_remove_typechange() {
        let mut h = EvolutionHistory::default();
        h.ingest(1, &batch(&[r#"{"id": 1, "age": 3, "tag": "x"}"#]));
        h.ingest(2, &batch(&[r#"{"id": 1, "age": "three", "city": "delft"}"#]));
        let ops = h.operations(0);
        assert!(ops.contains(&SchemaOp::ChangeType {
            property: "age".into(),
            from: "int".into(),
            to: "str".into()
        }));
        // tag (str) removed, city (str) added → candidate rename.
        assert!(ops.contains(&SchemaOp::MaybeRename { from: "tag".into(), to: "city".into() }));
    }

    #[test]
    fn ambiguous_renames_fall_back_to_add_remove() {
        let old = entity_type_of(&batch(&[r#"{"a": "x", "b": "y"}"#]));
        let new = entity_type_of(&batch(&[r#"{"c": "x", "d": "y"}"#]));
        // Two same-typed removals and additions: ambiguous → no rename.
        let ops = diff_versions(&old, &new);
        assert!(ops.iter().all(|o| !matches!(o, SchemaOp::MaybeRename { .. })));
        assert_eq!(
            ops.iter().filter(|o| matches!(o, SchemaOp::AddProperty(_))).count(),
            2
        );
        assert_eq!(
            ops.iter().filter(|o| matches!(o, SchemaOp::RemoveProperty(_))).count(),
            2
        );
    }

    #[test]
    fn nested_paths_participate() {
        let mut h = EvolutionHistory::default();
        h.ingest(1, &batch(&[r#"{"addr": {"city": "delft"}}"#]));
        h.ingest(2, &batch(&[r#"{"addr": {"city": "delft", "zip": 2628}}"#]));
        let ops = h.operations(0);
        assert_eq!(ops, vec![SchemaOp::AddProperty("addr.zip".into())]);
    }

    #[test]
    fn unary_and_binary_inclusion_dependencies() {
        use lake_core::{Table, Value};
        let orders = Table::from_rows(
            "orders",
            &["cust", "prod"],
            vec![
                vec![Value::str("c1"), Value::str("p1")],
                vec![Value::str("c2"), Value::str("p1")],
            ],
        )
        .unwrap();
        let master = Table::from_rows(
            "master",
            &["cust", "prod", "extra"],
            vec![
                vec![Value::str("c1"), Value::str("p1"), Value::Int(1)],
                vec![Value::str("c2"), Value::str("p1"), Value::Int(2)],
                vec![Value::str("c3"), Value::str("p2"), Value::Int(3)],
            ],
        )
        .unwrap();
        let inds = detect_inclusion_dependencies(&[&orders, &master], 2);
        // orders.cust ⊆ master.cust (unary).
        assert!(inds.iter().any(|d| d.k == 1
            && d.from == ("orders".to_string(), vec!["cust".to_string()])
            && d.to == ("master".to_string(), vec!["cust".to_string()])));
        // (cust, prod) binary inclusion.
        assert!(inds.iter().any(|d| d.k == 2
            && d.from.0 == "orders"
            && d.from.1 == vec!["cust".to_string(), "prod".to_string()]
            && d.to.0 == "master"));
        // master.cust ⊄ orders.cust.
        assert!(!inds.iter().any(|d| d.from.0 == "master"
            && d.to.0 == "orders"
            && d.from.1 == vec!["cust".to_string()]));
    }

    #[test]
    fn schema_fingerprint_history_dedupes() {
        use lake_core::{Field, Schema};
        let s1: Schema = vec![Field::new("a", DataType::Int)].into_iter().collect();
        let s2: Schema = vec![Field::new("a", DataType::Int), Field::new("b", DataType::Str)]
            .into_iter()
            .collect();
        let hist = schema_history(&[s1.clone(), s1.clone(), s2.clone(), s2]);
        assert_eq!(hist.len(), 2);
    }
}
