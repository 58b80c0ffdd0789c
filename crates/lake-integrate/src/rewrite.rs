//! Constance-style query rewriting over integrated schemas (§6.3, §7.2).
//!
//! "With schema mappings Constance performs query rewriting and data
//! transformation in a polystore-based setting. It rewrites the input user
//! query (against the integrated schema) to subqueries (against source
//! schemata), executes the generated subqueries … retrieves the subquery
//! results. For the final integrated results it further resolves the data
//! type and value conflicts while merging the subquery results. It also
//! pushes down selection predicates to the data sources."

use crate::mapping::IntegratedSchema;
use lake_core::{Column, Result, Table, Value};
use lake_store::predicate::{self, Predicate};
use lake_store::relational::RelationalStore;

/// A query against the integrated schema.
#[derive(Debug, Clone)]
pub struct IntegratedQuery {
    /// Names of integrated attributes to project.
    pub select: Vec<String>,
    /// Predicates over integrated attribute names.
    pub filters: Vec<Predicate>,
}

/// One generated subquery (for inspection / the E9 experiment).
#[derive(Debug, Clone)]
pub struct Subquery {
    /// Source table name.
    pub table: String,
    /// Projected source columns.
    pub columns: Vec<String>,
    /// Predicates pushed down to the source (renamed to source columns).
    pub pushed: Vec<Predicate>,
}

/// Rewrite an integrated query into per-source subqueries.
///
/// A source participates when it provides *all* selected attributes and
/// all filtered attributes (partial-coverage sources would require joins,
/// which Constance's partial integration leaves to the discovery step).
pub fn rewrite(
    schema: &IntegratedSchema,
    table_names: &[&str],
    query: &IntegratedQuery,
) -> Result<Vec<Subquery>> {
    let mut select_idx = Vec::new();
    for name in &query.select {
        select_idx.push(
            schema
                .attribute_index(name)
                .ok_or_else(|| lake_core::LakeError::query(format!("unknown attribute {name}")))?,
        );
    }
    let mut filter_idx = Vec::new();
    for p in &query.filters {
        filter_idx.push(
            schema
                .attribute_index(&p.attribute)
                .ok_or_else(|| {
                    lake_core::LakeError::query(format!("unknown attribute {}", p.attribute))
                })?,
        );
    }
    let mut out = Vec::new();
    for (ti, tname) in table_names.iter().enumerate() {
        let mapping = schema.mapping_for(ti);
        let covers = select_idx
            .iter()
            .chain(&filter_idx)
            .all(|ai| mapping.bindings.contains_key(ai));
        if !covers {
            continue;
        }
        // We need source *column names*; the integrated schema stores
        // indexes, so the caller provides tables below at execution time.
        out.push(Subquery {
            table: tname.to_string(),
            columns: select_idx.iter().map(|ai| format!("#{}", mapping.bindings[ai])).collect(),
            pushed: query
                .filters
                .iter()
                .zip(&filter_idx)
                .map(|(p, ai)| Predicate {
                    attribute: format!("#{}", mapping.bindings[ai]),
                    op: p.op,
                    value: p.value.clone(),
                })
                .collect(),
        });
    }
    Ok(out)
}

/// Execute an integrated query against a relational store holding the
/// source tables; returns the merged, conflict-resolved result under the
/// integrated attribute names, plus the subqueries that ran.
pub fn execute(
    schema: &IntegratedSchema,
    store: &RelationalStore,
    table_names: &[&str],
    query: &IntegratedQuery,
    pushdown: bool,
) -> Result<(Table, Vec<Subquery>)> {
    let subqueries = rewrite(schema, table_names, query)?;
    let mut merged: Vec<Vec<Value>> = Vec::new();
    for sq in &subqueries {
        let src = store.get_table(&sq.table)?;
        // Resolve '#idx' placeholders to real column names.
        let col_name = |ph: &str| -> Result<&str> {
            let idx = ph.strip_prefix('#').and_then(|i| i.parse::<usize>().ok());
            idx.and_then(|i| src.columns().get(i)).map(|c| c.name.as_str()).ok_or_else(|| {
                lake_core::LakeError::query(format!("bad column placeholder {ph} for {}", sq.table))
            })
        };
        let columns: Vec<&str> = sq.columns.iter().map(|c| col_name(c)).collect::<Result<_>>()?;
        let preds: Vec<Predicate> = sq
            .pushed
            .iter()
            .map(|p| Ok(Predicate::new(col_name(&p.attribute)?, p.op, p.value.clone())))
            .collect::<Result<_>>()?;
        let rows = if pushdown {
            store.scan(&sq.table, &preds, Some(&columns))?
        } else {
            // Baseline: ship everything, filter at the mediator.
            let full = store.scan(&sq.table, &[], None)?;
            let hits = predicate::matching_rows(&full, &preds);
            Table::from_columns(full.name.clone(), predicate::gather(&full, &hits, Some(&columns)))?
        };
        merged.extend(rows.iter_rows());
    }
    // Conflict resolution: deduplicate identical tuples (same entity from
    // several sources).
    merged.sort();
    merged.dedup();
    let mut cols: Vec<Column> = query
        .select
        .iter()
        .map(|n| Column::new(n.clone(), Vec::new()))
        .collect();
    for row in merged {
        for (c, v) in cols.iter_mut().zip(row) {
            c.values.push(v);
        }
    }
    Ok((Table::from_columns("integrated", cols)?, subqueries))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matching::MatcherKind;
    use lake_store::predicate::CompareOp;

    fn setup() -> (IntegratedSchema, RelationalStore, Vec<String>) {
        let t0 = Table::from_rows(
            "eu_orders",
            &["customer_id", "city", "total"],
            vec![
                vec![Value::str("c1"), Value::str("delft"), Value::Float(10.0)],
                vec![Value::str("c2"), Value::str("paris"), Value::Float(90.0)],
            ],
        )
        .unwrap();
        let t1 = Table::from_rows(
            "us_orders",
            &["customerid", "city", "total"],
            vec![
                vec![Value::str("c9"), Value::str("austin"), Value::Float(70.0)],
                vec![Value::str("c1"), Value::str("delft"), Value::Float(10.0)],
            ],
        )
        .unwrap();
        let refs = vec![&t0, &t1];
        let schema = IntegratedSchema::build(&refs, MatcherKind::Hybrid, 0.4);
        let store = RelationalStore::new();
        store.create_table(t0.clone()).unwrap();
        store.create_table(t1.clone()).unwrap();
        (schema, store, vec!["eu_orders".to_string(), "us_orders".to_string()])
    }

    #[test]
    fn rewrite_produces_one_subquery_per_covering_source() {
        let (schema, _, names) = setup();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let q = IntegratedQuery {
            select: vec!["city".into(), "total".into()],
            filters: vec![Predicate::new("total", CompareOp::Gt, 50.0)],
        };
        let subs = rewrite(&schema, &refs, &q).unwrap();
        assert_eq!(subs.len(), 2);
        assert_eq!(subs[0].pushed.len(), 1);
    }

    #[test]
    fn execute_merges_and_deduplicates() {
        let (schema, store, names) = setup();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let q = IntegratedQuery {
            select: vec!["customer_id".into(), "city".into()],
            filters: vec![],
        };
        let (result, _) = execute(&schema, &store, &refs, &q, true).unwrap();
        // 4 source rows, one duplicate (c1, delft) collapses to 3.
        assert_eq!(result.num_rows(), 3);
        assert_eq!(result.columns()[0].name, "customer_id");
    }

    #[test]
    fn pushdown_and_mediator_filtering_agree() {
        let (schema, store, names) = setup();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let q = IntegratedQuery {
            select: vec!["customer_id".into(), "total".into()],
            filters: vec![Predicate::new("total", CompareOp::Gt, 50.0)],
        };
        let (with_push, _) = execute(&schema, &store, &refs, &q, true).unwrap();
        let (without, _) = execute(&schema, &store, &refs, &q, false).unwrap();
        assert_eq!(with_push, without);
        assert_eq!(with_push.num_rows(), 2);
    }

    #[test]
    fn unknown_attribute_is_an_error() {
        let (schema, store, names) = setup();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let q = IntegratedQuery { select: vec!["nope".into()], filters: vec![] };
        assert!(execute(&schema, &store, &refs, &q, true).is_err());
    }

    #[test]
    fn a_store_table_narrower_than_the_schema_is_a_query_error() {
        let (schema, store, names) = setup();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        // The schema was built over three columns; the store's copy has one.
        store.put_table(Table::from_rows("us_orders", &["customerid"], vec![]).unwrap());
        let q = IntegratedQuery {
            select: vec!["customer_id".into()],
            filters: vec![Predicate::new("total", CompareOp::Gt, 50.0)],
        };
        for pushdown in [true, false] {
            let r = execute(&schema, &store, &refs, &q, pushdown);
            assert!(matches!(r, Err(lake_core::LakeError::Query(_))), "{r:?}");
        }
    }

    #[test]
    fn non_covering_sources_are_skipped() {
        let t0 = Table::from_rows("a", &["x"], vec![vec![Value::Int(1)]]).unwrap();
        let t1 = Table::from_rows("b", &["y"], vec![vec![Value::Int(2)]]).unwrap();
        let refs_t = vec![&t0, &t1];
        let schema = IntegratedSchema::build(&refs_t, MatcherKind::Name, 0.5);
        let subs = rewrite(
            &schema,
            &["a", "b"],
            &IntegratedQuery { select: vec!["x".into()], filters: vec![] },
        )
        .unwrap();
        assert_eq!(subs.len(), 1);
        assert_eq!(subs[0].table, "a");
    }
}
