//! Data Vault modeling for data lakes (§5.2.2).
//!
//! "It has three main element types: *hubs* representing business
//! concepts, *links* indicating the many-to-many relationships among hubs,
//! and *satellites* with descriptive properties of hubs and links."
//! Nogueira et al. show the conceptual model transforms into relational
//! logical/physical models; [`DataVault::materialize_relational`] performs
//! that transformation (hub/link/satellite tables with hash keys), and
//! [`vault_from_tables`] derives a vault from raw tables the way the
//! Giebler et al. case studies do: unique key columns become hubs,
//! co-occurrence of two hub keys in one table becomes a link, remaining
//! attributes become satellites.

use lake_core::value::fnv1a;
use lake_core::{Column, LakeError, Result, Table, Value};

/// A hub: one business concept, identified by its business key.
#[derive(Debug, Clone, PartialEq)]
pub struct Hub {
    /// Concept name (e.g. `customer`).
    pub name: String,
    /// Business-key attribute name.
    pub business_key: String,
    /// Distinct business-key values observed.
    pub keys: Vec<Value>,
}

/// A link: a many-to-many relationship between two hubs.
#[derive(Debug, Clone, PartialEq)]
pub struct Link {
    /// Link name (e.g. `customer_order`).
    pub name: String,
    /// Names of the linked hubs.
    pub hubs: (String, String),
    /// Observed key pairs.
    pub pairs: Vec<(Value, Value)>,
}

/// A satellite: descriptive attributes of one hub.
#[derive(Debug, Clone, PartialEq)]
pub struct Satellite {
    /// Satellite name (e.g. `customer_details_orders`).
    pub name: String,
    /// Owning hub.
    pub hub: String,
    /// Descriptive attribute names.
    pub attributes: Vec<String>,
    /// Rows: business key + attribute values + load source.
    pub rows: Vec<(Value, Vec<Value>, String)>,
}

/// A data vault.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DataVault {
    /// Hubs by insertion order.
    pub hubs: Vec<Hub>,
    /// Links.
    pub links: Vec<Link>,
    /// Satellites.
    pub satellites: Vec<Satellite>,
}

impl DataVault {
    /// Look up a hub by name.
    pub fn hub(&self, name: &str) -> Option<&Hub> {
        self.hubs.iter().find(|h| h.name == name)
    }

    /// Materialize the vault into relational tables (the physical model):
    /// `hub_<name>(hash_key, business_key)`,
    /// `link_<name>(hash_key, hub_a_key, hub_b_key)`,
    /// `sat_<name>(hub_hash_key, attrs…, record_source)`.
    pub fn materialize_relational(&self) -> Result<Vec<Table>> {
        let mut out = Vec::new();
        for h in &self.hubs {
            let hashes: Vec<Value> = h.keys.iter().map(|k| Value::Int(hash_key(k) as i64)).collect();
            out.push(Table::from_columns(
                format!("hub_{}", h.name),
                vec![
                    Column::new("hash_key", hashes),
                    Column::new("business_key", h.keys.clone()),
                ],
            )?);
        }
        for l in &self.links {
            let mut hk = Vec::new();
            let mut a = Vec::new();
            let mut b = Vec::new();
            for (x, y) in &l.pairs {
                hk.push(Value::Int((hash_key(x) ^ hash_key(y).rotate_left(1)) as i64));
                a.push(Value::Int(hash_key(x) as i64));
                b.push(Value::Int(hash_key(y) as i64));
            }
            out.push(Table::from_columns(
                format!("link_{}", l.name),
                vec![
                    Column::new("hash_key", hk),
                    Column::new(format!("{}_key", l.hubs.0), a),
                    Column::new(format!("{}_key", l.hubs.1), b),
                ],
            )?);
        }
        for s in &self.satellites {
            let mut cols: Vec<Column> = Vec::new();
            cols.push(Column::new(
                "hub_hash_key",
                s.rows.iter().map(|(k, _, _)| Value::Int(hash_key(k) as i64)).collect(),
            ));
            for (i, attr) in s.attributes.iter().enumerate() {
                cols.push(Column::new(
                    attr.clone(),
                    s.rows.iter().map(|(_, vs, _)| vs[i].clone()).collect(),
                ));
            }
            cols.push(Column::new(
                "record_source",
                s.rows.iter().map(|(_, _, src)| Value::str(src.clone())).collect(),
            ));
            out.push(Table::from_columns(format!("sat_{}", s.name), cols)?);
        }
        Ok(out)
    }
}

fn hash_key(v: &Value) -> u64 {
    fnv1a(v.render().as_bytes())
}

/// Derive a vault from raw tables given the business-key columns.
///
/// `hub_keys` maps a hub name to the column name holding its business key.
/// For each input table: every hub whose key column appears contributes its
/// distinct keys; tables containing *two* hub keys yield a link; remaining
/// columns become a satellite on the first matching hub.
pub fn vault_from_tables(tables: &[&Table], hub_keys: &[(&str, &str)]) -> Result<DataVault> {
    let mut vault = DataVault::default();
    for (hub_name, _) in hub_keys {
        vault.hubs.push(Hub {
            name: hub_name.to_string(),
            business_key: String::new(),
            keys: Vec::new(),
        });
    }
    for table in tables {
        // Which hubs does this table mention, and in which column?
        let present: Vec<(usize, &Column)> = hub_keys
            .iter()
            .enumerate()
            .filter_map(|(i, (_, col))| table.column(col).map(|c| (i, c)))
            .collect();
        let Some(&(first_hub, first_key)) = present.first() else {
            return Err(LakeError::schema(format!(
                "table {} contains no declared business key",
                table.name
            )));
        };
        // Collect hub keys.
        for &(hi, col) in &present {
            let hub = &mut vault.hubs[hi];
            hub.business_key = col.name.clone();
            for v in col.distinct() {
                if !hub.keys.contains(v) {
                    hub.keys.push((*v).clone());
                }
            }
        }
        // A link per hub pair co-occurring in this table.
        for (i, &(hi, ca)) in present.iter().enumerate() {
            for &(hj, cb) in &present[i + 1..] {
                let (ha, hb) = (hub_keys[hi].0, hub_keys[hj].0);
                let mut pairs: Vec<(Value, Value)> = ca
                    .values
                    .iter()
                    .zip(&cb.values)
                    .filter(|(a, b)| !a.is_null() && !b.is_null())
                    .map(|(a, b)| (a.clone(), b.clone()))
                    .collect();
                pairs.sort();
                pairs.dedup();
                vault.links.push(Link {
                    name: format!("{ha}_{hb}"),
                    hubs: (ha.to_string(), hb.to_string()),
                    pairs,
                });
            }
        }
        // Satellite: remaining columns attach to the first present hub.
        let attrs: Vec<&Column> = table
            .columns()
            .iter()
            .filter(|c| !present.iter().any(|(_, key)| key.name == c.name))
            .collect();
        if !attrs.is_empty() {
            let rows = (0..table.num_rows())
                .map(|r| {
                    let vals: Vec<Value> = attrs.iter().map(|a| a.values[r].clone()).collect();
                    (first_key.values[r].clone(), vals, table.name.clone())
                })
                .collect();
            vault.satellites.push(Satellite {
                name: format!("{}_{}", hub_keys[first_hub].0, table.name),
                hub: hub_keys[first_hub].0.to_string(),
                attributes: attrs.iter().map(|c| c.name.clone()).collect(),
                rows,
            });
        }
    }
    Ok(vault)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn orders() -> Table {
        Table::from_rows(
            "orders",
            &["customer_id", "product_id", "qty"],
            vec![
                vec![Value::str("c1"), Value::str("p1"), Value::Int(2)],
                vec![Value::str("c1"), Value::str("p2"), Value::Int(1)],
                vec![Value::str("c2"), Value::str("p1"), Value::Int(5)],
            ],
        )
        .unwrap()
    }

    fn customers() -> Table {
        Table::from_rows(
            "customers",
            &["customer_id", "city"],
            vec![
                vec![Value::str("c1"), Value::str("delft")],
                vec![Value::str("c2"), Value::str("paris")],
            ],
        )
        .unwrap()
    }

    #[test]
    fn builds_hubs_links_satellites() {
        let t1 = orders();
        let t2 = customers();
        let vault = vault_from_tables(
            &[&t1, &t2],
            &[("customer", "customer_id"), ("product", "product_id")],
        )
        .unwrap();
        let cust = vault.hub("customer").unwrap();
        assert_eq!(cust.keys.len(), 2);
        let prod = vault.hub("product").unwrap();
        assert_eq!(prod.keys.len(), 2);
        assert_eq!(vault.links.len(), 1);
        assert_eq!(vault.links[0].pairs.len(), 3);
        // qty satellite on customer (first hub of orders) + city satellite.
        assert_eq!(vault.satellites.len(), 2);
        let sat_city = vault.satellites.iter().find(|s| s.name.contains("customers")).unwrap();
        assert_eq!(sat_city.attributes, vec!["city"]);
    }

    #[test]
    fn materializes_relational_tables() {
        let t1 = orders();
        let vault = vault_from_tables(
            &[&t1],
            &[("customer", "customer_id"), ("product", "product_id")],
        )
        .unwrap();
        let tables = vault.materialize_relational().unwrap();
        let names: Vec<&str> = tables.iter().map(|t| t.name.as_str()).collect();
        assert!(names.contains(&"hub_customer"));
        assert!(names.contains(&"link_customer_product"));
        assert!(names.iter().any(|n| n.starts_with("sat_")));
        let hub = tables.iter().find(|t| t.name == "hub_customer").unwrap();
        assert_eq!(hub.num_rows(), 2);
        assert!(hub.column("hash_key").unwrap().is_unique());
        let sat = tables.iter().find(|t| t.name.starts_with("sat_")).unwrap();
        assert!(sat.column("record_source").is_some());
    }

    #[test]
    fn table_without_keys_is_rejected() {
        let t = Table::from_rows("x", &["a"], vec![vec![Value::Int(1)]]).unwrap();
        assert!(vault_from_tables(&[&t], &[("customer", "customer_id")]).is_err());
    }

    #[test]
    fn link_pairs_dedupe_and_skip_nulls() {
        let t = Table::from_rows(
            "o",
            &["customer_id", "product_id"],
            vec![
                vec![Value::str("c1"), Value::str("p1")],
                vec![Value::str("c1"), Value::str("p1")],
                vec![Value::Null, Value::str("p2")],
            ],
        )
        .unwrap();
        let vault = vault_from_tables(
            &[&t],
            &[("customer", "customer_id"), ("product", "product_id")],
        )
        .unwrap();
        assert_eq!(vault.links[0].pairs.len(), 1);
    }
}
