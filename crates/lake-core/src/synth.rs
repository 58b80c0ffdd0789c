//! Deterministic synthetic-data generation.
//!
//! The survey's comparison tables are regenerated by running the
//! implemented systems on synthetic data lakes with *planted ground truth*
//! (which table pairs are joinable, which attributes are semantically
//! related, which domains exist). This module builds those lakes: themed
//! vocabularies, a Zipf sampler (web-table value frequencies are heavily
//! skewed — JOSIE's evaluation setting), and a table-corpus generator.
//!
//! All generation is seeded; the same config always yields the same lake.

use crate::table::{Column, Table};
use crate::value::Value;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeSet;

/// Themed vocabularies used to give synthetic columns recognizable domains.
pub mod vocab {
    /// City names (a textual, high-cardinality domain).
    pub const CITIES: &[&str] = &[
        "amsterdam", "berlin", "paris", "rome", "madrid", "lisbon", "vienna", "prague",
        "warsaw", "budapest", "athens", "dublin", "oslo", "stockholm", "helsinki",
        "copenhagen", "brussels", "zurich", "geneva", "munich", "hamburg", "cologne",
        "milan", "naples", "turin", "valencia", "seville", "porto", "krakow", "delft",
        "rotterdam", "utrecht", "eindhoven", "antwerp", "ghent", "lyon", "marseille",
        "toulouse", "nice", "bordeaux",
    ];
    /// Color names (a small, low-cardinality domain — D⁴'s running example).
    pub const COLORS: &[&str] = &[
        "red", "white", "black", "green", "blue", "yellow", "orange", "purple", "brown",
        "gray", "pink", "cyan",
    ];
    /// Person first names.
    pub const FIRST_NAMES: &[&str] = &[
        "ada", "alan", "grace", "edsger", "donald", "barbara", "john", "tony", "leslie",
        "margaret", "tim", "vint", "radia", "frances", "jean", "katherine", "annie",
        "dorothy", "mary", "claude",
    ];
    /// Product categories.
    pub const PRODUCTS: &[&str] = &[
        "laptop", "phone", "tablet", "monitor", "keyboard", "mouse", "printer", "router",
        "camera", "speaker", "headset", "charger", "cable", "dock", "drive",
    ];
    /// Country names.
    pub const COUNTRIES: &[&str] = &[
        "netherlands", "germany", "france", "italy", "spain", "portugal", "austria",
        "czechia", "poland", "hungary", "greece", "ireland", "norway", "sweden",
        "finland", "denmark", "belgium", "switzerland",
    ];
    /// Fruits — shares homographs with [`BRANDS`] ("apple", "blackberry",
    /// "kiwi"), the ambiguity DomainNet disambiguates (§6.4.1).
    pub const FRUITS: &[&str] = &[
        "apple", "banana", "cherry", "grape", "kiwi", "lemon", "mango", "melon", "peach",
        "pear", "plum", "blackberry", "apricot", "fig",
    ];
    /// Tech brands — shares homographs with [`FRUITS`].
    pub const BRANDS: &[&str] = &[
        "apple", "samsung", "nokia", "blackberry", "kiwi", "sony", "dell", "lenovo",
        "asus", "acer", "philips", "siemens", "bosch", "canon",
    ];
    /// Synonym groups for attribute names: columns drawn from one group are
    /// *semantically* the same attribute under different spellings — the
    /// signal name-based matchers and RNLIM must recover.
    pub const SYNONYMS: &[&[&str]] = &[
        &["customer_id", "cust_id", "client_id", "customerid"],
        &["city", "town", "municipality", "location_city"],
        &["price", "cost", "amount", "unit_price"],
        &["country", "nation", "country_name"],
        &["product", "item", "article", "product_name"],
        &["color", "colour", "item_color"],
        &["name", "full_name", "person_name"],
        &["quantity", "qty", "count", "units"],
        &["email", "email_address", "mail"],
        &["order_date", "date", "purchase_date"],
    ];
}

/// Fisher–Yates shuffle (kept local to avoid depending on rand's slice
/// extension traits, whose location has churned across rand versions).
pub fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        let j = rng.random_range(0..=i);
        items.swap(i, j);
    }
}

/// Pick one element of a non-empty slice.
pub fn pick<'a, T>(items: &'a [T], rng: &mut StdRng) -> &'a T {
    &items[rng.random_range(0..items.len())]
}

/// A Zipf(α) sampler over ranks `0..n` via inverse-CDF table lookup.
///
/// Skewed value frequencies are the regime where JOSIE's cost model matters
/// (a few posting lists are huge); the E2 experiment sweeps α.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Build a sampler over `n` ranks with exponent `alpha >= 0`
    /// (`alpha = 0` is uniform).
    pub fn new(n: usize, alpha: f64) -> Zipf {
        assert!(n > 0, "Zipf needs at least one rank");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(alpha);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Draw a rank in `0..n` (rank 0 is the most frequent).
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.random();
        match self.cdf.binary_search_by(|c| c.total_cmp(&u)) {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

/// Configuration for [`generate_lake`].
#[derive(Debug, Clone)]
pub struct LakeGenConfig {
    /// RNG seed; same seed ⇒ identical lake.
    pub seed: u64,
    /// Number of *groups* of mutually related tables.
    pub groups: usize,
    /// Tables per group (each pair within a group is joinable ground truth).
    pub tables_per_group: usize,
    /// Number of unrelated noise tables.
    pub noise_tables: usize,
    /// Rows per table (inclusive range).
    pub rows: (usize, usize),
    /// Size of each group's shared key-entity pool.
    pub key_pool: usize,
    /// Probability that a group member renames attributes using synonyms
    /// (creating *semantically* related but name-divergent columns).
    pub rename_prob: f64,
    /// Zipf exponent for categorical value frequencies (0 = uniform).
    pub zipf_alpha: f64,
}

impl Default for LakeGenConfig {
    fn default() -> Self {
        LakeGenConfig {
            seed: 42,
            groups: 4,
            tables_per_group: 3,
            noise_tables: 4,
            rows: (80, 150),
            key_pool: 60,
            rename_prob: 0.5,
            zipf_alpha: 0.8,
        }
    }
}

/// A planted relationship between two columns of two tables.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct TruthPair {
    /// First table name (lexicographically smaller of the two).
    pub table_a: String,
    /// Column in `table_a`.
    pub column_a: String,
    /// Second table name.
    pub table_b: String,
    /// Column in `table_b`.
    pub column_b: String,
}

impl TruthPair {
    /// Canonicalized pair (tables ordered by name, then column).
    pub fn new(ta: &str, ca: &str, tb: &str, cb: &str) -> TruthPair {
        if (ta, ca) <= (tb, cb) {
            TruthPair {
                table_a: ta.into(),
                column_a: ca.into(),
                table_b: tb.into(),
                column_b: cb.into(),
            }
        } else {
            TruthPair {
                table_a: tb.into(),
                column_a: cb.into(),
                table_b: ta.into(),
                column_b: ca.into(),
            }
        }
    }
}

/// Planted ground truth of a synthetic lake.
#[derive(Debug, Clone, Default)]
pub struct GroundTruth {
    /// Column pairs with high value overlap on key columns (joinable).
    pub joinable: BTreeSet<TruthPair>,
    /// Column pairs that are the same semantic attribute but were renamed
    /// (and may have lower value overlap).
    pub semantic: BTreeSet<TruthPair>,
    /// Table-level related pairs (same group), regardless of column.
    pub related_tables: BTreeSet<(String, String)>,
}

impl GroundTruth {
    /// Whether tables `a` and `b` are related (order-insensitive).
    pub fn tables_related(&self, a: &str, b: &str) -> bool {
        let key = if a <= b { (a.to_string(), b.to_string()) } else { (b.to_string(), a.to_string()) };
        self.related_tables.contains(&key)
    }
}

/// A generated synthetic lake: tables plus the planted ground truth.
#[derive(Debug, Clone)]
pub struct SynthLake {
    /// The table corpus.
    pub tables: Vec<Table>,
    /// What discovery systems are supposed to find.
    pub truth: GroundTruth,
}

/// Generate a synthetic lake of grouped, joinable tables plus noise.
///
/// Each group models one business entity (customers, orders, …): all its
/// tables share a key-value pool (high overlap ⇒ joinable) and a bundle of
/// categorical/numeric attributes. With probability `rename_prob` a member
/// table renames attributes using [`vocab::SYNONYMS`], planting semantic
/// relatedness that pure name matching misses. Noise tables draw from
/// disjoint value spaces.
pub fn generate_lake(cfg: &LakeGenConfig) -> SynthLake {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut tables = Vec::new();
    let mut truth = GroundTruth::default();

    // Each group draws its categorical values from a group-specific slice
    // of the vocabulary; otherwise every table's "city" column would be
    // joinable with every other's, contradicting the group-based ground
    // truth the discovery systems are scored against.
    let slice = |words: &'static [&'static str], g: usize, want: usize| -> Vec<&'static str> {
        let sz = (words.len() / cfg.groups.max(1)).max(want.min(words.len()));
        (0..sz).map(|i| words[(g * sz + i) % words.len()]).collect()
    };

    for g in 0..cfg.groups {
        let cities = slice(vocab::CITIES, g, 6);
        let products = slice(vocab::PRODUCTS, g, 3);
        let zipf_city = Zipf::new(cities.len(), cfg.zipf_alpha);
        let zipf_prod = Zipf::new(products.len(), cfg.zipf_alpha);
        // The group's shared key pool: entity identifiers like "ent4_17".
        let pool: Vec<String> = (0..cfg.key_pool).map(|i| format!("ent{g}_{i}")).collect();
        let mut members: Vec<(String, String)> = Vec::new(); // (table, key column)

        for m in 0..cfg.tables_per_group {
            let tname = format!("g{g}_t{m}");
            let rows = rng.random_range(cfg.rows.0..=cfg.rows.1);
            let rename = rng.random_bool(cfg.rename_prob);
            let syn = |group_idx: usize, rng: &mut StdRng| -> String {
                let group = vocab::SYNONYMS[group_idx];
                if rename { group[1 + rng.random_range(0..group.len() - 1)].to_string() } else { group[0].to_string() }
            };

            let key_col = syn(0, &mut rng);
            let city_col = syn(1, &mut rng);
            let price_col = syn(2, &mut rng);
            let prod_col = syn(4, &mut rng);

            // Sample keys from the pool, most reused (joinable overlap).
            let mut keys = Vec::with_capacity(rows);
            for _ in 0..rows {
                keys.push(Value::str(pool[rng.random_range(0..pool.len())].clone()));
            }
            let cities: Vec<Value> = (0..rows)
                .map(|_| Value::str(cities[zipf_city.sample(&mut rng)]))
                .collect();
            let prices: Vec<Value> = (0..rows)
                .map(|_| Value::Float((rng.random_range(100..99_999) as f64) / 100.0))
                .collect();
            let prods: Vec<Value> = (0..rows)
                .map(|_| Value::str(products[zipf_prod.sample(&mut rng)]))
                .collect();

            let table = assemble(
                tname.clone(),
                vec![
                    Column::new(key_col.clone(), keys),
                    Column::new(city_col.clone(), cities),
                    Column::new(price_col.clone(), prices),
                    Column::new(prod_col.clone(), prods),
                ],
            );

            // Plant ground truth against every earlier member of the group.
            for (other_t, other_key) in &members {
                truth
                    .joinable
                    .insert(TruthPair::new(&tname, &key_col, other_t, other_key));
                let pair = if tname <= *other_t {
                    (tname.clone(), other_t.clone())
                } else {
                    (other_t.clone(), tname.clone())
                };
                truth.related_tables.insert(pair);
            }
            // Semantic pairs: same synonym-group attributes across members.
            for other in &tables {
                let other: &Table = other;
                if !other.name.starts_with(&format!("g{g}_")) {
                    continue;
                }
                for group in vocab::SYNONYMS {
                    let mine = table.columns().iter().find(|c| group.contains(&c.name.as_str()));
                    let theirs = other.columns().iter().find(|c| group.contains(&c.name.as_str()));
                    if let (Some(a), Some(b)) = (mine, theirs) {
                        truth.semantic.insert(TruthPair::new(&tname, &a.name, &other.name, &b.name));
                    }
                }
            }

            members.push((tname, key_col));
            tables.push(table);
        }
    }

    // Noise tables: disjoint id spaces and unrelated vocabularies.
    for n in 0..cfg.noise_tables {
        let tname = format!("noise_t{n}");
        let rows = rng.random_range(cfg.rows.0..=cfg.rows.1);
        let ids: Vec<Value> = (0..rows).map(|i| Value::str(format!("nz{n}_{i}"))).collect();
        let names: Vec<Value> = (0..rows)
            .map(|_| Value::str(*pick(vocab::FIRST_NAMES, &mut rng)))
            .collect();
        let nums: Vec<Value> = (0..rows).map(|_| Value::Int(rng.random_range(0..1_000_000))).collect();
        tables.push(assemble(
            tname,
            vec![
                Column::new(format!("nid_{n}"), ids),
                Column::new(format!("label_{n}"), names),
                Column::new(format!("metric_{n}"), nums),
            ],
        ));
    }

    SynthLake { tables, truth }
}

/// Assemble a generated table. Every generator draws all of a table's
/// columns for one shared row count, so `from_columns` cannot fail here.
#[expect(clippy::expect_used, reason = "generated columns share one row count")]
fn assemble(name: String, columns: Vec<Column>) -> Table {
    Table::from_columns(name, columns).expect("generated columns are equal-length")
}

/// Generate a fruit/brand table corpus with planted *domains* and
/// homographs, the input of the E7 domain-discovery experiment (D⁴ /
/// DomainNet). Returns `(tables, domain_of_column)` where the domain label
/// is `"fruit"`, `"brand"`, `"color"`, or `"city"`.
pub fn generate_domain_corpus(seed: u64, tables_per_domain: usize, rows: usize) -> (Vec<Table>, Vec<(String, String, String)>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let domains: &[(&str, &[&str])] = &[
        ("fruit", vocab::FRUITS),
        ("brand", vocab::BRANDS),
        ("color", vocab::COLORS),
        ("city", vocab::CITIES),
    ];
    let mut tables = Vec::new();
    let mut labels = Vec::new();
    for (dname, words) in domains {
        for t in 0..tables_per_domain {
            let tname = format!("{dname}_{t}");
            // Column names intentionally uninformative: domain discovery
            // must work from values, not headers.
            let col = format!("attr_{t}");
            let vals: Vec<Value> = (0..rows).map(|_| Value::str(*pick(words, &mut rng))).collect();
            let ids: Vec<Value> = (0..rows).map(|i| Value::Int(i as i64)).collect();
            let table = assemble(
                tname.clone(),
                vec![Column::new("row_id", ids), Column::new(col.clone(), vals)],
            );
            labels.push((tname, col, dname.to_string()));
            tables.push(table);
        }
    }
    (tables, labels)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(10, 1.2);
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = [0usize; 10];
        for _ in 0..10_000 {
            let r = z.sample(&mut rng);
            assert!(r < 10);
            counts[r] += 1;
        }
        assert!(counts[0] > counts[9] * 3, "rank 0 should dominate: {counts:?}");
    }

    #[test]
    fn zipf_alpha_zero_is_roughly_uniform() {
        let z = Zipf::new(4, 0.0);
        let mut rng = StdRng::seed_from_u64(2);
        let mut counts = [0usize; 4];
        for _ in 0..8_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for c in counts {
            assert!((1_600..2_400).contains(&c), "{counts:?}");
        }
    }

    #[test]
    fn lake_generation_is_deterministic() {
        let cfg = LakeGenConfig::default();
        let a = generate_lake(&cfg);
        let b = generate_lake(&cfg);
        assert_eq!(a.tables.len(), b.tables.len());
        for (x, y) in a.tables.iter().zip(&b.tables) {
            assert_eq!(x, y);
        }
        assert_eq!(a.truth.joinable, b.truth.joinable);
    }

    #[test]
    fn lake_has_expected_shape_and_truth() {
        let cfg = LakeGenConfig::default();
        let lake = generate_lake(&cfg);
        assert_eq!(lake.tables.len(), cfg.groups * cfg.tables_per_group + cfg.noise_tables);
        // Every within-group pair is related: C(3,2)=3 per group.
        assert_eq!(lake.truth.related_tables.len(), cfg.groups * 3);
        assert_eq!(lake.truth.joinable.len(), cfg.groups * 3);
        assert!(lake.truth.tables_related("g0_t0", "g0_t1"));
        assert!(!lake.truth.tables_related("g0_t0", "g1_t0"));
        assert!(!lake.truth.tables_related("g0_t0", "noise_t0"));
    }

    #[test]
    fn joinable_pairs_actually_overlap() {
        let lake = generate_lake(&LakeGenConfig::default());
        for p in &lake.truth.joinable {
            let ta = lake.tables.iter().find(|t| t.name == p.table_a).unwrap();
            let tb = lake.tables.iter().find(|t| t.name == p.table_b).unwrap();
            let da = ta.column(&p.column_a).unwrap().text_domain();
            let db = tb.column(&p.column_b).unwrap().text_domain();
            let inter = da.intersection(&db).count();
            assert!(inter >= 10, "planted joinable pair {p:?} has overlap {inter}");
        }
    }

    #[test]
    fn truth_pair_is_canonical() {
        assert_eq!(TruthPair::new("b", "x", "a", "y"), TruthPair::new("a", "y", "b", "x"));
    }

    #[test]
    fn domain_corpus_labels_every_column() {
        let (tables, labels) = generate_domain_corpus(7, 3, 50);
        assert_eq!(tables.len(), 12);
        assert_eq!(labels.len(), 12);
        for (tname, col, _) in &labels {
            let t = tables.iter().find(|t| &t.name == tname).unwrap();
            assert!(t.column(col).is_some());
        }
    }
}
