//! The shared table corpus and column profiles all discovery systems
//! consume.
//!
//! Profiling happens once per corpus: every column gets its text domain,
//! MinHash signature, tokenized name, inferred type, row-order numeric
//! sample and null/uniqueness counts — what every system reads.
//! Individual systems combine these raw profiles in their own ways
//! (Table 3's "relatedness criteria"), and a system that scores column
//! pairs derives what only it needs from a profile once per (re)profiled
//! column, next to its other per-profile state, never per pair: D³L its
//! name 3-grams, format patterns, sorted numeric sample and embedding
//! (`d3l.rs`), RNLIM its encodings and sorted numeric sample. Keeping
//! those out of [`ColumnProfile`] keeps profiling — which every system
//! pays, and whose columnar-vs-row speedup `e19_discovery` gates — free of
//! work only pair scoring uses.

use lake_core::batch::column_stats;
use lake_core::par::{self, Parallelism};
use lake_core::table::Column;
use lake_core::{DataType, LakeError, Result, Table};
use lake_index::minhash::{MinHash, MinHasher};
use lake_index::tfidf::tokenize_identifier;
use std::collections::{BTreeSet, HashMap};

/// A column addressed by table and column index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ColumnRef {
    /// Index of the table in the corpus.
    pub table: usize,
    /// Index of the column within the table.
    pub column: usize,
}

/// A profiled column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnProfile {
    /// Where the column lives.
    pub at: ColumnRef,
    /// Column name.
    pub name: String,
    /// Tokenized name (for TF-IDF / name similarity).
    pub name_tokens: Vec<String>,
    /// Inferred type.
    pub dtype: DataType,
    /// Distinct rendered non-null values.
    pub domain: BTreeSet<String>,
    /// MinHash signature of the domain.
    pub signature: MinHash,
    /// Numeric values (empty for textual columns).
    pub numeric: Vec<f64>,
    /// Number of nulls.
    pub nulls: usize,
    /// Total rows.
    pub rows: usize,
    /// Whether the column is a key candidate (all non-null values unique).
    pub unique: bool,
}

impl ColumnProfile {
    /// Jaccard estimate against another profile via signatures.
    pub fn jaccard_est(&self, other: &ColumnProfile) -> f64 {
        self.signature.jaccard(&other.signature)
    }

    /// Exact domain overlap size.
    pub fn overlap(&self, other: &ColumnProfile) -> usize {
        self.domain.intersection(&other.domain).count()
    }

    /// Exact Jaccard of domains.
    pub fn jaccard_exact(&self, other: &ColumnProfile) -> f64 {
        let inter = self.overlap(other);
        let union = self.domain.len() + other.domain.len() - inter;
        if union == 0 {
            0.0
        } else {
            inter as f64 / union as f64
        }
    }
}

/// Standard signature length shared by all systems (32 bands × 4 rows).
pub const SIGNATURE_LEN: usize = 128;
/// Shared MinHash seed so signatures are comparable across systems.
pub const SIGNATURE_SEED: u64 = 0xDA7A_1A6E;

/// Which kernel computes column profiles.
///
/// Both paths produce byte-identical [`ColumnProfile`]s — the
/// `e19_discovery` bench gates this on the million-row lake across
/// worker counts. `Columnar` is the default; `RowNaive` is retained as
/// the equality oracle (and for measuring the speedup).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProfilePath {
    /// Dictionary-encode each column once, then derive every statistic
    /// from the dictionary: render/hash/unify each distinct value once.
    #[default]
    Columnar,
    /// Walk row-order `Value`s per statistic, re-rendering duplicates —
    /// the original implementation.
    RowNaive,
}

/// Profile one column on the chosen path. Pure: depends only on the
/// column bytes, so parallel fan-out and incremental re-profiling agree.
fn profile_column(path: ProfilePath, col: &Column, at: ColumnRef, hasher: &MinHasher) -> ColumnProfile {
    match path {
        ProfilePath::Columnar => {
            // One strict sort, every distinct value rendered once; the
            // rendered strings move into the domain set, never cloned.
            let stats = column_stats(&col.values);
            // MinHash minima are idempotent, so hashing the strict-
            // distinct texts (which may repeat a rendering across
            // representations, e.g. Int(3)/Float(3.0) → "3") equals
            // hashing the deduped domain.
            let signature = hasher.signature(stats.texts.iter().map(String::as_str));
            ColumnProfile {
                at,
                name: col.name.clone(),
                name_tokens: tokenize_identifier(&col.name),
                dtype: stats.dtype,
                // Row-order numeric view; `as_f64` is a cheap per-row
                // conversion, bit-exact on either path.
                numeric: col.numeric_values(),
                nulls: stats.null_count,
                rows: stats.rows,
                unique: stats.unique,
                domain: stats.texts.into_iter().collect(),
                signature,
            }
        }
        ProfilePath::RowNaive => {
            let domain = col.text_domain();
            let signature = hasher.signature(domain.iter().map(String::as_str));
            ColumnProfile {
                at,
                name: col.name.clone(),
                name_tokens: tokenize_identifier(&col.name),
                dtype: col.inferred_type(),
                numeric: col.numeric_values(),
                nulls: col.null_count(),
                rows: col.len(),
                unique: col.is_unique(),
                domain,
                signature,
            }
        }
    }
}

/// A profiled table corpus.
#[derive(Debug, Clone)]
pub struct TableCorpus {
    tables: Vec<Table>,
    profiles: Vec<ColumnProfile>,
    /// `ColumnRef` → index into `profiles`, for O(1) lookup.
    by_ref: HashMap<ColumnRef, usize>,
    hasher: MinHasher,
}

impl TableCorpus {
    /// Profile a set of tables with the default (auto) worker count.
    pub fn new(tables: Vec<Table>) -> TableCorpus {
        TableCorpus::with_parallelism(tables, Parallelism::auto())
    }

    /// Profile a set of tables, fanning per-column profiling out over
    /// `par` workers on the default (columnar) kernel. Each column's
    /// profile is a pure function of its table, so the result — including
    /// profile order, which stays `(table, column)` — is identical to
    /// sequential profiling.
    pub fn with_parallelism(tables: Vec<Table>, par: Parallelism) -> TableCorpus {
        TableCorpus::with_profile_path(tables, par, ProfilePath::default())
    }

    /// Profile on an explicit kernel path — the equality-gate entry
    /// point ([`ProfilePath::RowNaive`] is the oracle the columnar path
    /// is measured and verified against).
    pub fn with_profile_path(tables: Vec<Table>, par: Parallelism, path: ProfilePath) -> TableCorpus {
        let hasher = MinHasher::new(SIGNATURE_LEN, SIGNATURE_SEED);
        let refs: Vec<ColumnRef> = tables
            .iter()
            .enumerate()
            .flat_map(|(ti, t)| {
                (0..t.columns().len()).map(move |ci| ColumnRef { table: ti, column: ci })
            })
            .collect();
        let profiles: Vec<ColumnProfile> = par::map(par, &refs, |&at| {
            let col = &tables[at.table].columns()[at.column];
            profile_column(path, col, at, &hasher)
        });
        let by_ref = profiles.iter().enumerate().map(|(i, p)| (p.at, i)).collect();
        TableCorpus { tables, profiles, by_ref, hasher }
    }

    /// Append a table, profiling its columns on the columnar kernel.
    /// Returns the indices of the new profiles (a contiguous tail
    /// block): the corpus is exactly what a from-scratch profile of the
    /// extended table list would produce.
    pub fn push_table(&mut self, table: Table) -> Vec<usize> {
        let ti = self.tables.len();
        let mut added = Vec::with_capacity(table.num_columns());
        for (ci, col) in table.columns().iter().enumerate() {
            let at = ColumnRef { table: ti, column: ci };
            let profile = profile_column(ProfilePath::Columnar, col, at, &self.hasher);
            self.by_ref.insert(at, self.profiles.len());
            added.push(self.profiles.len());
            self.profiles.push(profile);
        }
        self.tables.push(table);
        added
    }

    /// Replace table `ti` in place, re-profiling only its columns. The
    /// replacement must keep the column count so every profile index in
    /// the flat list stays stable (downstream indexes key on them).
    /// Returns the re-profiled indices.
    pub fn replace_table(&mut self, ti: usize, table: Table) -> Result<Vec<usize>> {
        let old = self
            .tables
            .get(ti)
            .ok_or_else(|| LakeError::invalid(format!("no table {ti} in corpus")))?;
        if table.num_columns() != old.num_columns() {
            return Err(LakeError::invalid(format!(
                "replacement table {} has {} columns, corpus table has {}",
                table.name,
                table.num_columns(),
                old.num_columns()
            )));
        }
        let mut changed = Vec::with_capacity(table.num_columns());
        for (ci, col) in table.columns().iter().enumerate() {
            let at = ColumnRef { table: ti, column: ci };
            let pi = self
                .by_ref
                .get(&at)
                .copied()
                .ok_or_else(|| LakeError::invalid(format!("unprofiled column {at:?}")))?;
            let profile = profile_column(ProfilePath::Columnar, col, at, &self.hasher);
            if let Some(slot) = self.profiles.get_mut(pi) {
                *slot = profile;
            }
            changed.push(pi);
        }
        if let Some(slot) = self.tables.get_mut(ti) {
            *slot = table;
        }
        Ok(changed)
    }

    /// Insert-or-replace by table name: the delta entry point for
    /// ingestion-time maintenance. Returns `(table index, re-profiled
    /// profile indices)`.
    pub fn upsert_table(&mut self, table: Table) -> Result<(usize, Vec<usize>)> {
        match self.table_index(&table.name) {
            Some(ti) => Ok((ti, self.replace_table(ti, table)?)),
            None => {
                let ti = self.tables.len();
                Ok((ti, self.push_table(table)))
            }
        }
    }

    /// The tables.
    pub fn tables(&self) -> &[Table] {
        &self.tables
    }

    /// Number of tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// `true` when the corpus has no tables.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// All column profiles, in `(table, column)` order.
    pub fn profiles(&self) -> &[ColumnProfile] {
        &self.profiles
    }

    /// Profiles of one table's columns.
    pub fn table_profiles(&self, table: usize) -> impl Iterator<Item = &ColumnProfile> {
        self.table_columns(table).map(|(_, p)| p)
    }

    /// One table's columns as `(profile index, profile)`, in column order.
    pub fn table_columns(&self, table: usize) -> impl Iterator<Item = (usize, &ColumnProfile)> {
        self.profiles.iter().enumerate().filter(move |(_, p)| p.at.table == table)
    }

    /// Every `(query column, candidate column)` pair a table-level top-k
    /// scores, each side as `(profile index, profile)`: the columns of
    /// table `query` outermost, against every column of every other
    /// table, both in profile order.
    pub fn column_pairs(
        &self,
        query: usize,
    ) -> impl Iterator<Item = ((usize, &ColumnProfile), (usize, &ColumnProfile))> {
        self.table_columns(query).flat_map(move |q| {
            let others = self.profiles.iter().enumerate().filter(move |(_, p)| p.at.table != query);
            others.map(move |b| (q, b))
        })
    }

    /// Profile of a specific column (O(1) map lookup).
    pub fn profile(&self, at: ColumnRef) -> Option<&ColumnProfile> {
        self.profile_index(at).map(|i| &self.profiles[i])
    }

    /// Index of the profile for a column in the flat profile list
    /// (O(1) map lookup).
    pub fn profile_index(&self, at: ColumnRef) -> Option<usize> {
        self.by_ref.get(&at).copied()
    }

    /// Table index by name.
    pub fn table_index(&self, name: &str) -> Option<usize> {
        self.tables.iter().position(|t| t.name == name)
    }

    /// The shared MinHasher (for systems that update signatures).
    pub fn hasher(&self) -> &MinHasher {
        &self.hasher
    }

    /// Aggregate column-level scores `(profile_idx, score)` into
    /// table-level top-k: each candidate table takes its *maximum* column
    /// score; the query table is excluded.
    pub fn aggregate_to_tables(
        &self,
        query_table: usize,
        column_scores: impl IntoIterator<Item = (usize, f64)>,
        k: usize,
    ) -> Vec<(usize, f64)> {
        let mut best: Vec<Option<f64>> = vec![None; self.tables.len()];
        for (pi, score) in column_scores {
            let t = self.profiles[pi].at.table;
            if t == query_table {
                continue;
            }
            if best[t].is_none_or(|b| score > b) {
                best[t] = Some(score);
            }
        }
        let mut out: Vec<(usize, f64)> = best
            .into_iter()
            .enumerate()
            .filter_map(|(t, s)| s.map(|s| (t, s)))
            .collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        out.truncate(k);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lake_core::Value;

    fn corpus() -> TableCorpus {
        let t1 = Table::from_rows(
            "orders",
            &["customer_id", "total"],
            vec![
                vec![Value::str("c1"), Value::Float(10.0)],
                vec![Value::str("c2"), Value::Float(20.0)],
            ],
        )
        .unwrap();
        let t2 = Table::from_rows(
            "customers",
            &["customer_id", "city"],
            vec![
                vec![Value::str("c1"), Value::str("delft")],
                vec![Value::str("c3"), Value::str("paris")],
            ],
        )
        .unwrap();
        TableCorpus::new(vec![t1, t2])
    }

    #[test]
    fn profiles_cover_every_column() {
        let c = corpus();
        assert_eq!(c.profiles().len(), 4);
        let p = c.profile(ColumnRef { table: 0, column: 0 }).unwrap();
        assert_eq!(p.name, "customer_id");
        assert_eq!(p.name_tokens, vec!["customer", "id"]);
        assert!(p.unique);
        assert_eq!(p.domain.len(), 2);
        let total = c.profile(ColumnRef { table: 0, column: 1 }).unwrap();
        assert_eq!(total.numeric, vec![10.0, 20.0]);
    }

    #[test]
    fn exact_and_estimated_overlap() {
        let c = corpus();
        let a = c.profile(ColumnRef { table: 0, column: 0 }).unwrap();
        let b = c.profile(ColumnRef { table: 1, column: 0 }).unwrap();
        assert_eq!(a.overlap(b), 1);
        assert!((a.jaccard_exact(b) - 1.0 / 3.0).abs() < 1e-9);
        // Estimate should be in the right ballpark for tiny sets.
        assert!(a.jaccard_est(b) > 0.0);
    }

    #[test]
    fn aggregation_takes_max_per_table_and_excludes_query() {
        let c = corpus();
        // Profile indexes: 0,1 in table 0; 2,3 in table 1.
        let scores = vec![(0, 0.9), (2, 0.5), (3, 0.8)];
        let top = c.aggregate_to_tables(0, scores, 5);
        assert_eq!(top, vec![(1, 0.8)]);
    }

    #[test]
    fn lookup_helpers() {
        let c = corpus();
        assert_eq!(c.table_index("customers"), Some(1));
        assert_eq!(c.table_index("none"), None);
        assert_eq!(c.table_profiles(1).count(), 2);
        assert_eq!(c.profile_index(ColumnRef { table: 1, column: 1 }), Some(3));
    }

    #[test]
    fn indexed_lookup_matches_linear_scan() {
        // The by-ref map must agree with the flat profile list exactly.
        let c = corpus();
        for (i, p) in c.profiles().iter().enumerate() {
            assert_eq!(c.profile_index(p.at), Some(i));
            assert_eq!(c.profile(p.at), Some(p));
        }
        assert_eq!(c.profile(ColumnRef { table: 7, column: 0 }), None);
        assert_eq!(c.profile_index(ColumnRef { table: 0, column: 9 }), None);
    }

    #[test]
    fn columnar_and_row_paths_profile_identically() {
        // Includes the adversarial cases: Ord-equal mixed representations
        // (Int(3)/Float(3.0)), signed zeros, NaN, all-null, zero-row.
        let tables = vec![
            Table::from_rows(
                "mixed",
                &["x", "y"],
                vec![
                    vec![Value::Int(3), Value::Float(0.0)],
                    vec![Value::Float(3.0), Value::Float(-0.0)],
                    vec![Value::Int(3), Value::Float(f64::NAN)],
                    vec![Value::Null, Value::Int(0)],
                ],
            )
            .unwrap(),
            Table::from_rows("nulls", &["a"], vec![vec![Value::Null], vec![Value::Null]]).unwrap(),
            Table::from_rows("zero", &["z"], vec![]).unwrap(),
        ];
        let col = TableCorpus::with_profile_path(
            tables.clone(),
            Parallelism::sequential(),
            ProfilePath::Columnar,
        );
        let row = TableCorpus::with_profile_path(
            tables,
            Parallelism::sequential(),
            ProfilePath::RowNaive,
        );
        assert_eq!(col.profiles().len(), row.profiles().len());
        for (c, r) in col.profiles().iter().zip(row.profiles()) {
            // Compare numeric samples bitwise (NaN != NaN under PartialEq).
            let cb: Vec<u64> = c.numeric.iter().map(|f| f.to_bits()).collect();
            let rb: Vec<u64> = r.numeric.iter().map(|f| f.to_bits()).collect();
            assert_eq!(cb, rb, "{}: numeric bits", c.name);
            assert_eq!(c.domain, r.domain, "{}: domain", c.name);
            assert_eq!(c.signature, r.signature, "{}: signature", c.name);
            assert_eq!(c.dtype, r.dtype, "{}: dtype", c.name);
            assert_eq!((c.nulls, c.rows, c.unique), (r.nulls, r.rows, r.unique), "{}", c.name);
        }
    }

    #[test]
    fn incremental_upserts_match_from_scratch_profile() {
        let t1 = Table::from_rows("a", &["x"], vec![vec![Value::Int(1)]]).unwrap();
        let t2 = Table::from_rows("b", &["y"], vec![vec![Value::str("p")]]).unwrap();
        let t2v2 =
            Table::from_rows("b", &["y"], vec![vec![Value::str("p")], vec![Value::str("q")]])
                .unwrap();
        let mut inc = TableCorpus::new(vec![t1.clone()]);
        let (ti_b, added) = inc.upsert_table(t2.clone()).unwrap();
        assert_eq!((ti_b, added), (1, vec![1]));
        let (ti_b2, changed) = inc.upsert_table(t2v2.clone()).unwrap();
        assert_eq!((ti_b2, changed), (1, vec![1]));
        let scratch = TableCorpus::new(vec![t1, t2v2]);
        assert_eq!(inc.profiles(), scratch.profiles());
        assert_eq!(inc.tables(), scratch.tables());
        // Column-count changes are rejected, keeping indices stable.
        let wide = Table::from_rows("b", &["y", "z"], vec![]).unwrap();
        assert!(inc.upsert_table(wide).is_err());
    }

    #[test]
    fn parallel_profiling_matches_sequential() {
        let tables = || {
            vec![
                Table::from_rows(
                    "orders",
                    &["customer_id", "total"],
                    vec![
                        vec![Value::str("c1"), Value::Float(10.0)],
                        vec![Value::str("c2"), Value::Float(20.0)],
                    ],
                )
                .unwrap(),
                Table::from_rows(
                    "customers",
                    &["customer_id", "city"],
                    vec![
                        vec![Value::str("c1"), Value::str("delft")],
                        vec![Value::str("c3"), Value::Null],
                    ],
                )
                .unwrap(),
            ]
        };
        let seq = TableCorpus::with_parallelism(tables(), Parallelism::sequential());
        let par4 = TableCorpus::with_parallelism(tables(), Parallelism::fixed(4));
        assert_eq!(seq.profiles(), par4.profiles());
    }
}
