//! Simple comparison predicates, and the one place they are evaluated.
//!
//! Federated query processing over a polystore pushes selection predicates
//! down to the sources "to optimize query execution and reduce the amount
//! of data to be loaded" (Constance, §6.3). This module is the common
//! predicate language every store understands, making push-down effects
//! directly measurable (experiment E9), and it holds the only evaluators
//! of a conjunction: over a [`Table`] ([`matching_rows`], then [`gather`]),
//! over a columnar file as stored ([`scan_file`], both at once), over a
//! [`Json`] document ([`document_matches`]) and over a columnar file's
//! statistics ([`stats_rule_out`]). Stores, the mediator and the
//! lakehouse all call these, so a filter gives the same answer wherever
//! it runs (DESIGN.md §11a).

#![deny(clippy::indexing_slicing)]

use lake_core::{Column, Json, Result, Table, Value};
use lake_formats::columnar::{ColumnStats, ColumnarFile, StoredColumn};

/// A comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompareOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// Substring containment on rendered text.
    Contains,
}

impl CompareOp {
    /// Evaluate `left OP right`. Null never satisfies any comparison
    /// (SQL-style three-valued logic collapsed to false).
    pub fn eval(self, left: &Value, right: &Value) -> bool {
        if left.is_null() || right.is_null() {
            return false;
        }
        match self {
            CompareOp::Eq => left == right,
            CompareOp::Ne => left != right,
            CompareOp::Lt => left < right,
            CompareOp::Le => left <= right,
            CompareOp::Gt => left > right,
            CompareOp::Ge => left >= right,
            CompareOp::Contains => left.render().contains(&right.render()),
        }
    }

    /// SQL-ish symbol for display/parsing.
    pub fn symbol(self) -> &'static str {
        match self {
            CompareOp::Eq => "=",
            CompareOp::Ne => "!=",
            CompareOp::Lt => "<",
            CompareOp::Le => "<=",
            CompareOp::Gt => ">",
            CompareOp::Ge => ">=",
            CompareOp::Contains => "contains",
        }
    }

    /// Parse a symbol back into an operator.
    pub fn parse(sym: &str) -> Option<CompareOp> {
        Some(match sym {
            "=" | "==" => CompareOp::Eq,
            "!=" | "<>" => CompareOp::Ne,
            "<" => CompareOp::Lt,
            "<=" => CompareOp::Le,
            ">" => CompareOp::Gt,
            ">=" => CompareOp::Ge,
            "contains" => CompareOp::Contains,
            _ => return None,
        })
    }
}

/// A predicate `column OP constant` on a named attribute/path.
#[derive(Debug, Clone, PartialEq)]
pub struct Predicate {
    /// Attribute name (tables) or dotted path (documents).
    pub attribute: String,
    /// Comparison operator.
    pub op: CompareOp,
    /// Constant to compare against.
    pub value: Value,
}

impl Predicate {
    /// Build a predicate.
    pub fn new(attribute: impl Into<String>, op: CompareOp, value: impl Into<Value>) -> Predicate {
        Predicate { attribute: attribute.into(), op, value: value.into() }
    }

    /// Evaluate against a candidate attribute value.
    pub fn matches(&self, candidate: &Value) -> bool {
        self.op.eval(candidate, &self.value)
    }
}

impl std::fmt::Display for Predicate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {} {}", self.attribute, self.op.symbol(), self.value)
    }
}

/// Rows of `table`, ascending, that satisfy every predicate. Column
/// positions are resolved once; a predicate on a column the table lacks
/// matches nothing, and the empty conjunction matches every row.
pub fn matching_rows(table: &Table, predicates: &[Predicate]) -> Vec<usize> {
    let mut rows: Vec<usize> = (0..table.num_rows()).collect();
    for p in predicates {
        let Some(col) = table.column(&p.attribute) else { return Vec::new() };
        rows.retain(|&i| col.values.get(i).is_some_and(|v| p.matches(v)));
    }
    rows
}

/// The given `rows` of the named `columns` (`None`: every column, by
/// position). A named column the table lacks comes back all-`Null`.
pub fn gather(table: &Table, rows: &[usize], columns: Option<&[&str]>) -> Vec<Column> {
    let take = |name: &str, col: Option<&Column>| {
        let cell = |&i: &usize| col.and_then(|c| c.values.get(i)).cloned().unwrap_or(Value::Null);
        Column::new(name, rows.iter().map(cell).collect())
    };
    match columns {
        Some(names) => names.iter().map(|n| take(n, table.column(n))).collect(),
        None => table.columns().iter().map(|c| take(&c.name, Some(c))).collect(),
    }
}

/// [`matching_rows`] then [`gather`] on a columnar file as stored, with the
/// answer they give on its decoded table: the gathered columns and the
/// matching rows. Only the columns the predicates or `columns` name are
/// decoded (all of them when `columns` is `None`). A dictionary page stays
/// entries plus codes, so a predicate is evaluated once per stored entry
/// and applied by code. Every other column is still checked, so a corrupt
/// file fails wherever `columnar::decode` fails.
pub fn scan_file(
    file: &ColumnarFile<'_>,
    predicates: &[Predicate],
    columns: Option<&[&str]>,
) -> Result<(Vec<Column>, Vec<usize>)> {
    // As in a `Table`, a name stands for the first column that carries it.
    let wanted = |i: usize, name: &str| {
        let named = predicates.iter().any(|p| p.attribute == name)
            || columns.is_some_and(|c| c.contains(&name));
        columns.is_none() || (named && file.position(name) == Some(i))
    };
    let stored = file.stats().iter().enumerate().map(|(i, s)| {
        if wanted(i, &s.name) {
            file.read(i).map(Some)
        } else {
            file.check(i).map(|()| None)
        }
    });
    let stored = stored.collect::<Result<Vec<_>>>()?;
    let column = |name: &str| file.position(name).and_then(|i| stored.get(i))?.as_ref();
    let mut rows: Vec<usize> = (0..file.num_rows()).collect();
    for p in predicates {
        match column(&p.attribute) {
            None => rows.clear(),
            Some(StoredColumn::Plain(values)) => {
                rows.retain(|&r| values.get(r).is_some_and(|v| p.matches(v)));
            }
            Some(StoredColumn::Dict { entries, codes }) => {
                let hit: Vec<bool> = entries.iter().map(|e| p.matches(e)).collect();
                rows.retain(|&r| codes.get(r).and_then(|&c| hit.get(c as usize)) == Some(&true));
            }
        }
    }
    let take = |name: &str, col: Option<&StoredColumn>| {
        let cell = |&r: &usize| col.and_then(|c| c.get(r)).cloned().unwrap_or(Value::Null);
        Column::new(name, rows.iter().map(cell).collect())
    };
    let gathered = match columns {
        Some(names) => names.iter().map(|n| take(n, column(n))).collect(),
        None => file.stats().iter().zip(&stored).map(|(s, c)| take(&s.name, c.as_ref())).collect(),
    };
    Ok((gathered, rows))
}

/// Whether `doc` satisfies every predicate, each attribute read as a
/// dotted path. A missing path never matches.
pub fn document_matches(doc: &Json, predicates: &[Predicate]) -> bool {
    predicates
        .iter()
        .all(|p| doc.path(&p.attribute).is_some_and(|j| p.matches(&j.to_value())))
}

/// Whether a columnar file's per-column `stats` prove that no row can
/// satisfy the conjunction: some `Eq` constant lies outside its column's
/// min/max. Other operators and unknown columns rule nothing out.
pub fn stats_rule_out(stats: &[ColumnStats], predicates: &[Predicate]) -> bool {
    predicates.iter().any(|p| {
        p.op == CompareOp::Eq
            && stats
                .iter()
                .find(|s| s.name == p.attribute)
                .is_some_and(|s| s.can_skip_eq(&p.value))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lake_formats::columnar::{decode, encode};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    #[test]
    fn comparisons_work() {
        use CompareOp::*;
        assert!(Eq.eval(&Value::Int(3), &Value::Int(3)));
        assert!(Ne.eval(&Value::str("a"), &Value::str("b")));
        assert!(Lt.eval(&Value::Int(2), &Value::Float(2.5)));
        assert!(Ge.eval(&Value::Float(2.5), &Value::Int(2)));
        assert!(Contains.eval(&Value::str("data lake"), &Value::str("lake")));
    }

    #[test]
    fn null_never_matches() {
        for op in [CompareOp::Eq, CompareOp::Ne, CompareOp::Lt, CompareOp::Contains] {
            assert!(!op.eval(&Value::Null, &Value::Int(1)));
            assert!(!op.eval(&Value::Int(1), &Value::Null));
        }
    }

    #[test]
    fn symbols_roundtrip() {
        for op in [
            CompareOp::Eq,
            CompareOp::Ne,
            CompareOp::Lt,
            CompareOp::Le,
            CompareOp::Gt,
            CompareOp::Ge,
            CompareOp::Contains,
        ] {
            assert_eq!(CompareOp::parse(op.symbol()), Some(op));
        }
        assert_eq!(CompareOp::parse("<>"), Some(CompareOp::Ne));
        assert_eq!(CompareOp::parse("~"), None);
    }

    const OPS: [CompareOp; 7] = [
        CompareOp::Eq,
        CompareOp::Ne,
        CompareOp::Lt,
        CompareOp::Le,
        CompareOp::Gt,
        CompareOp::Ge,
        CompareOp::Contains,
    ];

    /// The rule every scan used to spell out for itself, kept the slow way
    /// as the reference: per row, per predicate, look the column up by name.
    fn naive_rows(t: &Table, preds: &[Predicate]) -> Vec<usize> {
        let holds = |p: &Predicate, i: usize| {
            t.column(&p.attribute).is_some_and(|c| p.op.eval(&c.values[i], &p.value))
        };
        (0..t.num_rows()).filter(|&i| preds.iter().all(|p| holds(p, i))).collect()
    }

    fn naive_gather(t: &Table, rows: &[usize], names: &[&str]) -> Vec<Column> {
        let cell = |n: &str, i: usize| t.column(n).map_or(Value::Null, |c| c.values[i].clone());
        names
            .iter()
            .map(|n| Column::new(*n, rows.iter().map(|&i| cell(n, i)).collect()))
            .collect()
    }

    /// Ints beside floats beside nulls, so that every operator meets every
    /// kind of operand on either side.
    fn mixed() -> Table {
        Table::from_rows(
            "mixed",
            &["n", "s", "f"],
            vec![
                vec![Value::Int(1), Value::str("ab"), Value::Float(0.5)],
                vec![Value::Float(2.0), Value::Null, Value::Float(2.5)],
                vec![Value::Null, Value::str("b"), Value::Int(2)],
                vec![Value::Int(3), Value::str("2"), Value::Null],
                vec![Value::Int(2), Value::str("abc"), Value::Float(-1.0)],
            ],
        )
        .unwrap()
    }

    fn single_predicates() -> Vec<Predicate> {
        let constants =
            [Value::Int(2), Value::Float(2.0), Value::Float(2.5), Value::str("b"), Value::Null];
        let mut out = Vec::new();
        for attribute in ["n", "s", "f", "missing"] {
            for op in OPS {
                for value in constants.clone() {
                    out.push(Predicate { attribute: attribute.to_string(), op, value });
                }
            }
        }
        out
    }

    #[test]
    fn matching_rows_agrees_with_the_naive_reference() {
        let t = mixed();
        let singles = single_predicates();
        let mut some_match = 0;
        for p in &singles {
            let got = matching_rows(&t, std::slice::from_ref(p));
            assert_eq!(got, naive_rows(&t, std::slice::from_ref(p)), "{p}");
            some_match += usize::from(!got.is_empty());
            if p.attribute == "missing" || p.value.is_null() {
                assert!(got.is_empty(), "{p} must match nothing");
            }
        }
        assert!(some_match > 40, "the table must exercise the operators: {some_match}");
        // Conjunctions: every pair drawn from a spread of the singles.
        let spread: Vec<&Predicate> = singles.iter().step_by(7).collect();
        for a in &spread {
            for b in &spread {
                let both = [(*a).clone(), (*b).clone()];
                assert_eq!(matching_rows(&t, &both), naive_rows(&t, &both), "{a} and {b}");
            }
        }
        assert_eq!(matching_rows(&t, &[]), vec![0, 1, 2, 3, 4], "the empty conjunction");
    }

    #[test]
    fn gather_projects_by_name_and_nulls_a_missing_column() {
        let t = mixed();
        let rows = matching_rows(&t, &[Predicate::new("n", CompareOp::Ge, 2i64)]);
        assert_eq!(rows, vec![1, 3, 4]);
        let names = ["s", "missing", "n", "s"];
        let got = gather(&t, &rows, Some(&names));
        assert_eq!(got, naive_gather(&t, &rows, &names));
        assert_eq!(got[1].values, vec![Value::Null; 3]);
        // No projection: every column, in table order.
        assert_eq!(gather(&t, &[0, 1, 2, 3, 4], None), t.columns());
        assert_eq!(gather(&t, &rows, None), naive_gather(&t, &rows, &["n", "s", "f"]));
        assert!(gather(&t, &rows, Some(&[])).is_empty());
    }

    #[test]
    fn tables_without_rows_or_columns() {
        let no_rows = Table::from_rows("r", &["n"], vec![]).unwrap();
        let no_cols = Table::empty("c");
        let p = [Predicate::new("n", CompareOp::Eq, 1i64)];
        for t in [&no_rows, &no_cols] {
            assert!(matching_rows(t, &[]).is_empty());
            assert!(matching_rows(t, &p).is_empty());
            assert_eq!(gather(t, &[], Some(&["n"])), vec![Column::new("n", vec![])]);
        }
        assert_eq!(gather(&no_rows, &[], None), no_rows.columns());
        assert!(gather(&no_cols, &[], None).is_empty());
    }

    /// What [`scan_file`] must return: `decode`, then [`matching_rows`],
    /// then [`gather`].
    fn via_decode(
        buf: &[u8],
        preds: &[Predicate],
        names: Option<&[&str]>,
    ) -> Result<(Vec<Column>, Vec<usize>)> {
        let t = decode(buf)?;
        let rows = matching_rows(&t, preds);
        Ok((gather(&t, &rows, names), rows))
    }

    /// `scan_file` fails iff `via_decode` does and otherwise returns the
    /// same columns in the same representation (`Int(3)` is not `Float(3.0)`
    /// here, though the two compare equal).
    fn scan_agrees(buf: &[u8], preds: &[Predicate], names: Option<&[&str]>) -> std::result::Result<(), String> {
        let got = ColumnarFile::open(buf).and_then(|f| scan_file(&f, preds, names));
        match (got, via_decode(buf, preds, names)) {
            (Ok(got), Ok(want)) if format!("{got:?}") == format!("{want:?}") => Ok(()),
            (Err(_), Err(_)) => Ok(()),
            (got, want) => Err(format!("{preds:?} {names:?}\n got {got:?}\nwant {want:?}")),
        }
    }

    #[test]
    fn scan_file_agrees_for_every_single_predicate_and_projection() {
        // Four copies of `mixed` plus Int(3)/Float(3.0) rows make every
        // column a dictionary page; `mixed` alone stays plain.
        let once = mixed();
        let mut rows: Vec<Vec<Value>> = (0..4).flat_map(|_| once.iter_rows()).collect();
        rows.push(vec![Value::Int(3), Value::str("ab"), Value::Float(3.0)]);
        rows.push(vec![Value::Float(3.0), Value::str("b"), Value::Int(3)]);
        let repeated = Table::from_rows("rep", &["n", "s", "f"], rows).unwrap();
        let projections: [Option<&[&str]>; 4] =
            [None, Some(&[]), Some(&["f", "missing", "n"]), Some(&["s", "s"])];
        for t in [mixed(), repeated] {
            let buf = encode(&t);
            for p in single_predicates() {
                for names in projections {
                    scan_agrees(&buf, std::slice::from_ref(&p), names).unwrap();
                }
            }
            scan_agrees(&buf, &[], None).unwrap();
        }
    }

    #[test]
    fn scan_file_reads_the_first_of_duplicate_columns_and_files_without_columns() {
        let dup = Table::from_columns(
            "dup",
            vec![
                Column::new("x", vec![Value::Int(1), Value::Int(2), Value::Int(1)]),
                Column::new("x", vec![Value::Int(9), Value::Int(9), Value::Int(9)]),
            ],
        )
        .unwrap();
        let buf = encode(&dup);
        let file = ColumnarFile::open(&buf).unwrap();
        let (cols, rows) =
            scan_file(&file, &[Predicate::new("x", CompareOp::Eq, 1i64)], None).unwrap();
        assert_eq!(rows, vec![0, 2]);
        assert_eq!(cols[1].values, vec![Value::Int(9); 2], "no projection: every column");
        let (cols, _) = scan_file(&file, &[], Some(&["x"])).unwrap();
        assert_eq!(cols[0].values, dup.columns()[0].values);
        // A file without columns has no rows, whatever its header says.
        let mut buf = encode(&Table::empty("c"));
        let rows_at = buf.len() - 2;
        buf[rows_at] = 5;
        for names in [None, Some(&["n"][..])] {
            scan_agrees(&buf, &[], names).unwrap();
            scan_agrees(&buf, &[Predicate::new("n", CompareOp::Ne, 0i64)], names).unwrap();
        }
        let file = ColumnarFile::open(&buf).unwrap();
        assert_eq!(scan_file(&file, &[], Some(&["n"])).unwrap().0, vec![Column::new("n", vec![])]);
    }

    /// Nulls, NaN, ±0.0, `Int(3)` beside `Float(3.0)` and strings: the
    /// cells of random tables and the constants of random predicates.
    fn value_pool() -> Vec<Value> {
        vec![
            Value::Null,
            Value::Bool(true),
            Value::Int(-1),
            Value::Int(2),
            Value::Int(3),
            Value::Float(3.0),
            Value::Float(2.5),
            Value::Float(f64::NAN),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::str("a"),
            Value::str("ab"),
            Value::str("3"),
        ]
    }

    /// Up to four columns named from `a`, `b`, `c`, so names repeat and go
    /// missing. A column draws from a window of three pool values (a
    /// dictionary page once it repeats) or from the whole pool.
    fn random_table(seed: u64) -> Table {
        let mut rng = StdRng::seed_from_u64(seed);
        let pool = value_pool();
        let rows = rng.random_range(0..40usize);
        let mut columns = Vec::new();
        for _ in 0..rng.random_range(0..5usize) {
            let name = ["a", "b", "c"][rng.random_range(0..3usize)];
            let spread = if rng.random_bool(0.6) { 3 } else { pool.len() };
            let from = rng.random_range(0..pool.len());
            let mut values = Vec::with_capacity(rows);
            for _ in 0..rows {
                values.push(pool[(from + rng.random_range(0..spread)) % pool.len()].clone());
            }
            columns.push(Column::new(name, values));
        }
        Table::from_columns("random", columns).unwrap()
    }

    /// Up to three predicates and maybe a projection, over the table's
    /// names and one it never has.
    fn random_query(seed: u64) -> (Vec<Predicate>, Option<Vec<&'static str>>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (pool, names) = (value_pool(), ["a", "b", "c", "zz"]);
        let mut preds = Vec::new();
        for _ in 0..rng.random_range(0..4usize) {
            let attribute = names[rng.random_range(0..names.len())].to_string();
            let op = OPS[rng.random_range(0..OPS.len())];
            preds.push(Predicate { attribute, op, value: pool[rng.random_range(0..pool.len())].clone() });
        }
        let projection = rng.random_bool(0.7).then(|| {
            (0..rng.random_range(0..4usize)).map(|_| names[rng.random_range(0..names.len())]).collect()
        });
        (preds, projection)
    }

    proptest! {
        #[test]
        fn scan_file_is_decode_then_matching_rows_then_gather(
            table in any::<u64>(),
            query in any::<u64>(),
        ) {
            let buf = encode(&random_table(table));
            let (preds, projection) = random_query(query);
            prop_assert!(scan_agrees(&buf, &preds, projection.as_deref()).is_ok(), "{:?}",
                scan_agrees(&buf, &preds, projection.as_deref()));
        }

        // Every truncation and a byte flip at every offset: the scan
        // fails iff `decode` does, and agrees with it when neither fails.
        #[test]
        fn scan_file_fails_iff_decode_fails(
            table in any::<u64>(),
            query in any::<u64>(),
            flip in 1u8..=255,
        ) {
            let buf = encode(&random_table(table));
            let (preds, projection) = random_query(query);
            let names = projection.as_deref();
            for at in 0..buf.len() {
                let agree = scan_agrees(&buf[..at], &preds, names);
                prop_assert!(agree.is_ok(), "cut at {}: {:?}", at, agree);
                let mut bad = buf.clone();
                bad[at] ^= flip;
                let agree = scan_agrees(&bad, &preds, names);
                prop_assert!(agree.is_ok(), "flip at {}: {:?}", at, agree);
            }
        }
    }

    #[test]
    fn stats_rule_out_only_what_min_max_disprove() {
        let ids = Column::new("id", (10..20).map(Value::Int).collect());
        let nulls = Column::new("gone", vec![Value::Null; 3]);
        let stats = [ColumnStats::of(&ids), ColumnStats::of(&nulls)];
        let eq = |col: &str, v: i64| Predicate::new(col, CompareOp::Eq, v);
        assert!(!stats_rule_out(&stats, &[eq("id", 10), eq("id", 19)]), "in range");
        assert!(stats_rule_out(&stats, &[eq("id", 9)]), "below min");
        assert!(stats_rule_out(&stats, &[eq("id", 15), eq("id", 20)]), "one conjunct suffices");
        assert!(stats_rule_out(&stats, &[eq("gone", 1)]), "an all-null column equals nothing");
        assert!(!stats_rule_out(&stats, &[eq("other", 99)]), "unknown column");
        assert!(!stats_rule_out(&stats, &[]), "empty conjunction");
        for op in OPS.into_iter().filter(|op| *op != CompareOp::Eq) {
            assert!(!stats_rule_out(&stats, &[Predicate::new("id", op, 99i64)]), "{op:?}");
        }
    }

    #[test]
    fn document_matches_reads_dotted_paths() {
        let doc = Json::obj(vec![
            ("name", Json::str("ada")),
            ("address", Json::obj(vec![("city", Json::str("delft"))])),
            ("age", Json::Num(36.0)),
            ("left", Json::Null),
        ]);
        let city = Predicate::new("address.city", CompareOp::Eq, "delft");
        let adult = Predicate::new("age", CompareOp::Ge, 18i64);
        assert!(document_matches(&doc, &[]));
        assert!(document_matches(&doc, &[city.clone(), adult.clone()]));
        let minor = Predicate::new("age", CompareOp::Lt, 18i64);
        assert!(!document_matches(&doc, &[city.clone(), minor]));
        for path in ["address.zip", "address.city.block", "nope", "left"] {
            for op in OPS {
                let p = Predicate::new(path, op, "delft");
                assert!(!document_matches(&doc, &[adult.clone(), p.clone()]), "{p}");
            }
        }
    }

    #[test]
    fn predicate_display_and_match() {
        let p = Predicate::new("price", CompareOp::Gt, 10i64);
        assert_eq!(p.to_string(), "price > 10");
        assert!(p.matches(&Value::Int(11)));
        assert!(!p.matches(&Value::Int(10)));
        assert!(!p.matches(&Value::Null));
    }
}
