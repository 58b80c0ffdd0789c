//! A small SQL-ish query language.
//!
//! Grammar (case-insensitive keywords):
//!
//! ```text
//! SELECT <col>[, <col>…] | *
//! FROM <table>
//! [WHERE <col> <op> <literal> [AND …]]
//! [LIMIT <n>]
//! ```
//!
//! Literals parse via schema-on-read inference (`42` → int, `'x'`/bare
//! word → string). Operators: `= != <> < <= > >= contains`.

use lake_core::{LakeError, Result, Value};
use lake_store::predicate::{CompareOp, Predicate};

/// A parsed query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Projected columns; empty = `*`.
    pub select: Vec<String>,
    /// Source (mediated) table name.
    pub table: String,
    /// Conjunctive predicates.
    pub filters: Vec<Predicate>,
    /// Optional row limit.
    pub limit: Option<usize>,
}

/// A two-table join query over mediated tables
/// (`SELECT … FROM a JOIN b ON x = y [WHERE …] [LIMIT n]`).
///
/// Attributes are unqualified; the executor resolves each to whichever
/// side's mediation binds it (the join attributes `on.0`/`on.1` bind to
/// the left/right table respectively).
#[derive(Debug, Clone, PartialEq)]
pub struct JoinQuery {
    /// Projected attributes (resolved left-first).
    pub select: Vec<String>,
    /// Left mediated table.
    pub left: String,
    /// Right mediated table.
    pub right: String,
    /// Join attributes: (left attribute, right attribute).
    pub on: (String, String),
    /// Conjunctive predicates (routed to the side binding the attribute).
    pub filters: Vec<Predicate>,
    /// Optional row limit.
    pub limit: Option<usize>,
}

/// Parse a join query string.
pub fn parse_join_query(text: &str) -> Result<JoinQuery> {
    let toks = tokenize(text);
    let mut pos = 0usize;
    expect_kw(&toks, &mut pos, "select")?;
    let mut select = Vec::new();
    if peek(&toks, pos) == Some("*") {
        pos += 1;
    } else {
        loop {
            select.push(next(&toks, &mut pos)?.to_string());
            if peek(&toks, pos) == Some(",") {
                pos += 1;
            } else {
                break;
            }
        }
    }
    expect_kw(&toks, &mut pos, "from")?;
    let left = next(&toks, &mut pos)?.to_string();
    expect_kw(&toks, &mut pos, "join")?;
    let right = next(&toks, &mut pos)?.to_string();
    expect_kw(&toks, &mut pos, "on")?;
    let l_attr = next(&toks, &mut pos)?.to_string();
    let eq = next(&toks, &mut pos)?;
    if eq != "=" {
        return Err(LakeError::query(format!("expected '=' in ON clause, found {eq}")));
    }
    let r_attr = next(&toks, &mut pos)?.to_string();

    let mut filters = Vec::new();
    if peek_kw(&toks, pos, "where") {
        pos += 1;
        loop {
            let attr = next(&toks, &mut pos)?.to_string();
            let op_tok = next(&toks, &mut pos)?;
            let op = CompareOp::parse(&op_tok.to_lowercase())
                .ok_or_else(|| LakeError::query(format!("unknown operator {op_tok}")))?;
            let lit = next(&toks, &mut pos)?;
            filters.push(Predicate { attribute: attr, op, value: literal(lit) });
            if peek_kw(&toks, pos, "and") {
                pos += 1;
            } else {
                break;
            }
        }
    }
    let mut limit = None;
    if peek_kw(&toks, pos, "limit") {
        pos += 1;
        let n = next(&toks, &mut pos)?;
        limit = Some(n.parse().map_err(|_| LakeError::query(format!("bad LIMIT value {n}")))?);
    }
    if pos != toks.len() {
        return Err(LakeError::query(format!("unexpected trailing tokens: {:?}", &toks[pos..])));
    }
    Ok(JoinQuery { select, left, right, on: (l_attr, r_attr), filters, limit })
}

/// Parse a query string.
pub fn parse_query(text: &str) -> Result<Query> {
    let toks = tokenize(text);
    let mut pos = 0usize;
    expect_kw(&toks, &mut pos, "select")?;

    let mut select = Vec::new();
    if peek(&toks, pos) == Some("*") {
        pos += 1;
    } else {
        loop {
            let col = next(&toks, &mut pos)?;
            select.push(col.to_string());
            if peek(&toks, pos) == Some(",") {
                pos += 1;
            } else {
                break;
            }
        }
    }

    expect_kw(&toks, &mut pos, "from")?;
    let table = next(&toks, &mut pos)?.to_string();

    let mut filters = Vec::new();
    if peek_kw(&toks, pos, "where") {
        pos += 1;
        loop {
            let attr = next(&toks, &mut pos)?.to_string();
            let op_tok = next(&toks, &mut pos)?;
            let op = CompareOp::parse(&op_tok.to_lowercase())
                .ok_or_else(|| LakeError::query(format!("unknown operator {op_tok}")))?;
            let lit = next(&toks, &mut pos)?;
            filters.push(Predicate { attribute: attr, op, value: literal(lit) });
            if peek_kw(&toks, pos, "and") {
                pos += 1;
            } else {
                break;
            }
        }
    }

    let mut limit = None;
    if peek_kw(&toks, pos, "limit") {
        pos += 1;
        let n = next(&toks, &mut pos)?;
        limit = Some(
            n.parse()
                .map_err(|_| LakeError::query(format!("bad LIMIT value {n}")))?,
        );
    }
    if pos != toks.len() {
        return Err(LakeError::query(format!("unexpected trailing tokens: {:?}", &toks[pos..])));
    }
    Ok(Query { select, table, filters, limit })
}

fn literal(tok: &str) -> Value {
    if let Some(stripped) = tok.strip_prefix('\'').and_then(|t| t.strip_suffix('\'')) {
        return Value::str(stripped);
    }
    Value::parse_infer(tok)
}

fn tokenize(text: &str) -> Vec<String> {
    let mut toks = Vec::new();
    let mut cur = String::new();
    let mut chars = text.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '\'' => {
                // Quoted literal, kept with quotes.
                let mut s = String::from("'");
                for c in chars.by_ref() {
                    s.push(c);
                    if c == '\'' {
                        break;
                    }
                }
                toks.push(s);
            }
            ',' => {
                if !cur.is_empty() {
                    toks.push(std::mem::take(&mut cur));
                }
                toks.push(",".into());
            }
            '<' | '>' | '=' | '!' => {
                if !cur.is_empty() {
                    toks.push(std::mem::take(&mut cur));
                }
                let mut op = String::from(c);
                if let Some(second) = chars.next_if(|n| matches!(n, '=' | '>')) {
                    op.push(second);
                }
                toks.push(op);
            }
            c if c.is_whitespace() => {
                if !cur.is_empty() {
                    toks.push(std::mem::take(&mut cur));
                }
            }
            c => cur.push(c),
        }
    }
    if !cur.is_empty() {
        toks.push(cur);
    }
    toks
}

fn peek(toks: &[String], pos: usize) -> Option<&str> {
    toks.get(pos).map(String::as_str)
}

fn peek_kw(toks: &[String], pos: usize, kw: &str) -> bool {
    peek(toks, pos).is_some_and(|t| t.eq_ignore_ascii_case(kw))
}

fn next<'a>(toks: &'a [String], pos: &mut usize) -> Result<&'a str> {
    let t = toks
        .get(*pos)
        .map(String::as_str)
        .ok_or_else(|| LakeError::query("unexpected end of query"))?;
    *pos += 1;
    Ok(t)
}

fn expect_kw(toks: &[String], pos: &mut usize, kw: &str) -> Result<()> {
    let t = next(toks, pos)?;
    if t.eq_ignore_ascii_case(kw) {
        Ok(())
    } else {
        Err(LakeError::query(format!("expected {kw}, found {t}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_query() {
        let q = parse_query("SELECT city, total FROM orders WHERE total > 10 AND city = 'delft' LIMIT 5")
            .unwrap();
        assert_eq!(q.select, vec!["city", "total"]);
        assert_eq!(q.table, "orders");
        assert_eq!(q.filters.len(), 2);
        assert_eq!(q.filters[0].op, CompareOp::Gt);
        assert_eq!(q.filters[0].value, Value::Int(10));
        assert_eq!(q.filters[1].value, Value::str("delft"));
        assert_eq!(q.limit, Some(5));
    }

    #[test]
    fn star_select_and_bare_words() {
        let q = parse_query("select * from t where name = alice").unwrap();
        assert!(q.select.is_empty());
        assert_eq!(q.filters[0].value, Value::str("alice"));
        assert_eq!(q.limit, None);
    }

    #[test]
    fn operators_parse() {
        for (src, op) in [
            ("a = 1", CompareOp::Eq),
            ("a != 1", CompareOp::Ne),
            ("a <> 1", CompareOp::Ne),
            ("a <= 1", CompareOp::Le),
            ("a >= 1", CompareOp::Ge),
            ("a contains x", CompareOp::Contains),
        ] {
            let q = parse_query(&format!("select * from t where {src}")).unwrap();
            assert_eq!(q.filters[0].op, op, "{src}");
        }
    }

    #[test]
    fn malformed_queries_error() {
        for bad in [
            "",
            "select",
            "select a from",
            "select a from t where",
            "select a from t where a ~ 1",
            "select a from t limit x",
            "select a from t garbage",
        ] {
            assert!(parse_query(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn quoted_strings_keep_spaces() {
        let q = parse_query("select * from t where city = 'new york'").unwrap();
        assert_eq!(q.filters[0].value, Value::str("new york"));
    }

    #[test]
    fn join_query_parses() {
        let q = parse_join_query(
            "select name, total from customers join orders on customer_id = cust where total > 5 limit 3",
        )
        .unwrap();
        assert_eq!(q.left, "customers");
        assert_eq!(q.right, "orders");
        assert_eq!(q.on, ("customer_id".to_string(), "cust".to_string()));
        assert_eq!(q.select, vec!["name", "total"]);
        assert_eq!(q.filters.len(), 1);
        assert_eq!(q.limit, Some(3));
    }

    #[test]
    fn join_query_rejects_malformed() {
        for bad in [
            "select a from t1 join",
            "select a from t1 join t2",
            "select a from t1 join t2 on x",
            "select a from t1 join t2 on x != y",
        ] {
            assert!(parse_join_query(bad).is_err(), "{bad:?}");
        }
    }
}
