//! CSV parsing and writing (RFC 4180-style, from scratch).
//!
//! Supports quoted fields with embedded delimiters/newlines/escaped quotes,
//! configurable delimiters, delimiter sniffing, and schema-on-read type
//! inference via [`lake_core::Value::parse_infer`].
//!
//! One byte tokenizer holds the grammar; [`parse_records`],
//! [`sniff_delimiter`] and [`parse_table`] all read through it. It hands
//! each field to its caller as a `&str`: an unquoted field is a slice of
//! the input, a quoted one is unescaped into one reused buffer. A
//! multi-byte delimiter is matched by its UTF-8 bytes. [`parse_table`]
//! pushes the values straight into one builder per column.

#![deny(clippy::indexing_slicing)]

use lake_core::schema::dedup_names;
use lake_core::{Column, LakeError, Result, Table, Value};
use std::fmt::Write as _;

/// CSV parse options.
#[derive(Debug, Clone, Copy)]
pub struct CsvOptions {
    /// Field delimiter.
    pub delimiter: char,
    /// Whether the first record is a header.
    pub has_header: bool,
    /// Infer types (`true`) or keep every field a string (`false`).
    pub infer_types: bool,
}

impl Default for CsvOptions {
    fn default() -> Self {
        CsvOptions { delimiter: ',', has_header: true, infer_types: true }
    }
}

/// Run the CSV grammar over `text`, calling `field(content, ends_record)`
/// once per field in order.
///
/// A field may open with a quoted part, in which a doubled quote is one
/// quote and the delimiter, CR and LF are text; unquoted text may follow
/// it. A quote anywhere else is an error. Outside quotes the delimiter
/// ends a field, and LF, CRLF or a stray CR ends a record. An empty last
/// line (nothing, or only `""`) is no record, and blank records (one
/// empty field) at the end are dropped; blank records elsewhere are kept.
fn tokenize(text: &str, delimiter: char, mut field: impl FnMut(&str, bool) -> Result<()>) -> Result<()> {
    let bytes = text.as_bytes();
    let mut enc = [0u8; 4];
    let delim = delimiter.encode_utf8(&mut enc).as_bytes();
    let lead = delim.first().copied().unwrap_or_default();
    let slice = |from: usize, to: usize| {
        // Every cut sits before an ASCII byte or a delimiter's lead byte,
        // or at the end: always a char boundary.
        text.get(from..to).ok_or_else(|| LakeError::parse("field boundary inside a character"))
    };
    let mut quoted = String::new();
    let mut pos = 0;
    // Fields so far in the current record; records ended so far; blank
    // records held back until a later record shows they are not trailing.
    let (mut fields, mut records, mut blanks) = (0usize, 0usize, 0usize);
    loop {
        let start = pos;
        let is_quoted = bytes.get(pos) == Some(&b'"');
        if is_quoted {
            quoted.clear();
            pos += 1;
            loop {
                let Some(len) = bytes.get(pos..).and_then(|rest| rest.iter().position(|&b| b == b'"')) else {
                    return Err(LakeError::parse("unterminated quoted field"));
                };
                quoted.push_str(slice(pos, pos + len)?);
                pos += len + 1;
                if bytes.get(pos) != Some(&b'"') {
                    break;
                }
                quoted.push('"');
                pos += 1;
            }
        }
        // The unquoted rest of the field, up to its end.
        let tail = pos;
        let (end, ends_record, next) = loop {
            let special = |&b: &u8| b == b'"' || b == lead || b == b'\r' || b == b'\n';
            let Some(len) = bytes.get(pos..).and_then(|rest| rest.iter().position(special)) else {
                break (bytes.len(), true, None);
            };
            pos += len;
            let rest = bytes.get(pos..).unwrap_or_default();
            match rest.first() {
                // A field's first byte opens quotes; this one is later.
                Some(b'"') => {
                    return Err(LakeError::parse(format!(
                        "unexpected quote inside unquoted field near record {}",
                        records + 1
                    )))
                }
                _ if rest.starts_with(delim) => break (pos, false, Some(pos + delim.len())),
                Some(b'\r') if rest.get(1) == Some(&b'\n') => break (pos, true, Some(pos + 2)),
                Some(b'\r' | b'\n') => break (pos, true, Some(pos + 1)),
                // A multi-byte delimiter's lead byte starting another char.
                _ => pos += 1,
            }
        };
        let content = if is_quoted {
            quoted.push_str(slice(tail, end)?);
            quoted.as_str()
        } else {
            slice(start, end)?
        };
        let blank = fields == 0 && content.is_empty();
        if blank && ends_record {
            if next.is_none() {
                return Ok(());
            }
            blanks += 1;
        } else {
            for _ in 0..std::mem::take(&mut blanks) {
                field("", true)?;
            }
            field(content, ends_record)?;
        }
        let Some(next) = next else { return Ok(()) };
        pos = next;
        if ends_record {
            (fields, records) = (0, records + 1);
        } else {
            fields += 1;
        }
    }
}

/// Split raw CSV text into records of string fields, honoring quotes.
pub fn parse_records(text: &str, delimiter: char) -> Result<Vec<Vec<String>>> {
    let mut records = Vec::new();
    let mut record = Vec::new();
    tokenize(text, delimiter, |field, ends_record| {
        record.push(field.to_owned());
        if ends_record {
            records.push(std::mem::take(&mut record));
        }
        Ok(())
    })?;
    Ok(records)
}

/// Parse CSV text into a [`Table`].
///
/// The first record fixes the width. A shorter row is padded with nulls;
/// a longer one is a schema error. Repeated header names are made
/// distinct by [`dedup_names`].
pub fn parse_table(name: &str, text: &str, opts: CsvOptions) -> Result<Table> {
    let value = |field: &str| {
        if opts.infer_types {
            Value::parse_infer(field)
        } else {
            Value::Str(field.to_owned())
        }
    };
    let mut names: Vec<String> = Vec::new();
    let mut columns: Vec<Vec<Value>> = Vec::new();
    // Until the first record ends, its fields are the header (or, without
    // one, the first row, whose width names the columns).
    let mut first = true;
    // Field index in the record, data row index, and whether this row has
    // more fields than there are columns.
    let (mut at, mut row, mut overflow) = (0usize, 0usize, false);
    let mut long_row = None;
    tokenize(text, opts.delimiter, |field, ends_record| {
        if long_row.is_some() {
            // The grammar still runs to the end: a syntax error anywhere
            // is reported before the long row.
            return Ok(());
        }
        if first && opts.has_header {
            names.push(field.to_owned());
        } else if first {
            names.push(format!("col{at}"));
            columns.push(vec![value(field)]);
        } else if let Some(column) = columns.get_mut(at) {
            column.push(value(field));
        } else {
            overflow = true;
        }
        if !ends_record {
            at += 1;
            return Ok(());
        }
        if first {
            first = false;
            columns.resize_with(names.len(), Vec::new);
            row = usize::from(!opts.has_header);
        } else if overflow {
            let e = format!("row {row} has {} values, header has {}", at + 1, names.len());
            long_row = Some(LakeError::schema(e));
        } else {
            for column in columns.iter_mut().skip(at + 1) {
                column.push(Value::Null);
            }
            row += 1;
        }
        at = 0;
        Ok(())
    })?;
    if let Some(e) = long_row {
        return Err(e);
    }
    if first {
        return Ok(Table::empty(name));
    }
    dedup_names(&mut names);
    let columns = names.into_iter().zip(columns).map(|(n, values)| Column::new(n, values)).collect();
    Table::from_columns(name, columns)
}

/// Guess the delimiter by scoring consistency of field counts across the
/// first lines, for each candidate in `,;|\t`.
pub fn sniff_delimiter(text: &str) -> char {
    let candidates = [',', ';', '|', '\t'];
    let mut best = (',', 0usize);
    for &d in &candidates {
        // Widths of the first ten records; the rest are only checked.
        let mut head: Vec<usize> = Vec::with_capacity(10);
        let mut fields = 0;
        let ok = tokenize(text, d, |_, ends_record| {
            fields += 1;
            if ends_record {
                if head.len() < 10 {
                    head.push(fields);
                }
                fields = 0;
            }
            Ok(())
        });
        let (Ok(()), Some(&width)) = (ok, head.first()) else { continue };
        if width < 2 {
            continue;
        }
        let consistent = head.iter().filter(|&&w| w == width).count();
        let score = consistent * width;
        if score > best.1 {
            best = (d, score);
        }
    }
    best.0
}

/// Append `field` to `out`, quoted if it contains the delimiter, a quote,
/// CR or LF.
fn push_field(out: &mut String, field: &str, delimiter: char) {
    if !field.contains([delimiter, '"', '\n', '\r']) {
        out.push_str(field);
        return;
    }
    out.push('"');
    for (i, part) in field.split('"').enumerate() {
        if i > 0 {
            out.push_str("\"\"");
        }
        out.push_str(part);
    }
    out.push('"');
}

/// Serialize a [`Table`] to CSV text with a header row.
pub fn write_table(table: &Table, delimiter: char) -> String {
    let mut out = String::new();
    for (i, column) in table.columns().iter().enumerate() {
        if i > 0 {
            out.push(delimiter);
        }
        push_field(&mut out, &column.name, delimiter);
    }
    out.push('\n');
    let mut cells: Vec<_> = table.columns().iter().map(|c| c.values.iter()).collect();
    let mut scratch = String::new();
    for _ in 0..table.num_rows() {
        for (i, value) in cells.iter_mut().filter_map(Iterator::next).enumerate() {
            if i > 0 {
                out.push(delimiter);
            }
            match value {
                Value::Null => {}
                Value::Str(s) => push_field(&mut out, s, delimiter),
                // Rendered first: a delimiter such as `.` or `-` may occur
                // in a number and need quotes.
                other => {
                    scratch.clear();
                    let _ = write!(scratch, "{other}");
                    push_field(&mut out, &scratch, delimiter);
                }
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lake_core::batch::strict_value_cmp;
    use lake_core::synth::{generate_lake, LakeGenConfig};
    use lake_core::DataType;
    use proptest::prelude::*;
    use std::cmp::Ordering;

    /// The record-splitting parser, table builder and writer the
    /// tokenizer replaced, kept unchanged as the oracle.
    mod reference {
        use lake_core::{LakeError, Result, Row, Table, Value};

        /// Split raw CSV text into records of string fields, honoring quotes.
        pub fn parse_records(text: &str, delimiter: char) -> Result<Vec<Vec<String>>> {
            let mut records = Vec::new();
            let mut record: Vec<String> = Vec::new();
            let mut field = String::new();
            let mut in_quotes = false;
            let mut chars = text.chars().peekable();
            let mut any = false;

            while let Some(c) = chars.next() {
                any = true;
                if in_quotes {
                    match c {
                        '"' => {
                            if chars.peek() == Some(&'"') {
                                chars.next();
                                field.push('"');
                            } else {
                                in_quotes = false;
                            }
                        }
                        c => field.push(c),
                    }
                } else {
                    match c {
                        '"' => {
                            if !field.is_empty() {
                                return Err(LakeError::parse(format!(
                                    "unexpected quote inside unquoted field near record {}",
                                    records.len() + 1
                                )));
                            }
                            in_quotes = true;
                        }
                        c if c == delimiter => {
                            record.push(std::mem::take(&mut field));
                        }
                        '\r' => {
                            // Swallow CR of CRLF; stray CR is treated as newline.
                            if chars.peek() == Some(&'\n') {
                                continue;
                            }
                            record.push(std::mem::take(&mut field));
                            records.push(std::mem::take(&mut record));
                        }
                        '\n' => {
                            record.push(std::mem::take(&mut field));
                            records.push(std::mem::take(&mut record));
                        }
                        c => field.push(c),
                    }
                }
            }
            if in_quotes {
                return Err(LakeError::parse("unterminated quoted field"));
            }
            if any && (!field.is_empty() || !record.is_empty()) {
                record.push(field);
                records.push(record);
            }
            // Drop completely empty trailing records (text ending in "\n\n").
            while records.last().is_some_and(|r| r.len() == 1 && r[0].is_empty()) {
                records.pop();
            }
            Ok(records)
        }

        /// Parse CSV text into a [`Table`].
        pub fn parse_table(name: &str, text: &str, opts: super::CsvOptions) -> Result<Table> {
            let mut records = parse_records(text, opts.delimiter)?;
            if records.is_empty() {
                return Ok(Table::empty(name));
            }
            let header: Vec<String> = if opts.has_header {
                records.remove(0)
            } else {
                (0..records[0].len()).map(|i| format!("col{i}")).collect()
            };
            let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
            let rows: Vec<Row> = records
                .into_iter()
                .map(|rec| {
                    rec.into_iter()
                        .map(|f| if opts.infer_types { Value::parse_infer(&f) } else { Value::Str(f) })
                        .collect()
                })
                .collect();
            let mut t = Table::from_rows(name, &header_refs, rows)?;
            // Raw headers may collide; disambiguate like the schema does.
            let mut schema = t.schema();
            schema.dedup_names();
            if schema.names() != t.schema().names() {
                let renamed: Vec<String> = schema.names().iter().map(|s| s.to_string()).collect();
                let cols = t
                    .columns()
                    .iter()
                    .zip(renamed)
                    .map(|(c, n)| lake_core::Column::new(n, c.values.clone()))
                    .collect();
                t = Table::from_columns(name, cols)?;
            }
            Ok(t)
        }

        /// Quote a field if it contains the delimiter, quotes, or newlines.
        fn quote_field(field: &str, delimiter: char) -> String {
            if field.contains(delimiter) || field.contains('"') || field.contains('\n') || field.contains('\r') {
                format!("\"{}\"", field.replace('"', "\"\""))
            } else {
                field.to_string()
            }
        }

        /// Serialize a [`Table`] to CSV text with a header row.
        pub fn write_table(table: &Table, delimiter: char) -> String {
            let mut out = String::new();
            let header: Vec<String> = table
                .columns()
                .iter()
                .map(|c| quote_field(&c.name, delimiter))
                .collect();
            out.push_str(&header.join(&delimiter.to_string()));
            out.push('\n');
            for i in 0..table.num_rows() {
                let row: Vec<String> = table
                    .columns()
                    .iter()
                    .map(|c| quote_field(&c.values[i].render(), delimiter))
                    .collect();
                out.push_str(&row.join(&delimiter.to_string()));
                out.push('\n');
            }
            out
        }
    }

    /// Equal tables: name, column names and every value, where `Int(3)`
    /// and `Float(3.0)` differ; or both errors.
    fn same_tables(got: &Result<Table>, want: &Result<Table>) -> std::result::Result<(), String> {
        let (got, want) = match (got, want) {
            (Err(_), Err(_)) => return Ok(()),
            (Ok(g), Ok(w)) => (g, w),
            _ => return Err(format!("got {got:?}, oracle {want:?}")),
        };
        let names = |t: &Table| t.columns().iter().map(|c| c.name.clone()).collect::<Vec<_>>();
        if got.name != want.name || names(got) != names(want) || got.num_rows() != want.num_rows() {
            let shape = |t: &Table| format!("{:?} × {} rows", names(t), t.num_rows());
            return Err(format!("got {}, oracle {}", shape(got), shape(want)));
        }
        for (g, w) in got.columns().iter().zip(want.columns()) {
            for (row, (a, b)) in g.values.iter().zip(&w.values).enumerate() {
                if strict_value_cmp(a, b) != Ordering::Equal {
                    return Err(format!("column {} row {row}: got {a:?}, oracle {b:?}", g.name));
                }
            }
        }
        Ok(())
    }

    fn check(text: &str, opts: CsvOptions) -> std::result::Result<(), String> {
        let records = parse_records(text, opts.delimiter).map_err(|e| e.to_string());
        let oracle = reference::parse_records(text, opts.delimiter).map_err(|e| e.to_string());
        // Equal records, or both errors.
        if records.as_ref().ok() != oracle.as_ref().ok() {
            return Err(format!("{text:?} {opts:?}: records {records:?}, oracle {oracle:?}"));
        }
        same_tables(&parse_table("t", text, opts), &reference::parse_table("t", text, opts))
            .map_err(|e| format!("{text:?} {opts:?}: {e}"))
    }

    /// Every option combination the oracle tests cross with their inputs.
    fn option_sets() -> Vec<CsvOptions> {
        let mut all = Vec::new();
        for delimiter in [',', ';', '¦'] {
            for has_header in [true, false] {
                for infer_types in [true, false] {
                    all.push(CsvOptions { delimiter, has_header, infer_types });
                }
            }
        }
        all
    }

    #[test]
    fn parses_simple_csv_with_types() {
        let t = parse_table("t", "a,b,c\n1,x,2.5\n2,y,\n", CsvOptions::default()).unwrap();
        assert_eq!(t.num_rows(), 2);
        let s = t.schema();
        assert_eq!(s.field("a").unwrap().dtype, DataType::Int);
        assert_eq!(s.field("b").unwrap().dtype, DataType::Str);
        assert_eq!(s.field("c").unwrap().dtype, DataType::Float);
        assert_eq!(t.column("c").unwrap().values[1], Value::Null);
    }

    #[test]
    fn quoted_fields_with_delimiters_and_newlines() {
        let t = parse_table(
            "t",
            "name,notes\n\"smith, john\",\"line1\nline2\"\nplain,\"say \"\"hi\"\"\"\n",
            CsvOptions::default(),
        )
        .unwrap();
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.column("name").unwrap().values[0], Value::str("smith, john"));
        assert_eq!(t.column("notes").unwrap().values[0], Value::str("line1\nline2"));
        assert_eq!(t.column("notes").unwrap().values[1], Value::str("say \"hi\""));
    }

    #[test]
    fn crlf_and_trailing_newlines() {
        let t = parse_table("t", "a,b\r\n1,2\r\n\n", CsvOptions::default()).unwrap();
        assert_eq!(t.num_rows(), 1);
    }

    #[test]
    fn headerless_mode_names_columns() {
        let opts = CsvOptions { has_header: false, ..CsvOptions::default() };
        let t = parse_table("t", "1,2\n3,4\n", opts).unwrap();
        assert_eq!(t.column("col0").unwrap().values[1], Value::Int(3));
    }

    #[test]
    fn no_inference_keeps_strings() {
        let opts = CsvOptions { infer_types: false, ..CsvOptions::default() };
        let t = parse_table("t", "a\n42\n", opts).unwrap();
        assert_eq!(t.column("a").unwrap().values[0], Value::str("42"));
    }

    #[test]
    fn unterminated_quote_is_error() {
        assert!(parse_table("t", "a\n\"oops\n", CsvOptions::default()).is_err());
    }

    #[test]
    fn duplicate_headers_are_renamed() {
        let t = parse_table("t", "a,a\n1,2\n", CsvOptions::default()).unwrap();
        assert!(t.column("a").is_some());
        assert!(t.column("a_2").is_some());
    }

    #[test]
    fn renamed_headers_never_shadow_a_later_header() {
        // `a_2` is taken by the third header, so the second `a` becomes
        // `a_3`, and `a_2` still names the third column.
        let t = parse_table("t", "a,a,a_2\n1,2,3\n", CsvOptions::default()).unwrap();
        let names: Vec<&str> = t.columns().iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["a", "a_3", "a_2"]);
        assert_eq!(t.column("a_2").unwrap().values, [Value::Int(3)]);
        let t = parse_table("t", "a,a,a\n1,2,3\n", CsvOptions::default()).unwrap();
        let names: Vec<&str> = t.columns().iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["a", "a_2", "a_3"]);
    }

    #[test]
    fn long_row_is_a_schema_error() {
        let text = "a,b\n1,2\n1,2,3\n";
        let err = parse_table("t", text, CsvOptions::default()).unwrap_err();
        assert!(matches!(err, LakeError::Schema(_)), "{err:?}");
        let oracle = reference::parse_table("t", text, CsvOptions::default()).unwrap_err();
        assert_eq!(err.to_string(), oracle.to_string());
        // A syntax error later in the text is reported instead, as the
        // oracle, which splits every record first, does.
        let err = parse_table("t", "a,b\n1,2,3\nx\"\n", CsvOptions::default()).unwrap_err();
        assert!(matches!(err, LakeError::Parse(_)), "{err:?}");
    }

    #[test]
    fn sniffs_semicolon_and_tab() {
        assert_eq!(sniff_delimiter("a;b;c\n1;2;3\n"), ';');
        assert_eq!(sniff_delimiter("a\tb\n1\t2\n"), '\t');
        assert_eq!(sniff_delimiter("a,b\n1,2\n"), ',');
    }

    #[test]
    fn write_parse_roundtrip() {
        let t = parse_table(
            "t",
            "a,b\n1,\"x,y\"\n2,\"q\"\"z\"\n",
            CsvOptions::default(),
        )
        .unwrap();
        let text = write_table(&t, ',');
        let t2 = parse_table("t", &text, CsvOptions::default()).unwrap();
        assert_eq!(t, t2);
    }

    #[test]
    fn empty_input_yields_empty_table() {
        let t = parse_table("t", "", CsvOptions::default()).unwrap();
        assert_eq!(t.num_rows(), 0);
        assert_eq!(t.num_columns(), 0);
    }

    #[test]
    fn edge_cases_parse_as_the_oracle_does() {
        let cases = [
            "",
            "\n",
            "\"\"",
            "\"\"\n",
            "a,b\n\"x,y\",\"line\nbreak\"\n\"say \"\"hi\"\"\",\"\"\n",
            "a,b\r\n1,2\r\n3,4\r\n",
            "a,b\r1,2\r3\r\n",
            "a,b\n1\n2,3\n\n4\n",
            "a,b,c\n1,2\n,\n",
            "a,b\n1,2,3\n",
            "a,b\n1,2\n\n\n3,4\n\n\n",
            "a;b\n1;2\n",
            "a¦b\n1¦2\n\"¦\"¦x\n",
            // `¢` starts with the same UTF-8 byte as `¦`.
            "a¦b\n¢¦1\nx¢¦¢\n",
            "a,b\n\"q\"tail,2\n",
            "a,b\n1\"2,3\n",
            "a,b\n\"open,2\n",
            "a,b\n\"\"x\"\n",
            "a,\n,\n",
            " a , b \n 1 , true \n",
            "x\n1.5\n-0.0\nNA\n9223372036854775808\n",
            "a,a,a_2\n1,2,3\n",
            "\n\na,b\n1,2\n",
            "é,ü\n€,ß\n",
        ];
        for text in cases {
            for opts in option_sets() {
                check(text, opts).unwrap();
            }
        }
    }

    /// The `discover` benchmark's lake: 8 groups × 4 tables + 4 noise
    /// tables of 4–5 k rows.
    fn bench_lake(seed: u64) -> Vec<Table> {
        let cfg = LakeGenConfig {
            seed,
            groups: 8,
            tables_per_group: 4,
            noise_tables: 4,
            rows: (4_000, 5_000),
            key_pool: 2_000,
            ..LakeGenConfig::default()
        };
        generate_lake(&cfg).tables
    }

    #[test]
    fn bench_lake_parses_and_writes_as_the_oracle_does() {
        for seed in [7, 42, 1337] {
            for table in bench_lake(seed) {
                let text = write_table(&table, ',');
                assert_eq!(text, reference::write_table(&table, ','), "{} at seed {seed}", table.name);
                let opts = CsvOptions::default();
                let got = parse_table(&table.name, &text, opts);
                same_tables(&got, &reference::parse_table(&table.name, &text, opts)).unwrap();
                assert_eq!(got.unwrap().num_rows(), table.num_rows());
            }
        }
    }

    #[test]
    fn writer_quotes_numbers_that_hold_the_delimiter() {
        let t = Table::from_columns(
            "t",
            vec![
                Column::new("a.b", vec![Value::Float(1.5), Value::Int(-2), Value::Null]),
                Column::new("c", vec![Value::Bool(true), Value::str("x\"y"), Value::Float(f64::NAN)]),
            ],
        )
        .unwrap();
        for delimiter in [',', '.', '-', 'e', '¦'] {
            assert_eq!(write_table(&t, delimiter), reference::write_table(&t, delimiter), "{delimiter:?}");
        }
    }

    proptest! {
        // Each case is a batch of short texts over the characters the
        // grammar treats specially, each parsed under every option set.
        // `¢` shares its first UTF-8 byte with the `¦` delimiter.
        #[test]
        fn random_text_parses_as_the_oracle_does(
            texts in proptest::collection::vec(proptest::collection::vec(0usize..11, 0..30), 1..40),
        ) {
            const ALPHABET: [char; 11] = ['a', '1', '.', ',', ';', '"', '\r', '\n', ' ', '¦', '¢'];
            for picks in texts {
                let text: String = picks.into_iter().filter_map(|i| ALPHABET.get(i)).collect();
                for opts in option_sets() {
                    let outcome = check(&text, opts);
                    prop_assert!(outcome.is_ok(), "{outcome:?}");
                }
            }
        }
    }
}
