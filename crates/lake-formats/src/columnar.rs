//! *parquet-lite*: a columnar binary table encoding with per-column
//! dictionary encoding and min/max statistics.
//!
//! Layout (all integers varint unless noted):
//!
//! ```text
//! magic "PQL1"
//! table name | #rows | #columns
//! per column:
//!   name | encoding tag | stats(min,max,null_count,distinct) | payload
//! ```
//!
//! Two encodings are chosen per column: *plain* (each value tagged) and
//! *dictionary* (distinct values + varint codes) when the column repeats
//! values. A [`ColumnarFile`] parses the headers once and decodes a column
//! only when asked, as stored: a dictionary page stays entries plus codes.
//! Its column statistics need no payload at all — exactly what lakehouse
//! data skipping (§8.3) and catalog profiling need.

#![deny(clippy::indexing_slicing)]

use crate::varint::{
    get_f64, get_i64, get_str, get_str_ref, get_u64, put_f64, put_i64, put_str, put_u64,
};
use lake_core::batch::NULL_CODE;
use lake_core::{Column, LakeError, Result, Table, Value};
use std::collections::BTreeMap;

const MAGIC: &[u8; 4] = b"PQL1";

/// Per-column statistics stored in the file and usable for data skipping.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Column name.
    pub name: String,
    /// Minimum non-null value (None when all-null).
    pub min: Option<Value>,
    /// Maximum non-null value.
    pub max: Option<Value>,
    /// Number of nulls.
    pub null_count: u64,
    /// Number of distinct non-null values.
    pub distinct: u64,
}

impl ColumnStats {
    /// Compute stats for a column.
    pub fn of(col: &Column) -> ColumnStats {
        let non_null: Vec<&Value> = col.values.iter().filter(|v| !v.is_null()).collect();
        ColumnStats {
            name: col.name.clone(),
            min: non_null.iter().min().map(|v| (*v).clone()),
            max: non_null.iter().max().map(|v| (*v).clone()),
            null_count: (col.values.len() - non_null.len()) as u64,
            distinct: col.cardinality() as u64,
        }
    }

    /// `true` if a predicate `column == v` can be ruled out by min/max.
    pub fn can_skip_eq(&self, v: &Value) -> bool {
        match (&self.min, &self.max) {
            (Some(min), Some(max)) => v < min || v > max,
            // All-null column can never equal a concrete value.
            _ => !v.is_null(),
        }
    }
}

fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(0),
        Value::Bool(b) => {
            out.push(1);
            out.push(*b as u8);
        }
        Value::Int(i) => {
            out.push(2);
            put_i64(out, *i);
        }
        Value::Float(f) => {
            out.push(3);
            put_f64(out, *f);
        }
        Value::Str(s) => {
            out.push(4);
            put_str(out, s);
        }
    }
}

fn get_value(buf: &[u8], pos: &mut usize) -> Result<Value> {
    let Some(&tag) = buf.get(*pos) else {
        return Err(LakeError::parse("truncated value"));
    };
    *pos += 1;
    Ok(match tag {
        0 => Value::Null,
        1 => {
            let Some(&b) = buf.get(*pos) else {
                return Err(LakeError::parse("truncated bool"));
            };
            *pos += 1;
            Value::Bool(b != 0)
        }
        2 => Value::Int(get_i64(buf, pos)?),
        3 => Value::Float(get_f64(buf, pos)?),
        4 => Value::Str(get_str(buf, pos)?),
        t => return Err(LakeError::parse(format!("bad value tag {t}"))),
    })
}

/// Step over one value, failing exactly where [`get_value`] fails but
/// building nothing.
fn skip_value(buf: &[u8], pos: &mut usize) -> Result<()> {
    let Some(&tag) = buf.get(*pos) else {
        return Err(LakeError::parse("truncated value"));
    };
    *pos += 1;
    match tag {
        0 => Ok(()),
        1 if *pos < buf.len() => {
            *pos += 1;
            Ok(())
        }
        1 => Err(LakeError::parse("truncated bool")),
        2 => get_u64(buf, pos).map(|_| ()),
        3 => get_f64(buf, pos).map(|_| ()),
        4 => get_str_ref(buf, pos).map(|_| ()),
        t => Err(LakeError::parse(format!("bad value tag {t}"))),
    }
}

/// One row's dictionary code, which must name an entry.
fn get_code(buf: &[u8], pos: &mut usize, entries: usize) -> Result<u32> {
    let raw = get_u64(buf, pos)?;
    u32::try_from(raw)
        .ok()
        .filter(|&c| c != NULL_CODE && (c as usize) < entries)
        .ok_or_else(|| LakeError::parse("dictionary code out of range"))
}

fn put_opt_value(out: &mut Vec<u8>, v: &Option<Value>) {
    match v {
        None => out.push(0),
        Some(v) => {
            out.push(1);
            put_value(out, v);
        }
    }
}

fn get_opt_value(buf: &[u8], pos: &mut usize) -> Result<Option<Value>> {
    let Some(&tag) = buf.get(*pos) else {
        return Err(LakeError::parse("truncated option"));
    };
    *pos += 1;
    match tag {
        0 => Ok(None),
        1 => Ok(Some(get_value(buf, pos)?)),
        t => Err(LakeError::parse(format!("bad option tag {t}"))),
    }
}

const ENC_PLAIN: u8 = 0;
const ENC_DICT: u8 = 1;

/// Encode a table to parquet-lite bytes.
pub fn encode(table: &Table) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    put_str(&mut out, &table.name);
    put_u64(&mut out, table.num_rows() as u64);
    put_u64(&mut out, table.num_columns() as u64);
    for col in table.columns() {
        put_str(&mut out, &col.name);
        let stats = ColumnStats::of(col);
        // Decide encoding: dictionary pays off when values repeat.
        let use_dict = stats.distinct > 0 && (stats.distinct as usize) * 2 < col.values.len();
        let mut payload = Vec::new();
        if use_dict {
            // Assign codes while interning, so emitting them needs no
            // second map lookup (and no panicking index).
            let mut dict: Vec<&Value> = Vec::new();
            let mut code_of: BTreeMap<&Value, u64> = BTreeMap::new();
            let mut codes: Vec<u64> = Vec::with_capacity(col.values.len());
            for v in &col.values {
                let next = dict.len() as u64;
                let code = *code_of.entry(v).or_insert_with(|| {
                    dict.push(v);
                    next
                });
                codes.push(code);
            }
            put_u64(&mut payload, dict.len() as u64);
            for v in &dict {
                put_value(&mut payload, v);
            }
            for c in codes {
                put_u64(&mut payload, c);
            }
        } else {
            for v in &col.values {
                put_value(&mut payload, v);
            }
        }
        out.push(if use_dict { ENC_DICT } else { ENC_PLAIN });
        put_opt_value(&mut out, &stats.min);
        put_opt_value(&mut out, &stats.max);
        put_u64(&mut out, stats.null_count);
        put_u64(&mut out, stats.distinct);
        put_u64(&mut out, payload.len() as u64);
        out.extend_from_slice(&payload);
    }
    out
}

/// One column's header fields plus its payload slice; advances `pos`
/// past the payload.
fn read_column_header<'a>(
    buf: &'a [u8],
    pos: &mut usize,
) -> Result<(ColumnStats, u8, &'a [u8])> {
    let name = get_str(buf, pos)?;
    let Some(&enc) = buf.get(*pos) else {
        return Err(LakeError::parse("truncated column header"));
    };
    *pos += 1;
    let min = get_opt_value(buf, pos)?;
    let max = get_opt_value(buf, pos)?;
    let null_count = get_u64(buf, pos)?;
    let distinct = get_u64(buf, pos)?;
    let plen = get_u64(buf, pos)? as usize;
    let payload = pos
        .checked_add(plen)
        .and_then(|end| buf.get(*pos..end))
        .ok_or_else(|| LakeError::parse("truncated column payload"))?;
    *pos += plen;
    Ok((ColumnStats { name, min, max, null_count, distinct }, enc, payload))
}

/// One column as its page stores it.
#[derive(Debug, PartialEq)]
pub enum StoredColumn {
    /// A plain page: one value per row.
    Plain(Vec<Value>),
    /// A dictionary page: its entries in file order and one entry index
    /// per row, with the codes of null entries folded to [`NULL_CODE`].
    Dict {
        /// The dictionary as stored.
        entries: Vec<Value>,
        /// One code per row.
        codes: Vec<u32>,
    },
}

impl StoredColumn {
    /// The value at `row`; `None` past the end and for a null code.
    pub fn get(&self, row: usize) -> Option<&Value> {
        match self {
            StoredColumn::Plain(values) => values.get(row),
            StoredColumn::Dict { entries, codes } => {
                codes.get(row).and_then(|&c| entries.get(c as usize))
            }
        }
    }

    /// Every row's value; a coded row gets its entry's representation.
    pub fn into_values(self) -> Vec<Value> {
        match self {
            StoredColumn::Plain(values) => values,
            StoredColumn::Dict { entries, codes } => codes
                .iter()
                .map(|&c| entries.get(c as usize).cloned().unwrap_or(Value::Null))
                .collect(),
        }
    }
}

/// A parquet-lite buffer opened for scanning: the header and every column
/// header are parsed once, and each payload stays as stored until its
/// column is [read](ColumnarFile::read) or [checked](ColumnarFile::check).
///
/// Capacity hints are clamped by the payload size (every encoded value and
/// code is at least one byte), so a corrupt header claiming 2^60 rows
/// cannot trigger an allocation abort — it runs out of payload and returns
/// a parse error.
#[derive(Debug)]
pub struct ColumnarFile<'a> {
    name: String,
    rows: usize,
    stats: Vec<ColumnStats>,
    pages: Vec<(u8, &'a [u8])>,
}

impl<'a> ColumnarFile<'a> {
    /// Parse the header and the column headers of `buf`.
    pub fn open(buf: &'a [u8]) -> Result<ColumnarFile<'a>> {
        if buf.get(..4) != Some(MAGIC.as_slice()) {
            return Err(LakeError::parse("not a parquet-lite buffer"));
        }
        let mut pos = 4;
        let name = get_str(buf, &mut pos)?;
        let rows = get_u64(buf, &mut pos)? as usize;
        let ncols = get_u64(buf, &mut pos)? as usize;
        let mut stats = Vec::with_capacity(ncols.min(buf.len()));
        let mut pages = Vec::with_capacity(ncols.min(buf.len()));
        for _ in 0..ncols {
            let (s, enc, payload) = read_column_header(buf, &mut pos)?;
            stats.push(s);
            pages.push((enc, payload));
        }
        // A table has as many rows as its columns, so none without columns.
        let rows = if ncols == 0 { 0 } else { rows };
        Ok(ColumnarFile { name, rows, stats, pages })
    }

    /// The table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Per-column statistics, in column order.
    pub fn stats(&self) -> &[ColumnStats] {
        &self.stats
    }

    /// Position of the first column named `name`.
    pub fn position(&self, name: &str) -> Option<usize> {
        self.stats.iter().position(|s| s.name == name)
    }

    fn page(&self, column: usize) -> Result<(u8, &'a [u8])> {
        let page = self.pages.get(column).copied();
        page.ok_or_else(|| LakeError::invalid(format!("no column {column}")))
    }

    /// Decode the column at `column` as stored.
    pub fn read(&self, column: usize) -> Result<StoredColumn> {
        let (enc, payload) = self.page(column)?;
        let mut p = 0;
        match enc {
            ENC_PLAIN => {
                let mut values = Vec::with_capacity(self.rows.min(payload.len()));
                for _ in 0..self.rows {
                    values.push(get_value(payload, &mut p)?);
                }
                Ok(StoredColumn::Plain(values))
            }
            ENC_DICT => {
                let len = get_u64(payload, &mut p)? as usize;
                let mut entries = Vec::with_capacity(len.min(payload.len()));
                for _ in 0..len {
                    entries.push(get_value(payload, &mut p)?);
                }
                let mut codes = Vec::with_capacity(self.rows.min(payload.len()));
                for _ in 0..self.rows {
                    let code = get_code(payload, &mut p, entries.len())?;
                    let null = entries.get(code as usize).is_some_and(Value::is_null);
                    codes.push(if null { NULL_CODE } else { code });
                }
                Ok(StoredColumn::Dict { entries, codes })
            }
            t => Err(LakeError::parse(format!("bad encoding tag {t}"))),
        }
    }

    /// Walk the column at `column` as [`read`](ColumnarFile::read) does and
    /// fail where it fails, building no value.
    pub fn check(&self, column: usize) -> Result<()> {
        let (enc, payload) = self.page(column)?;
        let mut p = 0;
        match enc {
            ENC_PLAIN => (0..self.rows).try_for_each(|_| skip_value(payload, &mut p)),
            ENC_DICT => {
                let len = get_u64(payload, &mut p)? as usize;
                (0..len).try_for_each(|_| skip_value(payload, &mut p))?;
                (0..self.rows).try_for_each(|_| get_code(payload, &mut p, len).map(|_| ()))
            }
            t => Err(LakeError::parse(format!("bad encoding tag {t}"))),
        }
    }
}

/// Decode a full table: the [`ColumnarFile`] reading every column.
pub fn decode(buf: &[u8]) -> Result<Table> {
    let file = ColumnarFile::open(buf)?;
    let columns = file
        .stats
        .iter()
        .enumerate()
        .map(|(i, s)| Ok(Column::new(s.name.clone(), file.read(i)?.into_values())))
        .collect::<Result<Vec<_>>>()?;
    Table::from_columns(file.name, columns)
}

/// Read only the per-column statistics — no payload decoding.
///
/// This is the data-skipping entry point: the lakehouse consults file
/// statistics to prune files before scanning them.
pub fn read_stats(buf: &[u8]) -> Result<Vec<ColumnStats>> {
    ColumnarFile::open(buf).map(|f| f.stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        Table::from_rows(
            "cities",
            &["id", "city", "pop", "eu"],
            vec![
                vec![Value::Int(1), Value::str("berlin"), Value::Float(3.6), Value::Bool(true)],
                vec![Value::Int(2), Value::str("berlin"), Value::Float(2.1), Value::Bool(true)],
                vec![Value::Int(3), Value::str("delft"), Value::Null, Value::Bool(true)],
                vec![Value::Int(4), Value::str("berlin"), Value::Float(1.3), Value::Bool(true)],
                vec![Value::Int(5), Value::str("delft"), Value::Float(0.1), Value::Bool(true)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn encode_decode_roundtrip() {
        let t = sample();
        let buf = encode(&t);
        assert_eq!(decode(&buf).unwrap(), t);
    }

    #[test]
    fn empty_table_roundtrip() {
        let t = Table::empty("e");
        assert_eq!(decode(&encode(&t)).unwrap(), t);
    }

    #[test]
    fn stats_without_decoding() {
        let t = sample();
        let stats = read_stats(&encode(&t)).unwrap();
        let pop = stats.iter().find(|s| s.name == "pop").unwrap();
        assert_eq!(pop.min, Some(Value::Float(0.1)));
        assert_eq!(pop.max, Some(Value::Float(3.6)));
        assert_eq!(pop.null_count, 1);
        assert_eq!(pop.distinct, 4);
        let city = stats.iter().find(|s| s.name == "city").unwrap();
        assert_eq!(city.distinct, 2);
    }

    #[test]
    fn skip_eq_uses_minmax() {
        let t = sample();
        let stats = read_stats(&encode(&t)).unwrap();
        let id = stats.iter().find(|s| s.name == "id").unwrap();
        assert!(id.can_skip_eq(&Value::Int(99)));
        assert!(!id.can_skip_eq(&Value::Int(3)));
        assert!(id.can_skip_eq(&Value::Int(0)));
    }

    #[test]
    fn dictionary_encoding_is_chosen_and_smaller() {
        // Highly repetitive column ⇒ dict encoding beats plain.
        let reps: Vec<lake_core::Row> = (0..1000)
            .map(|i| vec![Value::str(if i % 2 == 0 { "aaaaaaaaaa" } else { "bbbbbbbbbb" })])
            .collect();
        let t = Table::from_rows("r", &["x"], reps).unwrap();
        let buf = encode(&t);
        assert!(buf.len() < 1000 * 5, "dict should shrink: {}", buf.len());
        assert_eq!(decode(&buf).unwrap(), t);
    }

    #[test]
    fn corrupted_buffers_error_cleanly() {
        let buf = encode(&sample());
        assert!(decode(b"nope").is_err());
        assert!(decode(&buf[..10]).is_err());
        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(decode(&bad).is_err());
    }

    #[test]
    fn view_reads_each_page_as_stored() {
        let t = sample();
        let buf = encode(&t);
        let file = ColumnarFile::open(&buf).unwrap();
        assert_eq!((file.name(), file.num_rows()), ("cities", 5));
        assert_eq!(file.stats(), read_stats(&buf).unwrap());
        let city = file.read(file.position("city").unwrap()).unwrap();
        let (berlin, delft) = (Value::str("berlin"), Value::str("delft"));
        let codes = vec![0, 0, 1, 0, 1];
        assert_eq!(city, StoredColumn::Dict { entries: vec![berlin.clone(), delft], codes });
        assert_eq!(city.get(3), Some(&berlin));
        assert_eq!(city.get(5), None);
        let id = file.read(0).unwrap();
        assert_eq!(id, StoredColumn::Plain((1..=5).map(Value::Int).collect()));
        let decoded = decode(&buf).unwrap();
        for (i, col) in decoded.columns().iter().enumerate() {
            assert_eq!(file.read(i).unwrap().into_values(), col.values);
            file.check(i).unwrap();
        }
        assert!(file.read(4).is_err() && file.check(4).is_err(), "no fifth column");
        assert_eq!(file.position("nope"), None);
    }

    #[test]
    fn null_dictionary_entries_fold_to_the_null_code() {
        let reps: Vec<lake_core::Row> = (0..300)
            .map(|i| vec![if i % 3 == 0 { Value::Null } else { Value::Int(i % 2) }])
            .collect();
        let t = Table::from_rows("r", &["x"], reps).unwrap();
        let buf = encode(&t);
        let col = ColumnarFile::open(&buf).unwrap().read(0).unwrap();
        let StoredColumn::Dict { codes, .. } = &col else { panic!("{col:?}") };
        assert_eq!(codes[0], NULL_CODE);
        assert_eq!(col.get(0), None);
        assert_eq!(col.into_values(), t.columns()[0].values);
    }

    #[test]
    fn mixed_representation_dict_column_decodes_to_ord_equal_rows() {
        // Disk dictionaries dedup by Ord (Int(3) and Float(3.0) share an
        // entry), so every row reads back as the entry stored first: the
        // rows are Ord-equal to what was written, and the view and
        // `decode` hand out the same representation.
        let rows: Vec<lake_core::Row> = (0..100)
            .map(|i| vec![if i % 2 == 0 { Value::Int(3) } else { Value::Float(3.0) }])
            .collect();
        let t = Table::from_rows("m", &["x"], rows).unwrap();
        let buf = encode(&t);
        let col = ColumnarFile::open(&buf).unwrap().read(0).unwrap();
        assert!(matches!(&col, StoredColumn::Dict { entries, .. } if entries.len() == 1));
        let decoded = decode(&buf).unwrap();
        assert_eq!(decoded, t);
        let repr = format!("{:?}", col.into_values());
        assert_eq!(repr, format!("{:?}", decoded.columns()[0].values));
        assert_eq!(repr, format!("{:?}", vec![Value::Int(3); 100]));
    }

    #[test]
    fn check_fails_where_read_fails() {
        let rows: Vec<lake_core::Row> =
            (0..6).map(|i| vec![Value::str(if i < 3 { "é" } else { "x" })]).collect();
        let buf = encode(&Table::from_rows("r", &["s"], rows).unwrap());
        let ok = ColumnarFile::open(&buf).unwrap();
        assert!(ok.read(0).is_ok() && ok.check(0).is_ok());
        // The page ends the buffer: 2 entries | "é" (4 bytes) | "x" (3) | 6
        // codes. Its encoding tag sits before min "x" (4), max "é" (5),
        // the null count, the distinct count and the page length.
        let page = buf.len() - 14;
        let tag = page - 13;
        assert_eq!((buf[tag], buf[page + 3]), (ENC_DICT, 0xc3));
        for (at, byte) in [(tag, 9u8), (page + 3, 0xff), (buf.len() - 1, 2)] {
            let mut bad = buf.clone();
            bad[at] = byte;
            let file = ColumnarFile::open(&bad).unwrap();
            assert!(file.read(0).is_err(), "read at {at}");
            assert!(file.check(0).is_err(), "check at {at}");
            assert!(decode(&bad).is_err(), "decode at {at}");
        }
    }

    #[test]
    fn all_null_column_stats() {
        let t = Table::from_rows("n", &["a"], vec![vec![Value::Null], vec![Value::Null]]).unwrap();
        let stats = read_stats(&encode(&t)).unwrap();
        assert_eq!(stats[0].min, None);
        assert!(stats[0].can_skip_eq(&Value::Int(1)));
        assert_eq!(decode(&encode(&t)).unwrap(), t);
    }
}
