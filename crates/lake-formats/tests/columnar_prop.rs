//! Fuzz-style property tests for the parquet-lite reader: no byte
//! prefix, truncation, or single-byte corruption of an encoded table may
//! ever panic or abort — every failure must surface as a typed
//! `LakeError` (the decoders run inside the server's request path, where
//! an abort would take down every tenant). The scanning view
//! (`ColumnarFile`) must fail exactly where `decode` fails, whether it
//! reads a column or only checks it, and read what `decode` decodes.

use lake_core::{Result, Table, Value};
use lake_formats::columnar::{decode, encode, read_stats, ColumnarFile};
use proptest::prelude::*;

/// Build a deterministic mixed-type table from generator knobs: a mixed
/// column (nulls, NaN, ±0.0, `Int(3)` beside `Float(3.0)`), a repetitive
/// one that forces a dictionary page, and a second, repetitive column
/// named `mixed`.
fn table(rows: usize, variant: u64) -> Table {
    let data: Vec<lake_core::Row> = (0..rows)
        .map(|i| {
            let k = (i as u64).wrapping_mul(0x9e37_79b9).wrapping_add(variant);
            let v = match k % 9 {
                0 => Value::Null,
                1 => Value::Bool(k.is_multiple_of(2)),
                2 => Value::Int((k % 13) as i64 - 6),
                3 => Value::Float((k % 11) as f64 / 4.0),
                // Ord-equal cross-representation pair.
                4 => Value::Int(3),
                5 => Value::Float(3.0),
                6 => Value::Float(f64::NAN),
                7 => Value::Float(-0.0),
                _ => Value::str(format!("s{}", k % 9)),
            };
            let parity = Value::str(if k.is_multiple_of(2) { "even" } else { "odd" });
            let signed_zero = match k % 3 {
                0 => Value::Null,
                1 => Value::Float(0.0),
                _ => Value::Float(-0.0),
            };
            vec![v, parity, signed_zero]
        })
        .collect();
    Table::from_rows("fuzz", &["mixed", "parity", "mixed"], data).unwrap()
}

/// Every column through the view, read.
fn view_read(buf: &[u8]) -> Result<Vec<Vec<Value>>> {
    let file = ColumnarFile::open(buf)?;
    (0..file.stats().len()).map(|i| Ok(file.read(i)?.into_values())).collect()
}

/// Every column through the view, only checked.
fn view_check(buf: &[u8]) -> Result<()> {
    let file = ColumnarFile::open(buf)?;
    (0..file.stats().len()).try_for_each(|i| file.check(i))
}

proptest! {
    // Any strict prefix of a valid encoding is a typed parse error —
    // never a panic, never a silently short table.
    #[test]
    fn truncated_prefixes_error_cleanly(
        rows in 0usize..120,
        variant in any::<u64>(),
        cut in any::<u64>(),
    ) {
        let buf = encode(&table(rows, variant));
        let at = (cut % buf.len() as u64) as usize;
        prop_assert!(decode(&buf[..at]).is_err());
        prop_assert!(view_read(&buf[..at]).is_err());
        prop_assert!(view_check(&buf[..at]).is_err());
        prop_assert!(read_stats(&buf[..at]).is_err());
    }

    // Flipping any single byte decodes to Ok or a typed error — both
    // fine, aborting is not. Header-length lies (row counts, dictionary
    // sizes, payload lengths) land here too via the varint bytes. The
    // view, reading or checking, fails exactly when `decode` does.
    #[test]
    fn corrupted_bytes_never_panic(
        rows in 0usize..120,
        variant in any::<u64>(),
        flip in 1u8..=255,
    ) {
        let buf = encode(&table(rows, variant));
        for at in 0..buf.len() {
            let mut bad = buf.clone();
            bad[at] ^= flip;
            let failed = decode(&bad).is_err();
            prop_assert!(view_read(&bad).is_err() == failed, "read, flip at {}", at);
            prop_assert!(view_check(&bad).is_err() == failed, "check, flip at {}", at);
            let _ = read_stats(&bad);
        }
    }

    // The view reads every column as `decode` decodes it, down to the
    // representation an Ord-collapsed dictionary entry hands every row.
    #[test]
    fn view_reads_what_decode_decodes(rows in 0usize..120, variant in any::<u64>()) {
        let buf = encode(&table(rows, variant));
        let decoded = decode(&buf).unwrap();
        let file = ColumnarFile::open(&buf).unwrap();
        prop_assert_eq!((file.name(), file.num_rows()), (decoded.name.as_str(), decoded.num_rows()));
        prop_assert_eq!(file.stats().to_vec(), read_stats(&buf).unwrap());
        let columns: Vec<&Vec<Value>> = decoded.columns().iter().map(|c| &c.values).collect();
        prop_assert_eq!(format!("{:?}", view_read(&buf).unwrap()), format!("{columns:?}"));
    }
}

#[test]
fn a_file_without_columns_has_no_rows() {
    // `decode` counts a table's rows from its columns, so a header's row
    // count means nothing without one; the view agrees.
    let mut buf = encode(&Table::empty("e"));
    let rows_at = buf.len() - 2;
    buf[rows_at] = 5;
    assert_eq!(decode(&buf).unwrap().num_rows(), 0);
    let file = ColumnarFile::open(&buf).unwrap();
    assert_eq!((file.num_rows(), file.stats().len()), (0, 0));
}
