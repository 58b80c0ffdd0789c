//! # lake-formats
//!
//! Raw-data formats, implemented from scratch: CSV, JSON (+ JSON Lines), a
//! pragmatic XML subset, format detection/sniffing, compression codecs
//! (RLE and an LZ77-style codec — stand-ins for Snappy/Gzip, §4.1 of the
//! survey), and binary dataset encodings: a columnar *parquet-lite* with
//! dictionary encoding and per-column min/max statistics (what data
//! skipping and profiling need) and a row-oriented *avro-lite* with an
//! embedded schema.
//!
//! The ingestion tier (`lake-ingest`) uses these parsers for schema-on-read
//! loading; the lakehouse (`lake-house`) uses the columnar encoding and its
//! statistics for data skipping.

#![cfg_attr(not(test), deny(unused_crate_dependencies))]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::disallowed_methods
)]

pub mod columnar;
pub mod compress;
pub mod csv;
pub mod detect;
pub mod json;
pub mod rowenc;
pub mod varint;
pub mod xml;

pub use detect::{detect_format, Format};
