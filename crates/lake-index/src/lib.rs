//! # lake-index
//!
//! Sketches and indexes: the machinery behind related-dataset discovery
//! (survey §6.2, Table 3).
//!
//! * [`minhash`] — MinHash signatures estimating Jaccard similarity
//!   (Aurum's column "signatures").
//! * [`lsh`] — banded locality-sensitive hashing over MinHash signatures:
//!   the index that turns O(n²) all-pairs comparison into ~linear candidate
//!   generation (Aurum, D³L).
//! * [`lshforest`] — LSH Forest, the self-tuning prefix-tree variant the
//!   survey cites for similarity indexes.
//! * [`inverted`] — a value→posting-list inverted index with posting
//!   lengths exposed, the substrate of JOSIE's exact top-k overlap search.
//! * [`tfidf`] — TF-IDF weighting + cosine similarity over token bags
//!   (attribute-name similarity in Aurum/D³L).
//! * [`qgram`] — q-gram tokenization and similarity (D³L's format feature).
//! * [`ks`] — the two-sample Kolmogorov–Smirnov statistic (D³L's and
//!   RNLIM's numeric-distribution feature).
//! * [`embed`] — similarity-preserving text embeddings: hashed character
//!   n-grams with random projection (fastText/BERT stand-in, per the
//!   substitution table in DESIGN.md) and corpus-trained co-occurrence
//!   embeddings (word2vec stand-in).
//! * [`grid`] — PEXESO-style hierarchical grid over unit vectors for
//!   pruned vector-similarity joins.

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

pub mod bloom;
pub mod embed;
pub mod grid;
pub mod inverted;
pub mod ks;
pub mod lsh;
pub mod lshforest;
pub mod minhash;
pub mod qgram;
pub mod tfidf;

pub use inverted::InvertedIndex;
pub use lsh::LshIndex;
pub use minhash::MinHash;
