//! # lake-ml
//!
//! A compact machine-learning substrate, built from scratch because several
//! of the surveyed data-lake systems *are* ML systems:
//!
//! * [`tree`] / [`forest`] — CART decision trees and random forests (DLN's
//!   related-column classifiers, §6.2.4).
//! * [`knn`] — k-nearest-neighbour classification (DS-kNN's incremental
//!   dataset categorization, §6.1.2).
//! * [`logistic`] — logistic regression via gradient descent (D³L trains
//!   "a binary classifier … and applies the coefficients of the trained
//!   model as the weight of features", §6.2.1; also RNLIM's head).
//! * [`cluster`] — k-means and threshold-cut agglomerative clustering
//!   (ALITE's hierarchical column clustering, §6.3; Brackenbury's file
//!   clustering, §6.2.1).
//! * [`community`] — label-propagation community detection (DomainNet's
//!   network-based domain disambiguation, §6.4.1).
//! * [`markov`] — the Markov navigation model of Nargesian et al.'s data
//!   lake organizations (§6.1.3).
//!
//! Everything is deterministic given a seed.

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

pub mod cluster;
pub mod community;
pub mod forest;
pub mod knn;
pub mod logistic;
pub mod markov;
pub mod tree;

pub use forest::RandomForest;
pub use knn::KnnClassifier;
pub use logistic::LogisticRegression;
pub use tree::DecisionTree;
