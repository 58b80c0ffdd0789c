//! # lake-obs — cross-tier observability for rustlake
//!
//! Operational ("process") metadata is a first-class lake function: the
//! maintenance tier can only manage what it can measure. This crate is
//! the shared, zero-external-dependency observability layer the other
//! tiers instrument against:
//!
//! - [`MetricsRegistry`] — counters, gauges, and log₂-bucketed
//!   histograms behind lock-free [`Arc`](std::sync::Arc) handles;
//! - [`Tracer`] / [`Span`] — hierarchical spans timed by the injectable
//!   [`Clock`](lake_core::retry::Clock), deterministic under
//!   `ManualClock`;
//! - [`EventLog`] — a bounded ring of clock-stamped lifecycle events;
//! - [`export`] — Prometheus text and JSON renderers over immutable
//!   [`MetricsSnapshot`]s.
//!
//! ## Layering
//!
//! `lake-obs` is a **leaf utility crate**: it depends only on tier-0
//! (`lake-core`), and every other tier may
//! depend on it (enforced by `lake-lint`'s layering pass). Library code
//! here is panic-free and avoids slice indexing — it runs inside every
//! hot path in the workspace.
//!
//! ## Metric naming
//!
//! `lake_<crate>_<op>_{total,bytes,seconds}` (DESIGN.md §10). `_seconds`
//! histograms record microseconds with a `1e-6` export scale so the hot
//! path stays integer-only.
//!
//! ```
//! use lake_obs::{MetricsRegistry, export, MICROS_TO_SECONDS};
//!
//! let reg = MetricsRegistry::new();
//! reg.counter("lake_store_get_total").inc();
//! reg.histogram("lake_store_get_seconds", MICROS_TO_SECONDS).observe(42);
//! let text = export::prometheus_text(&reg.snapshot());
//! assert!(text.contains("lake_store_get_total 1"));
//! ```

#![cfg_attr(not(test), deny(unused_crate_dependencies))]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::disallowed_methods,
    clippy::indexing_slicing
)]

pub mod events;
pub mod export;
pub mod metrics;
pub mod trace;

pub use events::{Event, EventLog, Level, DEFAULT_EVENT_CAPACITY};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricId, MetricsRegistry, MetricsSnapshot,
    BUCKET_BOUNDS, MICROS_TO_SECONDS,
};
pub use trace::{render_tree, Span, SpanRecord, Tracer, DEFAULT_SPAN_CAPACITY};
