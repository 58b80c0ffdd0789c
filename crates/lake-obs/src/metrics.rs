//! The metrics registry: counters, gauges, and log-bucketed histograms.
//!
//! Hot paths pay one atomic RMW per update: call sites register once
//! (taking the registry lock) and keep the returned [`Arc`] handle, so a
//! store `get` or a commit records its latency without ever touching a
//! map or a lock again. Histograms use fixed log₂-spaced buckets
//! ([`BUCKET_BOUNDS`] finite bounds plus `+Inf`), which makes p50/p90/p99
//! estimation and Prometheus `le` rendering exact over the bucket grid
//! with zero allocation on observe.
//!
//! Naming convention (DESIGN.md §10): `lake_<crate>_<op>_{total,bytes,seconds}`.
//! Latency histograms record **microseconds** and carry a `scale` of
//! `1e-6`, so exporters render seconds while the hot path stays integer.

use lake_core::sync::LeafRwLock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// Number of finite histogram bucket bounds: `2^0 ..= 2^(BUCKET_BOUNDS-1)`.
/// With 27 bounds the largest finite bucket is `2^26` — ~67 seconds when
/// recording microseconds, 64 MiB when recording bytes.
pub const BUCKET_BOUNDS: usize = 27;

/// Scale factor for histograms recording microseconds but exported as
/// seconds (the `_seconds` naming convention).
pub const MICROS_TO_SECONDS: f64 = 1e-6;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A value that can move both ways (queue depths, live handles).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Set to an absolute value.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Add a (possibly negative) delta.
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// The bucket index a raw value lands in: the first bound `2^i >= value`,
/// or [`BUCKET_BOUNDS`] (the `+Inf` cell) when it exceeds every bound.
fn bucket_index(value: u64) -> usize {
    if value <= 1 {
        return 0;
    }
    // ceil(log2(value)) for value >= 2.
    let ceil_log2 = 64usize.saturating_sub((value - 1).leading_zeros() as usize);
    ceil_log2.min(BUCKET_BOUNDS)
}

/// The raw upper bound of finite bucket `i` (`2^i`).
fn bucket_bound(i: usize) -> u64 {
    1u64.checked_shl(i as u32).unwrap_or(u64::MAX)
}

/// A histogram over fixed log₂-spaced buckets. Records raw `u64` values
/// (microseconds, bytes, rows); `scale` converts them to the exported
/// unit (e.g. [`MICROS_TO_SECONDS`]).
#[derive(Debug)]
pub struct Histogram {
    /// One cell per finite bound plus a final `+Inf` cell.
    counts: Vec<AtomicU64>,
    sum: AtomicU64,
    count: AtomicU64,
    scale: f64,
}

impl Histogram {
    /// A fresh histogram whose exported unit is `raw * scale`.
    pub fn new(scale: f64) -> Histogram {
        Histogram {
            counts: (0..=BUCKET_BOUNDS).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
            scale,
        }
    }

    /// Record one raw value.
    pub fn observe(&self, value: u64) {
        if let Some(cell) = self.counts.get(bucket_index(value)) {
            cell.fetch_add(1, Ordering::Relaxed);
        }
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of raw values recorded so far.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// The exporter scale factor.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// An immutable copy of the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::with_capacity(BUCKET_BOUNDS);
        let mut cumulative = 0u64;
        for (i, cell) in self.counts.iter().enumerate().take(BUCKET_BOUNDS) {
            cumulative += cell.load(Ordering::Relaxed);
            buckets.push((bucket_bound(i), cumulative));
        }
        HistogramSnapshot {
            buckets,
            sum: self.sum(),
            count: self.count(),
            scale: self.scale,
        }
    }
}

/// A point-in-time copy of one [`Histogram`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistogramSnapshot {
    /// `(raw_upper_bound, cumulative_count)` per finite bucket, ascending.
    /// The implicit `+Inf` bucket's cumulative count equals [`Self::count`].
    pub buckets: Vec<(u64, u64)>,
    /// Sum of raw recorded values.
    pub sum: u64,
    /// Number of observations.
    pub count: u64,
    /// Raw→exported unit factor.
    pub scale: f64,
}

impl HistogramSnapshot {
    /// The q-quantile (`0.0..=1.0`) in exported units, estimated as the
    /// upper bound of the bucket holding the target rank — an upper bound
    /// on the true quantile, exact on the bucket grid. Zero when empty;
    /// the largest finite bound when the rank falls in `+Inf`.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let clamped = q.clamp(0.0, 1.0);
        let target = ((clamped * self.count as f64).ceil() as u64).clamp(1, self.count);
        for (bound, cumulative) in &self.buckets {
            if *cumulative >= target {
                return *bound as f64 * self.scale;
            }
        }
        self.buckets
            .last()
            .map(|(bound, _)| *bound as f64 * self.scale)
            .unwrap_or(0.0)
    }

    /// Sum in exported units.
    pub fn sum_scaled(&self) -> f64 {
        self.sum as f64 * self.scale
    }

    /// Mean in exported units (zero when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_scaled() / self.count as f64
        }
    }
}

/// A metric's identity: name plus sorted label pairs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricId {
    /// Metric name, e.g. `lake_store_get_total`.
    pub name: String,
    /// Label pairs, sorted by key.
    pub labels: Vec<(String, String)>,
}

impl MetricId {
    fn new(name: &str, labels: &[(&str, &str)]) -> MetricId {
        let mut labels: Vec<(String, String)> =
            labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
        labels.sort();
        MetricId { name: name.to_string(), labels }
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// The process-wide (or per-test) metric store. Registration takes a
/// write lock; updates through the returned handles are lock-free.
///
/// A metric is identified by `(name, labels)`. Re-registering the same
/// identity returns the same underlying metric; registering an existing
/// identity as a *different kind* returns a fresh detached handle (it
/// updates, but never exports) rather than aborting — the naming
/// convention's `_total`/`_bytes`/`_seconds` suffixes make collisions a
/// code-review smell, not a runtime hazard.
#[derive(Debug)]
pub struct MetricsRegistry {
    metrics: LeafRwLock<BTreeMap<MetricId, Metric>>,
}

impl Default for MetricsRegistry {
    fn default() -> MetricsRegistry {
        MetricsRegistry::new()
    }
}

impl MetricsRegistry {
    /// A fresh, empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry {
            metrics: LeafRwLock::new(BTreeMap::new(), "obs.metrics.registry"),
        }
    }

    /// Get or register an unlabeled counter.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.counter_with(name, &[])
    }

    /// Get or register a labeled counter.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let id = MetricId::new(name, labels);
        if let Some(Metric::Counter(c)) = self.metrics.read().get(&id) {
            return Arc::clone(c);
        }
        let mut metrics = self.metrics.write();
        let entry = metrics
            .entry(id)
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::default())));
        match entry {
            Metric::Counter(c) => Arc::clone(c),
            _ => Arc::new(Counter::default()),
        }
    }

    /// Get or register an unlabeled gauge.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.gauge_with(name, &[])
    }

    /// Get or register a labeled gauge.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let id = MetricId::new(name, labels);
        if let Some(Metric::Gauge(g)) = self.metrics.read().get(&id) {
            return Arc::clone(g);
        }
        let mut metrics = self.metrics.write();
        let entry = metrics
            .entry(id)
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::default())));
        match entry {
            Metric::Gauge(g) => Arc::clone(g),
            _ => Arc::new(Gauge::default()),
        }
    }

    /// Get or register an unlabeled histogram with exported unit
    /// `raw * scale` (use [`MICROS_TO_SECONDS`] for `_seconds` metrics,
    /// `1.0` for `_bytes`/counts).
    pub fn histogram(&self, name: &str, scale: f64) -> Arc<Histogram> {
        self.histogram_with(name, &[], scale)
    }

    /// Get or register a labeled histogram.
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)], scale: f64) -> Arc<Histogram> {
        let id = MetricId::new(name, labels);
        if let Some(Metric::Histogram(h)) = self.metrics.read().get(&id) {
            return Arc::clone(h);
        }
        let mut metrics = self.metrics.write();
        let entry = metrics
            .entry(id)
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new(scale))));
        match entry {
            Metric::Histogram(h) => Arc::clone(h),
            _ => Arc::new(Histogram::new(scale)),
        }
    }

    /// A point-in-time copy of every registered metric, sorted by
    /// `(name, labels)` — the exporters' input.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let metrics = self.metrics.read();
        let mut snap = MetricsSnapshot::default();
        for (id, metric) in metrics.iter() {
            match metric {
                Metric::Counter(c) => snap.counters.push((id.clone(), c.get())),
                Metric::Gauge(g) => snap.gauges.push((id.clone(), g.get())),
                Metric::Histogram(h) => snap.histograms.push((id.clone(), h.snapshot())),
            }
        }
        snap
    }
}

/// A point-in-time copy of a whole [`MetricsRegistry`], sorted by metric
/// identity (BTreeMap order), so exports are deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counters with their values.
    pub counters: Vec<(MetricId, u64)>,
    /// Gauges with their values.
    pub gauges: Vec<(MetricId, i64)>,
    /// Histograms with their state.
    pub histograms: Vec<(MetricId, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Sum of every counter with this name (across label sets); zero when
    /// absent.
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(id, _)| id.name == name)
            .map(|(_, v)| *v)
            .sum()
    }

    /// The value of the counter with exactly this name and label set
    /// (order-insensitive); zero when absent.
    pub fn counter_value_with(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        let want = MetricId::new(name, labels);
        self.counters
            .iter()
            .find(|(id, _)| *id == want)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// The first histogram with this name, if any.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(id, _)| id.name == name)
            .map(|(_, h)| h)
    }

    /// `true` when nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_accumulate() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("lake_test_ops_total");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Re-registration returns the same metric.
        assert_eq!(reg.counter("lake_test_ops_total").get(), 5);
        let g = reg.gauge("lake_test_depth");
        g.set(7);
        g.add(-3);
        assert_eq!(g.get(), 4);
    }

    #[test]
    fn labels_distinguish_series_and_are_sorted() {
        let reg = MetricsRegistry::new();
        reg.counter_with("ops", &[("op", "get")]).add(2);
        reg.counter_with("ops", &[("op", "put")]).add(3);
        // Label order must not matter.
        reg.counter_with("multi", &[("b", "2"), ("a", "1")]).inc();
        reg.counter_with("multi", &[("a", "1"), ("b", "2")]).inc();
        let snap = reg.snapshot();
        assert_eq!(snap.counter_value("ops"), 5);
        assert_eq!(snap.counter_value("multi"), 2);
        assert_eq!(snap.counters.len(), 3);
    }

    #[test]
    fn kind_clash_yields_detached_handle_not_abort() {
        let reg = MetricsRegistry::new();
        reg.counter("x").inc();
        let g = reg.gauge("x"); // same identity, different kind
        g.set(99);
        let snap = reg.snapshot();
        assert_eq!(snap.counter_value("x"), 1, "original survives");
        assert!(snap.gauges.is_empty(), "clashing gauge never exports");
    }

    #[test]
    fn histogram_buckets_are_log_spaced_and_cumulative() {
        let h = Histogram::new(1.0);
        for v in [0u64, 1, 2, 3, 4, 1000, u64::MAX] {
            h.observe(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 7);
        // 0 and 1 land in le=1; 2 in le=2; 3 and 4 in le=4; 1000 in le=1024.
        let cum_of = |bound: u64| -> u64 {
            snap.buckets
                .iter()
                .find(|(b, _)| *b == bound)
                .map(|(_, c)| *c)
                .unwrap_or(0)
        };
        assert_eq!(cum_of(1), 2);
        assert_eq!(cum_of(2), 3);
        assert_eq!(cum_of(4), 5);
        assert_eq!(cum_of(1024), 6);
        // u64::MAX lives in +Inf only: the last finite cumulative is 6.
        assert_eq!(snap.buckets.last().map(|(_, c)| *c), Some(6));
    }

    #[test]
    fn quantiles_are_bucket_upper_bounds() {
        let h = Histogram::new(MICROS_TO_SECONDS);
        for _ in 0..90 {
            h.observe(100); // → le=128
        }
        for _ in 0..10 {
            h.observe(5_000); // → le=8192
        }
        let snap = h.snapshot();
        assert_eq!(snap.quantile(0.5), 128.0 * MICROS_TO_SECONDS);
        assert_eq!(snap.quantile(0.9), 128.0 * MICROS_TO_SECONDS);
        assert_eq!(snap.quantile(0.99), 8192.0 * MICROS_TO_SECONDS);
        assert!((snap.sum_scaled() - 0.059).abs() < 1e-9);
        assert!(snap.mean() > 0.0);
        // Empty histogram: all quantiles zero.
        assert_eq!(Histogram::new(1.0).snapshot().quantile(0.99), 0.0);
    }

    #[test]
    fn snapshot_is_deterministic_and_queryable() {
        let reg = MetricsRegistry::new();
        reg.histogram("lat_seconds", MICROS_TO_SECONDS).observe(50);
        reg.counter("b_total").inc();
        reg.counter("a_total").inc();
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(id, _)| id.name.as_str()).collect();
        assert_eq!(names, vec!["a_total", "b_total"], "sorted by identity");
        assert!(snap.histogram("lat_seconds").is_some());
        assert!(snap.histogram("missing").is_none());
        assert!(!snap.is_empty());
        assert!(MetricsRegistry::new().snapshot().is_empty());
    }

    #[test]
    fn concurrent_updates_never_lose_increments() {
        let reg = Arc::new(MetricsRegistry::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let reg = Arc::clone(&reg);
            handles.push(std::thread::spawn(move || {
                let c = reg.counter("hot_total");
                let h = reg.histogram("hot_seconds", MICROS_TO_SECONDS);
                for i in 0..1000u64 {
                    c.inc();
                    h.observe(i);
                }
            }));
        }
        for handle in handles {
            let _ = handle.join();
        }
        let snap = reg.snapshot();
        assert_eq!(snap.counter_value("hot_total"), 8000);
        assert_eq!(snap.histogram("hot_seconds").map(|h| h.count), Some(8000));
    }
}
