//! Order statistics over timing samples.
//!
//! Samples are kept as integer nanoseconds so the workspace's one exact
//! percentile definition ([`lake_core::stats::percentile_u64`]) applies.

use lake_core::stats::percentile_u64;
use std::time::Duration;

/// The highest of p99 / p90 that leaves at least ten samples beyond it,
/// or `None` when even p90 would rest on fewer than ten.
pub fn tail_percentile(n: usize) -> Option<u64> {
    match n {
        n if n >= 1000 => Some(99),
        n if n >= 100 => Some(90),
        _ => None,
    }
}

/// A bag of timing samples, sorted on first read.
#[derive(Debug, Clone, Default)]
pub struct Timings {
    ns: Vec<u64>,
    sorted: bool,
}

impl Timings {
    /// Record one sample.
    pub fn push(&mut self, d: Duration) {
        self.push_ns(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Record one sample given in nanoseconds.
    pub fn push_ns(&mut self, ns: u64) {
        self.ns.push(ns);
        self.sorted = false;
    }

    /// Fold another bag into this one.
    pub fn merge(&mut self, other: &Timings) {
        self.ns.extend_from_slice(&other.ns);
        self.sorted = false;
    }

    /// Sample count.
    pub fn n(&self) -> usize {
        self.ns.len()
    }

    /// The samples in recording order (only meaningful before any
    /// percentile read sorted them).
    pub fn raw(&self) -> &[u64] {
        &self.ns
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.ns.sort_unstable();
            self.sorted = true;
        }
    }

    /// The `q`-th percentile in nanoseconds; 0 for an empty bag.
    pub fn percentile_ns(&mut self, q: u64) -> u64 {
        self.sort();
        percentile_u64(&self.ns, q)
    }

    /// Median in milliseconds.
    pub fn p50_ms(&mut self) -> f64 {
        self.percentile_ns(50) as f64 / 1e6
    }

    /// Median in microseconds.
    pub fn p50_us(&mut self) -> f64 {
        self.percentile_ns(50) as f64 / 1e3
    }

    /// The `q`-th percentile in microseconds.
    pub fn percentile_us(&mut self, q: u64) -> f64 {
        self.percentile_ns(q) as f64 / 1e3
    }

    /// The `q`-th percentile in milliseconds.
    pub fn percentile_ms(&mut self, q: u64) -> f64 {
        self.percentile_ns(q) as f64 / 1e6
    }

    /// Largest sample in milliseconds; 0 for an empty bag.
    pub fn max_ms(&mut self) -> f64 {
        self.percentile_ms(100)
    }

    /// Sum of all samples in seconds.
    pub fn sum_s(&self) -> f64 {
        self.ns.iter().map(|&n| n as f64).sum::<f64>() / 1e9
    }
}

/// Median of a handful of `f64` readings (set-up repetitions, pass
/// times); 0 for none. The upper middle is taken for an even count, as
/// `percentile_u64` does.
pub fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    v.get(v.len() / 2).copied().unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_single_bags_have_pinned_percentiles() {
        let mut t = Timings::default();
        assert_eq!(t.n(), 0);
        assert_eq!(t.percentile_ns(50), 0);
        assert_eq!(t.max_ms(), 0.0);
        t.push(Duration::from_micros(7));
        for q in [1, 50, 99, 100] {
            assert_eq!(t.percentile_ns(q), 7_000);
        }
        assert_eq!(t.p50_us(), 7.0);
    }

    #[test]
    fn percentiles_are_exact_ranks_regardless_of_push_order() {
        let mut t = Timings::default();
        for ns in (1..=100u64).rev() {
            t.push_ns(ns);
        }
        assert_eq!(t.percentile_ns(50), 50);
        assert_eq!(t.percentile_ns(90), 90);
        assert_eq!(t.percentile_ns(99), 99);
        assert_eq!(t.percentile_ns(100), 100);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(999), Some(90));
        assert_eq!(tail_percentile(1000), Some(99));
        for n in [100usize, 999, 1000, 25_000] {
            let q = tail_percentile(n).unwrap() as usize;
            assert!(n - (q * n).div_ceil(100) >= 10, "n={n} q={q}");
        }
    }

    #[test]
    fn median_of_readings() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 3.0);
    }
}
