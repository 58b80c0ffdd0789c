//! Deterministic retry with exponential backoff and seeded jitter.
//!
//! Real lakes run on storage that throttles, times out, and resets
//! connections; ingestion and maintenance must degrade gracefully rather
//! than abort (Hai et al., §3.2/§8.3). This module gives every tier one
//! shared combinator: a [`RetryPolicy`] describes *how often* to retry
//! and *how long* to back off, [`retry`] drives a fallible closure under
//! it, and the [`Clock`] abstraction makes waiting injectable so tests
//! never sleep — a [`ManualClock`] records the exact backoff schedule
//! instead, which chaos tests assert is deterministic per seed.
//!
//! Only [`crate::error::LakeError::is_retryable`] failures are re-attempted; every
//! other error kind propagates on first occurrence.

use crate::error::Result;
use crate::sync::LeafMutex;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// How to wait between attempts — and what time it is. Injectable so
/// tests can observe the backoff schedule instead of actually sleeping,
/// and so observability spans/latency histograms replay deterministically
/// (a [`ManualClock`] advances only when something sleeps on it).
pub trait Clock: Send + Sync {
    /// Block the caller for `ms` milliseconds (or account for it).
    fn sleep_ms(&self, ms: u64);

    /// Microseconds since an arbitrary fixed origin (process start for the
    /// real clock, zero for test clocks). Monotonic per clock instance;
    /// only differences are meaningful.
    fn now_micros(&self) -> u64;
}

/// The production clock: really sleeps, reads a real monotonic clock.
#[derive(Debug, Default, Clone, Copy)]
pub struct SystemClock;

#[expect(clippy::disallowed_methods, reason = "the production clock owns the real time source")]
impl Clock for SystemClock {
    fn sleep_ms(&self, ms: u64) {
        if ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(ms));
        }
    }

    fn now_micros(&self) -> u64 {
        static START: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();
        let start = START.get_or_init(std::time::Instant::now);
        u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX)
    }
}

/// A test clock: never sleeps, records every requested backoff so the
/// schedule itself can be asserted. Virtual time starts at zero and
/// advances only through [`Clock::sleep_ms`] or [`ManualClock::advance_micros`],
/// so span durations and latency histograms built on it are fully
/// deterministic.
#[derive(Debug)]
pub struct ManualClock {
    slept: LeafMutex<Vec<u64>>,
    advanced_micros: std::sync::atomic::AtomicU64,
}

impl Default for ManualClock {
    fn default() -> ManualClock {
        ManualClock::new()
    }
}

impl ManualClock {
    /// A fresh clock with no recorded sleeps, at virtual time zero.
    pub fn new() -> ManualClock {
        ManualClock {
            slept: LeafMutex::new(Vec::new(), "core.clock.slept"),
            advanced_micros: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Every backoff requested so far, in order, in milliseconds.
    pub fn sleeps(&self) -> Vec<u64> {
        self.slept.lock().clone()
    }

    /// Total backoff requested so far, in milliseconds (saturating, like
    /// the [`RetryStats::backoff_ms`] accumulator).
    pub fn total_ms(&self) -> u64 {
        self.sleeps().iter().fold(0u64, |a, &b| a.saturating_add(b))
    }

    /// Advance virtual time by `us` microseconds without recording a
    /// sleep — lets tests script exact span durations.
    pub fn advance_micros(&self, us: u64) {
        // lint: ordering — monotonic virtual-time counter, no ordering dependency.
        self.advanced_micros.fetch_add(us, std::sync::atomic::Ordering::Relaxed);
    }
}

impl Clock for ManualClock {
    fn sleep_ms(&self, ms: u64) {
        self.slept.lock().push(ms);
    }

    fn now_micros(&self) -> u64 {
        let slept_us = self.total_ms().saturating_mul(1000);
        slept_us.saturating_add(
            // lint: ordering — monotonic virtual-time counter, no ordering dependency.
            self.advanced_micros.load(std::sync::atomic::Ordering::Relaxed),
        )
    }
}

/// Retry budget and backoff shape for one class of operations.
///
/// Backoff for attempt `k` (1-based; the first retry waits after
/// attempt 1) is `min(base_delay_ms << (k-1), max_delay_ms)` plus seeded jitter
/// uniform in `[0, delay/2]` — deterministic for a fixed `jitter_seed`,
/// so chaos runs replay byte-for-byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (1 = no retries).
    pub max_attempts: u32,
    /// Backoff before the first retry, in milliseconds.
    pub base_delay_ms: u64,
    /// Upper bound on any single backoff, pre-jitter.
    pub max_delay_ms: u64,
    /// Seed for the deterministic jitter stream.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy { max_attempts: 4, base_delay_ms: 2, max_delay_ms: 50, jitter_seed: 0 }
    }
}

impl RetryPolicy {
    /// A policy with `max_attempts` and default backoff shape.
    pub fn new(max_attempts: u32) -> RetryPolicy {
        RetryPolicy { max_attempts: max_attempts.max(1), ..RetryPolicy::default() }
    }

    /// Disable retries entirely (one attempt, no backoff).
    pub fn none() -> RetryPolicy {
        RetryPolicy { max_attempts: 1, base_delay_ms: 0, max_delay_ms: 0, jitter_seed: 0 }
    }

    /// Set the pre-jitter backoff base.
    pub fn with_base_delay_ms(mut self, ms: u64) -> RetryPolicy {
        self.base_delay_ms = ms;
        self
    }

    /// Set the per-backoff cap.
    pub fn with_max_delay_ms(mut self, ms: u64) -> RetryPolicy {
        self.max_delay_ms = ms;
        self
    }

    /// Set the jitter seed (same seed ⇒ same backoff schedule).
    pub fn with_jitter_seed(mut self, seed: u64) -> RetryPolicy {
        self.jitter_seed = seed;
        self
    }

    /// The pre-jitter backoff after failed attempt `attempt` (1-based):
    /// `min(base << (attempt-1), max)`. Widened to `u128` because a plain
    /// `u64` shift discards high bits (`checked_shl` only rejects shift
    /// counts ≥ 64), which would silently wrap a large base *below* the
    /// documented `[base, max]` floor.
    fn pre_jitter_ms(&self, attempt: u32) -> u64 {
        let shift = attempt.saturating_sub(1).min(32);
        let exp = (u128::from(self.base_delay_ms) << shift).min(u128::from(self.max_delay_ms));
        // exp ≤ max_delay_ms, so the narrowing cannot truncate.
        exp as u64
    }

    /// The backoff after failed attempt `attempt` (1-based), drawing
    /// jitter from `rng`.
    fn backoff_ms(&self, attempt: u32, rng: &mut StdRng) -> u64 {
        let exp = self.pre_jitter_ms(attempt);
        let jitter_span = exp / 2;
        if jitter_span == 0 {
            exp
        } else {
            exp.saturating_add(rng.random_range(0..=jitter_span))
        }
    }
}

/// Counters surfaced by retrying call sites (commit paths, ingestors).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Operations driven through [`retry`] (not individual attempts).
    pub operations: u64,
    /// Total attempts across all operations.
    pub attempts: u64,
    /// Attempts beyond the first (i.e. absorbed transient failures).
    pub retries: u64,
    /// Operations that exhausted the budget and surfaced a transient error.
    pub gave_up: u64,
    /// Total backoff requested, in milliseconds (simulated or real).
    pub backoff_ms: u64,
}

impl RetryStats {
    /// Fold another stats block into this one.
    pub fn merge(&mut self, other: &RetryStats) {
        self.operations += other.operations;
        self.attempts += other.attempts;
        self.retries += other.retries;
        self.gave_up += other.gave_up;
        self.backoff_ms = self.backoff_ms.saturating_add(other.backoff_ms);
    }
}

/// Drive `op` under `policy`, waiting on `clock` between attempts.
/// Retries only [`crate::error::LakeError::is_retryable`] failures; the budget
/// exhausted, the last transient error is returned.
pub fn retry<T>(
    policy: &RetryPolicy,
    clock: &dyn Clock,
    op: impl FnMut() -> Result<T>,
) -> Result<T> {
    let mut stats = RetryStats::default();
    retry_with_stats(policy, clock, &mut stats, op)
}

/// [`retry`], additionally accumulating into `stats`.
pub fn retry_with_stats<T>(
    policy: &RetryPolicy,
    clock: &dyn Clock,
    stats: &mut RetryStats,
    mut op: impl FnMut() -> Result<T>,
) -> Result<T> {
    let mut rng = StdRng::seed_from_u64(policy.jitter_seed);
    let budget = policy.max_attempts.max(1);
    stats.operations += 1;
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        stats.attempts += 1;
        match op() {
            Ok(v) => return Ok(v),
            Err(e) if e.is_retryable() && attempt < budget => {
                stats.retries += 1;
                let wait = policy.backoff_ms(attempt, &mut rng);
                stats.backoff_ms = stats.backoff_ms.saturating_add(wait);
                clock.sleep_ms(wait);
            }
            Err(e) => {
                if e.is_retryable() {
                    stats.gave_up += 1;
                }
                return Err(e);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::LakeError;

    fn flaky(failures: u32) -> impl FnMut() -> Result<u32> {
        let mut left = failures;
        move || {
            if left > 0 {
                left -= 1;
                Err(LakeError::transient("injected"))
            } else {
                Ok(7)
            }
        }
    }

    #[test]
    fn absorbs_transients_within_budget() {
        let clock = ManualClock::new();
        let policy = RetryPolicy::new(4);
        let mut stats = RetryStats::default();
        let v = retry_with_stats(&policy, &clock, &mut stats, flaky(3)).unwrap();
        assert_eq!(v, 7);
        assert_eq!(stats.attempts, 4);
        assert_eq!(stats.retries, 3);
        assert_eq!(stats.gave_up, 0);
        assert_eq!(clock.sleeps().len(), 3);
    }

    #[test]
    fn budget_exhaustion_surfaces_the_transient() {
        let clock = ManualClock::new();
        let mut stats = RetryStats::default();
        let r = retry_with_stats(&RetryPolicy::new(2), &clock, &mut stats, flaky(5));
        assert!(matches!(r, Err(LakeError::Transient(_))));
        assert_eq!(stats.gave_up, 1);
        assert_eq!(stats.attempts, 2);
    }

    #[test]
    fn non_retryable_errors_fail_fast() {
        let clock = ManualClock::new();
        let mut calls = 0;
        let r: Result<()> = retry(&RetryPolicy::new(5), &clock, || {
            calls += 1;
            Err(LakeError::not_found("gone"))
        });
        assert!(matches!(r, Err(LakeError::NotFound(_))));
        assert_eq!(calls, 1);
        assert!(clock.sleeps().is_empty());
    }

    #[test]
    fn backoff_is_exponential_capped_and_deterministic() {
        let policy = RetryPolicy::new(6)
            .with_base_delay_ms(10)
            .with_max_delay_ms(40)
            .with_jitter_seed(9);
        let run = || {
            let clock = ManualClock::new();
            let _ = retry(&policy, &clock, flaky(5));
            clock.sleeps()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed must give the same schedule");
        assert_eq!(a.len(), 5);
        // Pre-jitter: 10, 20, 40, 40, 40; jitter adds at most delay/2.
        let caps = [15, 30, 60, 60, 60];
        let floors = [10, 20, 40, 40, 40];
        for (i, ms) in a.iter().enumerate() {
            assert!(
                (floors[i]..=caps[i]).contains(ms),
                "backoff {i} = {ms} outside [{}, {}]",
                floors[i],
                caps[i]
            );
        }

        // A different seed changes the jitter (with overwhelming likelihood).
        let other = {
            let clock = ManualClock::new();
            let _ = retry(&policy.with_jitter_seed(10), &clock, flaky(5));
            clock.sleeps()
        };
        assert_ne!(a, other);
    }

    #[test]
    fn huge_base_delay_never_dips_below_the_floor() {
        // Regression: `u64::checked_shl` keeps shifting bits out for any
        // shift < 64, so a large base used to wrap below `base` (even to
        // zero) instead of clamping to the cap.
        let policy = RetryPolicy::new(9)
            .with_base_delay_ms(u64::MAX / 2)
            .with_max_delay_ms(1_000)
            .with_jitter_seed(3);
        let mut rng = StdRng::seed_from_u64(policy.jitter_seed);
        for attempt in 1..=8 {
            let ms = policy.backoff_ms(attempt, &mut rng);
            assert!((1_000..=1_500).contains(&ms), "attempt {attempt}: {ms}");
        }
    }

    #[test]
    fn policy_none_never_retries() {
        let clock = ManualClock::new();
        let r = retry(&RetryPolicy::none(), &clock, flaky(1));
        assert!(r.is_err());
        assert!(clock.sleeps().is_empty());
    }

    #[test]
    fn manual_clock_virtual_time_is_deterministic() {
        let clock = ManualClock::new();
        assert_eq!(clock.now_micros(), 0);
        clock.sleep_ms(3);
        assert_eq!(clock.now_micros(), 3_000);
        clock.advance_micros(42);
        assert_eq!(clock.now_micros(), 3_042);
        // The system clock is monotonic (only differences are meaningful).
        let sys = SystemClock;
        let a = sys.now_micros();
        let b = sys.now_micros();
        assert!(b >= a);
    }

    #[test]
    fn stats_merge_accumulates() {
        let mut a = RetryStats { operations: 1, attempts: 3, retries: 2, gave_up: 0, backoff_ms: 12 };
        let b = RetryStats { operations: 2, attempts: 2, retries: 0, gave_up: 1, backoff_ms: 5 };
        a.merge(&b);
        assert_eq!(a, RetryStats { operations: 3, attempts: 5, retries: 2, gave_up: 1, backoff_ms: 17 });
    }
}
