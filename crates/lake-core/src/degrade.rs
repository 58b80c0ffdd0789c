//! Admission primitives of graceful degradation: per-key circuit
//! breakers and per-key quota ledgers.
//!
//! Two tiers guard themselves with the same state machines: the
//! federated mediator (`lake-query`) keys a [`CircuitBreaker`] by source,
//! and the lake server (`lake-server`) keys a breaker and a
//! [`QuotaLedger`] by tenant. Both are pure bookkeeping driven by the
//! caller's clock reading and byte counts, so they live here, below every
//! tier that consults them.

use crate::sync::LeafMutex;
use std::collections::BTreeMap;

/// Breaker thresholds shared by all backends of one engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive failures that trip a Closed breaker to Open.
    pub failure_threshold: u32,
    /// How long an Open breaker rejects before allowing one HalfOpen
    /// probe, in milliseconds.
    pub cooldown_ms: u64,
}

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig { failure_threshold: 3, cooldown_ms: 1_000 }
    }
}

/// A breaker's observable state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Requests flow; failures are counted.
    Closed,
    /// Requests are rejected without touching the backend.
    Open,
    /// The cooldown elapsed; exactly the next request probes the backend.
    HalfOpen,
}

impl BreakerState {
    /// Stable label used in gauges and CLI output.
    pub fn name(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }

    /// Gauge encoding: 0 = closed, 1 = open, 2 = half-open.
    pub fn gauge_value(self) -> i64 {
        match self {
            BreakerState::Closed => 0,
            BreakerState::Open => 1,
            BreakerState::HalfOpen => 2,
        }
    }
}

/// The admission decision for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Breaker closed: proceed normally.
    Allow,
    /// Breaker half-open: proceed, but this is the single probe — its
    /// outcome decides whether the breaker closes or re-opens.
    Probe,
    /// Breaker open: do not touch the backend.
    Deny,
}

#[derive(Debug, Clone)]
struct BreakerCell {
    state: BreakerState,
    consecutive_failures: u32,
    /// Virtual time (micros) at which the breaker last opened.
    opened_at_us: u64,
}

impl Default for BreakerCell {
    fn default() -> BreakerCell {
        BreakerCell { state: BreakerState::Closed, consecutive_failures: 0, opened_at_us: 0 }
    }
}

/// A set of per-backend circuit breakers keyed by source location.
///
/// All transitions happen synchronously inside [`CircuitBreaker::admit`] /
/// [`CircuitBreaker::record`] driven by the caller's clock reading, so the
/// state machine is fully deterministic under a
/// [`crate::retry::ManualClock`]: no background timers, no wall time.
#[derive(Debug)]
pub struct CircuitBreaker {
    cells: LeafMutex<BTreeMap<String, BreakerCell>>,
}

impl Default for CircuitBreaker {
    fn default() -> CircuitBreaker {
        CircuitBreaker::new()
    }
}

impl CircuitBreaker {
    /// A breaker set with every backend Closed.
    pub fn new() -> CircuitBreaker {
        CircuitBreaker {
            cells: LeafMutex::new(BTreeMap::new(), "core.breaker.cells"),
        }
    }

    /// Should a request to `key` proceed at virtual time `now_us`?
    /// An Open breaker whose cooldown has elapsed transitions to HalfOpen
    /// here and admits the request as the probe.
    pub fn admit(&self, key: &str, cfg: &BreakerConfig, now_us: u64) -> Admission {
        let mut cells = self.cells.lock();
        let cell = cells.entry(key.to_string()).or_default();
        match cell.state {
            BreakerState::Closed => Admission::Allow,
            BreakerState::HalfOpen => Admission::Probe,
            BreakerState::Open => {
                let cooldown_us = cfg.cooldown_ms.saturating_mul(1_000);
                if now_us.saturating_sub(cell.opened_at_us) >= cooldown_us {
                    cell.state = BreakerState::HalfOpen;
                    Admission::Probe
                } else {
                    Admission::Deny
                }
            }
        }
    }

    /// Record the outcome of an admitted request; returns the resulting
    /// state so callers can export it as a gauge.
    pub fn record(
        &self,
        key: &str,
        cfg: &BreakerConfig,
        now_us: u64,
        success: bool,
    ) -> BreakerState {
        let mut cells = self.cells.lock();
        let cell = cells.entry(key.to_string()).or_default();
        if success {
            cell.state = BreakerState::Closed;
            cell.consecutive_failures = 0;
        } else {
            cell.consecutive_failures = cell.consecutive_failures.saturating_add(1);
            let tripped = match cell.state {
                // A failed probe re-opens immediately.
                BreakerState::HalfOpen => true,
                BreakerState::Closed => cell.consecutive_failures >= cfg.failure_threshold,
                BreakerState::Open => true,
            };
            if tripped {
                cell.state = BreakerState::Open;
                cell.opened_at_us = now_us;
            }
        }
        cell.state
    }

    /// The state of `key`'s breaker (Closed if never consulted).
    pub fn state(&self, key: &str) -> BreakerState {
        self.cells.lock().get(key).map(|c| c.state).unwrap_or(BreakerState::Closed)
    }

    /// Snapshot of every breaker: (key, state, consecutive failures).
    pub fn status(&self) -> Vec<(String, BreakerState, u32)> {
        self.cells.lock()
            .iter()
            .map(|(k, c)| (k.clone(), c.state, c.consecutive_failures))
            .collect()
    }
}

/// Resource budget for one quota key (a tenant, a source, a principal).
/// `None` disables the respective limit.
///
/// Quotas are **count-based**, not time-based: a ledger charged with the
/// same multiset of requests always ends in the same state regardless of
/// thread interleaving, which is what makes multi-tenant admission
/// replayable under the chaos harnesses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QuotaConfig {
    /// Upper bound on granted requests for the key.
    pub max_requests: Option<u64>,
    /// Upper bound on granted payload bytes for the key.
    pub max_bytes: Option<u64>,
}

impl QuotaConfig {
    /// No limits.
    pub fn unlimited() -> QuotaConfig {
        QuotaConfig::default()
    }

    /// Cap the number of granted requests.
    pub fn with_max_requests(mut self, n: u64) -> QuotaConfig {
        self.max_requests = Some(n);
        self
    }

    /// Cap the granted payload bytes.
    pub fn with_max_bytes(mut self, n: u64) -> QuotaConfig {
        self.max_bytes = Some(n);
        self
    }
}

/// The outcome of charging one request against a key's quota.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuotaDecision {
    /// The request fits; the ledger consumed one request and its bytes.
    Granted,
    /// The key's request budget is exhausted; nothing was consumed.
    RequestsExhausted,
    /// The key's byte budget cannot fit this payload; nothing was consumed.
    BytesExhausted,
}

impl QuotaDecision {
    /// Stable label used in metrics and typed rejections.
    pub fn name(self) -> &'static str {
        match self {
            QuotaDecision::Granted => "granted",
            QuotaDecision::RequestsExhausted => "quota_requests",
            QuotaDecision::BytesExhausted => "quota_bytes",
        }
    }

    /// `true` when the request may proceed.
    pub fn is_granted(self) -> bool {
        matches!(self, QuotaDecision::Granted)
    }
}

/// Consumption recorded for one quota key.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QuotaUsage {
    /// Requests granted so far.
    pub requests: u64,
    /// Payload bytes granted so far.
    pub bytes: u64,
    /// Requests rejected (for either exhausted budget).
    pub rejected: u64,
}

/// A per-key quota ledger: each key (tenant, source, …) consumes from its
/// own [`QuotaConfig`] budget, so one abusive key cannot starve others.
///
/// All accounting happens under one short lock, and decisions depend only
/// on the key's own totals — never on wall time or arrival order across
/// keys — so for a fixed per-key request multiset the final
/// [`QuotaUsage`] is deterministic under any interleaving. The server's
/// `quota_prop` suite replays this property across seeds and worker
/// counts.
#[derive(Debug)]
pub struct QuotaLedger {
    cells: LeafMutex<BTreeMap<String, QuotaUsage>>,
}

impl Default for QuotaLedger {
    fn default() -> QuotaLedger {
        QuotaLedger::new()
    }
}

impl QuotaLedger {
    /// A ledger with no consumption recorded.
    pub fn new() -> QuotaLedger {
        QuotaLedger {
            cells: LeafMutex::new(BTreeMap::new(), "core.quota.cells"),
        }
    }

    /// Charge one request of `bytes` payload against `key` under `cfg`.
    /// Request budget is checked before byte budget; a rejection consumes
    /// nothing (beyond the `rejected` count).
    pub fn charge(&self, key: &str, cfg: &QuotaConfig, bytes: u64) -> QuotaDecision {
        let mut cells = self.cells.lock();
        let cell = cells.entry(key.to_string()).or_default();
        if cfg.max_requests.is_some_and(|max| cell.requests >= max) {
            cell.rejected = cell.rejected.saturating_add(1);
            return QuotaDecision::RequestsExhausted;
        }
        if cfg.max_bytes.is_some_and(|max| cell.bytes.saturating_add(bytes) > max) {
            cell.rejected = cell.rejected.saturating_add(1);
            return QuotaDecision::BytesExhausted;
        }
        cell.requests += 1;
        cell.bytes = cell.bytes.saturating_add(bytes);
        QuotaDecision::Granted
    }

    /// Consumption recorded for `key` (zeroes if never charged).
    pub fn usage(&self, key: &str) -> QuotaUsage {
        self.cells.lock().get(key).copied().unwrap_or_default()
    }

    /// Snapshot of every key's consumption, sorted by key.
    pub fn snapshot(&self) -> Vec<(String, QuotaUsage)> {
        self.cells.lock().iter().map(|(k, u)| (k.clone(), *u)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CFG: BreakerConfig = BreakerConfig { failure_threshold: 2, cooldown_ms: 10 };

    #[test]
    fn breaker_trips_after_consecutive_failures() {
        let br = CircuitBreaker::new();
        assert_eq!(br.admit("s", &CFG, 0), Admission::Allow);
        assert_eq!(br.record("s", &CFG, 0, false), BreakerState::Closed);
        assert_eq!(br.admit("s", &CFG, 0), Admission::Allow);
        assert_eq!(br.record("s", &CFG, 0, false), BreakerState::Open);
        assert_eq!(br.admit("s", &CFG, 1_000), Admission::Deny);
    }

    #[test]
    fn success_resets_the_failure_run() {
        let br = CircuitBreaker::new();
        br.record("s", &CFG, 0, false);
        br.record("s", &CFG, 0, true);
        // The run restarts: one more failure is below the threshold.
        assert_eq!(br.record("s", &CFG, 0, false), BreakerState::Closed);
    }

    #[test]
    fn cooldown_elapses_into_half_open_probe() {
        let br = CircuitBreaker::new();
        br.record("s", &CFG, 0, false);
        br.record("s", &CFG, 0, false); // open at t=0
        assert_eq!(br.admit("s", &CFG, 9_999), Admission::Deny);
        assert_eq!(br.admit("s", &CFG, 10_000), Admission::Probe);
        assert_eq!(br.state("s"), BreakerState::HalfOpen);
        // Probe success closes.
        assert_eq!(br.record("s", &CFG, 10_000, true), BreakerState::Closed);
    }

    #[test]
    fn failed_probe_reopens_with_fresh_cooldown() {
        let br = CircuitBreaker::new();
        br.record("s", &CFG, 0, false);
        br.record("s", &CFG, 0, false);
        assert_eq!(br.admit("s", &CFG, 10_000), Admission::Probe);
        assert_eq!(br.record("s", &CFG, 10_000, false), BreakerState::Open);
        // Cooldown restarts from the re-open time.
        assert_eq!(br.admit("s", &CFG, 19_999), Admission::Deny);
        assert_eq!(br.admit("s", &CFG, 20_000), Admission::Probe);
    }

    #[test]
    fn breakers_are_independent_per_key() {
        let br = CircuitBreaker::new();
        br.record("a", &CFG, 0, false);
        br.record("a", &CFG, 0, false);
        assert_eq!(br.state("a"), BreakerState::Open);
        assert_eq!(br.state("b"), BreakerState::Closed);
        assert_eq!(br.admit("b", &CFG, 0), Admission::Allow);
        let status = br.status();
        assert_eq!(status.len(), 2);
    }

    #[test]
    fn quota_ledger_charges_and_rejects_per_key() {
        let ledger = QuotaLedger::new();
        let cfg = QuotaConfig::unlimited().with_max_requests(2).with_max_bytes(100);
        assert_eq!(ledger.charge("t1", &cfg, 40), QuotaDecision::Granted);
        assert_eq!(ledger.charge("t1", &cfg, 40), QuotaDecision::Granted);
        // Request budget hit before byte budget.
        assert_eq!(ledger.charge("t1", &cfg, 1), QuotaDecision::RequestsExhausted);
        let u = ledger.usage("t1");
        assert_eq!((u.requests, u.bytes, u.rejected), (2, 80, 1));
        // Keys are independent.
        assert_eq!(ledger.charge("t2", &cfg, 99), QuotaDecision::Granted);
        assert_eq!(ledger.charge("t2", &cfg, 2), QuotaDecision::BytesExhausted);
        assert_eq!(ledger.usage("t2").bytes, 99, "rejection consumes nothing");
        assert_eq!(ledger.snapshot().len(), 2);
        // An unlimited config never rejects.
        let open = QuotaConfig::unlimited();
        for _ in 0..10 {
            assert!(ledger.charge("t3", &open, u64::MAX / 4).is_granted());
        }
        assert_eq!(ledger.usage("t3").rejected, 0);
    }

    #[test]
    fn quota_decision_names_are_stable() {
        assert_eq!(QuotaDecision::Granted.name(), "granted");
        assert_eq!(QuotaDecision::RequestsExhausted.name(), "quota_requests");
        assert_eq!(QuotaDecision::BytesExhausted.name(), "quota_bytes");
        assert!(QuotaDecision::Granted.is_granted());
        assert!(!QuotaDecision::BytesExhausted.is_granted());
    }
}
