//! Graceful degradation for the federated mediator (§7.2 robustness).
//!
//! Real federated engines in the Constance/GEMMS lineage must answer even
//! when individual backends are slow or failing; one bad source must not
//! take down every mediated query. This module holds the three pieces of
//! the degradation ladder the [`crate::federated::FederatedEngine`] walks
//! per source:
//!
//! 1. a [`QueryBudget`] — a total deadline for the whole fan-out plus a
//!    per-source deadline, measured on the injectable
//!    [`lake_core::retry::Clock`] so tests replay deterministically;
//! 2. a [`lake_core::retry::RetryPolicy`] absorbing transient source
//!    errors (carried in [`DegradationConfig`]);
//! 3. a per-backend [`CircuitBreaker`](lake_core::degrade::CircuitBreaker):
//!    Closed → Open after a run of consecutive failures, Open → HalfOpen
//!    probe once a cooldown has elapsed, HalfOpen → Closed on probe
//!    success (or back to Open on probe failure). Breaker state is shared
//!    across queries via the engine, so a dead backend stops being
//!    hammered after a few queries.
//!
//! What a skipped source *means* is recorded in a [`Completeness`] report
//! on [`crate::federated::ExecStats`], so callers can distinguish exact
//! answers from degraded ones instead of being silently short-changed.

use lake_core::degrade::BreakerConfig;
use lake_store::StoreKind;

/// Why a source contributed nothing to a degraded answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SkipReason {
    /// The source's circuit breaker was open; no fetch was attempted.
    BreakerOpen,
    /// The fetch completed but took longer than the per-source deadline;
    /// its rows arrived too late to merge.
    Timeout,
    /// The query's total deadline expired before this source was reached.
    Deadline,
    /// The fetch failed (after exhausting the retry budget, if the error
    /// was transient).
    Failed,
}

impl SkipReason {
    /// Stable label used in metrics and CLI output.
    pub fn name(self) -> &'static str {
        match self {
            SkipReason::BreakerOpen => "breaker_open",
            SkipReason::Timeout => "timeout",
            SkipReason::Deadline => "deadline",
            SkipReason::Failed => "failed",
        }
    }
}

/// One source that was skipped during a degraded execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SkippedSource {
    /// The source's location (table / collection / object key).
    pub location: String,
    /// Which substrate it lives in.
    pub kind: StoreKind,
    /// Why it was skipped.
    pub reason: SkipReason,
}

/// Completeness report of one federated execution: which sources
/// answered, which were skipped and why, and whether the merged table may
/// therefore be missing rows.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Completeness {
    /// Sources that answered within budget.
    pub sources_ok: usize,
    /// Sources skipped (for any [`SkipReason`]).
    pub skipped: Vec<SkippedSource>,
    /// True when any source was skipped: rows that source would have
    /// contributed are absent from the answer.
    pub is_partial: bool,
}

impl Completeness {
    /// Sources skipped for `reason`.
    pub fn skipped_for(&self, reason: SkipReason) -> usize {
        self.skipped.iter().filter(|s| s.reason == reason).count()
    }

    /// Sources whose answer arrived after the per-source deadline.
    pub fn timed_out(&self) -> usize {
        self.skipped_for(SkipReason::Timeout)
    }

    /// Total sources consulted (answered + skipped).
    pub fn sources_total(&self) -> usize {
        self.sources_ok + self.skipped.len()
    }

    /// Fold another report into this one (used by joins, whose two sides
    /// execute as independent fan-outs).
    pub fn merge(&mut self, other: &Completeness) {
        self.sources_ok += other.sources_ok;
        self.skipped.extend(other.skipped.iter().cloned());
        self.is_partial |= other.is_partial;
    }

    /// One-line human rendering: `3/4 sources (skipped orders_docs: failed)`.
    pub fn render(&self) -> String {
        if self.skipped.is_empty() {
            return format!("{}/{} sources", self.sources_ok, self.sources_total());
        }
        let detail: Vec<String> = self
            .skipped
            .iter()
            .map(|s| format!("{}: {}", s.location, s.reason.name()))
            .collect();
        format!(
            "{}/{} sources (skipped {})",
            self.sources_ok,
            self.sources_total(),
            detail.join(", ")
        )
    }
}

/// Deadlines for one federated execution, measured on the engine's clock.
/// `None` disables the respective check.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryBudget {
    /// Upper bound on the whole fan-out, in milliseconds. Sources not yet
    /// consulted when it expires are skipped with [`SkipReason::Deadline`].
    pub total_ms: Option<u64>,
    /// Upper bound on a single source fetch (including its retries), in
    /// milliseconds. A fetch that finishes late is discarded with
    /// [`SkipReason::Timeout`] and counts as a breaker failure.
    pub per_source_ms: Option<u64>,
}

impl QueryBudget {
    /// No deadlines at all.
    pub fn unlimited() -> QueryBudget {
        QueryBudget::default()
    }

    /// Set the total fan-out deadline.
    pub fn with_total_ms(mut self, ms: u64) -> QueryBudget {
        self.total_ms = Some(ms);
        self
    }

    /// Set the per-source deadline.
    pub fn with_per_source_ms(mut self, ms: u64) -> QueryBudget {
        self.per_source_ms = Some(ms);
        self
    }
}

/// The full degradation configuration attached to an engine with
/// [`crate::federated::FederatedEngine::with_degradation`].
#[derive(Debug, Clone)]
pub struct DegradationConfig {
    /// Deadlines for each execution.
    pub budget: QueryBudget,
    /// Breaker thresholds (state itself lives on the engine).
    pub breaker: BreakerConfig,
    /// Retry policy for transient source errors.
    pub retry: lake_core::retry::RetryPolicy,
    /// When true, any would-be skip surfaces as an error instead —
    /// today's fail-fast semantics, with the budget/breaker machinery
    /// still protecting the backends.
    pub strict: bool,
}

impl Default for DegradationConfig {
    fn default() -> DegradationConfig {
        DegradationConfig {
            budget: QueryBudget::unlimited(),
            breaker: BreakerConfig::default(),
            retry: lake_core::retry::RetryPolicy::default(),
            strict: false,
        }
    }
}

impl DegradationConfig {
    /// Degraded (skip-and-report) mode with default thresholds.
    pub fn degraded() -> DegradationConfig {
        DegradationConfig::default()
    }

    /// Fail-fast mode: budget and breaker still run, but every skip is an
    /// error.
    pub fn strict() -> DegradationConfig {
        DegradationConfig { strict: true, ..DegradationConfig::default() }
    }

    /// Replace the budget.
    pub fn with_budget(mut self, budget: QueryBudget) -> DegradationConfig {
        self.budget = budget;
        self
    }

    /// Replace the breaker thresholds.
    pub fn with_breaker(mut self, breaker: BreakerConfig) -> DegradationConfig {
        self.breaker = breaker;
        self
    }

    /// Replace the retry policy.
    pub fn with_retry(mut self, retry: lake_core::retry::RetryPolicy) -> DegradationConfig {
        self.retry = retry;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completeness_merge_and_render() {
        let mut a = Completeness { sources_ok: 2, skipped: vec![], is_partial: false };
        let b = Completeness {
            sources_ok: 1,
            skipped: vec![SkippedSource {
                location: "orders_docs".into(),
                kind: StoreKind::Document,
                reason: SkipReason::Failed,
            }],
            is_partial: true,
        };
        a.merge(&b);
        assert_eq!(a.sources_ok, 3);
        assert!(a.is_partial);
        assert_eq!(a.sources_total(), 4);
        assert_eq!(a.skipped_for(SkipReason::Failed), 1);
        assert_eq!(a.render(), "3/4 sources (skipped orders_docs: failed)");
        let clean = Completeness { sources_ok: 3, ..Completeness::default() };
        assert_eq!(clean.render(), "3/3 sources");
    }
}
