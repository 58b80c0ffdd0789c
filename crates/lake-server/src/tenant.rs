//! Per-tenant namespaces, quotas, and circuit breakers.
//!
//! Every dataset a tenant stores lives under a scoped polystore location
//! (`tenant::name`), so namespace operations — list, delete, quota
//! accounting — never touch another tenant's objects. The isolation
//! ladder reuses the workspace's existing machinery rather than inventing
//! a parallel one:
//!
//! * quotas: [`lake_core::degrade::QuotaLedger`] keyed by tenant
//!   (count-based, hence order-independent and replayable);
//! * failure isolation: [`lake_core::degrade::CircuitBreaker`] keyed by
//!   tenant — a tenant whose requests keep failing gets its *own* breaker
//!   opened while its neighbours' requests keep flowing.
//!
//! Both live in `lake-core`, below the query engine that keys the same
//! breaker by source, so the server needs nothing from `lake-query`.

use lake_core::degrade::{
    Admission, BreakerConfig, BreakerState, CircuitBreaker, QuotaConfig, QuotaDecision,
    QuotaLedger, QuotaUsage,
};
use lake_core::{DatasetId, LakeError, LeafMutex, Result};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Everything the `stats` verb reports for one tenant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantStats {
    /// Quota consumption so far.
    pub usage: QuotaUsage,
    /// Current breaker state.
    pub breaker: BreakerState,
    /// Datasets currently in the namespace.
    pub datasets: usize,
}

/// The tenant registry: namespace map plus the per-tenant quota ledger
/// and breaker set.
#[derive(Debug)]
pub struct Tenants {
    default_quota: QuotaConfig,
    overrides: BTreeMap<String, QuotaConfig>,
    ledger: QuotaLedger,
    breaker: CircuitBreaker,
    breaker_cfg: BreakerConfig,
    names: LeafMutex<BTreeMap<String, BTreeMap<String, DatasetId>>>,
    next_id: AtomicU64,
}

impl Tenants {
    /// A registry where every tenant gets `default_quota` and breakers
    /// run under `breaker_cfg`.
    pub fn new(default_quota: QuotaConfig, breaker_cfg: BreakerConfig) -> Tenants {
        Tenants {
            default_quota,
            overrides: BTreeMap::new(),
            ledger: QuotaLedger::new(),
            breaker: CircuitBreaker::new(),
            breaker_cfg,
            names: LeafMutex::new(BTreeMap::new(), "server.tenants.names"),
            next_id: AtomicU64::new(1),
        }
    }

    /// Give one tenant a quota different from the default.
    pub fn with_override(mut self, tenant: &str, quota: QuotaConfig) -> Tenants {
        self.overrides.insert(tenant.to_string(), quota);
        self
    }

    /// The quota governing `tenant`.
    pub fn quota_for(&self, tenant: &str) -> QuotaConfig {
        self.overrides.get(tenant).copied().unwrap_or(self.default_quota)
    }

    /// Validate a tenant or dataset identifier: 1–64 chars drawn from
    /// `[A-Za-z0-9_-]`. Scoped locations embed idents with a `::`
    /// separator, so the charset excludes `:` by construction.
    pub fn validate_ident(s: &str) -> Result<()> {
        if s.is_empty() || s.len() > 64 {
            return Err(LakeError::invalid(format!(
                "identifier must be 1-64 chars, got {}",
                s.len()
            )));
        }
        if !s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-') {
            return Err(LakeError::invalid(format!(
                "identifier {s:?} has chars outside [A-Za-z0-9_-]"
            )));
        }
        Ok(())
    }

    /// The store-local location for a tenant's dataset.
    pub fn scoped(tenant: &str, name: &str) -> String {
        format!("{tenant}::{name}")
    }

    /// Charge one request of `bytes` against the tenant's quota.
    pub fn charge(&self, tenant: &str, bytes: u64) -> QuotaDecision {
        let cfg = self.quota_for(tenant);
        self.ledger.charge(tenant, &cfg, bytes)
    }

    /// Quota consumption recorded for the tenant.
    pub fn usage(&self, tenant: &str) -> QuotaUsage {
        self.ledger.usage(tenant)
    }

    /// Should the tenant's request proceed past its breaker?
    pub fn admit(&self, tenant: &str, now_us: u64) -> Admission {
        self.breaker.admit(tenant, &self.breaker_cfg, now_us)
    }

    /// Record a request outcome against the tenant's breaker.
    pub fn record(&self, tenant: &str, now_us: u64, success: bool) -> BreakerState {
        self.breaker.record(tenant, &self.breaker_cfg, now_us, success)
    }

    /// The tenant's current breaker state.
    pub fn breaker_state(&self, tenant: &str) -> BreakerState {
        self.breaker.state(tenant)
    }

    /// The dataset id for `tenant/name`, minting one if absent. The id
    /// space is shared (ids are globally unique) but the *name* space is
    /// per-tenant.
    pub fn assign(&self, tenant: &str, name: &str) -> DatasetId {
        let mut names = self.names.lock();
        let ns = names.entry(tenant.to_string()).or_default();
        if let Some(id) = ns.get(name) {
            return *id;
        }
        let id = DatasetId(self.next_id.fetch_add(1, Ordering::SeqCst));
        ns.insert(name.to_string(), id);
        id
    }

    /// The dataset id for `tenant/name`, if it exists.
    pub fn lookup(&self, tenant: &str, name: &str) -> Option<DatasetId> {
        self.names.lock().get(tenant).and_then(|ns| ns.get(name)).copied()
    }

    /// Unbind `tenant/name`, returning the freed id.
    pub fn remove_name(&self, tenant: &str, name: &str) -> Option<DatasetId> {
        self.names.lock().get_mut(tenant).and_then(|ns| ns.remove(name))
    }

    /// Every tenant with at least one bound dataset, sorted — the
    /// snapshot dump walks these to capture the whole namespace.
    pub fn tenant_names(&self) -> Vec<String> {
        self.names
            .lock()
            .iter()
            .filter(|(_, ns)| !ns.is_empty())
            .map(|(t, _)| t.clone())
            .collect()
    }

    /// The tenant's dataset names, sorted.
    pub fn list(&self, tenant: &str) -> Vec<String> {
        self.names
            .lock()
            .get(tenant)
            .map(|ns| ns.keys().cloned().collect())
            .unwrap_or_default()
    }

    /// Datasets currently bound in the tenant's namespace.
    pub fn dataset_count(&self, tenant: &str) -> usize {
        self.names.lock().get(tenant).map(BTreeMap::len).unwrap_or(0)
    }

    /// The `stats` verb's payload for one tenant.
    pub fn stats(&self, tenant: &str) -> TenantStats {
        TenantStats {
            usage: self.usage(tenant),
            breaker: self.breaker_state(tenant),
            datasets: self.dataset_count(tenant),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tenants() -> Tenants {
        Tenants::new(QuotaConfig::unlimited(), BreakerConfig::default())
    }

    #[test]
    fn idents_are_validated() {
        assert!(Tenants::validate_ident("acme-corp_2").is_ok());
        assert!(Tenants::validate_ident("").is_err());
        assert!(Tenants::validate_ident("a::b").is_err());
        assert!(Tenants::validate_ident(&"x".repeat(65)).is_err());
    }

    #[test]
    fn namespaces_are_isolated() {
        let t = tenants();
        let a = t.assign("alpha", "events");
        let b = t.assign("beta", "events");
        assert_ne!(a, b, "same name, different tenants, different ids");
        assert_eq!(t.assign("alpha", "events"), a, "assign is idempotent");
        assert_eq!(t.lookup("alpha", "events"), Some(a));
        assert_eq!(t.lookup("beta", "events"), Some(b));
        assert_eq!(t.list("alpha"), vec!["events"]);
        assert_eq!(t.remove_name("alpha", "events"), Some(a));
        assert_eq!(t.lookup("alpha", "events"), None);
        assert_eq!(t.lookup("beta", "events"), Some(b), "beta unaffected");
    }

    #[test]
    fn quota_overrides_apply_per_tenant() {
        let t = Tenants::new(QuotaConfig::unlimited(), BreakerConfig::default())
            .with_override("greedy", QuotaConfig::unlimited().with_max_requests(1));
        assert!(t.charge("greedy", 0).is_granted());
        assert!(!t.charge("greedy", 0).is_granted());
        for _ in 0..10 {
            assert!(t.charge("polite", 0).is_granted());
        }
        assert_eq!(t.usage("greedy").rejected, 1);
        assert_eq!(t.usage("polite").rejected, 0);
    }

    #[test]
    fn breakers_isolate_the_failing_tenant() {
        let cfg = BreakerConfig { failure_threshold: 2, cooldown_ms: 100 };
        let t = Tenants::new(QuotaConfig::unlimited(), cfg);
        t.record("flaky", 0, false);
        t.record("flaky", 0, false);
        assert_eq!(t.breaker_state("flaky"), BreakerState::Open);
        assert_eq!(t.breaker_state("steady"), BreakerState::Closed);
        assert_eq!(t.admit("flaky", 1_000), Admission::Deny);
        assert_eq!(t.admit("steady", 1_000), Admission::Allow);
        // Past the cooldown the breaker half-opens for one probe.
        assert_eq!(t.admit("flaky", 200_000), Admission::Probe);
        t.record("flaky", 200_000, true);
        assert_eq!(t.breaker_state("flaky"), BreakerState::Closed);
    }

    #[test]
    fn stats_aggregate_the_three_axes() {
        let t = tenants();
        t.assign("acme", "a");
        t.assign("acme", "b");
        assert!(t.charge("acme", 10).is_granted());
        let s = t.stats("acme");
        assert_eq!(s.datasets, 2);
        assert_eq!(s.usage.requests, 1);
        assert_eq!(s.usage.bytes, 10);
        assert_eq!(s.breaker, BreakerState::Closed);
    }
}
