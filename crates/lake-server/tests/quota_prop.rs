//! Property suite for the server's two accounting invariants (ISSUE 7
//! satellite): the admission conservation law
//! `offered == admitted + shed + drain_rejected` under arbitrary
//! concurrent interleavings, and per-tenant quota consumption that is
//! deterministic and replayable — the same request multiset produces the
//! same per-tenant [`QuotaUsage`] for every seed and worker count, and
//! matches a closed-form sequential oracle.

use lake_core::par::{self, Parallelism};
use lake_core::degrade::{QuotaConfig, QuotaLedger, QuotaUsage};
use lake_server::{AdmissionController, Offer};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Per-tenant workload shape: every request from tenant `t` carries the
/// same byte payload, so byte-budget decisions are order-independent and
/// the oracle below is exact under any interleaving.
#[derive(Debug, Clone)]
struct TenantPlan {
    bytes_per_request: u64,
    quota: QuotaConfig,
}

fn plans(seed: u64, tenants: usize, requests: usize) -> Vec<TenantPlan> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..tenants)
        .map(|_| {
            let bytes_per_request = rng.random_range(0..64u64);
            let mut quota = QuotaConfig::unlimited();
            if rng.random_range(0..3u32) > 0 {
                quota = quota.with_max_requests(rng.random_range(0..(requests as u64 * 2 + 1)));
            }
            if rng.random_range(0..3u32) > 0 {
                quota = quota.with_max_bytes(rng.random_range(0..(requests as u64 * 64 + 1)));
            }
            TenantPlan { bytes_per_request, quota }
        })
        .collect()
}

/// Closed-form sequential oracle: with identical requests the ledger
/// grants exactly `min(offered, request_cap, byte_cap)` and rejects the
/// rest, no matter how the requests interleave.
fn oracle(plan: &TenantPlan, offered: u64) -> QuotaUsage {
    let mut granted = offered;
    if let Some(max) = plan.quota.max_requests {
        granted = granted.min(max);
    }
    if let Some(max) = plan.quota.max_bytes {
        if let Some(n) = max.checked_div(plan.bytes_per_request) {
            granted = granted.min(n);
        }
    }
    QuotaUsage {
        requests: granted,
        bytes: granted * plan.bytes_per_request,
        rejected: offered - granted,
    }
}

/// Drive `requests` charges through a fresh ledger with `workers`
/// threads; request `i` belongs to tenant `i % tenants`.
fn charge_all(plan: &[TenantPlan], requests: usize, workers: usize) -> Vec<QuotaUsage> {
    let ledger = QuotaLedger::new();
    par::map_range(Parallelism::fixed(workers), 0..requests, |i| {
        let t = i % plan.len();
        let p = plan.get(t).expect("tenant index in range");
        ledger.charge(&format!("tenant{t}"), &p.quota, p.bytes_per_request);
    });
    (0..plan.len()).map(|t| ledger.usage(&format!("tenant{t}"))).collect()
}

proptest! {
    // offered == admitted + shed + drain_rejected for every seed, worker
    // count, capacity, and drain point — and in_flight equals exactly the
    // slots that were admitted but deliberately never released.
    #[test]
    fn admission_counters_conserve_under_concurrency(
        seed in any::<u64>(),
        worker_ix in 0usize..WORKER_COUNTS.len(),
        capacity in 1usize..16,
        offers in 1usize..400,
        drain_at in 0usize..400,
    ) {
        let workers = WORKER_COUNTS[worker_ix];
        let adm = Arc::new(AdmissionController::new(capacity));
        let held: u64 = par::map_range(Parallelism::fixed(workers), 0..offers, |i| {
            if i == drain_at {
                adm.begin_drain();
            }
            match adm.offer() {
                Offer::Admit => {
                    // A seeded minority of admissions hold their slot
                    // forever, modelling in-flight work at drain time.
                    let mut rng = StdRng::seed_from_u64(seed ^ i as u64);
                    if rng.random_range(0..8u32) == 0 {
                        1u64
                    } else {
                        adm.release();
                        0
                    }
                }
                Offer::Shed | Offer::Draining => 0,
            }
        })
        .into_iter()
        .sum();
        let c = adm.counters();
        prop_assert!(c.is_conserved(), "offered {} != {} + {} + {}",
            c.offered, c.admitted, c.shed, c.drain_rejected);
        prop_assert_eq!(c.offered, offers as u64);
        prop_assert_eq!(c.in_flight as u64, held);
        prop_assert!(c.in_flight <= capacity, "in_flight overshot capacity");
        if drain_at < offers {
            prop_assert!(adm.is_draining());
        }
    }

    // Once draining, every subsequent offer is a typed Draining rejection
    // — no admission sneaks past the drain gate.
    #[test]
    fn drain_gate_is_total(
        capacity in 1usize..8,
        offers in 1usize..64,
    ) {
        let adm = AdmissionController::new(capacity);
        adm.begin_drain();
        for _ in 0..offers {
            prop_assert_eq!(adm.offer(), Offer::Draining);
        }
        let c = adm.counters();
        prop_assert_eq!(c.drain_rejected, offers as u64);
        prop_assert_eq!(c.admitted, 0);
        prop_assert!(c.is_conserved());
    }

    // Per-tenant consumption is deterministic and replayable: any two
    // worker counts produce identical per-tenant usage, which also
    // matches the closed-form sequential oracle.
    #[test]
    fn quota_consumption_replays_identically_across_worker_counts(
        seed in any::<u64>(),
        tenants in 1usize..6,
        requests in 1usize..240,
        ix_a in 0usize..WORKER_COUNTS.len(),
        ix_b in 0usize..WORKER_COUNTS.len(),
    ) {
        let plan = plans(seed, tenants, requests);
        let run_a = charge_all(&plan, requests, WORKER_COUNTS[ix_a]);
        let run_b = charge_all(&plan, requests, WORKER_COUNTS[ix_b]);
        prop_assert_eq!(&run_a, &run_b);
        for (t, (p, usage)) in plan.iter().zip(&run_a).enumerate() {
            // Tenant t sees requests t, t+tenants, t+2*tenants, ...
            let offered = (requests - t).div_ceil(tenants) as u64;
            let want = oracle(p, offered);
            prop_assert_eq!(usage, &want);
            prop_assert_eq!(usage.requests + usage.rejected, offered);
        }
    }
}
