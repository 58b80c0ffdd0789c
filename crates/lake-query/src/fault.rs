//! Seeded fault injection for federated sources, mirroring
//! `lake_store::FaultStore`'s [`lake_store::FaultPlan`] idiom at the
//! mediator level.
//!
//! A [`FaultSource`] sits between the [`crate::federated::FederatedEngine`]
//! and its source fetches: before each real fetch the engine calls
//! [`FaultSource::intercept`] with the source's location, and the plan
//! decides — deterministically, per seed — whether that call experiences
//! a simulated **hang** (the clock advances via
//! [`lake_core::retry::Clock::sleep_ms`], so a `ManualClock` records it
//! without wall time), a **transient** error (retryable, absorbed by the
//! engine's retry policy), or a **hard** failure (non-retryable, feeding
//! the circuit breaker). This is how every breaker transition and
//! degradation path in the chaos suite is exercised without a single
//! flaky backend.

use lake_core::retry::Clock;
use lake_core::value::fnv1a;
use lake_core::{LakeError, Result};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeMap;
use lake_core::sync::{rank, OrderedMutex};

#[derive(Debug, Clone, Default)]
struct LocationPlan {
    /// Transient-error budget: the next `n` calls fail retryably.
    transient_budget: u64,
    /// Probability any call fails with a transient (seeded coin).
    transient_probability: f64,
    /// Hard-failure budget: the next `n` calls fail non-retryably.
    hard_budget: u64,
    /// Every call fails non-retryably (a dead backend).
    dead: bool,
    /// 1-based call numbers that hang for the given milliseconds before
    /// proceeding.
    hangs: BTreeMap<u64, u64>,
    /// Every call hangs this long (slow backend).
    slow_ms: u64,
}

/// Observed injection counts, for asserting plans actually fired.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSourceStats {
    /// Intercepted calls per location.
    pub calls: BTreeMap<String, u64>,
    /// Transient errors injected.
    pub transients: u64,
    /// Hard (non-retryable) errors injected.
    pub hard_failures: u64,
    /// Hangs injected.
    pub hangs: u64,
    /// Total simulated hang time, in milliseconds.
    pub hang_ms: u64,
}

impl FaultSourceStats {
    /// Intercepted calls to `location`.
    pub fn calls_to(&self, location: &str) -> u64 {
        self.calls.get(location).copied().unwrap_or(0)
    }
}

#[derive(Debug, Default)]
struct State {
    /// 1-based call counters per location.
    counters: BTreeMap<String, u64>,
    stats: FaultSourceStats,
}

/// A deterministic per-source fault injector. Build it with the
/// `FaultPlan`-style chainable constructors, attach it with
/// [`crate::federated::FederatedEngine::with_faults`].
#[derive(Debug)]
pub struct FaultSource {
    seed: u64,
    plans: BTreeMap<String, LocationPlan>,
    state: OrderedMutex<State>,
}

impl Default for FaultSource {
    fn default() -> FaultSource {
        FaultSource::new()
    }
}

impl FaultSource {
    /// An injector with no scripted faults (every call proceeds).
    pub fn new() -> FaultSource {
        FaultSource {
            seed: 0,
            plans: BTreeMap::new(),
            state: OrderedMutex::new(State::default(), rank::QUERY_FAULT, "query.fault.state"),
        }
    }

    /// Seed for the probabilistic coin (same seed ⇒ same fault schedule).
    pub fn seed(mut self, seed: u64) -> FaultSource {
        self.seed = seed;
        self
    }

    fn plan_mut(&mut self, location: &str) -> &mut LocationPlan {
        self.plans.entry(location.to_string()).or_default()
    }

    /// The next `n` calls to `location` fail with a retryable transient.
    pub fn transient(mut self, location: &str, n: u64) -> FaultSource {
        self.plan_mut(location).transient_budget += n;
        self
    }

    /// Each call to `location` fails transiently with probability `p`
    /// (seeded, deterministic).
    pub fn transient_probability(mut self, location: &str, p: f64) -> FaultSource {
        self.plan_mut(location).transient_probability = p.clamp(0.0, 1.0);
        self
    }

    /// The next `n` calls to `location` fail hard (non-retryable).
    pub fn hard(mut self, location: &str, n: u64) -> FaultSource {
        self.plan_mut(location).hard_budget += n;
        self
    }

    /// Every call to `location` fails hard: a dead backend.
    pub fn dead(mut self, location: &str) -> FaultSource {
        self.plan_mut(location).dead = true;
        self
    }

    /// Call number `call` (1-based) to `location` hangs for `ms`
    /// milliseconds before proceeding.
    pub fn hang(mut self, location: &str, call: u64, ms: u64) -> FaultSource {
        self.plan_mut(location).hangs.insert(call, ms);
        self
    }

    /// Every call to `location` hangs for `ms` milliseconds: a slow
    /// backend.
    pub fn slow(mut self, location: &str, ms: u64) -> FaultSource {
        self.plan_mut(location).slow_ms = ms;
        self
    }

    /// Counters of everything injected so far.
    pub fn stats(&self) -> FaultSourceStats {
        self.state.lock().stats.clone()
    }

    /// Decide the fate of one call to `location`: possibly advance the
    /// clock (hang), then possibly fail. Scheduled budgets take
    /// precedence over the probabilistic coin, mirroring `FaultPlan`.
    pub fn intercept(&self, location: &str, clock: &dyn Clock) -> Result<()> {
        let plan = match self.plans.get(location) {
            Some(p) => p,
            None => return Ok(()),
        };
        let (call, verdict, hang) = {
            let mut st = self.state.lock();
            let call = st.counters.entry(location.to_string()).or_insert(0);
            *call += 1;
            let call = *call;
            *st.stats.calls.entry(location.to_string()).or_insert(0) += 1;

            let hang = plan.hangs.get(&call).copied().unwrap_or(0).max(plan.slow_ms);
            if hang > 0 {
                st.stats.hangs += 1;
                st.stats.hang_ms += hang;
            }

            let verdict = if plan.dead || plan.hard_budget >= call {
                st.stats.hard_failures += 1;
                Verdict::Hard
            } else if plan.transient_budget + plan.hard_budget >= call {
                st.stats.transients += 1;
                Verdict::Transient
            } else if plan.transient_probability > 0.0 {
                // Per-call derived stream: deterministic regardless of
                // interleaving with other locations.
                let mut rng = StdRng::seed_from_u64(
                    self.seed
                        ^ call.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        ^ fnv1a(location.as_bytes()),
                );
                if rng.random_range(0.0..1.0) < plan.transient_probability {
                    st.stats.transients += 1;
                    Verdict::Transient
                } else {
                    Verdict::Proceed
                }
            } else {
                Verdict::Proceed
            };
            (call, verdict, hang)
        };
        // Sleep outside the lock so a hanging source never blocks other
        // locations' bookkeeping.
        if hang > 0 {
            clock.sleep_ms(hang);
        }
        match verdict {
            Verdict::Proceed => Ok(()),
            Verdict::Transient => Err(LakeError::transient(format!(
                "injected transient on {location} (call {call})"
            ))),
            Verdict::Hard => {
                Err(LakeError::Io(format!("injected hard failure on {location} (call {call})")))
            }
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Verdict {
    Proceed,
    Transient,
    Hard,
}

#[cfg(test)]
mod tests {
    use super::*;
    use lake_core::retry::ManualClock;

    #[test]
    fn transient_budget_spends_then_proceeds() {
        let clock = ManualClock::new();
        let f = FaultSource::new().transient("a", 2);
        assert!(matches!(f.intercept("a", &clock), Err(LakeError::Transient(_))));
        assert!(matches!(f.intercept("a", &clock), Err(LakeError::Transient(_))));
        assert!(f.intercept("a", &clock).is_ok());
        assert!(f.intercept("other", &clock).is_ok());
        let stats = f.stats();
        assert_eq!(stats.transients, 2);
        assert_eq!(stats.calls_to("a"), 3);
    }

    #[test]
    fn dead_location_always_fails_hard() {
        let clock = ManualClock::new();
        let f = FaultSource::new().dead("x");
        for _ in 0..5 {
            let r = f.intercept("x", &clock);
            assert!(matches!(r, Err(LakeError::Io(_))), "{r:?}");
        }
        assert_eq!(f.stats().hard_failures, 5);
    }

    #[test]
    fn hard_budget_precedes_transients() {
        let clock = ManualClock::new();
        let f = FaultSource::new().hard("a", 1).transient("a", 1);
        assert!(matches!(f.intercept("a", &clock), Err(LakeError::Io(_))));
        assert!(matches!(f.intercept("a", &clock), Err(LakeError::Transient(_))));
        assert!(f.intercept("a", &clock).is_ok());
    }

    #[test]
    fn hangs_advance_the_clock() {
        let clock = ManualClock::new();
        let f = FaultSource::new().hang("a", 2, 30).slow("b", 5);
        assert!(f.intercept("a", &clock).is_ok()); // call 1: no hang
        assert!(f.intercept("a", &clock).is_ok()); // call 2: 30ms hang
        assert!(f.intercept("b", &clock).is_ok()); // always 5ms
        assert_eq!(clock.sleeps(), vec![30, 5]);
        let stats = f.stats();
        assert_eq!(stats.hangs, 2);
        assert_eq!(stats.hang_ms, 35);
    }

    #[test]
    fn probabilistic_faults_replay_per_seed() {
        let run = |seed: u64| {
            let clock = ManualClock::new();
            let f = FaultSource::new().seed(seed).transient_probability("a", 0.5);
            (0..32).map(|_| f.intercept("a", &clock).is_err()).collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7), "same seed must replay");
        assert_ne!(run(7), run(8), "different seeds must differ");
        assert!(run(7).iter().any(|&e| e), "p=0.5 over 32 calls should inject");
        assert!(run(7).iter().any(|&e| !e), "p=0.5 over 32 calls should pass some");
    }
}
