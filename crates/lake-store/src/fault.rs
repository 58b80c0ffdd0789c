//! Deterministic fault injection for object stores.
//!
//! The whole lake sits on file/blob storage (survey §4.1), and the
//! lakehouse ACID layer (§8.3) is only as trustworthy as its behavior
//! when that storage misbehaves. [`FaultStore`] decorates any
//! [`ObjectStore`] and injects *scripted, seeded* faults per operation:
//!
//! * **transient errors** — the call fails with
//!   [`LakeError::Transient`] and has no effect; models throttling /
//!   timeouts that a retry absorbs;
//! * **torn writes** — only a prefix of the blob is persisted before the
//!   error; models a connection dropped mid-upload;
//! * **crash points** — the writer "dies": the triggering operation
//!   (optionally) tears, and every subsequent call through this handle
//!   fails. No panics — the chaos harness observes the death as an
//!   error and lets *another* handle recover;
//! * **latency accounting** — per-op simulated latency totals without
//!   actually sleeping.
//!
//! All scheduling lives in a [`FaultPlan`] (builder API): one-shot faults
//! at the Nth call of an op, budgets over the next N calls, and seeded
//! per-call probabilities. A plan with a fixed seed injects the identical
//! fault sequence on every run, so chaos tests are reproducible.
//!
//! Each writer wraps its own `FaultStore` around a shared backend
//! (`Arc<MemoryStore>`, say): faults are per-writer, the blobs —
//! including torn ones — are shared, exactly like a real dying client.

use crate::object::ObjectStore;
use lake_core::{LakeError, Result};
use lake_core::sync::LeafMutex;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeMap;

/// The operations a fault can target.
///
/// `Exists` and `List` return infallible types, so they can only accrue
/// call counts and latency, never errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Op {
    /// [`ObjectStore::put`].
    Put,
    /// [`ObjectStore::put_if_absent`].
    PutIfAbsent,
    /// [`ObjectStore::get`].
    Get,
    /// [`ObjectStore::delete`].
    Delete,
    /// [`ObjectStore::list`].
    List,
    /// [`ObjectStore::exists`].
    Exists,
    /// [`ObjectStore::size`].
    Size,
}

impl Op {
    /// Display name (used in injected error messages).
    pub fn name(self) -> &'static str {
        match self {
            Op::Put => "put",
            Op::PutIfAbsent => "put_if_absent",
            Op::Get => "get",
            Op::Delete => "delete",
            Op::List => "list",
            Op::Exists => "exists",
            Op::Size => "size",
        }
    }
}

/// What a scheduled fault does when it fires.
#[derive(Debug, Clone, Copy, PartialEq)]
enum FaultKind {
    /// Fail with [`LakeError::Transient`]; the operation has no effect.
    Transient,
    /// Persist only `keep` of the blob's bytes, then fail transiently.
    /// Only meaningful on `Put`/`PutIfAbsent`.
    Torn {
        /// Fraction of the blob that lands, in `[0, 1)`.
        keep: f64,
    },
    /// The writer dies: optionally tear the write first, then every
    /// later call through this handle fails.
    Crash {
        /// `Some(f)` = persist an `f` prefix before dying (a dead
        /// winner's half-written blob); `None` = nothing lands.
        torn_keep: Option<f64>,
    },
}

/// One scripted fault: fires when `op`'s call counter reaches `at_call`.
#[derive(Debug, Clone, Copy)]
struct Scheduled {
    op: Op,
    at_call: u64,
    kind: FaultKind,
}

/// A deterministic, seeded fault schedule. Build one with the fluent
/// API, then hand it to [`FaultStore::new`].
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    seed: u64,
    scheduled: Vec<Scheduled>,
    fail_budget: BTreeMap<Op, u64>,
    probability: BTreeMap<Op, f64>,
    latency_ms: BTreeMap<Op, u64>,
}

impl FaultPlan {
    /// An empty plan (no faults) with seed 0.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Set the seed driving probabilistic faults.
    pub fn seed(mut self, seed: u64) -> FaultPlan {
        self.seed = seed;
        self
    }

    /// Fail the next `n` calls of `op` transiently (no effect, retryable).
    pub fn fail_next(mut self, op: Op, n: u64) -> FaultPlan {
        *self.fail_budget.entry(op).or_insert(0) += n;
        self
    }

    /// Fail the `call`-th (1-based) invocation of `op` transiently.
    pub fn fail_call(mut self, op: Op, call: u64) -> FaultPlan {
        self.scheduled.push(Scheduled { op, at_call: call, kind: FaultKind::Transient });
        self
    }

    /// Each call of `op` fails transiently with probability `p`, drawn
    /// from the plan's seeded generator.
    pub fn fail_with_probability(mut self, op: Op, p: f64) -> FaultPlan {
        self.probability.insert(op, p.clamp(0.0, 1.0));
        self
    }

    /// The `call`-th invocation of `op` persists only a `keep` prefix of
    /// the blob, then fails transiently. A retried plain `put` heals the
    /// tear (full overwrite); a retried `put_if_absent` finds the torn
    /// blob squatting on the key — the case `TxnLog::recover` exists for.
    pub fn torn_write(mut self, op: Op, call: u64, keep: f64) -> FaultPlan {
        self.scheduled.push(Scheduled {
            op,
            at_call: call,
            kind: FaultKind::Torn { keep: keep.clamp(0.0, 1.0) },
        });
        self
    }

    /// The writer dies at the `call`-th invocation of `op`: nothing
    /// lands, and every subsequent call through this handle fails.
    pub fn crash_at(mut self, op: Op, call: u64) -> FaultPlan {
        self.scheduled.push(Scheduled { op, at_call: call, kind: FaultKind::Crash { torn_keep: None } });
        self
    }

    /// Like [`FaultPlan::crash_at`], but a `keep` prefix of the blob
    /// lands first — the "dead winner left a half-written log entry"
    /// scenario.
    pub fn crash_torn(mut self, op: Op, call: u64, keep: f64) -> FaultPlan {
        self.scheduled.push(Scheduled {
            op,
            at_call: call,
            kind: FaultKind::Crash { torn_keep: Some(keep.clamp(0.0, 1.0)) },
        });
        self
    }

    /// Account `ms` of simulated latency per call of `op` (no sleeping —
    /// totals are read back from [`FaultStats::simulated_latency_ms`]).
    pub fn latency_ms(mut self, op: Op, ms: u64) -> FaultPlan {
        self.latency_ms.insert(op, ms);
        self
    }
}

/// Counters a [`FaultStore`] accumulates; read with [`FaultStore::stats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Calls per operation (including faulted ones).
    pub calls: BTreeMap<&'static str, u64>,
    /// Transient errors injected.
    pub transients_injected: u64,
    /// Torn writes injected (prefix persisted).
    pub torn_writes: u64,
    /// Whether the scripted crash point fired.
    pub crashed: bool,
    /// Calls rejected because the handle was already dead.
    pub calls_after_crash: u64,
    /// Total simulated latency accounted, in milliseconds.
    pub simulated_latency_ms: u64,
}

/// Mutable interpreter state for one plan.
#[derive(Debug)]
struct State {
    plan: FaultPlan,
    counters: BTreeMap<Op, u64>,
    rng: StdRng,
    dead: bool,
    stats: FaultStats,
}

/// What the interpreter tells an operation wrapper to do.
enum Verdict {
    /// Run the real operation.
    Proceed,
    /// Fail transiently without side effects.
    FailTransient,
    /// Persist only `keep_bytes`-prefix semantics (writes only), then
    /// fail; `then_die` marks the handle dead afterwards.
    Tear {
        keep: f64,
        then_die: bool,
    },
    /// Die now: no side effects, handle dead afterwards.
    Die,
    /// The handle was already dead before this call.
    AlreadyDead,
}

impl State {
    fn decide(&mut self, op: Op) -> Verdict {
        let n = self.counters.entry(op).or_insert(0);
        *n += 1;
        let call = *n;
        *self.stats.calls.entry(op.name()).or_insert(0) += 1;
        if let Some(ms) = self.plan.latency_ms.get(&op) {
            self.stats.simulated_latency_ms += ms;
        }
        if self.dead {
            self.stats.calls_after_crash += 1;
            return Verdict::AlreadyDead;
        }
        // Scripted one-shots take precedence (most specific first).
        if let Some(idx) = self
            .plan
            .scheduled
            .iter()
            .position(|s| s.op == op && s.at_call == call)
        {
            let kind = self.plan.scheduled[idx].kind;
            match kind {
                FaultKind::Transient => {
                    self.stats.transients_injected += 1;
                    return Verdict::FailTransient;
                }
                FaultKind::Torn { keep } => {
                    self.stats.transients_injected += 1;
                    self.stats.torn_writes += 1;
                    return Verdict::Tear { keep, then_die: false };
                }
                FaultKind::Crash { torn_keep: Some(keep) } => {
                    self.stats.crashed = true;
                    self.stats.torn_writes += 1;
                    return Verdict::Tear { keep, then_die: true };
                }
                FaultKind::Crash { torn_keep: None } => {
                    self.stats.crashed = true;
                    return Verdict::Die;
                }
            }
        }
        // Then transient budgets…
        if let Some(budget) = self.plan.fail_budget.get_mut(&op) {
            if *budget > 0 {
                *budget -= 1;
                self.stats.transients_injected += 1;
                return Verdict::FailTransient;
            }
        }
        // …then the seeded coin.
        if let Some(&p) = self.plan.probability.get(&op) {
            if p > 0.0 && self.rng.random_bool(p) {
                self.stats.transients_injected += 1;
                return Verdict::FailTransient;
            }
        }
        Verdict::Proceed
    }
}

/// A fault-injecting decorator around any [`ObjectStore`].
///
/// `put_if_absent` atomicity is the inner store's — the decorator either
/// forwards the call unchanged or, when a torn fault fires, forwards a
/// *prefix* of the bytes through the same single conditional call, so
/// the one-winner guarantee is never weakened.
pub struct FaultStore<S: ObjectStore> {
    inner: S,
    state: LeafMutex<State>,
}

impl<S: ObjectStore> FaultStore<S> {
    /// Wrap `inner` under `plan`.
    pub fn new(inner: S, plan: FaultPlan) -> FaultStore<S> {
        let rng = StdRng::seed_from_u64(plan.seed);
        FaultStore {
            inner,
            state: LeafMutex::new(
                State {
                    plan,
                    counters: BTreeMap::new(),
                    rng,
                    dead: false,
                    stats: FaultStats::default(),
                },
                "store.fault.state",
            ),
        }
    }

    /// A transparent wrapper that never faults (useful as a control).
    pub fn transparent(inner: S) -> FaultStore<S> {
        FaultStore::new(inner, FaultPlan::new())
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> FaultStats {
        self.state.lock().stats.clone()
    }

    /// Has the scripted crash point fired (handle dead)?
    pub fn is_crashed(&self) -> bool {
        self.state.lock().dead
    }

    /// The wrapped store (e.g. to inspect blobs after a crash).
    pub fn inner(&self) -> &S {
        &self.inner
    }

    fn crash_error(op: Op) -> LakeError {
        LakeError::Io(format!("simulated crash: writer halted before {}", op.name()))
    }

    fn transient_error(op: Op) -> LakeError {
        LakeError::transient(format!("injected fault on {}", op.name()))
    }

    /// Apply the plan to a fallible, effect-free operation.
    fn guard<T>(&self, op: Op, run: impl FnOnce() -> Result<T>) -> Result<T> {
        let verdict = self.state.lock().decide(op);
        match verdict {
            Verdict::Proceed => run(),
            Verdict::FailTransient => Err(Self::transient_error(op)),
            // Tearing a read makes no sense; treat as transient.
            Verdict::Tear { then_die, .. } => {
                if then_die {
                    self.state.lock().dead = true;
                }
                Err(Self::transient_error(op))
            }
            Verdict::Die => {
                self.state.lock().dead = true;
                Err(Self::crash_error(op))
            }
            Verdict::AlreadyDead => Err(Self::crash_error(op)),
        }
    }

    /// Apply the plan to a write of `data`, supporting torn persistence.
    fn guard_write(
        &self,
        op: Op,
        data: &[u8],
        write: impl FnOnce(&[u8]) -> Result<()>,
    ) -> Result<()> {
        let verdict = self.state.lock().decide(op);
        match verdict {
            Verdict::Proceed => write(data),
            Verdict::FailTransient => Err(Self::transient_error(op)),
            Verdict::Tear { keep, then_die } => {
                let kept = ((data.len() as f64) * keep).floor() as usize;
                let kept = kept.min(data.len().saturating_sub(1));
                let partial = data.get(..kept).unwrap_or(&[]);
                // The prefix lands whether or not the caller survives.
                let _ = write(partial);
                if then_die {
                    self.state.lock().dead = true;
                    Err(Self::crash_error(op))
                } else {
                    Err(Self::transient_error(op))
                }
            }
            Verdict::Die => {
                self.state.lock().dead = true;
                Err(Self::crash_error(op))
            }
            Verdict::AlreadyDead => Err(Self::crash_error(op)),
        }
    }
}

/// Fault-free calls pass straight through, so `put_if_absent` keeps the
/// inner store's atomicity: the decorator never splits the conditional
/// put's existence check from its write — it only decides *whether* the
/// one underlying call happens (or how much of its payload does).
impl<S: ObjectStore> ObjectStore for FaultStore<S> {
    fn put(&self, key: &str, data: &[u8]) -> Result<()> {
        self.guard_write(Op::Put, data, |bytes| self.inner.put(key, bytes))
    }

    fn put_if_absent(&self, key: &str, data: &[u8]) -> Result<()> {
        self.guard_write(Op::PutIfAbsent, data, |bytes| self.inner.put_if_absent(key, bytes))
    }

    fn get(&self, key: &str) -> Result<Vec<u8>> {
        self.guard(Op::Get, || self.inner.get(key))
    }

    fn exists(&self, key: &str) -> bool {
        // Infallible signature: only count/latency-account; a dead
        // handle answers `false` for everything.
        let dead = {
            let mut st = self.state.lock();
            matches!(st.decide(Op::Exists), Verdict::AlreadyDead)
        };
        if dead {
            false
        } else {
            self.inner.exists(key)
        }
    }

    fn delete(&self, key: &str) -> Result<()> {
        self.guard(Op::Delete, || self.inner.delete(key))
    }

    fn list(&self, prefix: &str) -> Vec<String> {
        let dead = {
            let mut st = self.state.lock();
            matches!(st.decide(Op::List), Verdict::AlreadyDead)
        };
        if dead {
            Vec::new()
        } else {
            self.inner.list(prefix)
        }
    }

    fn size(&self, key: &str) -> Result<usize> {
        self.guard(Op::Size, || self.inner.size(key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::MemoryStore;
    use std::sync::Arc;

    #[test]
    fn transparent_plan_changes_nothing() {
        let s = FaultStore::transparent(MemoryStore::new());
        s.put("k", b"v").unwrap();
        assert_eq!(s.get("k").unwrap(), b"v");
        assert_eq!(s.size("k").unwrap(), 1);
        assert!(s.exists("k"));
        assert_eq!(s.list(""), vec!["k".to_string()]);
        let stats = s.stats();
        assert_eq!(stats.transients_injected, 0);
        assert!(!stats.crashed);
        assert_eq!(stats.calls["put"], 1);
        assert_eq!(stats.calls["get"], 1);
    }

    #[test]
    fn fail_next_budget_is_consumed_then_clears() {
        let s = FaultStore::new(MemoryStore::new(), FaultPlan::new().fail_next(Op::Put, 2));
        assert!(matches!(s.put("k", b"v"), Err(LakeError::Transient(_))));
        assert!(matches!(s.put("k", b"v"), Err(LakeError::Transient(_))));
        s.put("k", b"v").unwrap();
        assert_eq!(s.get("k").unwrap(), b"v");
        assert_eq!(s.stats().transients_injected, 2);
    }

    #[test]
    fn fail_call_targets_the_exact_call() {
        let s = FaultStore::new(MemoryStore::new(), FaultPlan::new().fail_call(Op::Get, 2));
        s.put("k", b"v").unwrap();
        s.get("k").unwrap();
        assert!(matches!(s.get("k"), Err(LakeError::Transient(_))));
        s.get("k").unwrap();
    }

    #[test]
    fn transient_put_has_no_side_effect() {
        let s = FaultStore::new(MemoryStore::new(), FaultPlan::new().fail_next(Op::Put, 1));
        assert!(s.put("k", b"v").is_err());
        assert!(!s.exists("k"));
    }

    #[test]
    fn torn_write_persists_a_strict_prefix() {
        let s = FaultStore::new(MemoryStore::new(), FaultPlan::new().torn_write(Op::Put, 1, 0.5));
        let data = b"0123456789".to_vec();
        assert!(matches!(s.put("k", &data), Err(LakeError::Transient(_))));
        let torn = s.inner().get("k").unwrap();
        assert_eq!(torn, b"01234");
        // A retried put heals the tear.
        s.put("k", &data).unwrap();
        assert_eq!(s.get("k").unwrap(), data);
        assert_eq!(s.stats().torn_writes, 1);
    }

    #[test]
    fn torn_write_never_keeps_the_full_blob() {
        let s = FaultStore::new(MemoryStore::new(), FaultPlan::new().torn_write(Op::Put, 1, 1.0));
        assert!(s.put("k", b"abc").is_err());
        assert_eq!(s.inner().get("k").unwrap(), b"ab", "keep=1.0 must still tear");
    }

    #[test]
    fn crash_halts_the_handle_but_not_the_backend() {
        let shared = Arc::new(MemoryStore::new());
        let dying = FaultStore::new(Arc::clone(&shared), FaultPlan::new().crash_at(Op::Put, 2));
        dying.put("a", b"1").unwrap();
        assert!(matches!(dying.put("b", b"2"), Err(LakeError::Io(_))));
        assert!(dying.is_crashed());
        // Everything after the crash fails on this handle…
        assert!(matches!(dying.get("a"), Err(LakeError::Io(_))));
        assert!(!dying.exists("a"));
        assert!(dying.list("").is_empty());
        assert!(dying.stats().calls_after_crash >= 3);
        // …but the backend is alive and uncorrupted for other writers.
        assert_eq!(shared.get("a").unwrap(), b"1");
        assert!(!shared.exists("b"));
    }

    #[test]
    fn crash_torn_claims_the_key_with_partial_bytes() {
        let shared = Arc::new(MemoryStore::new());
        let dying =
            FaultStore::new(Arc::clone(&shared), FaultPlan::new().crash_torn(Op::PutIfAbsent, 1, 0.4));
        let r = dying.put_if_absent("race", b"0123456789");
        assert!(matches!(r, Err(LakeError::Io(_))), "{r:?}");
        assert!(dying.is_crashed());
        // The dead winner's half-written blob squats on the key.
        assert_eq!(shared.get("race").unwrap(), b"0123");
        assert!(matches!(
            shared.put_if_absent("race", b"other"),
            Err(LakeError::AlreadyExists(_))
        ));
    }

    #[test]
    fn probabilistic_faults_are_seed_deterministic() {
        let run = |seed: u64| {
            let s = FaultStore::new(
                MemoryStore::new(),
                FaultPlan::new().seed(seed).fail_with_probability(Op::Put, 0.5),
            );
            (0..64).map(|i| s.put(&format!("k{i}"), b"v").is_err()).collect::<Vec<bool>>()
        };
        assert_eq!(run(7), run(7), "same seed, same fault sequence");
        assert_ne!(run(7), run(8), "different seed, different sequence");
        assert!(run(7).iter().any(|&e| e) && run(7).iter().any(|&e| !e));
    }

    #[test]
    fn latency_accounting_accumulates_without_sleeping() {
        let s = FaultStore::new(
            MemoryStore::new(),
            FaultPlan::new().latency_ms(Op::Get, 3).latency_ms(Op::Put, 2),
        );
        s.put("k", b"v").unwrap();
        let _ = s.get("k");
        let _ = s.get("k");
        assert_eq!(s.stats().simulated_latency_ms, 2 + 3 + 3);
    }
}
