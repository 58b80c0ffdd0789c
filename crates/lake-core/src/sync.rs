//! Ordered locks with a runtime lock-order sanitizer (DESIGN.md §13), and
//! the workspace's one multi-consumer work queue ([`unbounded`]).
//!
//! Every long-lived lock in the workspace is an [`OrderedMutex`] or
//! [`OrderedRwLock`] constructed with a rank from [`rank`] — the single
//! declared global lock order. The discipline is strict-ascent: a thread
//! may acquire a lock only while every lock it already holds has a
//! *strictly smaller* rank. Any set of threads obeying strict ascent can
//! never form a hold-and-wait cycle, so the discipline is deadlock
//! freedom by construction; re-entrant acquisition of the same lock
//! (equal rank) is rejected for the same reason.
//!
//! In debug builds (the configuration every test and chaos suite runs
//! under) each acquisition is checked against a per-thread stack of held
//! locks. A rank inversion raises a panic naming **both** sites — where
//! the blocking lock was acquired and where the inverting acquisition was
//! attempted — turning a would-be deadlock interleaving into a
//! deterministic, attributable failure. Release builds skip the
//! bookkeeping entirely.
//!
//! The same contract is enforced statically by lake-lint rule 6
//! (`lock-order`), which parses the [`rank`] constants below as its
//! declared order; the chaos suites (`tests/chaos.rs` of `lake-house`,
//! `lake-query` and `lake-server`) exercise the runtime half under seeds
//! 7/42/1337. The sanitizer panics through
//! [`std::panic::panic_any`] — a deliberate, typed abort, not an
//! accidental `panic!` — so the panic-freedom lint stays meaningful for
//! library code.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::panic::Location;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The single declared global lock order.
///
/// Ranks ascend outer → inner: a lock may be acquired only while all
/// held locks have strictly smaller ranks. Gaps of 10 leave room to
/// slot new locks between existing ones without renumbering. This table
/// is mirrored in DESIGN.md §13 and parsed by lake-lint rule 6, so the
/// static and runtime checkers share one source of truth.
pub mod rank {
    /// KAYAK parallel task-completion list (`lake-organize`).
    pub const ORGANIZE_KAYAK: u32 = 10;
    /// Federated-query fault injector state (`lake-query::fault`).
    pub const QUERY_FAULT: u32 = 20;
    /// Write-ahead-journal file handle (`lake-server::wal`); a group-commit
    /// leader drains the append queue while holding it, so it ranks outer
    /// to [`SERVER_WAL_QUEUE`].
    pub const SERVER_WAL_FILE: u32 = 21;
    /// Write-ahead-journal append queue (`lake-server::wal`).
    pub const SERVER_WAL_QUEUE: u32 = 22;
    /// Contiguous-applied watermark (`lake-server::wal`): the highest
    /// journal sequence below which every entry has been applied, which
    /// bounds what rotation may compact away.
    pub const SERVER_WAL_MARK: u32 = 23;
    /// Server tenant-namespace registry (`lake-server::tenant`); outer to
    /// the breaker/quota cells so a namespace holder may consult them.
    pub const SERVER_TENANTS: u32 = 25;
    /// Circuit-breaker cell map (`lake-core::degrade`).
    pub const CORE_BREAKER: u32 = 30;
    /// Per-key quota-ledger cells (`lake-core::degrade`).
    pub const CORE_QUOTA: u32 = 35;
    /// Federated engine retry counters (`lake-query::federated`).
    pub const QUERY_RETRY_STATS: u32 = 40;
    /// Transaction-log retry counters (`lake-house::log`).
    pub const HOUSE_RETRY_STATS: u32 = 50;
    /// Polystore placement registry (`lake-store::polystore`). The store
    /// locks below are leaves among themselves — each guard is released
    /// before its holder calls another substrate — and inner to every
    /// tier lock, since any tier may call a store under its own lock.
    pub const STORE_PLACEMENTS: u32 = 51;
    /// Polystore file-substrate retry counters (`lake-store::polystore`).
    pub const STORE_RETRY_STATS: u32 = 52;
    /// Object-store fault-injector state (`lake-store::fault`).
    pub const STORE_FAULT: u32 = 53;
    /// Relational-store table map (`lake-store::relational`).
    pub const STORE_RELATIONAL: u32 = 54;
    /// Document-store collection map (`lake-store::document`).
    pub const STORE_DOCUMENT: u32 = 55;
    /// Graph-store graph map (`lake-store::graphstore`).
    pub const STORE_GRAPH: u32 = 56;
    /// In-memory object-store blob map (`lake-store::object`).
    pub const STORE_OBJECT: u32 = 57;
    /// Key-value store column families (`lake-store::kv`).
    pub const STORE_KV_FAMILIES: u32 = 58;
    /// Key-value store rows (`lake-store::kv`).
    pub const STORE_KV_ROWS: u32 = 59;
    /// Metrics registry map (`lake-obs::metrics`); innermost of the
    /// tier locks so any tier may register metrics under its own lock.
    pub const OBS_REGISTRY: u32 = 60;
    /// Tracer finished-span ring (`lake-obs::trace`).
    pub const OBS_TRACE: u32 = 70;
    /// Event-log ring (`lake-obs::events`).
    pub const OBS_EVENTS: u32 = 80;
    /// `ManualClock` backoff schedule (`lake-core::retry`); the leafmost
    /// lock — clocks are read from inside every other subsystem.
    pub const CORE_CLOCK: u32 = 90;
}

/// One lock a thread currently holds.
#[derive(Clone, Copy)]
struct Held {
    rank: u32,
    name: &'static str,
    file: &'static str,
    line: u32,
    token: u64,
}

thread_local! {
    /// Locks held by this thread, in acquisition order (not a strict
    /// stack: out-of-order release is legal and common).
    static HELD: RefCell<Vec<Held>> = const { RefCell::new(Vec::new()) };
    /// Per-thread acquisition counter; tokens tie a guard to its entry.
    static NEXT_TOKEN: RefCell<u64> = const { RefCell::new(0) };
}

/// Total rank inversions detected process-wide (each one also panics).
/// Chaos gates assert this stays zero across a run.
// lint: ordering — monotonic violation counter, no ordering dependency.
static VIOLATIONS: AtomicU64 = AtomicU64::new(0);

/// Rank inversions detected so far in this process. Non-zero means a
/// sanitizer panic fired somewhere (and was perhaps caught by a test
/// harness); gates treat any non-zero value as a failure.
pub fn sanitizer_violations() -> u64 {
    // lint: ordering — monotonic violation counter, no ordering dependency.
    VIOLATIONS.load(Ordering::Relaxed)
}

/// Is the runtime sanitizer active in this build?
pub fn sanitizer_enabled() -> bool {
    cfg!(debug_assertions)
}

/// Record an acquisition attempt; panics on rank inversion. Returns the
/// token identifying the held entry (0 when the sanitizer is off).
#[track_caller]
fn acquire(rank: u32, name: &'static str) -> u64 {
    if !sanitizer_enabled() {
        return 0;
    }
    let site = Location::caller();
    let blocking = HELD.with(|h| {
        h.borrow().iter().filter(|e| e.rank >= rank).max_by_key(|e| e.rank).copied()
    });
    if let Some(worst) = blocking {
        // lint: ordering — monotonic violation counter, no ordering dependency.
        VIOLATIONS.fetch_add(1, Ordering::Relaxed);
        #[expect(clippy::panic, reason = "the debug-build sanitizer panics on a rank inversion")]
        std::panic::panic_any(format!(
            "lock-order violation: acquiring `{name}` (rank {rank}) at {}:{} while holding \
             `{}` (rank {}) acquired at {}:{} — the declared order (lake_core::sync::rank) \
             requires strictly increasing ranks",
            site.file(),
            site.line(),
            worst.name,
            worst.rank,
            worst.file,
            worst.line,
        ));
    }
    let token = NEXT_TOKEN.with(|t| {
        let mut t = t.borrow_mut();
        *t += 1;
        *t
    });
    HELD.with(|h| {
        h.borrow_mut().push(Held { rank, name, file: site.file(), line: site.line(), token });
    });
    token
}

/// Drop the held entry for `token` (no-op for untracked guards). Uses
/// `try_with` so guards dropped during thread teardown stay safe.
fn release(token: u64) {
    if token == 0 {
        return;
    }
    let _ = HELD.try_with(|h| h.borrow_mut().retain(|e| e.token != token));
}

/// A mutex participating in the global lock order. `lock` returns the
/// guard directly (a poisoned lock yields its inner guard), plus the rank
/// bookkeeping described in the module docs.
pub struct OrderedMutex<T: ?Sized> {
    name: &'static str,
    rank: u32,
    inner: std::sync::Mutex<T>,
}

/// RAII guard for [`OrderedMutex`]; releasing it pops the sanitizer entry.
pub struct OrderedMutexGuard<'a, T: ?Sized> {
    token: u64,
    guard: std::sync::MutexGuard<'a, T>,
}

impl<T> OrderedMutex<T> {
    /// A mutex holding `value` at `rank` (a [`rank`] constant), labeled
    /// `name` (`<tier>.<module>.<field>`) for sanitizer reports.
    pub const fn new(value: T, rank: u32, name: &'static str) -> OrderedMutex<T> {
        OrderedMutex { name, rank, inner: std::sync::Mutex::new(value) }
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        match self.inner.into_inner() {
            Ok(v) => v,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

impl<T: ?Sized> OrderedMutex<T> {
    /// Acquire the lock, enforcing strict rank ascent.
    #[track_caller]
    pub fn lock(&self) -> OrderedMutexGuard<'_, T> {
        let token = acquire(self.rank, self.name);
        let guard = match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        OrderedMutexGuard { token, guard }
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        match self.inner.get_mut() {
            Ok(v) => v,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// The lock's declared rank.
    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// The lock's sanitizer label.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for OrderedMutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OrderedMutex")
            .field("name", &self.name)
            .field("rank", &self.rank)
            .finish_non_exhaustive()
    }
}

impl<T: ?Sized> std::ops::Deref for OrderedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> std::ops::DerefMut for OrderedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T: ?Sized> Drop for OrderedMutexGuard<'_, T> {
    fn drop(&mut self) {
        release(self.token);
    }
}

/// A reader-writer lock participating in the global lock order. Read and
/// write acquisitions are both rank-checked: a read re-entered under a
/// queued writer deadlocks just as surely as a write cycle.
pub struct OrderedRwLock<T: ?Sized> {
    name: &'static str,
    rank: u32,
    inner: std::sync::RwLock<T>,
}

/// RAII shared-read guard for [`OrderedRwLock`].
pub struct OrderedRwLockReadGuard<'a, T: ?Sized> {
    token: u64,
    guard: std::sync::RwLockReadGuard<'a, T>,
}

/// RAII exclusive-write guard for [`OrderedRwLock`].
pub struct OrderedRwLockWriteGuard<'a, T: ?Sized> {
    token: u64,
    guard: std::sync::RwLockWriteGuard<'a, T>,
}

impl<T> OrderedRwLock<T> {
    /// A rwlock holding `value` at `rank` (a [`rank`] constant), labeled
    /// `name` for sanitizer reports.
    pub const fn new(value: T, rank: u32, name: &'static str) -> OrderedRwLock<T> {
        OrderedRwLock { name, rank, inner: std::sync::RwLock::new(value) }
    }

    /// Consume the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        match self.inner.into_inner() {
            Ok(v) => v,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

impl<T: ?Sized> OrderedRwLock<T> {
    /// Acquire a shared read lock, enforcing strict rank ascent.
    #[track_caller]
    pub fn read(&self) -> OrderedRwLockReadGuard<'_, T> {
        let token = acquire(self.rank, self.name);
        let guard = match self.inner.read() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        OrderedRwLockReadGuard { token, guard }
    }

    /// Acquire an exclusive write lock, enforcing strict rank ascent.
    #[track_caller]
    pub fn write(&self) -> OrderedRwLockWriteGuard<'_, T> {
        let token = acquire(self.rank, self.name);
        let guard = match self.inner.write() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        OrderedRwLockWriteGuard { token, guard }
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        match self.inner.get_mut() {
            Ok(v) => v,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// The lock's declared rank.
    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// The lock's sanitizer label.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for OrderedRwLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OrderedRwLock")
            .field("name", &self.name)
            .field("rank", &self.rank)
            .finish_non_exhaustive()
    }
}

impl<T: ?Sized> std::ops::Deref for OrderedRwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> std::ops::Deref for OrderedRwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> std::ops::DerefMut for OrderedRwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T: ?Sized> Drop for OrderedRwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        release(self.token);
    }
}

impl<T: ?Sized> Drop for OrderedRwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        release(self.token);
    }
}

/// Shared state of one [`unbounded`] queue: its items and both halves' counts.
struct Queue<T> {
    state: std::sync::Mutex<QueueState<T>>,
    ready: std::sync::Condvar,
}

struct QueueState<T> {
    items: VecDeque<T>,
    senders: usize,
    receivers: usize,
}

/// Sending half of an [`unbounded`] queue; clone it for more producers.
pub struct Sender<T>(Arc<Queue<T>>);

/// Receiving half of an [`unbounded`] queue; clone it for more consumers
/// (each value goes to exactly one of them).
pub struct Receiver<T>(Arc<Queue<T>>);

/// [`Sender::send`] failed because every receiver is gone; the value
/// comes back.
#[derive(Debug, PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// [`Receiver::recv`] failed because the queue is empty and every sender
/// is gone.
#[derive(Debug, PartialEq, Eq)]
pub struct RecvError;

/// An unbounded multi-producer, multi-consumer FIFO queue: one `Mutex`
/// around a `VecDeque` and one `Condvar` that wakes a blocked receiver.
/// [`Receiver::recv`] fails once the queue is empty and every sender is
/// gone; [`Sender::send`] fails once every receiver is gone. The queue's
/// mutex is never held across anything but the queue operation itself,
/// so it stays outside the [`rank`] order.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    let queue = Arc::new(Queue {
        state: std::sync::Mutex::new(QueueState {
            items: VecDeque::new(),
            senders: 1,
            receivers: 1,
        }),
        ready: std::sync::Condvar::new(),
    });
    (Sender(Arc::clone(&queue)), Receiver(queue))
}

impl<T> Queue<T> {
    fn lock(&self) -> std::sync::MutexGuard<'_, QueueState<T>> {
        self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl<T> Sender<T> {
    /// Enqueue `value` and wake one blocked receiver; hands `value` back
    /// when no receiver is left to take it.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut st = self.0.lock();
        if st.receivers == 0 {
            return Err(SendError(value));
        }
        st.items.push_back(value);
        drop(st);
        self.0.ready.notify_one();
        Ok(())
    }
}

impl<T> Receiver<T> {
    /// Dequeue the oldest value, blocking until one arrives; fails once
    /// the queue is empty and every sender is gone.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut st = self.0.lock();
        loop {
            if let Some(v) = st.items.pop_front() {
                return Ok(v);
            }
            if st.senders == 0 {
                return Err(RecvError);
            }
            st = self.0.ready.wait(st).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.0.lock().senders += 1;
        Sender(Arc::clone(&self.0))
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.0.lock().receivers += 1;
        Receiver(Arc::clone(&self.0))
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut st = self.0.lock();
        st.senders -= 1;
        let none_left = st.senders == 0;
        drop(st);
        if none_left {
            self.0.ready.notify_all();
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.0.lock().receivers -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static LOW: OrderedMutex<u32> = OrderedMutex::new(0, 10, "test.low");
    static HIGH: OrderedMutex<u32> = OrderedMutex::new(0, 90, "test.high");
    static MID: OrderedRwLock<u32> = OrderedRwLock::new(0, 50, "test.mid");

    /// Run `f` on a fresh thread and return its panic payload as text.
    fn panic_message_of(f: impl FnOnce() + Send + 'static) -> Option<String> {
        let err = std::thread::Builder::new()
            .name("sync-test".into())
            .spawn(f)
            .ok()?
            .join()
            .err()?;
        err.downcast::<String>().ok().map(|b| *b)
    }

    #[test]
    fn ascending_acquisition_is_clean() {
        let a = LOW.lock();
        let b = MID.read();
        let c = HIGH.lock();
        assert_eq!((*a, *b, *c), (0, 0, 0));
    }

    #[test]
    fn out_of_order_release_is_legal() {
        let a = LOW.lock();
        let b = MID.write();
        drop(a); // release the outer lock first: a strict stack would misfire here
        let c = HIGH.lock(); // still legal: max held rank is 50 < 90
        assert_eq!((*b, *c), (0, 0));
    }

    #[test]
    fn deliberate_inversion_panics_naming_both_sites() {
        let msg = panic_message_of(|| {
            let _hold = HIGH.lock();
            let _inv = LOW.lock(); // rank 10 under rank 90: inversion
        })
        .unwrap_or_default();
        assert!(msg.contains("lock-order violation"), "{msg}");
        assert!(msg.contains("`test.low` (rank 10)"), "inverting site named: {msg}");
        assert!(msg.contains("`test.high` (rank 90)"), "holding site named: {msg}");
        assert!(msg.contains("sync.rs"), "both source sites carry file:line: {msg}");
        assert!(sanitizer_violations() >= 1);
    }

    #[test]
    fn reentrant_same_rank_is_rejected() {
        let msg = panic_message_of(|| {
            let _a = MID.read();
            let _b = MID.read(); // equal rank: a queued writer would deadlock this
        })
        .unwrap_or_default();
        assert!(msg.contains("lock-order violation"), "{msg}");
        assert!(msg.contains("rank 50"), "{msg}");
    }

    #[test]
    fn write_under_lower_rank_passes_and_guards_deref() {
        let low = OrderedMutex::new(vec![1u8], 10, "test.local.low");
        let high = OrderedRwLock::new(7u32, 90, "test.local.high");
        let mut g = low.lock();
        g.push(2);
        assert_eq!(*high.read(), 7);
        *high.write() = 8;
        drop(g);
        assert_eq!(low.into_inner(), vec![1, 2]);
        assert_eq!(high.into_inner(), 8);
    }

    #[test]
    fn get_mut_and_debug_do_not_track() {
        let mut m = OrderedMutex::new(1u8, 10, "test.gm");
        *m.get_mut() = 2;
        assert!(format!("{m:?}").contains("test.gm"));
        let mut l = OrderedRwLock::new(1u8, 20, "test.gr");
        *l.get_mut() = 3;
        assert!(format!("{l:?}").contains("test.gr"));
        assert_eq!((m.into_inner(), l.into_inner()), (2, 3));
    }

    #[test]
    fn sanitizer_is_active_in_test_builds() {
        assert!(sanitizer_enabled(), "tests must run with the sanitizer on");
    }

    #[test]
    fn ranks_are_unique_and_ascending() {
        let ranks = [
            rank::ORGANIZE_KAYAK,
            rank::QUERY_FAULT,
            rank::SERVER_WAL_FILE,
            rank::SERVER_WAL_QUEUE,
            rank::SERVER_WAL_MARK,
            rank::SERVER_TENANTS,
            rank::CORE_BREAKER,
            rank::CORE_QUOTA,
            rank::QUERY_RETRY_STATS,
            rank::HOUSE_RETRY_STATS,
            rank::STORE_PLACEMENTS,
            rank::STORE_RETRY_STATS,
            rank::STORE_FAULT,
            rank::STORE_RELATIONAL,
            rank::STORE_DOCUMENT,
            rank::STORE_GRAPH,
            rank::STORE_OBJECT,
            rank::STORE_KV_FAMILIES,
            rank::STORE_KV_ROWS,
            rank::OBS_REGISTRY,
            rank::OBS_TRACE,
            rank::OBS_EVENTS,
            rank::CORE_CLOCK,
        ];
        for w in ranks.windows(2) {
            assert!(w[0] < w[1], "rank table must be strictly ascending");
        }
    }

    #[test]
    fn fan_out_fan_in() {
        let (tx, rx) = unbounded::<usize>();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let rx = rx.clone();
                std::thread::spawn(move || {
                    let mut got = 0usize;
                    while rx.recv().is_ok() {
                        got += 1;
                    }
                    got
                })
            })
            .collect();
        for i in 0..100 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn recv_fails_after_all_senders_drop() {
        let (tx, rx) = unbounded::<u8>();
        tx.send(7).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(7));
        assert!(rx.recv().is_err());
    }

    #[test]
    fn send_fails_after_all_receivers_drop() {
        let (tx, rx) = unbounded::<u8>();
        let rx2 = rx.clone();
        drop(rx);
        tx.send(1).unwrap();
        assert_eq!(rx2.recv(), Ok(1));
        drop(rx2);
        assert_eq!(tx.send(2), Err(SendError(2)));
    }
}
