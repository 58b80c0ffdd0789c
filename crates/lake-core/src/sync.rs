//! Leaf locks with a runtime nesting sanitizer (DESIGN.md §13), and the
//! workspace's one multi-consumer work queue ([`unbounded`]).
//!
//! Every long-lived lock in the workspace is a [`LeafMutex`] or
//! [`LeafRwLock`], and the discipline is one rule: **a thread holds at
//! most one lock**. Lock-order deadlock needs a thread that waits for a
//! lock while holding another, so a workspace of leaf locks cannot
//! deadlock on them, whatever order threads take them in. Re-entering the
//! lock a thread already holds is a nesting like any other and is
//! rejected too.
//!
//! The one declared exception is [`LeafMutex::lock_inside`]: the WAL's
//! group-commit leader takes the append queue while it holds the journal
//! file. It stays deadlock-free because the queue is only ever taken
//! alone or inside the file, and nothing is taken under it.
//!
//! In debug builds (the configuration every test and chaos suite runs
//! under) a thread-local slot records the one lock the thread holds and
//! where it was acquired. Acquiring while the slot is full raises a panic
//! naming **both** sites, turning a would-be deadlock interleaving into a
//! deterministic, attributable failure. Release builds skip the
//! bookkeeping entirely.
//!
//! The same rule is enforced statically by lake-lint rule 6
//! (`nested-lock`); the chaos suites (`tests/chaos.rs` of `lake-house`,
//! `lake-query` and `lake-server`) exercise the runtime half under seeds
//! 7/42/1337. The sanitizer panics through [`std::panic::panic_any`] — a
//! deliberate, typed abort, not an accidental `panic!` — so the
//! panic-freedom lint stays meaningful for library code.

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::Location;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError};

/// The lock a thread currently holds.
#[derive(Clone, Copy)]
struct Held {
    /// Address of the lock, which ties a guard to the slot.
    lock: usize,
    name: &'static str,
    site: &'static Location<'static>,
}

thread_local! {
    /// The one lock this thread holds, if any.
    static HELD: Cell<Option<Held>> = const { Cell::new(None) };
}

/// Total nesting violations detected process-wide (each one also panics).
/// Chaos gates assert this stays zero across a run.
// lint: ordering — monotonic violation counter, no ordering dependency.
static VIOLATIONS: AtomicU64 = AtomicU64::new(0);

/// Nesting violations detected so far in this process. Non-zero means a
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

/// Count a violation and panic with `message`.
fn violation(message: String) -> ! {
    // lint: ordering — monotonic violation counter, no ordering dependency.
    VIOLATIONS.fetch_add(1, Ordering::Relaxed);
    #[expect(clippy::panic, reason = "the debug-build sanitizer panics on a nested acquisition")]
    std::panic::panic_any(message)
}

/// Record that this thread takes the lock at `lock`; panics if it already
/// holds one. Returns the address the guard releases (0 when the
/// sanitizer is off).
#[track_caller]
fn acquire(lock: usize, name: &'static str) -> usize {
    if !sanitizer_enabled() {
        return 0;
    }
    let site = Location::caller();
    if let Some(held) = HELD.get() {
        violation(format!(
            "nested lock: acquiring `{name}` at {}:{} while holding `{}` acquired at {}:{} — \
             a thread holds at most one lock (lake_core::sync)",
            site.file(),
            site.line(),
            held.name,
            held.site.file(),
            held.site.line(),
        ));
    }
    HELD.set(Some(Held { lock, name, site }));
    lock
}

/// Empty the slot a guard filled (no-op for untracked guards). Uses
/// `try_with` so guards dropped during thread teardown stay safe.
fn release(lock: usize) {
    if lock != 0 {
        let _ = HELD.try_with(|h| h.set(None));
    }
}

/// The address identifying a lock in the sanitizer slot.
fn addr<T: ?Sized>(lock: &T) -> usize {
    std::ptr::from_ref(lock).cast::<()>() as usize
}

/// A mutex no thread holds together with another lock. `lock` returns the
/// guard directly (a poisoned lock yields its inner guard), plus the
/// sanitizer bookkeeping described in the module docs.
pub struct LeafMutex<T: ?Sized> {
    name: &'static str,
    inner: std::sync::Mutex<T>,
}

/// RAII guard for [`LeafMutex`]; dropping it empties the sanitizer slot.
pub struct LeafMutexGuard<'a, T: ?Sized> {
    /// The lock's address while the sanitizer tracks this guard, else 0.
    lock: usize,
    guard: std::sync::MutexGuard<'a, T>,
}

impl<T> LeafMutex<T> {
    /// A mutex holding `value`, labeled `name` (`<tier>.<module>.<field>`)
    /// for sanitizer reports.
    pub const fn new(value: T, name: &'static str) -> LeafMutex<T> {
        LeafMutex { name, inner: std::sync::Mutex::new(value) }
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> LeafMutex<T> {
    /// Acquire the lock; the thread must hold no other.
    #[track_caller]
    pub fn lock(&self) -> LeafMutexGuard<'_, T> {
        let lock = acquire(addr(self), self.name);
        LeafMutexGuard { lock, guard: self.inner.lock().unwrap_or_else(PoisonError::into_inner) }
    }

    /// Acquire the lock while the thread holds `outer` — the one declared
    /// nested pair (DESIGN.md §13). The thread's held lock must be
    /// `outer`'s, and it stays the held lock, so anything acquired under
    /// this guard still panics; the borrow keeps `outer` alive meanwhile.
    #[track_caller]
    pub fn lock_inside<'a, U: ?Sized>(
        &'a self,
        outer: &'a LeafMutexGuard<'_, U>,
    ) -> LeafMutexGuard<'a, T> {
        if sanitizer_enabled() {
            let held = HELD.get();
            if held.is_none_or(|h| h.lock != outer.lock) {
                let site = Location::caller();
                violation(format!(
                    "nested lock: acquiring `{}` at {}:{} inside a guard this thread does not \
                     hold (it holds {})",
                    self.name,
                    site.file(),
                    site.line(),
                    held.map_or("no lock", |h| h.name),
                ));
            }
        }
        LeafMutexGuard { lock: 0, guard: self.inner.lock().unwrap_or_else(PoisonError::into_inner) }
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for LeafMutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LeafMutex").field("name", &self.name).finish_non_exhaustive()
    }
}

impl<T: ?Sized> std::ops::Deref for LeafMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> std::ops::DerefMut for LeafMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T: ?Sized> Drop for LeafMutexGuard<'_, T> {
    fn drop(&mut self) {
        release(self.lock);
    }
}

/// A reader-writer lock no thread holds together with another lock. Read
/// and write acquisitions are both checked: a read re-entered under a
/// queued writer deadlocks just as surely as a nested write.
pub struct LeafRwLock<T: ?Sized> {
    name: &'static str,
    inner: std::sync::RwLock<T>,
}

/// RAII shared-read guard for [`LeafRwLock`].
pub struct LeafRwLockReadGuard<'a, T: ?Sized> {
    lock: usize,
    guard: std::sync::RwLockReadGuard<'a, T>,
}

/// RAII exclusive-write guard for [`LeafRwLock`].
pub struct LeafRwLockWriteGuard<'a, T: ?Sized> {
    lock: usize,
    guard: std::sync::RwLockWriteGuard<'a, T>,
}

impl<T> LeafRwLock<T> {
    /// A rwlock holding `value`, labeled `name` for sanitizer reports.
    pub const fn new(value: T, name: &'static str) -> LeafRwLock<T> {
        LeafRwLock { name, inner: std::sync::RwLock::new(value) }
    }

    /// Consume the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> LeafRwLock<T> {
    /// Acquire a shared read lock; the thread must hold no other.
    #[track_caller]
    pub fn read(&self) -> LeafRwLockReadGuard<'_, T> {
        let lock = acquire(addr(self), self.name);
        LeafRwLockReadGuard { lock, guard: self.inner.read().unwrap_or_else(PoisonError::into_inner) }
    }

    /// Acquire an exclusive write lock; the thread must hold no other.
    #[track_caller]
    pub fn write(&self) -> LeafRwLockWriteGuard<'_, T> {
        let lock = acquire(addr(self), self.name);
        LeafRwLockWriteGuard { lock, guard: self.inner.write().unwrap_or_else(PoisonError::into_inner) }
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for LeafRwLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LeafRwLock").field("name", &self.name).finish_non_exhaustive()
    }
}

impl<T: ?Sized> std::ops::Deref for LeafRwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> std::ops::Deref for LeafRwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> std::ops::DerefMut for LeafRwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T: ?Sized> Drop for LeafRwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        release(self.lock);
    }
}

impl<T: ?Sized> Drop for LeafRwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        release(self.lock);
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
/// so it is a raw leaf lock.
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
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
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
            st = self.0.ready.wait(st).unwrap_or_else(PoisonError::into_inner);
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

    static FIRST: LeafMutex<u32> = LeafMutex::new(0, "test.first");
    static SECOND: LeafMutex<u32> = LeafMutex::new(0, "test.second");
    static SHARED: LeafRwLock<u32> = LeafRwLock::new(0, "test.shared");

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
    fn sequential_acquisitions_are_clean() {
        let first = FIRST.lock();
        assert_eq!(*first, 0);
        drop(first);
        assert_eq!(*SHARED.read(), 0);
        drop(SHARED.write());
        assert_eq!(*SECOND.lock(), 0);
    }

    #[test]
    fn guards_deref_and_into_inner_returns_the_writes() {
        let local = LeafMutex::new(vec![1u8], "test.local.vec");
        local.lock().push(2);
        let rw = LeafRwLock::new(7u32, "test.local.rw");
        assert_eq!(*rw.read(), 7);
        *rw.write() = 8;
        assert_eq!(*rw.read(), 8);
        assert_eq!((local.into_inner(), rw.into_inner()), (vec![1, 2], 8));
    }

    /// Nesting any two distinct locks panics, whichever is outer and
    /// whether each is a mutex or a rwlock, naming both sites.
    #[test]
    fn deliberate_inversion_panics_naming_both_sites() {
        let cases: [(fn(), &str, &str); 4] = [
            (|| drop((FIRST.lock(), SECOND.lock())), "test.first", "test.second"),
            (|| drop((SECOND.lock(), FIRST.lock())), "test.second", "test.first"),
            (|| drop((FIRST.lock(), SHARED.read())), "test.first", "test.shared"),
            (|| drop((SHARED.write(), FIRST.lock())), "test.shared", "test.first"),
        ];
        for (nest, outer, inner) in cases {
            let before = sanitizer_violations();
            let msg = panic_message_of(nest).unwrap_or_default();
            assert!(msg.contains("nested lock"), "{msg}");
            assert!(msg.contains(&format!("acquiring `{inner}` at ")), "inner site named: {msg}");
            assert!(msg.contains(&format!("holding `{outer}` acquired at ")), "outer named: {msg}");
            assert_eq!(msg.matches("sync.rs:").count(), 2, "both sites carry file:line: {msg}");
            assert!(sanitizer_violations() > before);
        }
    }

    #[test]
    fn reentrant_acquisition_panics() {
        let msg = panic_message_of(|| {
            let _a = SHARED.read();
            let _b = SHARED.read(); // a queued writer would deadlock this
        })
        .unwrap_or_default();
        assert!(msg.contains("acquiring `test.shared`"), "{msg}");
        assert!(msg.contains("holding `test.shared`"), "{msg}");
    }

    #[test]
    fn lock_inside_passes_but_a_third_lock_panics() {
        let outer = LeafMutex::new(1u8, "test.outer");
        let inner = LeafMutex::new(2u8, "test.inner");
        {
            let o = outer.lock();
            let i = inner.lock_inside(&o);
            assert_eq!((*o, *i), (1, 2));
        }
        // Dropping the inner guard left the outer one held; dropping that
        // emptied the slot, so a fresh lock is clean.
        assert_eq!(*inner.lock(), 2);
        let msg = panic_message_of(|| {
            let outer = LeafMutex::new((), "test.outer");
            let inner = LeafMutex::new((), "test.inner");
            let o = outer.lock();
            let _i = inner.lock_inside(&o);
            let _third = FIRST.lock();
        })
        .unwrap_or_default();
        assert!(msg.contains("acquiring `test.first`"), "{msg}");
        assert!(msg.contains("holding `test.outer`"), "{msg}");
    }

    #[test]
    fn lock_inside_a_guard_the_thread_does_not_hold_panics() {
        let msg = panic_message_of(|| {
            let outer = LeafMutex::new((), "test.outer");
            let inner = LeafMutex::new((), "test.inner");
            let other = LeafMutex::new((), "test.other");
            let o = outer.lock();
            let i = inner.lock_inside(&o);
            // `i` is not the thread's held lock: `o` is.
            let _nested = other.lock_inside(&i);
        })
        .unwrap_or_default();
        assert!(msg.contains("acquiring `test.other`"), "{msg}");
        assert!(msg.contains("does not hold (it holds test.outer)"), "{msg}");
    }

    #[test]
    fn get_mut_and_debug_do_not_track() {
        let mut m = LeafMutex::new(1u8, "test.gm");
        let _held = FIRST.lock();
        *m.get_mut() = 2;
        assert!(format!("{m:?}").contains("test.gm"));
        let mut l = LeafRwLock::new(1u8, "test.gr");
        *l.get_mut() = 3;
        assert!(format!("{l:?}").contains("test.gr"));
        assert_eq!((m.into_inner(), l.into_inner()), (2, 3));
    }

    #[test]
    fn sanitizer_is_active_in_test_builds() {
        assert!(sanitizer_enabled(), "tests must run with the sanitizer on");
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
