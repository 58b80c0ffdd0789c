//! Bounded admission with load shedding and drain gating.
//!
//! The acceptor offers every inbound connection to an
//! [`AdmissionController`]; the controller either admits it (raising the
//! in-flight count), sheds it (the server is at capacity), or rejects it
//! because a drain is underway. Each offer takes **exactly one** of those
//! three branches, so the counters obey the conservation law
//!
//! ```text
//! offered == admitted + shed + drain_rejected
//! ```
//!
//! for every interleaving — the `quota_prop` property suite replays this
//! across seeds and worker counts. Shedding is loud by design: the
//! acceptor still writes a typed [`crate::protocol::ErrorCode::Shed`]
//! response before closing, because a silently dropped connection is
//! indistinguishable from a crash to the client (survey §8.3's
//! shared-infrastructure reality: backpressure must be observable).

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// The outcome of offering one connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Offer {
    /// Admitted: the caller owns one in-flight slot and must
    /// [`AdmissionController::release`] it.
    Admit,
    /// At capacity: reject with a typed `shed` response.
    Shed,
    /// Draining: reject with a typed `draining` response.
    Draining,
}

/// Point-in-time admission counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionCounters {
    /// Connections offered (every accept).
    pub offered: u64,
    /// Connections admitted into the worker pool.
    pub admitted: u64,
    /// Connections shed at capacity.
    pub shed: u64,
    /// Connections rejected because the server was draining.
    pub drain_rejected: u64,
    /// Currently admitted-but-unreleased connections.
    pub in_flight: usize,
}

/// Lock-free admission state shared by the acceptor and workers.
#[derive(Debug)]
pub struct AdmissionController {
    capacity: usize,
    in_flight: AtomicUsize,
    draining: AtomicBool,
    offered: AtomicU64,
    admitted: AtomicU64,
    shed: AtomicU64,
    drain_rejected: AtomicU64,
}

impl AdmissionController {
    /// A controller admitting at most `capacity` concurrent connections
    /// (a zero capacity is promoted to one so the server can make
    /// progress).
    pub fn new(capacity: usize) -> AdmissionController {
        AdmissionController {
            capacity: capacity.max(1),
            in_flight: AtomicUsize::new(0),
            draining: AtomicBool::new(false),
            offered: AtomicU64::new(0),
            admitted: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            drain_rejected: AtomicU64::new(0),
        }
    }

    /// The configured concurrency ceiling.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Offer one connection. On [`Offer::Admit`] the caller holds a slot
    /// until [`AdmissionController::release`].
    pub fn offer(&self) -> Offer {
        self.offered.fetch_add(1, Ordering::SeqCst);
        if self.draining.load(Ordering::SeqCst) {
            self.drain_rejected.fetch_add(1, Ordering::SeqCst);
            return Offer::Draining;
        }
        // CAS loop: claim a slot only if one is free, so in_flight never
        // overshoots capacity even under concurrent offers.
        let mut cur = self.in_flight.load(Ordering::SeqCst);
        loop {
            if cur >= self.capacity {
                self.shed.fetch_add(1, Ordering::SeqCst);
                return Offer::Shed;
            }
            match self.in_flight.compare_exchange(
                cur,
                cur + 1,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => {
                    self.admitted.fetch_add(1, Ordering::SeqCst);
                    return Offer::Admit;
                }
                Err(seen) => cur = seen,
            }
        }
    }

    /// Release an admitted slot (idempotence is the caller's duty: one
    /// release per [`Offer::Admit`]).
    pub fn release(&self) {
        // Saturating: a stray release clamps at zero rather than wrapping
        // the unsigned counter into a phantom full server.
        let mut cur = self.in_flight.load(Ordering::SeqCst);
        while cur > 0 {
            match self.in_flight.compare_exchange(
                cur,
                cur - 1,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Flip into drain mode: every subsequent offer is rejected with
    /// [`Offer::Draining`]. Idempotent; returns `true` to the one caller
    /// whose call flipped the flag, so exactly one caller wakes the
    /// acceptor however many ask for the drain.
    pub fn begin_drain(&self) -> bool {
        !self.draining.swap(true, Ordering::SeqCst)
    }

    /// `true` once a drain has begun.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Currently held slots.
    pub fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::SeqCst)
    }

    /// Snapshot every counter.
    pub fn counters(&self) -> AdmissionCounters {
        AdmissionCounters {
            offered: self.offered.load(Ordering::SeqCst),
            admitted: self.admitted.load(Ordering::SeqCst),
            shed: self.shed.load(Ordering::SeqCst),
            drain_rejected: self.drain_rejected.load(Ordering::SeqCst),
            in_flight: self.in_flight.load(Ordering::SeqCst),
        }
    }
}

impl AdmissionCounters {
    /// The conservation law every chaos gate asserts.
    pub fn is_conserved(&self) -> bool {
        self.offered == self.admitted + self.shed + self.drain_rejected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn admits_up_to_capacity_then_sheds() {
        let a = AdmissionController::new(2);
        assert_eq!(a.offer(), Offer::Admit);
        assert_eq!(a.offer(), Offer::Admit);
        assert_eq!(a.offer(), Offer::Shed);
        a.release();
        assert_eq!(a.offer(), Offer::Admit);
        let c = a.counters();
        assert_eq!(c.offered, 4);
        assert_eq!(c.admitted, 3);
        assert_eq!(c.shed, 1);
        assert!(c.is_conserved());
    }

    #[test]
    fn drain_rejects_everything_new() {
        let a = AdmissionController::new(8);
        assert_eq!(a.offer(), Offer::Admit);
        assert!(a.begin_drain(), "the first call flips the flag");
        assert!(!a.begin_drain(), "later calls find it flipped");
        assert!(a.is_draining());
        assert_eq!(a.offer(), Offer::Draining);
        assert_eq!(a.offer(), Offer::Draining);
        let c = a.counters();
        assert_eq!(c.drain_rejected, 2);
        assert_eq!(c.in_flight, 1);
        assert!(c.is_conserved());
    }

    #[test]
    fn release_clamps_at_zero() {
        let a = AdmissionController::new(1);
        a.release();
        assert_eq!(a.in_flight(), 0);
        assert_eq!(a.offer(), Offer::Admit);
        assert_eq!(a.in_flight(), 1);
    }

    #[test]
    fn zero_capacity_is_promoted_to_one() {
        let a = AdmissionController::new(0);
        assert_eq!(a.capacity(), 1);
        assert_eq!(a.offer(), Offer::Admit);
        assert_eq!(a.offer(), Offer::Shed);
    }

    #[test]
    fn concurrent_offers_conserve_and_never_overshoot() {
        let a = Arc::new(AdmissionController::new(3));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let a = Arc::clone(&a);
            handles.push(std::thread::spawn(move || {
                let mut admitted = 0u64;
                for _ in 0..200 {
                    if a.offer() == Offer::Admit {
                        assert!(a.in_flight() <= a.capacity());
                        admitted += 1;
                        a.release();
                    }
                }
                admitted
            }));
        }
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        let c = a.counters();
        assert_eq!(c.offered, 1600);
        assert_eq!(c.admitted, total);
        assert!(c.is_conserved());
        assert_eq!(c.in_flight, 0);
    }
}
