//! A bounded in-memory event log — operational process metadata
//! (GOODS-style provenance events) kept as a ring buffer so a
//! long-running lake never grows without bound.

use lake_core::retry::Clock;
use lake_core::sync::LeafMutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default event ring capacity.
pub const DEFAULT_EVENT_CAPACITY: usize = 4096;

/// Event severity, ordered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Routine operational detail.
    Debug,
    /// Normal lifecycle milestones (commit, flush, checkpoint).
    Info,
    /// Recoverable anomalies (retries, quarantined commits).
    Warn,
    /// Failures surfaced to the caller.
    Error,
}

impl Level {
    /// Stable lowercase name (`debug`/`info`/`warn`/`error`).
    pub fn name(self) -> &'static str {
        match self {
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Sequence number (1-based, total order across the log's lifetime).
    pub seq: u64,
    /// Clock timestamp in microseconds.
    pub at_micros: u64,
    /// Severity.
    pub level: Level,
    /// Emitting component, e.g. `lake-house`.
    pub target: String,
    /// Human-readable message.
    pub message: String,
}

struct EventLogInner {
    clock: Arc<dyn Clock>,
    ring: LeafMutex<std::collections::VecDeque<Event>>,
    capacity: usize,
    seq: AtomicU64,
    dropped: AtomicU64,
}

/// Bounded, clock-stamped event ring. Cloning shares the ring.
#[derive(Clone)]
pub struct EventLog {
    inner: Arc<EventLogInner>,
}

impl std::fmt::Debug for EventLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventLog")
            .field("capacity", &self.inner.capacity)
            .field("retained", &self.inner.ring.lock().len())
            .finish_non_exhaustive()
    }
}

impl EventLog {
    /// A log with [`DEFAULT_EVENT_CAPACITY`].
    pub fn new(clock: Arc<dyn Clock>) -> EventLog {
        EventLog::with_capacity(clock, DEFAULT_EVENT_CAPACITY)
    }

    /// A log keeping at most `capacity` events (min 1).
    pub fn with_capacity(clock: Arc<dyn Clock>, capacity: usize) -> EventLog {
        let capacity = capacity.max(1);
        EventLog {
            inner: Arc::new(EventLogInner {
                clock,
                ring: LeafMutex::new(
                    std::collections::VecDeque::with_capacity(capacity),
                    "obs.events.ring",
                ),
                capacity,
                seq: AtomicU64::new(0),
                dropped: AtomicU64::new(0),
            }),
        }
    }

    /// Record an event; oldest entries are evicted past capacity.
    pub fn record(&self, level: Level, target: &str, message: &str) {
        let seq = self.inner.seq.fetch_add(1, Ordering::Relaxed) + 1;
        let event = Event {
            seq,
            at_micros: self.inner.clock.now_micros(),
            level,
            target: target.to_string(),
            message: message.to_string(),
        };
        let mut ring = self.inner.ring.lock();
        if ring.len() >= self.inner.capacity {
            ring.pop_front();
            self.inner.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(event);
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.inner.ring.lock().iter().cloned().collect()
    }

    /// Retained events at or above `min` severity, oldest first.
    pub fn events_at_least(&self, min: Level) -> Vec<Event> {
        self.inner
            .ring
            .lock()
            .iter()
            .filter(|e| e.level >= min)
            .cloned()
            .collect()
    }

    /// Total events ever recorded (including evicted ones).
    pub fn total_recorded(&self) -> u64 {
        self.inner.seq.load(Ordering::Relaxed)
    }

    /// Events evicted due to capacity.
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lake_core::retry::ManualClock;

    #[test]
    fn records_are_sequenced_and_clock_stamped() {
        let clock = Arc::new(ManualClock::new());
        let log = EventLog::new(clock.clone());
        log.record(Level::Info, "lake-house", "commit v1");
        clock.advance_micros(100);
        log.record(Level::Warn, "lake-house", "retry attempt 2");
        let events = log.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events.first().map(|e| (e.seq, e.at_micros)), Some((1, 0)));
        assert_eq!(events.last().map(|e| (e.seq, e.at_micros)), Some((2, 100)));
        assert_eq!(log.total_recorded(), 2);
    }

    #[test]
    fn severity_filter_and_ordering() {
        let clock = Arc::new(ManualClock::new());
        let log = EventLog::new(clock);
        log.record(Level::Debug, "t", "d");
        log.record(Level::Info, "t", "i");
        log.record(Level::Error, "t", "e");
        let warnish = log.events_at_least(Level::Warn);
        assert_eq!(warnish.len(), 1);
        assert_eq!(warnish.first().map(|e| e.level), Some(Level::Error));
        assert!(Level::Debug < Level::Error);
        assert_eq!(Level::Warn.name(), "warn");
    }

    #[test]
    fn ring_bounds_memory() {
        let clock = Arc::new(ManualClock::new());
        let log = EventLog::with_capacity(clock, 3);
        for i in 0..10 {
            log.record(Level::Info, "t", &format!("m{i}"));
        }
        let events = log.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events.first().map(|e| e.seq), Some(8));
        assert_eq!(log.dropped(), 7);
        assert_eq!(log.total_recorded(), 10);
    }
}
