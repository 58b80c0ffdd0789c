//! Spans recorded by the harness around its calls into each layer.
//!
//! A span is `{name, start_us, end_us, parent, request_id}`; spans are
//! kept in memory and written out once, when the run ends. With tracing
//! off [`Tracer::add`] records nothing, so an untraced run pays only for
//! the clock reads its end-to-end metrics need anyway.

use lake_core::Json;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<crate>.<module>.<what>`, or a harness-owned name.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Shared by every span of one request (or one pass).
    pub request_id: u64,
}

impl Span {
    /// `end - start`.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span buffer. One per thread; merged with [`Tracer::absorb`].
#[derive(Debug, Clone)]
pub struct Tracer {
    epoch: Instant,
    /// Recording is on; flipped per slice or pass by the traced run.
    pub on: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose times count from `epoch`.
    pub fn new(epoch: Instant, on: bool) -> Tracer {
        Tracer { epoch, on, spans: Vec::new() }
    }

    /// Record a finished span; returns its index for use as a parent.
    pub fn add(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request_id: u64,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let ns = |t: Instant| {
            u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
        };
        self.spans.push(Span { name, start_ns: ns(start), end_ns: ns(end), parent, request_id });
        Some(self.spans.len() - 1)
    }

    /// Record a span whose end is not known yet (a pass, whose stages
    /// need its index as their parent); [`Tracer::close`] ends it.
    pub fn open(
        &mut self,
        name: &'static str,
        start: Instant,
        parent: Option<usize>,
        request_id: u64,
    ) -> Option<usize> {
        self.add(name, start, start, parent, request_id)
    }

    /// End a span begun with [`Tracer::open`].
    pub fn close(&mut self, span: Option<usize>, end: Instant) {
        let ns = u64::try_from(end.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX);
        if let Some(s) = span.and_then(|i| self.spans.get_mut(i)) {
            s.end_ns = ns;
        }
    }

    /// Time `f`, record it as a span, and hand back its result with the
    /// measured duration in nanoseconds (measured whether or not the
    /// tracer is on).
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request_id: u64,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.add(name, start, end, parent, request_id);
        (out, u64::try_from((end - start).as_nanos()).unwrap_or(u64::MAX))
    }

    /// Append another thread's spans, re-basing their parent indices.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of its
    /// interval that its child spans cover (overlapping children are
    /// counted once).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut covered = 0u64;
                let mut cursor = s.start_ns;
                let mut kids = children.remove(&i).unwrap_or_default();
                kids.sort_unstable();
                for (lo, hi) in kids {
                    let lo = lo.max(cursor);
                    let hi = hi.min(s.end_ns);
                    if hi > lo {
                        covered += hi - lo;
                        cursor = hi;
                    }
                }
                s.duration_ns().saturating_sub(covered)
            })
            .collect()
    }

    /// Share of the root spans' time that their child spans cover: 1 when
    /// the children account for everything, less by the roots' self time.
    pub fn root_coverage(&self) -> f64 {
        let (mut own, mut all) = (0u64, 0u64);
        for (span, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            if span.parent.is_none() {
                own += self_ns;
                all += span.duration_ns();
            }
        }
        1.0 - own as f64 / all.max(1) as f64
    }

    /// Distinct span names, for the isolation checks.
    pub fn names(&self) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = self.spans.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        names
    }

    /// Write the buffer as one JSON document.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let us = |ns: u64| Json::Num(ns as f64 / 1e3);
        let spans: Vec<Json> = self
            .spans
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("name", Json::str(s.name)),
                    ("start_us", us(s.start_ns)),
                    ("end_us", us(s.end_ns)),
                    ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                    ("request_id", Json::Num(s.request_id as f64)),
                ])
            })
            .collect();
        std::fs::write(path, format!("{}\n", Json::obj(vec![("spans", Json::Array(spans))])))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn tracer_with(spans: &[(u64, u64, Option<usize>)]) -> Tracer {
        let epoch = Instant::now();
        let mut t = Tracer::new(epoch, true);
        for &(lo, hi, parent) in spans {
            t.add("s", epoch + Duration::from_nanos(lo), epoch + Duration::from_nanos(hi), parent, 1);
        }
        t
    }

    #[test]
    fn self_time_is_parent_minus_children() {
        // Parent 0..100 with children 10..30 and 50..90.
        let t = tracer_with(&[(0, 100, None), (10, 30, Some(0)), (50, 90, Some(0))]);
        assert_eq!(t.self_times_ns(), vec![40, 20, 40]);
    }

    #[test]
    fn root_coverage_is_the_share_children_account_for() {
        let t = tracer_with(&[
            (0, 100, None),
            (10, 30, Some(0)),
            (50, 90, Some(0)),
            (200, 300, None),
            (200, 300, Some(3)),
        ]);
        assert!((t.root_coverage() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once_and_clipped() {
        // Children 10..60 and 40..120 cover 10..100 of the parent.
        let t = tracer_with(&[(0, 100, None), (10, 60, Some(0)), (40, 120, Some(0))]);
        assert_eq!(t.self_times_ns()[0], 10);
    }

    #[test]
    fn grandchildren_reduce_only_their_own_parent() {
        let t = tracer_with(&[(0, 100, None), (0, 80, Some(0)), (10, 50, Some(1))]);
        assert_eq!(t.self_times_ns(), vec![20, 40, 40]);
    }

    #[test]
    fn an_off_tracer_records_nothing_but_still_times() {
        let mut t = Tracer::new(Instant::now(), false);
        let (out, ns) = t.time("x", None, 0, || {
            std::thread::sleep(Duration::from_millis(2));
            7
        });
        assert_eq!(out, 7);
        assert!(ns >= 2_000_000);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn absorb_rebases_parents() {
        let mut a = tracer_with(&[(0, 10, None)]);
        let b = tracer_with(&[(0, 10, None), (2, 4, Some(0))]);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
    }
}
