//! The in-process workloads run in passes: one pass is a fixed batch of
//! work, timed stage by stage. This module holds what `discover` and
//! `analytics` share — the stage spans of a pass and the loop that sets
//! up, warms up and times passes for `--seconds`.

use crate::report::Report;
use crate::stats::{median, Timings};
use crate::trace::Tracer;
use crate::{procfs, RunConfig};
use lake_core::Result;
use std::collections::BTreeMap;
use std::time::Instant;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// One pass being timed: a root span and the stage spans under it.
pub struct Pass<'t> {
    tracer: &'t mut Tracer,
    root: Option<usize>,
    id: u64,
    start: Instant,
    stages: Vec<(&'static str, u64)>,
}

/// A stage being timed: its span is the parent of the spans of the
/// single operations inside it.
pub struct Stage<'p> {
    tracer: &'p mut Tracer,
    span: Option<usize>,
    id: u64,
}

impl Stage<'_> {
    /// Time one operation of the stage as a child span; its duration is
    /// pushed into `into`.
    pub fn op<T>(&mut self, name: &'static str, into: &mut Timings, f: impl FnOnce() -> T) -> T {
        let (out, ns) = self.tracer.time(name, self.span, self.id, f);
        into.push_ns(ns);
        out
    }
}

/// What one finished pass took.
#[derive(Debug, Clone)]
pub struct PassTimes {
    /// Recorded with tracing on.
    pub traced: bool,
    /// Operations the pass performed.
    pub ops: u64,
    /// Wall time of the whole pass.
    pub total_ns: u64,
    /// Wall time per stage, in execution order; a stage entered twice
    /// appears twice.
    pub stages: Vec<(&'static str, u64)>,
}

impl<'t> Pass<'t> {
    /// Begin pass `id`.
    pub fn begin(tracer: &'t mut Tracer, name: &'static str, id: u64) -> Pass<'t> {
        let start = Instant::now();
        let root = tracer.open(name, start, None, id);
        Pass { tracer, root, id, start, stages: Vec::new() }
    }

    /// Run one stage; `f` may time single operations inside it.
    pub fn stage<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Stage<'_>) -> T) -> T {
        let start = Instant::now();
        let span = self.tracer.open(name, start, self.root, self.id);
        let out = f(&mut Stage { tracer: self.tracer, span, id: self.id });
        let end = Instant::now();
        self.tracer.close(span, end);
        self.stages.push((name, u64::try_from((end - start).as_nanos()).unwrap_or(u64::MAX)));
        out
    }

    /// Operations timed directly under the pass's root span, with no
    /// stage between.
    pub fn root_stage(&mut self) -> Stage<'_> {
        Stage { tracer: self.tracer, span: self.root, id: self.id }
    }

    /// Nanoseconds since the pass began.
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// End the pass.
    pub fn end(self, ops: u64) -> PassTimes {
        let end = Instant::now();
        self.tracer.close(self.root, end);
        PassTimes {
            traced: self.tracer.on,
            ops,
            total_ns: u64::try_from((end - self.start).as_nanos()).unwrap_or(u64::MAX),
            stages: self.stages,
        }
    }
}

/// Median wall time per stage name over `passes`, in milliseconds (a
/// stage entered more than once in a pass counts its sum).
pub fn stage_medians_ms(passes: &[PassTimes]) -> BTreeMap<&'static str, (f64, usize)> {
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for p in passes {
        let mut sums: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (name, ns) in &p.stages {
            *sums.entry(name).or_insert(0) += ns;
        }
        for (name, ns) in sums {
            by_name.entry(name).or_default().push(ns as f64 / 1e6);
        }
    }
    by_name.into_iter().map(|(name, v)| (name, (median(&v), v.len()))).collect()
}

/// Set up `SETUPS` times (each ending with one warm-up pass), then run
/// timed passes until `--seconds` have gone by. A traced run records
/// spans on every second pass, so the other passes give the untraced
/// time the overhead ratio compares against. `M` collects what the
/// timed passes measure beyond their stage times; a warm-up pass gets one
/// of its own, which is dropped. Reports the metrics every pass-based
/// workload shares and returns the last set-up's inputs, the timed
/// passes' measurements and times, and the trace.
pub fn drive<I, M: Default>(
    cfg: &RunConfig,
    root: &'static str,
    report: &mut Report,
    mut set_up: impl FnMut(usize) -> Result<I>,
    mut pass: impl FnMut(&mut I, &mut M, &mut Pass<'_>) -> Result<u64>,
) -> Result<(I, M, Vec<PassTimes>, Tracer)> {
    let mut tracer = Tracer::new(Instant::now(), false);
    let mut setups = Vec::with_capacity(SETUPS);
    let mut inputs = None;
    for rep in 0..SETUPS {
        drop(inputs.take());
        let started = Instant::now();
        let mut fresh = set_up(rep)?;
        let mut warm_up = Pass::begin(&mut tracer, root, 0);
        let ops = pass(&mut fresh, &mut M::default(), &mut warm_up)?;
        warm_up.end(ops);
        setups.push(started.elapsed().as_secs_f64());
        inputs = Some(fresh);
        if rep == 0 {
            // Peak memory of one set-up and one pass from a fresh heap:
            // what later passes add is the allocator's history, which
            // varies with their number.
            if let Some(mb) = procfs::peak_rss_mb(0) {
                report.set("peak_rss_mb", mb, 1);
            }
        }
    }
    let mut inputs = inputs.ok_or_else(|| lake_core::LakeError::Io("no set-up ran".into()))?;

    let start = Instant::now();
    let mut measured = M::default();
    let mut passes: Vec<PassTimes> = Vec::new();
    while start.elapsed().as_secs_f64() < cfg.seconds || passes.len() < 2 {
        tracer.on = cfg.traced && passes.len() % 2 == 1;
        let mut p = Pass::begin(&mut tracer, root, passes.len() as u64 + 1);
        let ops = pass(&mut inputs, &mut measured, &mut p)?;
        passes.push(p.end(ops));
    }
    tracer.on = false;

    let secs = |p: &PassTimes| p.total_ns as f64 / 1e9;
    let ops: u64 = passes.iter().map(|p| p.ops).sum();
    let busy: f64 = passes.iter().map(secs).sum();
    report.attempted += ops;
    report.set("setup_s", median(&setups), setups.len());
    report.set("ops_per_s", ops as f64 / busy, ops as usize);
    report.set("pass.run_s", median(&passes.iter().map(secs).collect::<Vec<_>>()), passes.len());
    if cfg.traced {
        // Stage spans must account for the pass: the root's self time is
        // the harness's own bookkeeping between stages.
        let ratio = tracer.root_coverage();
        report.set("pass.span_sum_ratio", ratio, passes.len() / 2);
        report.check((ratio - 1.0).abs() <= 0.05, "stage_spans_do_not_sum");
        let of =
            |traced: bool| -> Vec<f64> { passes.iter().filter(|p| p.traced == traced).map(secs).collect() };
        report.set("trace.overhead_ratio", median(&of(true)) / median(&of(false)).max(1e-9), of(true).len());
        report.set("trace.spans", tracer.spans().len() as f64, 1);
    }
    Ok((inputs, measured, passes, tracer))
}
