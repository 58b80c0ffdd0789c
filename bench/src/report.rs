//! What one run reports: named readings plus the correctness tally.

use crate::names::{self, MetricDef};
use lake_core::Json;
use std::collections::BTreeMap;

/// One metric value with the number of samples it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    /// The value, as measured.
    pub value: f64,
    /// Samples behind it (1 for a single measurement or a count).
    pub n: usize,
}

/// Readings and checks of one run of one workload.
#[derive(Debug, Clone)]
pub struct Report {
    /// The workload that ran.
    pub workload: &'static str,
    /// `true` for the traced run (per-layer metrics), `false` for the
    /// untraced run (end-to-end metrics).
    pub traced: bool,
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Of those, the ones that failed, were refused, timed out or
    /// returned a wrong answer.
    pub failed: u64,
    /// Failure tally by kind — transport errors are never retried, only
    /// counted here.
    pub failures: BTreeMap<String, u64>,
    readings: BTreeMap<&'static str, Reading>,
}

impl Report {
    /// An empty report.
    pub fn new(workload: &'static str, traced: bool) -> Report {
        Report {
            workload,
            traced,
            attempted: 0,
            failed: 0,
            failures: BTreeMap::new(),
            readings: BTreeMap::new(),
        }
    }

    fn defs(&self) -> &'static [MetricDef] {
        if self.traced {
            names::PER_LAYER
        } else {
            names::END_TO_END
        }
    }

    /// Record a reading. A name of the other run's list is dropped: the
    /// workloads compute what is cheap to compute in both runs and each
    /// run keeps its own. A name of neither list is a misspelling, and
    /// fails the run.
    pub fn set(&mut self, name: &str, value: f64, n: usize) {
        if let Some(def) = self.defs().iter().find(|d| d.name == name) {
            self.readings.insert(def.name, Reading { value, n });
        } else if !names::END_TO_END.iter().chain(names::PER_LAYER).any(|d| d.name == name) {
            self.fail(&format!("unknown_metric_{name}"), 1);
        }
    }

    /// One correctness check (or operation): counted as attempted, and
    /// as failed under `kind` when `ok` is false.
    pub fn check(&mut self, ok: bool, kind: &str) {
        self.attempted += 1;
        if !ok {
            self.fail(kind, 1);
        }
    }

    /// Count `n` failures of `kind` among operations already attempted.
    pub fn fail(&mut self, kind: &str, n: u64) {
        if n > 0 {
            self.failed += n;
            *self.failures.entry(kind.to_string()).or_insert(0) += n;
        }
    }

    /// `true` when nothing failed and every reading is a finite number.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.readings.values().all(|r| r.value.is_finite())
    }

    /// Every metric of this run's list with its reading; a per-layer
    /// metric of a layer the workload never enters reads 0 with n=0.
    pub fn readings(&self) -> Vec<(&'static MetricDef, Reading)> {
        self.defs()
            .iter()
            .map(|d| (d, self.readings.get(d.name).copied().unwrap_or(Reading { value: 0.0, n: 0 })))
            .collect()
    }

    /// End-to-end metrics that were not measured (a harness bug: every
    /// workload owes every end-to-end metric).
    pub fn missing(&self) -> Vec<&'static str> {
        if self.traced {
            return Vec::new();
        }
        names::END_TO_END.iter().filter(|d| !self.readings.contains_key(d.name)).map(|d| d.name).collect()
    }

    fn metrics_json(&self, with_n: bool) -> Json {
        let metrics = self.readings().into_iter().map(|(d, r)| {
            let mut fields = vec![
                ("value", Json::Num(if r.value.is_finite() { r.value } else { 0.0 })),
                ("unit", Json::str(d.unit)),
            ];
            if with_n {
                fields.push(("n", Json::Num(r.n as f64)));
            }
            (d.name.to_string(), Json::obj(fields))
        });
        Json::Object(metrics.collect())
    }

    /// The one-line result the driver reads.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", self.metrics_json(false)),
        ])
    }

    /// This run as it appears in `result.json`: like the driver's line,
    /// plus sample counts and the failure tally.
    pub fn to_run_json(&self) -> Json {
        let failures: BTreeMap<String, Json> =
            self.failures.iter().map(|(k, n)| (k.clone(), Json::Num(*n as f64))).collect();
        Json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("failures", Json::Object(failures)),
            ("metrics", self.metrics_json(true)),
        ])
    }

    /// `workload metric value unit n=<samples>` lines, one per metric.
    pub fn lines(&self) -> String {
        let mut out = String::new();
        for (d, r) in self.readings() {
            out.push_str(&format!("{} {} {} {} n={}\n", self.workload, d.name, r.value, d.unit, r.n));
        }
        for (kind, n) in &self.failures {
            out.push_str(&format!("{} failure {kind} {n} count\n", self.workload));
        }
        out
    }
}

/// `result.json`: every run of a full benchmark in one document, each
/// run as its [`Report::to_run_json`]. The flush policy and the machine
/// are stated, never varied; `claim` is null because defining the
/// benchmark claims no gain.
pub fn result_document(seed: u64, seconds: f64, runs: &[(&str, bool, Json)]) -> Json {
    let mut workloads: BTreeMap<String, Json> = BTreeMap::new();
    for (name, why) in names::WORKLOADS {
        let mut entry = vec![("why", Json::str(why))];
        for (_, traced, run) in runs.iter().filter(|(workload, _, _)| *workload == name) {
            entry.push((if *traced { "traced" } else { "untraced" }, run.clone()));
        }
        workloads.insert(name.to_string(), Json::obj(entry));
    }
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    Json::obj(vec![
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("available_parallelism", Json::Num(cores as f64)),
        ("flush_policy", Json::str("fsync (sync_data) of every group commit before the ack; never varied")),
        ("workloads", Json::Object(workloads)),
        ("claim", Json::Null),
    ])
}
