//! The policy-comparison harness: run every (trace × policy) cell,
//! collect one [`PolicyRow`] per cell, and render/serialize the result
//! deterministically.
//!
//! [`compare`] fans the cross product out through `lake_core::par`, which
//! reassembles results in submission order regardless of the host worker
//! count — so the table is byte-identical under `RUSTLAKE_WORKERS=1` and
//! `=8`, which `tests/sim_prop.rs` gates on. Every rendered number is an
//! integer (the fairness index is pre-scaled ×1000 in the engine), so no
//! float formatting can perturb the bytes.

use crate::cost::Job;
use crate::policy::PolicyKind;
use crate::sim::{run, SimConfig, SimResult};
use lake_core::par::{self, Parallelism};
use lake_core::{Json, ManualClock};
use lake_obs::MetricsRegistry;
use std::fmt::Write as _;

/// One (trace, policy) cell of the comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyRow {
    /// Trace label (`"swarm"`, `"uniform"`, …).
    pub trace: String,
    /// The full simulation measurement for this cell.
    pub result: SimResult,
}

impl PolicyRow {
    /// Canonical JSON for the summary fields (per-job vectors stay out of
    /// the envelope — they are measurement internals, not table data).
    pub fn to_json(&self) -> Json {
        let n = |v: u64| Json::Num(v as f64);
        Json::obj(vec![
            ("completed", n(self.result.completed)),
            ("deadline_misses", n(self.result.deadline_misses)),
            ("fairness_millis", n(self.result.fairness_millis)),
            ("makespan_us", n(self.result.makespan_us)),
            ("mean_sojourn_us", n(self.result.mean_sojourn_us)),
            ("p50_sojourn_us", n(self.result.p50_sojourn_us)),
            ("p99_sojourn_us", n(self.result.p99_sojourn_us)),
            ("policy", Json::str(self.result.policy.clone())),
            ("rejected", n(self.result.rejected)),
            ("submitted", n(self.result.submitted)),
            ("trace", Json::str(self.trace.clone())),
            ("workers", n(self.result.workers as u64)),
        ])
    }
}

/// The full comparison: one row per (trace × policy) cell, in the
/// deterministic order traces-major, policies-minor.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PolicyTable {
    /// The rows.
    pub rows: Vec<PolicyRow>,
}

impl PolicyTable {
    /// Canonical JSON envelope (`{"rows": [...]}`)
    pub fn to_json(&self) -> Json {
        Json::obj(vec![(
            "rows",
            Json::Array(self.rows.iter().map(PolicyRow::to_json).collect()),
        )])
    }

    /// Fixed-width text table, integers only — byte-stable across runs.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<12} {:<9} {:>4} {:>6} {:>6} {:>5} {:>12} {:>9} {:>9} {:>9} {:>6} {:>7}",
            "trace",
            "policy",
            "wrk",
            "jobs",
            "done",
            "rej",
            "makespan_us",
            "mean_us",
            "p50_us",
            "p99_us",
            "miss",
            "fair_m",
        );
        for row in &self.rows {
            let r = &row.result;
            let _ = writeln!(
                out,
                "{:<12} {:<9} {:>4} {:>6} {:>6} {:>5} {:>12} {:>9} {:>9} {:>9} {:>6} {:>7}",
                row.trace,
                r.policy,
                r.workers,
                r.submitted,
                r.completed,
                r.rejected,
                r.makespan_us,
                r.mean_sojourn_us,
                r.p50_sojourn_us,
                r.p99_sojourn_us,
                r.deadline_misses,
                r.fairness_millis,
            );
        }
        out
    }

    /// Record every row into `registry` under the `lake_sched_*` family.
    pub fn record_to(&self, registry: &MetricsRegistry) {
        for row in &self.rows {
            row.result.record_to(registry);
        }
    }
}

/// Simulate every trace under every policy on `cfg.workers` simulated
/// workers, fanning the cells out across `host_par` host workers. Each
/// cell gets a fresh policy and a fresh [`ManualClock`], so cells are
/// independent and the fan-out order cannot leak between them; `par::map`
/// reassembles in cross-product order, so the table is identical for any
/// host worker count.
pub fn compare(
    traces: &[(String, Vec<Job>)],
    policies: &[PolicyKind],
    cfg: &SimConfig,
    host_par: Parallelism,
) -> PolicyTable {
    let cells: Vec<(usize, PolicyKind)> = (0..traces.len())
        .flat_map(|t| policies.iter().map(move |p| (t, *p)))
        .collect();
    let rows = par::map(host_par, &cells, |(t, kind)| {
        let (name, jobs) = match traces.get(*t) {
            Some(cell) => (cell.0.clone(), cell.1.clone()),
            None => (String::new(), Vec::new()),
        };
        let clock = ManualClock::new();
        let mut policy = kind.build();
        let result = run(cfg, policy.as_mut(), jobs, &clock);
        PolicyRow { trace: name, result }
    });
    PolicyTable { rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::trace::{synthesize, TraceShape};

    fn traces() -> Vec<(String, Vec<Job>)> {
        let model = CostModel::server_default();
        [TraceShape::Uniform, TraceShape::Bursty, TraceShape::HeavyTail]
            .iter()
            .map(|s| {
                let t = synthesize(*s, 42, 120, 6, &model);
                (s.name().to_string(), t.to_jobs(Some(4)))
            })
            .collect()
    }

    #[test]
    fn table_covers_the_cross_product_in_order() {
        let table = compare(
            &traces(),
            &PolicyKind::all(),
            &SimConfig { workers: 4, queue_capacity: 0 },
            Parallelism::sequential(),
        );
        assert_eq!(table.rows.len(), 12);
        let labels: Vec<(String, String)> = table
            .rows
            .iter()
            .map(|r| (r.trace.clone(), r.result.policy.clone()))
            .collect();
        assert_eq!(labels[0], ("uniform".to_string(), "fifo".to_string()));
        assert_eq!(labels[3], ("uniform".to_string(), "deadline".to_string()));
        assert_eq!(labels[4], ("bursty".to_string(), "fifo".to_string()));
        assert_eq!(labels[11], ("heavy_tail".to_string(), "deadline".to_string()));
    }

    #[test]
    fn table_bytes_are_identical_across_host_worker_counts() {
        let cfg = SimConfig { workers: 4, queue_capacity: 0 };
        let traces = traces();
        let baseline = compare(&traces, &PolicyKind::all(), &cfg, Parallelism::fixed(1));
        for w in [2usize, 4, 8] {
            let other = compare(&traces, &PolicyKind::all(), &cfg, Parallelism::fixed(w));
            assert_eq!(
                other.to_json().to_string(),
                baseline.to_json().to_string(),
                "host workers {w}"
            );
            assert_eq!(other.render(), baseline.render(), "host workers {w}");
        }
    }

    #[test]
    fn render_is_integer_only_and_aligned() {
        let table = compare(
            &traces(),
            &[PolicyKind::Fifo],
            &SimConfig { workers: 2, queue_capacity: 0 },
            Parallelism::sequential(),
        );
        let text = table.render();
        assert!(text.contains("trace"), "header present");
        assert!(!text.contains('.'), "no float formatting anywhere");
        let widths: Vec<usize> = text.lines().map(str::len).collect();
        assert!(widths.windows(2).all(|w| w[0] == w[1]), "aligned rows: {widths:?}");
    }

    #[test]
    fn record_to_accumulates_all_rows() {
        let registry = MetricsRegistry::new();
        let table = compare(
            &traces(),
            &PolicyKind::all(),
            &SimConfig { workers: 4, queue_capacity: 0 },
            Parallelism::sequential(),
        );
        table.record_to(&registry);
        let snap = registry.snapshot();
        // 3 traces × 120 jobs per policy label.
        assert_eq!(snap.counter_value_with("lake_sched_jobs_total", &[("policy", "fifo")]), 360);
        assert_eq!(snap.counter_value_with("lake_sched_jobs_total", &[("policy", "sjf")]), 360);
    }
}
