//! Workload traces: canonical capture, replay, and seeded synthesis.
//!
//! A [`WorkloadTrace`] is the simulator's exchange format with the real
//! world: the `lake-server` swarm harness records one (per-request
//! tenant, verb, virtual arrival, virtual cost), and the generators here
//! synthesize three more shapes (uniform, bursty, heavy-tailed — the
//! DLBench mix) from a seed. Both paths produce **canonical** traces:
//! records sorted by `(arrival_us, tenant, verb, cost_us)` and serialized
//! through [`lake_core::Json`]'s `BTreeMap` objects, so a trace written
//! twice — or captured twice from the same seed — is byte-identical,
//! which is what lets `sched_calibration.rs` and `scripts/server.sh`
//! gate on bytes.

use crate::cost::{CostModel, Job, JobKind};
use lake_core::{Json, LakeError, Result};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// One traced request: who asked for what, when (virtual), and how much
/// service it demands under the calibrated cost model.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct TraceRecord {
    /// Virtual arrival time, microseconds from trace start.
    pub arrival_us: u64,
    /// Owning tenant.
    pub tenant: String,
    /// Server verb or job-kind label ([`JobKind::from_verb`] maps it).
    pub verb: String,
    /// Virtual service demand, microseconds.
    pub cost_us: u64,
}

impl TraceRecord {
    /// JSON envelope (canonical: object keys sort alphabetically).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("arrival_us", Json::Num(self.arrival_us as f64)),
            ("cost_us", Json::Num(self.cost_us as f64)),
            ("tenant", Json::str(self.tenant.clone())),
            ("verb", Json::str(self.verb.clone())),
        ])
    }

    /// Decode one record.
    pub fn from_json(j: &Json) -> Result<TraceRecord> {
        let num = |key: &str| -> Result<u64> {
            let v = j
                .get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| LakeError::parse(format!("trace record missing \"{key}\"")))?;
            if v.is_finite() && v >= 0.0 {
                Ok(v as u64)
            } else {
                Err(LakeError::parse(format!("trace record \"{key}\" is not a count: {v}")))
            }
        };
        let text = |key: &str| -> Result<String> {
            j.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| LakeError::parse(format!("trace record missing \"{key}\"")))
        };
        Ok(TraceRecord {
            arrival_us: num("arrival_us")?,
            tenant: text("tenant")?,
            verb: text("verb")?,
            cost_us: num("cost_us")?,
        })
    }
}

/// An ordered multiset of traced requests plus its provenance.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkloadTrace {
    /// Where the trace came from (`"swarm"`, `"uniform"`, …) — carried in
    /// the JSON so replays can name their source.
    pub source: String,
    /// Seed the workload was generated from (0 for captured traces whose
    /// seed lives in the capturing config).
    pub seed: u64,
    /// The records, canonically ordered after [`WorkloadTrace::canonicalize`].
    pub records: Vec<TraceRecord>,
}

impl WorkloadTrace {
    /// An empty trace labeled with its provenance.
    pub fn new(source: &str, seed: u64) -> WorkloadTrace {
        WorkloadTrace { source: source.to_string(), seed, records: Vec::new() }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when no records were captured.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Sort records into the canonical `(arrival, tenant, verb, cost)`
    /// order. Full-record ties are identical records, so the order within
    /// a tie cannot affect serialized bytes — after this call the trace
    /// is a pure function of its multiset, not of capture interleaving.
    pub fn canonicalize(&mut self) {
        self.records.sort();
    }

    /// Canonical JSON envelope.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("records", Json::Array(self.records.iter().map(TraceRecord::to_json).collect())),
            ("seed", Json::Num(self.seed as f64)),
            ("source", Json::str(self.source.clone())),
        ])
    }

    /// Decode a trace envelope.
    pub fn from_json(j: &Json) -> Result<WorkloadTrace> {
        let records = j
            .get("records")
            .and_then(Json::as_array)
            .ok_or_else(|| LakeError::parse("trace missing \"records\" array"))?
            .iter()
            .map(TraceRecord::from_json)
            .collect::<Result<Vec<TraceRecord>>>()?;
        let seed = j.get("seed").and_then(Json::as_f64).unwrap_or(0.0);
        Ok(WorkloadTrace {
            source: j.get("source").and_then(Json::as_str).unwrap_or("unknown").to_string(),
            seed: if seed.is_finite() && seed >= 0.0 { seed as u64 } else { 0 },
            records,
        })
    }

    /// Parse a serialized trace.
    pub fn parse(text: &str) -> Result<WorkloadTrace> {
        WorkloadTrace::from_json(&lake_formats::json::parse(text)?)
    }

    /// Convert to simulator jobs in canonical order. Service times are
    /// the recorded costs (for captured traces those *are* the calibrated
    /// model's outputs); `deadline_slack` attaches `slack × service`
    /// deadlines when given.
    pub fn to_jobs(&self, deadline_slack: Option<u64>) -> Vec<Job> {
        let mut sorted = self.records.clone();
        sorted.sort();
        sorted
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let job = Job::new(
                    i as u64,
                    &r.tenant,
                    JobKind::from_verb(&r.verb),
                    r.arrival_us,
                    r.cost_us,
                );
                match deadline_slack {
                    Some(slack) => job.with_deadline_slack(slack),
                    None => job,
                }
            })
            .collect()
    }

    /// Exact order-statistic percentiles `(p50, p99)` over record costs —
    /// the same statistic the server swarm reports over its measured
    /// virtual costs, which is what the calibration gate compares.
    pub fn cost_percentiles(&self) -> (u64, u64) {
        let mut costs: Vec<u64> = self.records.iter().map(|r| r.cost_us).collect();
        costs.sort_unstable();
        (percentile(&costs, 50), percentile(&costs, 99))
    }
}

/// Exact order statistic: the `q`-th percentile of a sorted slice (the
/// rank-`⌈qn/100⌉` element), 0 for an empty slice. Re-exported from the
/// workspace-wide definition so every caller (scheduler, server swarm,
/// benches) pins identical edge semantics.
pub use lake_core::stats::percentile_u64 as percentile;

/// The three synthetic workload shapes (DLBench-style mix).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceShape {
    /// Arrivals uniform over the window, kinds uniform, modest payloads.
    Uniform,
    /// Most arrivals packed into short periodic bursts, query-heavy.
    Bursty,
    /// Geometric (heavy-tailed) payload sizes, ingest-heavy: a few jobs
    /// dominate total service — the regime where SJF and FIFO diverge.
    HeavyTail,
}

impl TraceShape {
    /// Stable label used as the trace `source`.
    pub fn name(self) -> &'static str {
        match self {
            TraceShape::Uniform => "uniform",
            TraceShape::Bursty => "bursty",
            TraceShape::HeavyTail => "heavy_tail",
        }
    }
}

/// Deterministically synthesize `jobs` records of the given shape across
/// `tenants` tenants, with service demands from `model`. Same arguments,
/// same bytes — the generator draws everything from one seeded `StdRng`
/// stream and canonicalizes before returning.
pub fn synthesize(
    shape: TraceShape,
    seed: u64,
    jobs: usize,
    tenants: usize,
    model: &CostModel,
) -> WorkloadTrace {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut trace = WorkloadTrace::new(shape.name(), seed);
    let tenants = tenants.max(1);
    // Virtual window sized so the lake is moderately loaded: ~500us of
    // arrival spacing per job on average.
    let window_us = (jobs as u64).saturating_mul(500).max(1);
    for i in 0..jobs {
        let tenant = format!("tenant{}", i % tenants);
        let (kind, bytes, arrival_us) = match shape {
            TraceShape::Uniform => {
                let kind = pick_kind(&mut rng, [25, 25, 25, 25]);
                let bytes: u64 = rng.random_range(0..2048u64);
                (kind, bytes, rng.random_range(0..window_us))
            }
            TraceShape::Bursty => {
                // 80% of jobs land inside 2ms bursts that open every 50ms.
                let kind = pick_kind(&mut rng, [20, 50, 15, 15]);
                let bytes: u64 = rng.random_range(0..1024u64);
                let in_burst: u8 = rng.random_range(0..100u8);
                let arrival = if in_burst < 80 {
                    let burst = rng.random_range(0..(window_us / 50_000).max(1));
                    burst * 50_000 + rng.random_range(0..2_000u64)
                } else {
                    rng.random_range(0..window_us)
                };
                (kind, bytes, arrival)
            }
            TraceShape::HeavyTail => {
                let kind = pick_kind(&mut rng, [15, 25, 45, 15]);
                // Geometric size ladder: each extra doubling is half as
                // likely, capped at 64 KiB << 4.
                let mut bytes: u64 = 64;
                while bytes < (64 << 14) && rng.random_range(0..2u8) == 0 {
                    bytes <<= 1;
                }
                (kind, bytes, rng.random_range(0..window_us))
            }
        };
        trace.records.push(TraceRecord {
            arrival_us,
            tenant,
            verb: kind.name().to_string(),
            cost_us: model.service_us(kind, bytes),
        });
    }
    trace.canonicalize();
    trace
}

/// Weighted draw over the four kinds; `weights` must sum to 100.
fn pick_kind(rng: &mut StdRng, weights: [u8; 4]) -> JobKind {
    let roll: u8 = rng.random_range(0..100u8);
    let mut acc = 0u8;
    for (kind, w) in JobKind::all().iter().zip(weights.iter()) {
        acc = acc.saturating_add(*w);
        if roll < acc {
            return *kind;
        }
    }
    JobKind::Maintain
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_round_trip_through_json() {
        let mut trace = WorkloadTrace::new("swarm", 42);
        trace.records.push(TraceRecord {
            arrival_us: 10,
            tenant: "acme".to_string(),
            verb: "get".to_string(),
            cost_us: 450,
        });
        trace.records.push(TraceRecord {
            arrival_us: 0,
            tenant: "acme".to_string(),
            verb: "put".to_string(),
            cost_us: 650,
        });
        trace.canonicalize();
        let text = trace.to_json().to_string();
        let back = WorkloadTrace::parse(&text).unwrap();
        assert_eq!(back, trace);
        assert_eq!(back.to_json().to_string(), text, "canonical round-trip");
        assert_eq!(back.records.first().map(|r| r.arrival_us), Some(0), "sorted by arrival");
    }

    #[test]
    fn canonicalize_makes_capture_order_irrelevant() {
        let rec = |a: u64, t: &str| TraceRecord {
            arrival_us: a,
            tenant: t.to_string(),
            verb: "get".to_string(),
            cost_us: 400,
        };
        let mut a = WorkloadTrace::new("x", 1);
        a.records = vec![rec(5, "t1"), rec(0, "t0"), rec(5, "t0")];
        let mut b = WorkloadTrace::new("x", 1);
        b.records = vec![rec(5, "t0"), rec(5, "t1"), rec(0, "t0")];
        a.canonicalize();
        b.canonicalize();
        assert_eq!(a.to_json().to_string(), b.to_json().to_string());
    }

    #[test]
    fn synthesis_is_deterministic_per_seed_and_shape() {
        let model = CostModel::server_default();
        for shape in [TraceShape::Uniform, TraceShape::Bursty, TraceShape::HeavyTail] {
            let a = synthesize(shape, 7, 200, 8, &model);
            let b = synthesize(shape, 7, 200, 8, &model);
            assert_eq!(a.to_json().to_string(), b.to_json().to_string(), "{shape:?}");
            let c = synthesize(shape, 8, 200, 8, &model);
            assert_ne!(a.to_json().to_string(), c.to_json().to_string(), "{shape:?} seeds differ");
            assert_eq!(a.len(), 200);
        }
    }

    #[test]
    fn jobs_carry_kinds_deadlines_and_canonical_ids() {
        let trace = synthesize(TraceShape::Uniform, 42, 50, 4, &CostModel::server_default());
        let jobs = trace.to_jobs(Some(4));
        assert_eq!(jobs.len(), 50);
        for (i, job) in jobs.iter().enumerate() {
            assert_eq!(job.id, i as u64);
            assert_eq!(
                job.deadline_us,
                Some(job.submit_us + job.service_us * 4),
                "slack-4 deadline"
            );
        }
        // Arrival-sorted.
        for w in jobs.windows(2) {
            assert!(w[0].submit_us <= w[1].submit_us);
        }
        let no_deadlines = trace.to_jobs(None);
        assert!(no_deadlines.iter().all(|j| j.deadline_us.is_none()));
    }

    #[test]
    fn percentiles_are_exact_order_statistics() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50), 50);
        assert_eq!(percentile(&v, 99), 99);
        assert_eq!(percentile(&[], 50), 0);
        assert_eq!(percentile(&[7], 99), 7);
    }

    #[test]
    fn heavy_tail_actually_has_a_tail() {
        let trace = synthesize(TraceShape::HeavyTail, 1337, 400, 8, &CostModel::server_default());
        let (p50, p99) = trace.cost_percentiles();
        assert!(p99 > p50.saturating_mul(2), "p99 {p99} should dwarf p50 {p50}");
    }
}
