//! `lake-sched` — a discrete-event lake-workload simulator.
//!
//! The survey frames a data lake as one shared service answering four
//! kinds of demand — discovery scans, queries, ingest, maintenance — and
//! the scheduling question that raises: *which job runs next when the
//! workers are busy?* This crate answers it offline, Eudoxia-style: a
//! deterministic discrete-event simulator on virtual time replays a
//! workload trace under pluggable policies and reports the numbers the
//! choice actually moves (makespan, mean/p99 sojourn, deadline misses,
//! per-tenant fairness).
//!
//! The pieces:
//!
//! * [`cost`] — the [`Job`](cost::Job) model and a JOSIE-style
//!   [`CostModel`](cost::CostModel) (per-kind base + linear volume term)
//!   calibrated against `lake-server`'s `virtual_cost_us` latency model.
//! * [`trace`] — canonical [`WorkloadTrace`](trace::WorkloadTrace)
//!   capture/replay JSON plus seeded synthetic shapes (uniform, bursty,
//!   heavy-tailed). The `lake-server` swarm writes this format under
//!   `--trace`.
//! * [`policy`] — FIFO, SJF, round-robin fair share, and
//!   earliest-deadline-first behind the
//!   [`SchedPolicy`](policy::SchedPolicy) trait; all deterministic with
//!   id tie-breaks.
//! * [`sim`] — the engine: binary-heap event queue over
//!   `(virtual time, seq)`, simulated workers, a capacity-bounded ready
//!   queue, and a [`SimResult`](sim::SimResult) with conservation
//!   (`submitted == completed + rejected`) pinned by property tests.
//! * [`report`] — the (trace × policy) comparison
//!   [`PolicyTable`](report::PolicyTable), fanned out via
//!   `lake_core::par` and byte-identical across runs and host worker
//!   counts.
//!
//! ```
//! use lake_core::par::Parallelism;
//! use lake_sched::{compare, synthesize, CostModel, PolicyKind, SimConfig, TraceShape};
//!
//! let model = CostModel::server_default();
//! let trace = synthesize(TraceShape::HeavyTail, 42, 200, 8, &model);
//! let traces = vec![("heavy_tail".to_string(), trace.to_jobs(Some(4)))];
//! let table = compare(
//!     &traces,
//!     &PolicyKind::all(),
//!     &SimConfig { workers: 4, queue_capacity: 0 },
//!     Parallelism::auto(),
//! );
//! assert_eq!(table.rows.len(), 4);
//! print!("{}", table.render());
//! ```

#![cfg_attr(not(test), deny(unused_crate_dependencies))]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::disallowed_methods,
    clippy::indexing_slicing
)]

pub mod cost;
pub mod policy;
pub mod report;
pub mod sim;
pub mod trace;

pub use cost::{CostModel, Job, JobKind};
pub use policy::{DeadlinePolicy, FairSharePolicy, FifoPolicy, PolicyKind, SchedPolicy, SjfPolicy};
pub use report::{compare, PolicyRow, PolicyTable};
pub use sim::{run, SimConfig, SimResult};
pub use trace::{percentile, synthesize, TraceRecord, TraceShape, WorkloadTrace};
