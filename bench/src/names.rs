//! The benchmark's vocabulary: workloads and metric names, units and
//! directions. `BENCHMARK.json` lists the same names (a unit test holds
//! the two together); the README's glossary explains each.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which it may worsen
    /// (end-to-end metrics only; 0 for per-layer metrics).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, bound }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better, bound: 0.0 }
}

use Better::{Higher, Lower};

/// The four workloads in run order, each with the reason it was chosen.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "serve_mixed",
        "closed loop of small requests to the real server: connect, admission, quota/breaker and the fsync dominate, so per-request fixed cost shows",
    ),
    (
        "serve_bulk",
        "same server with 64 KB put/get frames: JSON, journal bytes, store copies and snapshot rotation dominate and fixed cost is a small share",
    ),
    (
        "discover",
        "in process, no server: CSV parse, profiling, index builds, top-k search and incremental absorb on a seeded 36-table lake",
    ),
    (
        "analytics",
        "in process, no server or discovery: federated scans and joins, lakehouse commits beside scans, full-text search",
    ),
];

/// End-to-end metrics. Every workload reports every one of them; the
/// README's role table says which operation stands behind `write_*`,
/// `read_*` and `ready_ms` on each workload.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.2),
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("write_p50_ms", "ms", Lower, 0.25),
    e2e("read_p50_ms", "ms", Lower, 0.25),
    e2e("ready_ms", "ms", Lower, 0.25),
];

/// Per-layer metrics, `<crate>.<module>.<what>`. A workload that never
/// enters a layer reports 0 for it.
pub const PER_LAYER: &[MetricDef] = &[
    // Client spans of serve_*: four contiguous spans per request.
    layer("wire.connect_us_p50", "us", Lower),
    layer("wire.send_us_p50", "us", Lower),
    layer("wire.wait_read_us_p50", "us", Lower),
    layer("wire.decode_us_p50", "us", Lower),
    layer("wire.span_sum_ratio", "ratio", Higher),
    // The server, scraped over the wire.
    layer("server.requests_total", "count", Higher),
    layer("server.admission.shed_total", "count", Lower),
    layer("server.wal.appended_total", "count", Higher),
    layer("server.wal.fsync_batches_total", "count", Lower),
    layer("server.wal.frames_per_fsync", "ratio", Higher),
    layer("server.wal.rotations_total", "count", Lower),
    layer("server.cpu_us_per_op", "us", Lower),
    layer("obs.scrape_ms", "ms", Lower),
    layer("gen.cpu_share", "ratio", Lower),
    // Tails and per-verb latencies seen by the clients (reported, not gated).
    layer("server.put_p99_ms", "ms", Lower),
    layer("server.get_p99_ms", "ms", Lower),
    layer("server.put_max_ms", "ms", Lower),
    layer("server.recovery_replayed", "count", Higher),
    layer("server.boot_ms_p50", "ms", Lower),
    layer("server.window_peak_rss_mb", "MiB", Lower),
    // Layer replay of the same request stream, one thread, in the harness.
    layer("formats.json.parse_us_p50", "us", Lower),
    layer("server.protocol.request_from_json_us_p50", "us", Lower),
    layer("server.protocol.dataset_from_body_us_p50", "us", Lower),
    layer("server.protocol.dataset_to_body_us_p50", "us", Lower),
    layer("server.protocol.response_encode_us_p50", "us", Lower),
    layer("server.admission.offer_release_us_p50", "us", Lower),
    layer("server.tenant.charge_admit_record_us_p50", "us", Lower),
    layer("server.wal.append_us_p50", "us", Lower),
    layer("server.wal.append_us_p99", "us", Lower),
    layer("server.wal.append_2x_us_p50", "us", Lower),
    layer("server.wal.replay_frames_per_fsync", "ratio", Higher),
    layer("server.wal.bytes_per_user_byte", "ratio", Lower),
    layer("server.wal.rotate_ms_p50", "ms", Lower),
    layer("server.wal.apply_record_us_p50", "us", Lower),
    layer("store.polystore.store_us_p50", "us", Lower),
    layer("store.polystore.retrieve_us_p50", "us", Lower),
    layer("server.server.health_rtt_us_p50", "us", Lower),
    layer("server.server.unattributed_put_us", "us", Lower),
    layer("server.server.unattributed_get_us", "us", Lower),
    layer("server.server.payload_share_of_put", "ratio", Lower),
    // discover.
    layer("fs.read_csv_ms", "ms", Lower),
    layer("formats.csv.parse_ms", "ms", Lower),
    layer("formats.csv.parse_mb_per_s", "MB/s", Higher),
    layer("discovery.corpus.profile_ms", "ms", Lower),
    layer("discovery.corpus.profile_1w_ms", "ms", Lower),
    layer("core.batch.column_stats_ms", "ms", Lower),
    layer("index.minhash.signature_ms", "ms", Lower),
    layer("index.lsh.insert_ms", "ms", Lower),
    layer("index.inverted.build_ms", "ms", Lower),
    layer("discovery.aurum.build_ms", "ms", Lower),
    layer("discovery.josie.build_ms", "ms", Lower),
    layer("discovery.d3l.build_ms", "ms", Lower),
    layer("discovery.incremental.build_ms", "ms", Lower),
    layer("discovery.aurum.topk_us_p50", "us", Lower),
    layer("discovery.josie.topk_ms_p50", "ms", Lower),
    layer("discovery.d3l.topk_ms_p50", "ms", Lower),
    layer("ingest.stream.push_rows_per_s", "1/s", Higher),
    layer("discovery.incremental.absorb_ms_p50", "ms", Lower),
    layer("discovery.incremental.absorb_ms_max", "ms", Lower),
    layer("discovery.aurum.precision_at_5", "ratio", Higher),
    layer("discovery.josie.precision_at_5", "ratio", Higher),
    layer("discovery.d3l.precision_at_5", "ratio", Higher),
    // analytics.
    layer("query.ast.parse_us_p50", "us", Lower),
    layer("query.federated.scan_sel_ms_p50", "ms", Lower),
    layer("query.federated.scan_broad_ms_p50", "ms", Lower),
    layer("query.federated.rows_moved_per_result", "ratio", Lower),
    layer("store.relational.scan_ms_p50", "ms", Lower),
    layer("formats.columnar.decode_ms_p50", "ms", Lower),
    layer("formats.columnar.encode_ms", "ms", Lower),
    layer("query.federated.join_ms_p50", "ms", Lower),
    layer("query.fulltext.index_ms", "ms", Lower),
    layer("query.fulltext.search_us_p50", "us", Lower),
    layer("house.table.append_ms_p50", "ms", Lower),
    layer("house.table.append_ms_p99", "ms", Lower),
    layer("house.table.append_last_over_first", "ratio", Lower),
    layer("house.log.recover_ms", "ms", Lower),
    layer("house.table.scan_ms_p50", "ms", Lower),
    layer("house.table.files_skipped_ratio", "ratio", Higher),
    layer("house.table.compact_ms", "ms", Lower),
    // Every workload.
    layer("pass.run_s", "s", Lower),
    layer("pass.span_sum_ratio", "ratio", Higher),
    layer("trace.overhead_ratio", "ratio", Lower),
    layer("trace.spans", "count", Lower),
    layer("host.cpu_steal_share", "ratio", Lower),
];
