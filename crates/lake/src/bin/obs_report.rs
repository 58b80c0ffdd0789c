//! `obs_report` — run a small demo workload against an instrumented
//! in-memory lake and dump the observability snapshot.
//!
//! The workload exercises every instrumented tier so the report is
//! representative: object-store puts/gets through
//! `ObsStore<FaultStore<MemoryStore>>` (with two injected transient
//! faults so the retry counters are non-zero), lakehouse commits with
//! retry + checkpoint + recovery, streaming ingestion with a sample
//! flush, and a federated query fanning out over relational, document,
//! and file backends.
//!
//! ```text
//! $ cargo run -p lake --bin obs_report            # Prometheus text
//! $ cargo run -p lake --bin obs_report -- --json  # JSON snapshot
//! $ cargo run -p lake --bin obs_report -- --spans # + span tree / events
//! ```

use lake_core::retry::{RetryPolicy, SystemClock};
use lake_core::{Dataset, DatasetId, Table, Value};
use lake_house::{HouseMetrics, LakeTable};
use lake_ingest::stream::StreamIngestor;
use lake_obs::{render_tree, EventLog, Level, MetricsRegistry, Tracer};
use lake_query::federated::{FederatedEngine, SourceBinding};
use lake_store::{FaultPlan, FaultStore, MemoryStore, ObsStore, Op, Polystore, StoreKind};
use std::collections::BTreeMap;
use std::sync::Arc;

fn batch(name: &str, rows: &[(&str, i64)]) -> Table {
    Table::from_rows(
        name,
        &["city", "n"],
        rows.iter()
            .map(|(c, n)| vec![Value::str(*c), Value::Int(*n)])
            .collect(),
    )
    .expect("demo batch is well-formed")
}

/// The demo workload; returns the breaker status lines of its degraded
/// federated query.
fn workload(
    registry: &MetricsRegistry,
    tracer: &Tracer,
    events: &EventLog,
    clock: &Arc<dyn lake_core::retry::Clock>,
) -> Vec<String> {
    // Storage: faults inside, observation outside (see lake_store::object).
    let plan = FaultPlan::new().fail_next(Op::PutIfAbsent, 2);
    let faulty = FaultStore::new(MemoryStore::new(), plan);
    let store = ObsStore::new(faulty, registry);

    // Lakehouse: commits retry past the injected faults; then checkpoint
    // territory via compaction, and a recovery sweep.
    events.record(Level::Info, "obs_report", "lakehouse workload starting");
    let obs = HouseMetrics::register(registry).with_tracer(tracer.clone());
    let table = LakeTable::open(&store, "demo")
        .with_retry(RetryPolicy::new(4))
        .with_obs(obs);
    let root = tracer.span("workload");
    for i in 0..3 {
        let _child = root.child("append");
        if let Err(e) = table.append(&batch("demo", &[("delft", i), ("paris", i + 1)])) {
            events.record(Level::Error, "obs_report", &format!("append failed: {e}"));
        }
    }
    if let Err(e) = table.compact() {
        events.record(Level::Warn, "obs_report", &format!("compact failed: {e}"));
    }
    let _ = table.scan(&[]);
    if let Err(e) = table.log().recover() {
        events.record(Level::Warn, "obs_report", &format!("recover failed: {e}"));
    }
    root.finish();

    // Streaming ingestion with a flushed sample.
    if let Ok(ingestor) = StreamIngestor::new(&["city", "n"], 64, 42) {
        let mut ingestor = ingestor.with_obs(registry);
        for i in 0..16 {
            let _ = ingestor.push(vec![Value::str("delft"), Value::Int(i)]);
        }
        let _ = ingestor.flush_sample(&store, "ingest/sample.pql", &RetryPolicy::new(3), &**clock);
        events.record(Level::Info, "obs_report", "ingest sample flushed");
    }

    // Federated query over relational + document backends.
    let ps = Polystore::new();
    let t = batch("orders", &[("delft", 10), ("paris", 90)]);
    let _ = ps.store(DatasetId(1), "orders", Dataset::Table(t));
    let docs = vec![lake_core::Json::obj(vec![
        ("city", lake_core::Json::str("rome")),
        ("n", lake_core::Json::Num(7.0)),
    ])];
    let _ = ps.store(DatasetId(2), "orders_docs", Dataset::Documents(docs));
    let cols: BTreeMap<String, String> =
        [("city".to_string(), "city".to_string()), ("n".to_string(), "n".to_string())].into();
    let mut fe = FederatedEngine::new(&ps).with_obs(registry, clock.clone());
    fe.register(
        "orders",
        vec![
            SourceBinding { store: StoreKind::Relational, location: "orders".into(), columns: cols.clone() },
            SourceBinding { store: StoreKind::Document, location: "orders_docs".into(), columns: cols },
        ],
    );
    if let Ok(q) = lake_query::parse_query("select city, n from orders") {
        let _ = fe.execute(&q, true);
    }

    // Degraded federated query: the document source is dead, so the
    // mediator skips it, reports a partial answer, and trips the breaker
    // — populating the lake_query_source_skipped_total / partial /
    // breaker-state series in the report.
    let cols2: BTreeMap<String, String> =
        [("city".to_string(), "city".to_string()), ("n".to_string(), "n".to_string())].into();
    let mut dfe = FederatedEngine::new(&ps)
        .with_obs(registry, clock.clone())
        .with_degradation(lake_query::DegradationConfig::degraded())
        .with_faults(lake_query::FaultSource::new().dead("orders_docs"));
    dfe.register(
        "orders",
        vec![
            SourceBinding { store: StoreKind::Relational, location: "orders".into(), columns: cols2.clone() },
            SourceBinding { store: StoreKind::Document, location: "orders_docs".into(), columns: cols2 },
        ],
    );
    let mut breaker_lines = Vec::new();
    if let Ok(q) = lake_query::parse_query("select city, n from orders") {
        // Three failures reach the default breaker threshold, so the
        // report shows an Open breaker gauge, not just skip counters.
        for _ in 0..3 {
            if let Ok((_, stats)) = dfe.execute(&q, true) {
                events.record(
                    Level::Warn,
                    "obs_report",
                    &format!("degraded query: {}", stats.completeness.render()),
                );
            }
        }
        for (source, state, fails) in dfe.breaker_status() {
            breaker_lines
                .push(format!("breaker {source}: {} ({fails} consecutive failures)", state.name()));
        }
    }
    events.record(Level::Info, "obs_report", "workload complete");
    breaker_lines
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let spans = args.iter().any(|a| a == "--spans");

    let registry = MetricsRegistry::new();
    let clock: Arc<dyn lake_core::retry::Clock> = Arc::new(SystemClock);
    let tracer = Tracer::new(clock.clone());
    let events = EventLog::new(clock.clone());
    let breaker_lines = workload(&registry, &tracer, &events, &clock);

    let snap = registry.snapshot();
    if json {
        // JSON mode stays machine-parseable: breaker status is already in
        // the lake_query_breaker_state gauges.
        println!("{}", lake_obs::export::json_text(&snap));
    } else {
        print!("{}", lake_obs::export::prometheus_text(&snap));
        for line in &breaker_lines {
            println!("# {line}");
        }
    }
    if spans {
        println!("# --- spans ---");
        for line in render_tree(&tracer.finished_spans()).lines() {
            println!("# {line}");
        }
        println!("# --- events ---");
        for ev in events.events() {
            println!("# [{}] {} {}", ev.level.name(), ev.target, ev.message);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lake_core::Json;

    /// Values of every series named `name` in a Prometheus dump.
    fn prometheus_series(text: &str, name: &str) -> Vec<u64> {
        text.lines()
            .filter(|l| l.strip_prefix(name).is_some_and(|rest| rest.starts_with([' ', '{'])))
            .filter_map(|l| l.rsplit(' ').next()?.parse().ok())
            .collect()
    }

    /// `field` of every `section` entry named `name` in a JSON dump.
    fn json_series(dump: &Json, section: &str, name: &str, field: &str) -> Vec<u64> {
        dump.get(section)
            .and_then(Json::as_array)
            .into_iter()
            .flatten()
            .filter(|m| m.get("name").and_then(Json::as_str) == Some(name))
            .filter_map(|m| m.get(field).and_then(Json::as_f64))
            .map(|v| v as u64)
            .collect()
    }

    /// The pipeline recorded the workload on every instrumented tier —
    /// store ops, lakehouse commits and retries, ingestion, federated
    /// queries and their degraded answers — and both exporters say so
    /// with the same numbers.
    #[test]
    fn workload_is_recorded_on_every_tier_and_the_exporters_agree() {
        let registry = MetricsRegistry::new();
        let clock: Arc<dyn lake_core::retry::Clock> = Arc::new(SystemClock);
        workload(&registry, &Tracer::new(clock.clone()), &EventLog::new(clock.clone()), &clock);
        let snap = registry.snapshot();
        let prometheus = lake_obs::export::prometheus_text(&snap);
        let json = lake_formats::json::parse(&lake_obs::export::json_text(&snap)).unwrap();

        for name in [
            "lake_store_put_total",
            "lake_store_get_total",
            "lake_store_put_bytes_total",
            "lake_house_commit_total",
            "lake_house_retry_retries_total",
            "lake_ingest_rows_total",
            "lake_query_execute_total",
            "lake_query_partial_total",
            "lake_query_source_skipped_total",
        ] {
            let series = prometheus_series(&prometheus, name);
            assert!(!series.is_empty(), "{name} missing from the Prometheus dump");
            assert!(series.iter().all(|&v| v > 0), "{name} is zero after the workload: {series:?}");
            assert_eq!(series, json_series(&json, "counters", name, "value"), "{name}: JSON disagrees");
        }
        // Latency histograms must have observations, not just registrations.
        let puts = prometheus_series(&prometheus, "lake_store_put_seconds_count");
        assert!(!puts.is_empty() && puts.iter().all(|&n| n >= 1), "{puts:?}");
        assert_eq!(puts, json_series(&json, "histograms", "lake_store_put_seconds", "count"));
    }
}
