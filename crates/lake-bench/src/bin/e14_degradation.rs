//! E14 — graceful degradation for federated query: degraded vs strict
//! execution over a federation with injected faults.
//!
//! Every scenario runs under a `ManualClock` with a seeded `FaultSource`,
//! so the "latency" column is *simulated* milliseconds (hangs + retry
//! backoff) and the whole table replays byte-for-byte: this bench doubles
//! as a demonstration that the degradation ladder is deterministic.
//! Completeness columns come straight from `ExecStats`; the trailing
//! section dumps the `lake-obs` counters the same run produced.

use lake_core::retry::{Clock, ManualClock, RetryPolicy};
use lake_core::{Dataset, DatasetId, Table, Value};
use lake_obs::MetricsRegistry;
use lake_query::degrade::{BreakerConfig, DegradationConfig, QueryBudget};
use lake_query::fault::FaultSource;
use lake_query::federated::{FederatedEngine, SourceBinding};
use lake_query::parse_query;
use lake_store::{Polystore, StoreKind};
use std::collections::BTreeMap;
use std::sync::Arc;

const ROWS: usize = 5_000;

fn build_polystore() -> lake_core::Result<Polystore> {
    let ps = Polystore::new();
    let data: Vec<Vec<Value>> = (0..ROWS)
        .map(|i| vec![Value::Int(i as i64), Value::Int((i % 100) as i64)])
        .collect();
    let live = Table::from_rows("events_live", &["id", "bucket"], data.clone())?;
    ps.store(DatasetId(1), "events_live", Dataset::Table(live))?;
    let docs: Vec<_> = (0..200)
        .map(|i| {
            lake_core::Json::obj(vec![
                ("id", lake_core::Json::Num((ROWS + i) as f64)),
                ("bucket", lake_core::Json::Num((i % 100) as f64)),
            ])
        })
        .collect();
    ps.store(DatasetId(2), "events_docs", Dataset::Documents(docs))?;
    let mut archive = Table::from_rows("events_archive", &["id", "bucket"], data)?;
    archive.name = "events_archive".into();
    ps.store_in(DatasetId(3), "events_archive", Dataset::Table(archive), StoreKind::File)?;
    Ok(ps)
}

fn engine<'a>(
    ps: &'a Polystore,
    registry: &'a MetricsRegistry,
    clock: Arc<ManualClock>,
) -> FederatedEngine<'a> {
    let cols: BTreeMap<String, String> =
        [("id".to_string(), "id".to_string()), ("bucket".to_string(), "bucket".to_string())]
            .into();
    let mut fe = FederatedEngine::new(ps).with_obs(registry, clock as Arc<dyn Clock>);
    fe.register(
        "events",
        vec![
            SourceBinding {
                store: StoreKind::Relational,
                location: "events_live".into(),
                columns: cols.clone(),
            },
            SourceBinding {
                store: StoreKind::Document,
                location: "events_docs".into(),
                columns: cols.clone(),
            },
            SourceBinding {
                store: StoreKind::File,
                location: "tables/events_archive.pql".into(),
                columns: cols,
            },
        ],
    );
    fe
}

struct Scenario {
    name: &'static str,
    faults: fn() -> FaultSource,
}

const SCENARIOS: &[Scenario] = &[
    Scenario { name: "healthy", faults: FaultSource::new },
    Scenario {
        name: "slow-archive",
        faults: || FaultSource::new().slow("tables/events_archive.pql", 40),
    },
    Scenario { name: "docs-transient", faults: || FaultSource::new().transient("events_docs", 2) },
    Scenario { name: "docs-dead", faults: || FaultSource::new().dead("events_docs") },
    Scenario {
        name: "all-dead",
        faults: || {
            FaultSource::new()
                .dead("events_live")
                .dead("events_docs")
                .dead("tables/events_archive.pql")
        },
    },
];

fn main() -> lake_core::Result<()> {
    println!("E14 — degraded vs strict federated execution ({ROWS} rows × 3 sources)");
    println!("(sim ms = ManualClock time: injected hangs + retry backoff; deterministic)\n");
    println!(
        "{:<15} {:<9} {:>7} {:>8} {:>8}  completeness",
        "scenario", "mode", "rows", "partial", "sim ms"
    );

    let registry = MetricsRegistry::new();
    let q = parse_query("select id from events where bucket < 10")?;
    for sc in SCENARIOS {
        for strict in [false, true] {
            let ps = build_polystore()?;
            let clock = Arc::new(ManualClock::new());
            let cfg = if strict { DegradationConfig::strict() } else { DegradationConfig::degraded() };
            let fe = engine(&ps, &registry, Arc::clone(&clock))
                .with_degradation(
                    cfg.with_retry(RetryPolicy::new(3).with_base_delay_ms(5).with_jitter_seed(42))
                        .with_breaker(BreakerConfig::default())
                        .with_budget(QueryBudget::unlimited().with_per_source_ms(100)),
                )
                .with_faults((sc.faults)());
            let mode = if strict { "strict" } else { "degraded" };
            match fe.execute(&q, true) {
                Ok((t, stats)) => println!(
                    "{:<15} {:<9} {:>7} {:>8} {:>8}  {}",
                    sc.name,
                    mode,
                    t.num_rows(),
                    stats.completeness.is_partial,
                    clock.total_ms(),
                    stats.completeness.render(),
                ),
                Err(e) => println!(
                    "{:<15} {:<9} {:>7} {:>8} {:>8}  error: {e}",
                    sc.name, mode, "-", "-", clock.total_ms(),
                ),
            }
        }
    }

    let snap = registry.snapshot();
    println!("\nobs registry after all runs:");
    for name in
        ["lake_query_execute_total", "lake_query_partial_total", "lake_query_source_skipped_total"]
    {
        println!("  {:<35} {}", name, snap.counter_value(name));
    }
    for (id, v) in &snap.counters {
        if id.name == "lake_query_source_skipped_total" {
            let labels: Vec<String> =
                id.labels.iter().map(|(k, val)| format!("{k}={val}")).collect();
            println!("    {:<33} {}", labels.join(","), v);
        }
    }
    println!("\nshape check: degraded mode answers from the healthy sources and says what");
    println!("it skipped; strict mode preserves fail-fast. Same faults, same seeds → same table.");
    Ok(())
}
