//! Querying and storage claims: federated push-down (E9), lakehouse ACID
//! commits and data skipping (E10), graceful degradation under faults
//! (E14) and the §4.1 storage-format choices (A1).

use crate::{grid, Grid, Report};
use lake_core::retry::{Clock, ManualClock, RetryPolicy};
use lake_core::synth::{vocab, Zipf};
use lake_core::{Column, Dataset, DatasetId, Json, LakeError, Result, Row, Table, Value};
use lake_formats::compress::{compress, Codec};
use lake_formats::{columnar, rowenc};
use lake_house::{HouseMetrics, LakeTable};
use lake_obs::MetricsRegistry;
use lake_query::degrade::{DegradationConfig, QueryBudget};
use lake_query::BreakerConfig;
use lake_query::fault::FaultSource;
use lake_query::federated::{FederatedEngine, SourceBinding};
use lake_query::parse_query;
use lake_store::predicate::{CompareOp, Predicate};
use lake_store::{MemoryStore, Polystore, StoreKind};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Register `events` over `(store, location)` sources that each carry
/// `id` and `bucket`.
fn register(fe: &mut FederatedEngine<'_>, sources: &[(StoreKind, &str)]) {
    let columns: BTreeMap<String, String> = ["id", "bucket"].map(|c| (c.to_string(), c.to_string())).into();
    let bind = |&(store, at): &(StoreKind, &str)| SourceBinding {
        store,
        location: at.into(),
        columns: columns.clone(),
    };
    fe.register("events", sources.iter().map(bind).collect());
}

row! {
    /// One selectivity of E9.
    E9Row {
        selectivity: i64 = "selectivity" "{}%",
        moved_pushed: usize = "moved (push-down)" "{}",
        moved_pulled: usize = "moved (none)" "{}",
        answer_pushed: usize = "answer (push-down)" "{}",
        answer_pulled: usize = "answer (none)" "{}",
    }
}

/// A polystore holding `rows` events `(id, bucket)` in the relational
/// table `events_live` and again in the file `events_archive`, and `docs`
/// more as the documents `events_docs`.
fn events(rows: i64, docs: u32) -> Result<Polystore> {
    let ps = Polystore::new();
    let data: Vec<Row> = (0..rows).map(|i| vec![Value::Int(i), Value::Int(i % 100)]).collect();
    let table = |name| Table::from_rows(name, &["id", "bucket"], data.clone()).map(Dataset::Table);
    ps.store(DatasetId(1), "events_live", table("events_live")?)?;
    let doc = |i: u32| {
        let (id, bucket) = (f64::from(i) + rows as f64, f64::from(i % 100));
        Json::obj(vec![("id", Json::Num(id)), ("bucket", Json::Num(bucket))])
    };
    ps.store(DatasetId(2), "events_docs", Dataset::Documents((0..docs).map(doc).collect()))?;
    ps.store_in(DatasetId(3), "events_archive", table("events_archive")?, StoreKind::File)?;
    Ok(ps)
}

/// E9: `select id from events where bucket < s` over [`events`] of 20 000
/// rows in its relational and file sources, for s = 1, 10, 50, 100 %;
/// rows moved out of the sources with and without push-down.
pub fn e9() -> Result<Vec<E9Row>> {
    let ps = events(20_000, 0)?;
    let mut fe = FederatedEngine::new(&ps);
    let sources = [(StoreKind::Relational, "events_live"), (StoreKind::File, "tables/events_archive.pql")];
    register(&mut fe, &sources);
    let mut rows = Vec::new();
    for selectivity in [1, 10, 50, 100] {
        let q = parse_query(&format!("select id from events where bucket < {selectivity}"))?;
        let ((pushed, with), (pulled, without)) = (fe.execute(&q, true)?, fe.execute(&q, false)?);
        rows.push(E9Row {
            selectivity,
            moved_pushed: with.rows_moved,
            moved_pulled: without.rows_moved,
            answer_pushed: pushed.num_rows(),
            answer_pulled: pulled.num_rows(),
        });
    }
    Ok(rows)
}

row! {
    /// One writer count of E10, each writer appending 20 times.
    Commits {
        writers: usize = "writers" "{}",
        commits: usize = "commits" "{}",
        version: u64 = "latest version" "{}",
        timed: u64 = "commits timed" "{}",
    }
}

row! {
    /// One point lookup of E10.
    Lookup {
        files: usize = "files" "{}",
        read: usize = "files read" "{}",
        skipped: usize = "files skipped" "{}",
        hits: usize = "hits" "{}",
    }
}

row! {
    /// E10's reader pinned at one version while the table compacts.
    Pinned {
        before: usize = "pinned rows before compaction" "{}",
        after: usize = "pinned rows after" "{}",
    }
}

/// E10: lakehouse commits under concurrent writers, and data skipping.
#[derive(Debug, Clone)]
pub struct E10 {
    /// Concurrent writers on one table.
    pub commits: Vec<Commits>,
    /// A point lookup as a table grows.
    pub lookups: Vec<Lookup>,
    /// A reader pinned at the last version, across a compaction.
    pub pinned: Vec<Pinned>,
}

/// A batch of `n` rows whose ids start at `tag` × 10 000.
fn batch(tag: i64, n: i64) -> Result<Table> {
    let rows: Vec<Row> = (0..n).map(|i| vec![Value::Int(tag * 10_000 + i), Value::Int(tag)]).collect();
    Table::from_rows("b", &["id", "tag"], rows)
}

/// E10: 1, 2, 4 and 8 writers appending 20 times each to one table, all
/// timed into one commit-latency histogram; a point lookup as a second
/// table grows to 4, 16 and 64 files; a compaction under a reader pinned
/// at the last version.
pub fn e10() -> Result<E10> {
    let mut commits = Vec::new();
    for writers in [1usize, 2, 4, 8] {
        let registry = MetricsRegistry::new();
        let obs = HouseMetrics::register(&registry);
        let store = MemoryStore::new();
        LakeTable::open(&store, "t").append(&batch(0, 10)?)?;
        std::thread::scope(|s| {
            let writer = |w: usize| {
                let t = LakeTable::open(&store, "t").with_obs(obs.clone());
                move || (0..20).try_for_each(|i| t.append(&batch((w * 100 + i) as i64 + 1, 10)?).map(drop))
            };
            let handles: Vec<_> = (0..writers).map(|w| s.spawn(writer(w))).collect();
            handles
                .into_iter()
                .try_for_each(|h| h.join().map_err(|_| LakeError::invalid("writer panicked"))?)
        })?;
        let timed = registry.snapshot().histogram("lake_house_commit_seconds").map_or(0, |h| h.count);
        let version = LakeTable::open(&store, "t").log().latest_version();
        commits.push(Commits { writers, commits: writers * 20, version, timed });
    }
    let store = MemoryStore::new();
    let t = LakeTable::open(&store, "skip");
    let mut lookups = Vec::new();
    for files in [4usize, 16, 64] {
        while t.file_count()? < files {
            t.append(&batch(t.file_count()? as i64, 50)?)?;
        }
        let (hits, stats) =
            t.scan(&[Predicate::new("id", CompareOp::Eq, 10_000 * (files as i64 / 2) + 7)])?;
        lookups.push(Lookup {
            files,
            read: stats.files_read,
            skipped: stats.files_skipped,
            hits: hits.len(),
        });
    }
    let pinned = t.log().latest_version();
    let before = t.scan_at(pinned, &[])?.0.len();
    t.compact()?;
    Ok(E10 { commits, lookups, pinned: vec![Pinned { before, after: t.scan_at(pinned, &[])?.0.len() }] })
}

impl Report for E10 {
    fn grids(&self) -> Vec<Grid> {
        vec![grid(&self.commits), grid(&self.lookups), grid(&self.pinned)]
    }
}

row! {
    /// One run of E14: a fault scenario in one mode.
    E14Row {
        scenario: &'static str = "scenario" "{}",
        mode: &'static str = "mode" "{}",
        rows: String = "rows" "{}",
        partial: String = "partial" "{}",
        sim_ms: u64 = "sim ms" "{}",
        completeness: String = "completeness" "{}",
    }
}

row! {
    /// A query counter of E14's shared metrics registry.
    Counter {
        name: String = "counter" "{}",
        value: u64 = "value" "{}",
    }
}

/// E14: degraded against strict federated execution under faults.
#[derive(Debug, Clone)]
pub struct E14 {
    /// Each scenario degraded, then strict.
    pub runs: Vec<E14Row>,
    /// Query counters after every run.
    pub counters: Vec<Counter>,
}

/// The seeded faults of an E14 scenario: none, a slow archive, a document
/// store failing twice, a dead document store, every source dead.
fn faults(scenario: &str) -> FaultSource {
    let (f, archive) = (FaultSource::new(), "tables/events_archive.pql");
    match scenario {
        "slow-archive" => f.slow(archive, 40),
        "docs-transient" => f.transient("events_docs", 2),
        "docs-dead" => f.dead("events_docs"),
        "all-dead" => f.dead("events_live").dead("events_docs").dead(archive),
        _ => f,
    }
}

/// E14: `select id from events where bucket < 10` over [`events`] of 5 000
/// rows and 200 documents, per scenario degraded then strict, on a fresh
/// `ManualClock` with retry jitter seeded; "sim ms" is its virtual time
/// spent in hangs and backoff.
pub fn e14() -> Result<E14> {
    let registry = MetricsRegistry::new();
    let q = parse_query("select id from events where bucket < 10")?;
    let sources = [
        (StoreKind::Relational, "events_live"),
        (StoreKind::Document, "events_docs"),
        (StoreKind::File, "tables/events_archive.pql"),
    ];
    let mut runs = Vec::new();
    for scenario in ["healthy", "slow-archive", "docs-transient", "docs-dead", "all-dead"] {
        for (mode, cfg) in
            [("degraded", DegradationConfig::degraded()), ("strict", DegradationConfig::strict())]
        {
            let ps = events(5_000, 200)?;
            let clock = Arc::new(ManualClock::new());
            let cfg = cfg
                .with_retry(RetryPolicy::new(3).with_base_delay_ms(5).with_jitter_seed(42))
                .with_breaker(BreakerConfig::default())
                .with_budget(QueryBudget::unlimited().with_per_source_ms(100));
            let mut fe = FederatedEngine::new(&ps)
                .with_obs(&registry, Arc::clone(&clock) as Arc<dyn Clock>)
                .with_degradation(cfg)
                .with_faults(faults(scenario));
            register(&mut fe, &sources);
            let (rows, partial, completeness) = match fe.execute(&q, true) {
                Ok((t, stats)) => (
                    t.num_rows().to_string(),
                    stats.completeness.is_partial.to_string(),
                    stats.completeness.render(),
                ),
                Err(e) => ("-".into(), "-".into(), format!("error: {e}")),
            };
            runs.push(E14Row { scenario, mode, rows, partial, sim_ms: clock.total_ms(), completeness });
        }
    }
    let snap = registry.snapshot();
    let totals = ["lake_query_execute_total", "lake_query_partial_total", "lake_query_source_skipped_total"];
    let mut counters: Vec<Counter> =
        totals.iter().map(|&n| Counter { name: n.to_string(), value: snap.counter_value(n) }).collect();
    for (id, value) in snap.counters.iter().filter(|(id, _)| id.name == totals[2]) {
        let labels: Vec<String> = id.labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
        counters.push(Counter { name: format!("{}{{{}}}", id.name, labels.join(",")), value: *value });
    }
    Ok(E14 { runs, counters })
}

impl Report for E14 {
    fn grids(&self) -> Vec<Grid> {
        vec![grid(&self.runs), grid(&self.counters)]
    }
}

row! {
    /// Encoded sizes of one value profile in A1.
    A1Row {
        profile: &'static str = "profile" "{}",
        columnar: usize = "columnar B" "{}",
        row: usize = "row B" "{}",
        row_over_columnar: f64 = "row / columnar" "{:.2}×",
        rle: usize = "RLE B" "{}",
        lz77: usize = "LZ77 B" "{}",
        roundtrips: bool = "round-trips" "{}",
    }
}

/// A1: a key column beside 20 000 values of each profile (repetitive
/// categorical, unique ids, numeric), encoded columnar and row-wise, the
/// columnar buffer also compressed with each codec.
pub fn a1() -> Result<Vec<A1Row>> {
    let rows = 20_000;
    let mut rng = StdRng::seed_from_u64(1);
    let mut out = Vec::new();
    for profile in ["categorical", "unique_ids", "numeric"] {
        let values: Vec<Value> = match profile {
            "categorical" => {
                let zipf = Zipf::new(12, 1.1);
                (0..rows).map(|_| Value::str(vocab::COLORS[zipf.sample(&mut rng)])).collect()
            }
            "unique_ids" => {
                (0..rows).map(|i| Value::str(format!("id-{i:08}-{}", rng.random::<u32>()))).collect()
            }
            _ => (0..rows).map(|_| Value::Float(rng.random())).collect(),
        };
        let key = Column::new("k", (0..rows).map(|i| Value::Int(i as i64)).collect());
        let t = Table::from_columns(profile, vec![key, Column::new("v", values)])?;
        let (col, row) = (columnar::encode(&t), rowenc::encode(&t)?);
        out.push(A1Row {
            profile,
            columnar: col.len(),
            row: row.len(),
            row_over_columnar: row.len() as f64 / col.len() as f64,
            rle: compress(&col, Codec::Rle).len(),
            lz77: compress(&col, Codec::Lz77).len(),
            roundtrips: columnar::decode(&col)? == t && rowenc::decode(&row)? == t,
        });
    }
    Ok(out)
}
