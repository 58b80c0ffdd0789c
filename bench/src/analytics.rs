//! `analytics`: the query and lakehouse path, in process — no server, no
//! discovery. Federated scans and joins over a relational and a columnar
//! file source, ACID appends beside point scans on a `LakeTable` in a
//! local directory, and full-text search.

use crate::pass::{self, Pass};
use crate::report::Report;
use crate::stats::{median, tail_percentile, Timings};
use crate::trace::Tracer;
use crate::RunConfig;
use lake_core::{Dataset, DatasetId, LakeError, Result, Table, Value};
use lake_formats::columnar;
use lake_house::LakeTable;
use lake_query::ast::{parse_join_query, parse_query};
use lake_query::federated::{FederatedEngine, SourceBinding};
use lake_query::fulltext::FullTextIndex;
use lake_store::predicate::{CompareOp, Predicate};
use lake_store::{LocalDirStore, Polystore, StoreKind};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Rows of `events` in each of its two sources.
const EVENT_ROWS: usize = 20_000;
const BUCKETS: usize = 100;
const SELECTIVE_SCANS: usize = 150;
const BROAD_SCANS: usize = 50;
const JOINS: usize = 100;
const COMMITS: usize = 250;
const COMMIT_ROWS: usize = 500;
/// A point scan follows every tenth commit.
const SCAN_EVERY: usize = 10;
const DOCS: usize = 400;
const SEARCHES: usize = 250;

const WORDS: [&str; 24] = [
    "archive", "billing", "catalog", "cluster", "customer", "delivery", "export", "forecast", "invoice",
    "ledger", "lineage", "metric", "notebook", "partner", "pipeline", "product", "quality", "refund",
    "region", "schema", "sensor", "shipment", "ticket", "vendor",
];

struct Inputs {
    store: Polystore,
    house: LocalDirStore,
    house_dir: PathBuf,
    docs: Vec<Dataset>,
    /// Terms to search for, all present in the documents.
    terms: Vec<String>,
    events: Table,
    seed: u64,
    passes: usize,
}

#[derive(Default)]
struct Measured {
    parse: Timings,
    scan_selective: Timings,
    scan_broad: Timings,
    join: Timings,
    append: Timings,
    point_scan: Timings,
    compact: Timings,
    search: Timings,
    recover: Timings,
    index: Timings,
    ready_ms: Vec<f64>,
    rows_moved: u64,
    rows_returned: u64,
    files_skipped: u64,
    files_seen: u64,
    /// Append latencies of the last pass in commit order.
    append_order: Vec<u64>,
    wrong_rows: u64,
    wrong_hits: u64,
}

/// The `events` rows of a seed: `id`, `bucket = i mod 100` (so scan and
/// join row counts have closed forms) and a seeded payload.
pub fn events_table(seed: u64, name: &str) -> Result<Table> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xe7e7);
    let rows: Vec<Vec<Value>> = (0..EVENT_ROWS)
        .map(|i| {
            vec![
                Value::Int(i as i64),
                Value::Int((i % BUCKETS) as i64),
                Value::str(format!(
                    "{}-{}",
                    WORDS[rng.random_range(0..WORDS.len())],
                    rng.random_range(0..100_000u32)
                )),
            ]
        })
        .collect();
    Table::from_rows(name, &["id", "bucket", "payload"], rows)
}

fn set_up(cfg: &RunConfig, rep: usize) -> Result<Inputs> {
    let events = events_table(cfg.seed, "events_live")?;
    let store = Polystore::new();
    store.store(DatasetId(1), "events_live", Dataset::Table(events.clone()))?;
    let mut archive = events.clone();
    archive.name = "events_archive".into();
    store.store_in(DatasetId(2), "events_archive", Dataset::Table(archive), StoreKind::File)?;
    let buckets = Table::from_rows(
        "buckets",
        &["bucket", "label"],
        (0..BUCKETS).map(|b| vec![Value::Int(b as i64), Value::str(format!("label{b}"))]).collect(),
    )?;
    store.store(DatasetId(3), "buckets", Dataset::Table(buckets))?;

    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xd0c5);
    let docs = (0..DOCS)
        .map(|_| {
            let text: Vec<&str> = (0..60).map(|_| WORDS[rng.random_range(0..WORDS.len())]).collect();
            Dataset::Text(text.join(" "))
        })
        .collect();
    let terms = (0..SEARCHES)
        .map(|_| {
            format!("{} {}", WORDS[rng.random_range(0..WORDS.len())], WORDS[rng.random_range(0..WORDS.len())])
        })
        .collect();

    let house_dir = cfg.work.join(format!("house-{rep}"));
    let house = LocalDirStore::open(&house_dir)?;
    Ok(Inputs { store, house, house_dir, docs, terms, events, seed: cfg.seed, passes: 0 })
}

fn engine(store: &Polystore) -> FederatedEngine<'_> {
    let same = |cols: &[&str]| -> BTreeMap<String, String> {
        cols.iter().map(|c| (c.to_string(), c.to_string())).collect()
    };
    let events = same(&["id", "bucket", "payload"]);
    let mut fe = FederatedEngine::new(store);
    fe.register(
        "events",
        vec![
            SourceBinding {
                store: StoreKind::Relational,
                location: "events_live".into(),
                columns: events.clone(),
            },
            SourceBinding {
                store: StoreKind::File,
                location: "tables/events_archive.pql".into(),
                columns: events,
            },
        ],
    );
    fe.register(
        "buckets",
        vec![SourceBinding {
            store: StoreKind::Relational,
            location: "buckets".into(),
            columns: same(&["bucket", "label"]),
        }],
    );
    fe
}

fn commit_batch(seed: u64, commit: usize) -> Result<Table> {
    let base = (commit * COMMIT_ROWS) as i64;
    let rows = (0..COMMIT_ROWS as i64)
        .map(|i| vec![Value::Int(base + i), Value::Int((seed as i64 + base + i) % 97)])
        .collect();
    Table::from_rows("batch", &["id", "tag"], rows)
}

fn one_pass(inputs: &mut Inputs, m: &mut Measured, p: &mut Pass<'_>) -> Result<u64> {
    // Cold open: from what the previous pass left on disk and the stored
    // sources to the first answerable query. (A set-up's warm-up pass has
    // no previous table; every timed pass has one.)
    let previous = format!("t{}", inputs.passes);
    inputs.passes += 1;
    let (fe, mut fulltext) = p.stage("analytics.open", |s| -> Result<_> {
        if inputs.passes > 1 {
            let table = LakeTable::open(&inputs.house, &previous);
            let recovered = s.op("house.log.recover", &mut m.recover, || table.log().recover())?;
            let (rows, _) = table.scan(&[Predicate::new("id", CompareOp::Eq, 7i64)])?;
            m.wrong_rows += u64::from(rows.len() != 1 || !recovered.is_clean());
        }
        let fulltext = s.op("query.fulltext.index", &mut m.index, || {
            let mut index = FullTextIndex::new();
            for (d, doc) in inputs.docs.iter().enumerate() {
                index.index(DatasetId(1000 + d as u64), doc);
            }
            index.refit();
            index
        });
        Ok((engine(&inputs.store), fulltext))
    })?;
    m.ready_ms.push(p.elapsed_ns() as f64 / 1e6);
    // Both sources hold every event, so a filter on `bucket < b` returns
    // 2 · rows · b / 100 rows, and the join on the 100-row dimension the same.
    let expect = |b: usize| 2 * EVENT_ROWS * b / BUCKETS;

    for (stage, op, text, count, into, rows) in [
        (
            "query.federated.scan_selective",
            "query.federated.scan",
            "select id from events where bucket < 1",
            SELECTIVE_SCANS,
            &mut m.scan_selective,
            expect(1),
        ),
        (
            "query.federated.scan_broad",
            "query.federated.scan",
            "select id from events where bucket < 50",
            BROAD_SCANS,
            &mut m.scan_broad,
            expect(50),
        ),
    ] {
        p.stage(stage, |s| -> Result<()> {
            for _ in 0..count {
                let q = s.op("query.ast.parse", &mut m.parse, || parse_query(text))?;
                let (out, stats) = s.op(op, into, || fe.execute(&q, true))?;
                m.rows_moved += stats.rows_moved as u64;
                m.rows_returned += out.num_rows() as u64;
                m.wrong_rows += u64::from(out.num_rows() != rows);
            }
            Ok(())
        })?;
    }
    p.stage("query.federated.joins", |s| -> Result<()> {
        for _ in 0..JOINS {
            let text = "select id, label from events join buckets on bucket = bucket where bucket < 10";
            let q = s.op("query.ast.parse", &mut m.parse, || parse_join_query(text))?;
            let (out, _) = s.op("query.federated.join", &mut m.join, || fe.execute_join(&q, true))?;
            m.wrong_rows += u64::from(out.num_rows() != expect(10));
        }
        Ok(())
    })?;
    drop(fe);

    // A fresh table per pass: commit cost depends on the log's length, so
    // every pass must start from an empty log to be comparable.
    let prefix = format!("t{}", inputs.passes);
    let table = LakeTable::open(&inputs.house, &prefix);
    m.append_order.clear();
    p.stage("house.table.commits", |s| -> Result<()> {
        for commit in 0..COMMITS {
            let batch = commit_batch(inputs.seed, commit)?;
            s.op("house.table.append", &mut m.append, || table.append(&batch))?;
            m.append_order.extend(m.append.raw().last());
            if (commit + 1) % SCAN_EVERY == 0 {
                let id = (commit * COMMIT_ROWS) as i64 + 7;
                let (rows, stats) = s.op("house.table.scan", &mut m.point_scan, || {
                    table.scan(&[Predicate::new("id", CompareOp::Eq, id)])
                })?;
                m.wrong_rows += u64::from(rows.len() != 1);
                m.files_skipped += (stats.files_skipped + stats.files_bloom_pruned) as u64;
                m.files_seen += (stats.files_skipped + stats.files_bloom_pruned + stats.files_read) as u64;
            }
        }
        s.op("house.table.compact", &mut m.compact, || table.compact())?;
        let (rows, _) = table.scan(&[])?;
        m.wrong_rows += u64::from(rows.len() != COMMITS * COMMIT_ROWS);
        Ok(())
    })?;
    p.stage("query.fulltext.searches", |s| {
        for term in &inputs.terms {
            let hits = s.op("query.fulltext.search", &mut m.search, || fulltext.search(term, 5));
            m.wrong_hits += u64::from(hits.is_empty());
        }
    });
    p.stage("harness.cleanup", |_| {
        let _ = std::fs::remove_dir_all(inputs.house_dir.join(&previous));
    });
    let scans = (COMMITS / SCAN_EVERY) as u64;
    Ok((SELECTIVE_SCANS + BROAD_SCANS + JOINS + COMMITS + 1 + SEARCHES) as u64 + scans)
}

/// The kernels under the stages, each alone (traced run only).
fn layers(inputs: &Inputs, report: &mut Report) -> Result<()> {
    let t = Instant::now();
    let bytes = columnar::encode(&inputs.events);
    report.set("formats.columnar.encode_ms", t.elapsed().as_secs_f64() * 1e3, 1);
    let (mut decode, mut scan) = (Timings::default(), Timings::default());
    for _ in 0..20 {
        let t = Instant::now();
        std::hint::black_box(columnar::decode(&bytes)?);
        decode.push(t.elapsed());
        let t = Instant::now();
        let hit = inputs.store.relational.scan(
            "events_live",
            &[Predicate::new("bucket", CompareOp::Lt, 1i64)],
            Some(&["id"]),
        )?;
        scan.push(t.elapsed());
        std::hint::black_box(hit);
    }
    report.set("formats.columnar.decode_ms_p50", decode.p50_ms(), decode.n());
    report.set("store.relational.scan_ms_p50", scan.p50_ms(), scan.n());
    Ok(())
}

/// Run the workload and fill `report`.
pub fn run(cfg: &RunConfig, report: &mut Report) -> Result<Tracer> {
    let (inputs, mut m, _, tracer): (_, Measured, _, _) =
        pass::drive(cfg, "analytics.pass", report, |rep| set_up(cfg, rep), one_pass)?;
    report.check(m.wrong_rows == 0, "row_count_off_closed_form");
    report.check(m.wrong_hits == 0, "search_without_hits");

    report.set("ready_ms", median(&m.ready_ms), m.ready_ms.len());
    report.set("write_p50_ms", m.append.p50_ms(), m.append.n());
    report.set("read_p50_ms", m.scan_selective.p50_ms(), m.scan_selective.n());

    // First and last hundred commits of the last pass.
    let (first, last) = (
        &m.append_order[..100.min(m.append_order.len())],
        &m.append_order[m.append_order.len().saturating_sub(100)..],
    );
    let mid = |ns: &[u64]| median(&ns.iter().map(|&n| n as f64).collect::<Vec<_>>());
    report.set("house.table.append_last_over_first", mid(last) / mid(first).max(1.0), last.len());
    report.set("query.ast.parse_us_p50", m.parse.p50_us(), m.parse.n());
    report.set("query.federated.scan_sel_ms_p50", m.scan_selective.p50_ms(), m.scan_selective.n());
    report.set("query.federated.scan_broad_ms_p50", m.scan_broad.p50_ms(), m.scan_broad.n());
    report.set(
        "query.federated.rows_moved_per_result",
        m.rows_moved as f64 / m.rows_returned.max(1) as f64,
        1,
    );
    report.set("query.federated.join_ms_p50", m.join.p50_ms(), m.join.n());
    report.set("query.fulltext.index_ms", m.index.p50_ms(), m.index.n());
    report.set("house.log.recover_ms", m.recover.p50_ms(), m.recover.n());
    report.set("query.fulltext.search_us_p50", m.search.p50_us(), m.search.n());
    report.set("house.table.append_ms_p50", m.append.p50_ms(), m.append.n());
    if let Some(q) = tail_percentile(m.append.n()) {
        report.set("house.table.append_ms_p99", m.append.percentile_ms(q), m.append.n());
    }
    report.set("house.table.scan_ms_p50", m.point_scan.p50_ms(), m.point_scan.n());
    report.set(
        "house.table.files_skipped_ratio",
        m.files_skipped as f64 / m.files_seen.max(1) as f64,
        m.point_scan.n(),
    );
    report.set("house.table.compact_ms", m.compact.p50_ms(), m.compact.n());
    if cfg.traced {
        layers(&inputs, report)?;
    }
    std::fs::remove_dir_all(&inputs.house_dir)
        .map_err(|e| LakeError::Io(format!("remove house dir: {e}")))?;
    Ok(tracer)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_are_a_pure_function_of_the_seed() {
        let a = events_table(42, "e").unwrap();
        assert_eq!(a, events_table(42, "e").unwrap());
        assert_ne!(a, events_table(7, "e").unwrap());
        assert_eq!(a.num_rows(), EVENT_ROWS);
    }
}
