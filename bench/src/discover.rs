//! `discover`: the maintenance and exploration tiers, in process, no
//! server. One pass takes the seeded lake from CSV bytes on disk to
//! built discovery indexes, answers top-k queries on them, and absorbs
//! stream flushes into the incrementally maintained indexes.

use crate::pass::{self, Pass, PassTimes};
use crate::report::Report;
use crate::stats::{median, Timings};
use crate::trace::Tracer;
use crate::RunConfig;
use lake_core::batch::column_stats;
use lake_core::synth::{generate_lake, GroundTruth, LakeGenConfig};
use lake_core::{LakeError, Parallelism, Result, Table, Value};
use lake_discovery::aurum::Aurum;
use lake_discovery::corpus::SIGNATURE_LEN;
use lake_discovery::d3l::D3l;
use lake_discovery::josie::Josie;
use lake_discovery::{DiscoverySystem, IncrementalDiscovery, TableCorpus};
use lake_formats::csv::{self, CsvOptions};
use lake_index::inverted::InvertedIndex;
use lake_index::lsh::LshIndex;
use lake_ingest::stream::StreamIngestor;
use lake_store::durable::fnv1a64;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::path::PathBuf;
use std::time::Instant;

/// Workers for every fan-out: the box has two cores.
const WORKERS: usize = 2;
const TOP_K: usize = 5;
/// D3L answers a query in tens of milliseconds where the index-backed
/// systems take microseconds, so it is asked about fewer tables.
const D3L_QUERIES: usize = 8;
const FLUSHES: usize = 20;
const FLUSH_ROWS: usize = 5_000;
/// Floors under the first measured precision@5 (0.6 is the ceiling: a
/// table has three relatives and five answers are returned).
const PRECISION_FLOOR: [(&str, f64); 3] = [("aurum", 0.30), ("josie", 0.30), ("d3l", 0.30)];

/// The lake of a seed: 8 groups × 4 related tables + 4 noise tables, 36
/// tables and 140 columns, ≈ 160 k rows and ≈ 5 MB of CSV.
pub fn lake_config(seed: u64) -> LakeGenConfig {
    LakeGenConfig {
        seed,
        groups: 8,
        tables_per_group: 4,
        noise_tables: 4,
        rows: (4_000, 5_000),
        key_pool: 2_000,
        ..LakeGenConfig::default()
    }
}

/// The lake's tables rendered as CSV, `(table name, text)`.
pub fn lake_csv(seed: u64) -> (Vec<(String, String)>, GroundTruth, usize) {
    let lake = generate_lake(&lake_config(seed));
    let rows = lake.tables.iter().map(Table::num_rows).sum();
    let files = lake.tables.iter().map(|t| (t.name.clone(), csv::write_table(t, ','))).collect();
    (files, lake.truth, rows)
}

struct Inputs {
    files: Vec<(String, PathBuf)>,
    truth: GroundTruth,
    rows: usize,
    csv_bytes: usize,
    seed: u64,
}

/// What the passes measured beyond their stage times.
#[derive(Default)]
struct Measured {
    aurum_topk: Timings,
    josie_topk: Timings,
    d3l_topk: Timings,
    absorb: Timings,
    push_rows_per_s: Vec<f64>,
    ready_ms: Vec<f64>,
    /// One hash of every top-k answer per timed pass: they must all be equal.
    answer_hashes: Vec<u64>,
    precision: [Vec<f64>; 3],
    wrong_rows: u64,
    wrong_absorbs: u64,
}

fn set_up(cfg: &RunConfig, rep: usize) -> Result<Inputs> {
    let (csvs, truth, rows) = lake_csv(cfg.seed);
    let dir = cfg.work.join(format!("lake-{rep}"));
    std::fs::create_dir_all(&dir).map_err(|e| LakeError::Io(format!("create {}: {e}", dir.display())))?;
    let mut files = Vec::with_capacity(csvs.len());
    let mut csv_bytes = 0;
    for (name, text) in csvs {
        let path = dir.join(format!("{name}.csv"));
        std::fs::write(&path, &text).map_err(|e| LakeError::Io(format!("write {}: {e}", path.display())))?;
        csv_bytes += text.len();
        files.push((name, path));
    }
    Ok(Inputs { files, truth, rows, csv_bytes, seed: cfg.seed })
}

/// Useful answers ÷ returned, over the query tables that have relatives.
fn precision(corpus: &TableCorpus, truth: &GroundTruth, answers: &[(usize, Vec<(usize, f64)>)]) -> f64 {
    let name = |t: usize| corpus.tables().get(t).map_or("", |t| t.name.as_str());
    let (mut useful, mut returned) = (0usize, 0usize);
    for (q, top) in answers.iter().filter(|(q, _)| !name(*q).starts_with("noise")) {
        returned += top.len();
        useful += top.iter().filter(|(t, _)| truth.tables_related(name(*q), name(*t))).count();
    }
    useful as f64 / returned.max(1) as f64
}

fn hash_answers(into: &mut Vec<u8>, answers: &[(usize, Vec<(usize, f64)>)]) {
    for (q, top) in answers {
        into.extend_from_slice(&(*q as u64).to_le_bytes());
        for (t, score) in top {
            into.extend_from_slice(&(*t as u64).to_le_bytes());
            into.extend_from_slice(&score.to_bits().to_le_bytes());
        }
    }
}

fn one_pass(inputs: &mut Inputs, m: &mut Measured, p: &mut Pass<'_>) -> Result<u64> {
    let par = Parallelism::fixed(WORKERS);
    let texts: Vec<(String, String)> = p.stage("fs.read_csv", |_| {
        inputs
            .files
            .iter()
            .map(|(name, path)| {
                std::fs::read_to_string(path)
                    .map(|text| (name.clone(), text))
                    .map_err(|e| LakeError::Io(format!("read {}: {e}", path.display())))
            })
            .collect::<Result<_>>()
    })?;
    let tables: Vec<Table> = p.stage("formats.csv.parse", |_| {
        texts
            .iter()
            .map(|(name, text)| csv::parse_table(name, text, CsvOptions::default()))
            .collect::<Result<_>>()
    })?;
    drop(texts);
    if tables.iter().map(Table::num_rows).sum::<usize>() != inputs.rows {
        m.wrong_rows += 1;
    }
    // IncrementalDiscovery profiles its own copy of the lake.
    let copy = p.stage("harness.clone_tables", |_| tables.clone());
    let corpus = p.stage("discovery.corpus.profile", |_| TableCorpus::with_parallelism(tables, par));
    let (mut aurum, mut josie) = (Aurum::default(), Josie::default());
    (aurum.par, josie.par) = (par, par);
    p.stage("discovery.aurum.build", |_| aurum.build(&corpus));
    p.stage("discovery.josie.build", |_| josie.build(&corpus));
    let mut d3l = D3l::with_parallelism(par);
    p.stage("discovery.d3l.build", |_| d3l.build(&corpus));
    // Every index is built: the first query could be answered now.
    m.ready_ms.push(p.elapsed_ns() as f64 / 1e6);
    let mut inc =
        p.stage("discovery.incremental.build", |_| IncrementalDiscovery::with_parallelism(copy, par));

    let all: Vec<usize> = (0..corpus.len()).collect();
    let some: Vec<usize> =
        (0..corpus.len()).step_by((corpus.len() / D3L_QUERIES).max(1)).take(D3L_QUERIES).collect();
    let mut answered = Vec::with_capacity(3);
    let mut ask = |stage, query, system: &dyn DiscoverySystem, tables: &[usize], timings: &mut Timings| {
        let answers: Vec<(usize, Vec<(usize, f64)>)> = p.stage(stage, |s| {
            tables
                .iter()
                .map(|&q| (q, s.op(query, timings, || system.top_k_related(&corpus, q, TOP_K))))
                .collect()
        });
        answered.push(answers);
    };
    ask("discovery.aurum.topk", "discovery.aurum.topk_query", &aurum, &all, &mut m.aurum_topk);
    ask("discovery.josie.topk", "discovery.josie.topk_query", &josie, &all, &mut m.josie_topk);
    ask("discovery.d3l.topk", "discovery.d3l.topk_query", &d3l, &some, &mut m.d3l_topk);
    let queries: usize = answered.iter().map(Vec::len).sum();
    p.stage("harness.check_answers", |_| {
        let mut hashed = Vec::new();
        for (i, answers) in answered.iter().enumerate() {
            hash_answers(&mut hashed, answers);
            m.precision[i].push(precision(&corpus, &inputs.truth, answers));
        }
        m.answer_hashes.push(fnv1a64(&hashed));
    });

    // Stream flushes, absorbed as deltas into the maintained indexes.
    let mut rng = StdRng::seed_from_u64(inputs.seed ^ 0x5eed);
    let mut ingestor = StreamIngestor::new(&["event_id", "city", "qty"], 4_096, inputs.seed)?;
    let cities = ["delft", "paris", "oslo", "berlin", "porto", "turin", "gdansk", "malmo"];
    let mut push = Timings::default();
    p.stage("ingest.absorb", |s| -> Result<()> {
        for flush in 0..FLUSHES {
            let rows: Vec<Vec<Value>> = (0..FLUSH_ROWS)
                .map(|i| {
                    vec![
                        Value::Int((flush * FLUSH_ROWS + i) as i64),
                        Value::str(cities[rng.random_range(0..cities.len())]),
                        Value::Int(rng.random_range(0..50i64)),
                    ]
                })
                .collect();
            s.op("ingest.stream.push", &mut push, || {
                rows.into_iter().try_for_each(|row| ingestor.push(row))
            })?;
            s.op("discovery.incremental.absorb", &mut m.absorb, || {
                inc.absorb_flush(&ingestor, "stream_events")
            })?;
        }
        Ok(())
    })?;
    m.push_rows_per_s.push((FLUSHES * FLUSH_ROWS) as f64 / push.sum_s().max(1e-9));
    if inc.flushes_absorbed != FLUSHES || inc.corpus().len() != corpus.len() + 1 {
        m.wrong_absorbs += 1;
    }
    // Freeing the indexes is part of what a pass costs.
    p.stage("harness.drop", |_| drop((corpus, aurum, josie, d3l, inc, ingestor, answered)));
    // Operations of a pass: files parsed, indexes built, queries, flushes.
    Ok((inputs.files.len() + 4 + queries + FLUSHES) as u64)
}

/// The kernels under the stages, each alone (traced run only).
fn layers(inputs: &Inputs, report: &mut Report) -> Result<()> {
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    let tables: Vec<Table> = inputs
        .files
        .iter()
        .map(|(name, path)| {
            let text = std::fs::read_to_string(path)
                .map_err(|e| LakeError::Io(format!("read {}: {e}", path.display())))?;
            csv::parse_table(name, &text, CsvOptions::default())
        })
        .collect::<Result<_>>()?;
    let t = Instant::now();
    let corpus = TableCorpus::with_parallelism(tables.clone(), Parallelism::fixed(1));
    report.set("discovery.corpus.profile_1w_ms", ms(t), 1);
    let columns = tables.iter().flat_map(Table::columns).count();
    let t = Instant::now();
    for col in tables.iter().flat_map(Table::columns) {
        std::hint::black_box(column_stats(&col.values));
    }
    report.set("core.batch.column_stats_ms", ms(t), columns);
    let profiles = corpus.profiles();
    let t = Instant::now();
    let signatures: Vec<_> =
        profiles.iter().map(|p| corpus.hasher().signature(p.domain.iter().map(String::as_str))).collect();
    report.set("index.minhash.signature_ms", ms(t), profiles.len());
    let t = Instant::now();
    let mut lsh = LshIndex::new(SIGNATURE_LEN / 4, 4);
    for (i, sig) in signatures.into_iter().enumerate().filter(|(_, s)| !s.is_empty_domain()) {
        lsh.insert(i, sig);
    }
    report.set("index.lsh.insert_ms", ms(t), lsh.len());
    let t = Instant::now();
    let mut inverted = InvertedIndex::new();
    for (i, p) in profiles.iter().enumerate() {
        inverted.insert_sorted(i, p.domain.iter().cloned());
    }
    report.set("index.inverted.build_ms", ms(t), inverted.num_sets());
    Ok(())
}

/// Run the workload and fill `report`.
pub fn run(cfg: &RunConfig, report: &mut Report) -> Result<Tracer> {
    let (inputs, mut m, passes, tracer): (_, Measured, _, _) =
        pass::drive(cfg, "discover.pass", report, |rep| set_up(cfg, rep), one_pass)?;
    let first = m.answer_hashes.first().copied();
    let changed = m.answer_hashes.iter().filter(|h| Some(**h) != first).count();
    report.check(changed == 0, "topk_answers_changed");
    report.check(m.wrong_rows == 0, "parsed_rows_mismatch");
    report.check(m.wrong_absorbs == 0, "absorb_count_mismatch");
    let precision: Vec<f64> = m.precision.iter().map(|v| median(v)).collect();
    for ((system, floor), got) in PRECISION_FLOOR.iter().zip(&precision) {
        report.check(got >= floor, &format!("{system}_precision_below_floor"));
    }

    report.set("ready_ms", median(&m.ready_ms), m.ready_ms.len());
    report.set("write_p50_ms", m.absorb.p50_ms(), m.absorb.n());
    report.set("read_p50_ms", m.josie_topk.p50_ms(), m.josie_topk.n());

    report_stages(&passes, report, inputs.csv_bytes);
    report.set("discovery.aurum.topk_us_p50", m.aurum_topk.p50_us(), m.aurum_topk.n());
    report.set("discovery.josie.topk_ms_p50", m.josie_topk.p50_ms(), m.josie_topk.n());
    report.set("discovery.d3l.topk_ms_p50", m.d3l_topk.p50_ms(), m.d3l_topk.n());
    report.set("discovery.incremental.absorb_ms_p50", m.absorb.p50_ms(), m.absorb.n());
    report.set("discovery.incremental.absorb_ms_max", m.absorb.max_ms(), m.absorb.n());
    report.set("ingest.stream.push_rows_per_s", median(&m.push_rows_per_s), m.push_rows_per_s.len());
    for (name, got) in ["aurum", "josie", "d3l"].iter().zip(&precision) {
        report.set(&format!("discovery.{name}.precision_at_5"), *got, passes.len());
    }
    if cfg.traced {
        layers(&inputs, report)?;
    }
    for (_, path) in &inputs.files {
        let _ = std::fs::remove_file(path);
    }
    Ok(tracer)
}

fn report_stages(passes: &[PassTimes], report: &mut Report, csv_bytes: usize) {
    let stages = pass::stage_medians_ms(passes);
    for (stage, metric) in [
        ("fs.read_csv", "fs.read_csv_ms"),
        ("formats.csv.parse", "formats.csv.parse_ms"),
        ("discovery.corpus.profile", "discovery.corpus.profile_ms"),
        ("discovery.aurum.build", "discovery.aurum.build_ms"),
        ("discovery.josie.build", "discovery.josie.build_ms"),
        ("discovery.d3l.build", "discovery.d3l.build_ms"),
        ("discovery.incremental.build", "discovery.incremental.build_ms"),
    ] {
        if let Some((ms, n)) = stages.get(stage) {
            report.set(metric, *ms, *n);
        }
    }
    if let Some((ms, n)) = stages.get("formats.csv.parse") {
        report.set("formats.csv.parse_mb_per_s", csv_bytes as f64 / 1e6 / (ms / 1e3).max(1e-9), *n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_csv_and_another_seed_does_not() {
        let (a, _, rows_a) = lake_csv(42);
        let (b, _, rows_b) = lake_csv(42);
        assert_eq!(a, b);
        assert_eq!(rows_a, rows_b);
        assert_eq!(a.len(), 36);
        let (c, _, _) = lake_csv(7);
        assert_ne!(a, c);
    }
}
