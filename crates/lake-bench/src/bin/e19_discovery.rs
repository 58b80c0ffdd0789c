//! E19 — DLBench-style discovery benchmark on the million-row lake:
//! columnar batch profiling vs. the naive row path, top-k equality
//! gates, and incremental index maintenance vs. whole-index rebuild.
//!
//! Three claims are gated, e15-style (a row that printed is a row whose
//! equality assertion already passed):
//!
//! 1. **Equality** — for every worker count in the 1/2/4/8 sweep (the
//!    same counts `RUSTLAKE_WORKERS` would pin process-wide), the
//!    columnar [`ProfilePath`] produces profiles *and* per-system top-k
//!    answers (Aurum, JOSIE, D³L) bit-identical to the naive row path.
//! 2. **Speedup** — dictionary-encoded profiling beats row-order
//!    re-rendering by ≥ 2× on the million-row lake (the floor applies to
//!    the best sweep row; every row's ratio is reported).
//! 3. **Incremental maintenance** — absorbing a `StreamIngestor` flush
//!    as per-profile deltas lands on index state byte-identical to a
//!    from-scratch rebuild, at a ≥ 2× lower cost.
//!
//! One D³L top-5 query is also timed (median of five) and recorded, not
//! gated: it tracks the cost of pair scoring on the million-row lake.
//!
//! The dated report is appended to `BENCH_discovery.json` via
//! [`lake_bench::trajectory`] — append-only history, one entry per day.

use lake_core::par::Parallelism;
use lake_core::synth::{generate_lake, LakeGenConfig};
use lake_core::{Json, Value};
use lake_discovery::aurum::Aurum;
use lake_discovery::corpus::ProfilePath;
use lake_discovery::d3l::D3l;
use lake_discovery::josie::Josie;
use lake_discovery::{DiscoverySystem, IncrementalDiscovery, TableCorpus};
use lake_ingest::stream::StreamIngestor;
use std::time::Instant;

/// ~1M rows: 8 groups × 4 tables × ~28k rows + 4 noise tables. Larger
/// tables over the same pools (keys, cities, products, the 100k-cent
/// price grid) give the value-frequency skew real lakes show — which is
/// precisely the redundancy dictionary encoding exploits.
fn lake_config() -> LakeGenConfig {
    LakeGenConfig {
        seed: 7,
        groups: 8,
        tables_per_group: 4,
        noise_tables: 4,
        rows: (26_000, 30_000),
        key_pool: 2_000,
        ..LakeGenConfig::default()
    }
}

/// Bitwise view of a top-k answer (scores by bits, so `assert_eq!` is
/// exact equality, not float tolerance).
fn bits(top: &[(usize, f64)]) -> Vec<(usize, u64)> {
    top.iter().map(|&(t, s)| (t, s.to_bits())).collect()
}

/// Assert the two corpora profiled identically, numeric samples compared
/// bitwise.
fn assert_profiles_equal(col: &TableCorpus, row: &TableCorpus, workers: usize) {
    assert_eq!(col.profiles().len(), row.profiles().len());
    for (c, r) in col.profiles().iter().zip(row.profiles()) {
        let cb: Vec<u64> = c.numeric.iter().map(|f| f.to_bits()).collect();
        let rb: Vec<u64> = r.numeric.iter().map(|f| f.to_bits()).collect();
        assert_eq!(cb, rb, "{} @ {workers}w: numeric bits diverged", c.name);
        assert_eq!(c, r, "{} @ {workers}w: profile diverged", c.name);
    }
}

/// Per-system top-k answers on both corpora must match bit-for-bit.
/// Returns the number of (system, query) answers verified.
fn assert_topk_equal(col: &TableCorpus, row: &TableCorpus, par: Parallelism, k: usize) -> usize {
    let queries: Vec<usize> = (0..8)
        .filter_map(|g| col.table_index(&format!("g{g}_t0")))
        .collect();
    let mut verified = 0;
    let systems: Vec<(&str, Box<dyn Fn() -> Box<dyn DiscoverySystem>>)> = vec![
        ("Aurum", Box::new(move || {
            let mut s = Aurum::default();
            s.par = par;
            Box::new(s)
        })),
        ("JOSIE", Box::new(move || {
            let mut s = Josie::default();
            s.par = par;
            Box::new(s)
        })),
        ("D3L", Box::new(move || Box::new(D3l::with_parallelism(par)))),
    ];
    for (name, make) in &systems {
        let mut on_col = make();
        on_col.build(col);
        let mut on_row = make();
        on_row.build(row);
        // D³L scores every column pair (a KS walk over both full numeric
        // samples among the five features) where the other systems probe
        // an index; two queries still cover every feature kernel.
        let qs = if *name == "D3L" { &queries[..2.min(queries.len())] } else { &queries[..] };
        for &q in qs {
            let a = on_col.top_k_related(col, q, k);
            let b = on_row.top_k_related(row, q, k);
            assert_eq!(bits(&a), bits(&b), "{name}: top-{k} diverged on query table {q}");
            verified += 1;
        }
    }
    verified
}

/// Incremental state vs. a from-scratch build: profiles, LSH pairs and
/// signatures, inverted postings counts, embedding bits, and every
/// table's D³L top-5.
fn assert_incremental_equal(inc: &IncrementalDiscovery, scratch: &IncrementalDiscovery) {
    assert_eq!(inc.corpus().profiles(), scratch.corpus().profiles());
    assert_eq!(inc.lsh().len(), scratch.lsh().len());
    assert_eq!(inc.lsh().candidate_pairs(), scratch.lsh().candidate_pairs());
    assert_eq!(inc.inverted().num_sets(), scratch.inverted().num_sets());
    assert_eq!(inc.inverted().num_tokens(), scratch.inverted().num_tokens());
    let ebits = |d: &D3l| -> Vec<Vec<u64>> {
        d.embeddings()
            .map(|e| e.iter().map(|f| f.to_bits()).collect())
            .collect()
    };
    assert_eq!(ebits(inc.d3l()), ebits(scratch.d3l()), "embedding bits diverged");
    for q in 0..scratch.corpus().len() {
        assert_eq!(
            bits(&inc.d3l().top_k_related(inc.corpus(), q, 5)),
            bits(&scratch.d3l().top_k_related(scratch.corpus(), q, 5)),
            "D3L top-5 of table {q} diverged"
        );
    }
}

/// Median wall time of five runs of one D³L top-5 query.
fn d3l_topk_ms(inc: &IncrementalDiscovery, query: usize) -> f64 {
    let mut ms: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(inc.d3l().top_k_related(inc.corpus(), query, 5));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    ms[ms.len() / 2]
}

fn main() {
    let cfg = lake_config();
    let t0 = Instant::now();
    let lake = generate_lake(&cfg);
    let rows: usize = lake.tables.iter().map(|t| t.num_rows()).sum();
    let gen_ms = t0.elapsed().as_secs_f64() * 1e3;
    println!(
        "E19 — columnar discovery on the million-row lake \
         ({} tables, {rows} rows, generated in {gen_ms:.0} ms)\n",
        lake.tables.len()
    );

    println!(
        "{:>8} {:>12} {:>12} {:>9} {:>8} {:>12}",
        "workers", "row ms", "columnar ms", "speedup", "columns", "top-k checks"
    );
    // Warm-up: one untimed build per path. The first build after lake
    // generation pays allocator growth and page-fault costs that neither
    // path owns; timing it would randomly tax whichever path runs first.
    drop(TableCorpus::with_profile_path(
        lake.tables.clone(),
        Parallelism::fixed(1),
        ProfilePath::RowNaive,
    ));
    drop(TableCorpus::with_profile_path(
        lake.tables.clone(),
        Parallelism::fixed(1),
        ProfilePath::Columnar,
    ));

    let mut sweep = Vec::new();
    let mut best_speedup = 0.0f64;
    for &w in &[1usize, 2, 4, 8] {
        let par = Parallelism::fixed(w);
        // Clone outside the timed region: the deep table copy costs the
        // same on both paths and would dilute the measured ratio.
        let tables_row = lake.tables.clone();
        let t = Instant::now();
        let row = TableCorpus::with_profile_path(tables_row, par, ProfilePath::RowNaive);
        let row_ms = t.elapsed().as_secs_f64() * 1e3;
        let tables_col = lake.tables.clone();
        let t = Instant::now();
        let col = TableCorpus::with_profile_path(tables_col, par, ProfilePath::Columnar);
        let col_ms = t.elapsed().as_secs_f64() * 1e3;

        assert_profiles_equal(&col, &row, w);
        let checks = assert_topk_equal(&col, &row, par, 5);

        let speedup = row_ms / col_ms.max(1e-9);
        best_speedup = best_speedup.max(speedup);
        println!(
            "{:>8} {:>12.1} {:>12.1} {:>8.2}x {:>8} {:>12}",
            w,
            row_ms,
            col_ms,
            speedup,
            col.profiles().len(),
            checks
        );
        sweep.push(Json::obj(vec![
            ("workers", Json::Num(w as f64)),
            ("row_ms", Json::Num((row_ms * 10.0).round() / 10.0)),
            ("columnar_ms", Json::Num((col_ms * 10.0).round() / 10.0)),
            ("speedup", Json::Num((speedup * 100.0).round() / 100.0)),
            ("topk_checks", Json::Num(checks as f64)),
            ("topk_equal", Json::Bool(true)),
        ]));
    }

    // Incremental index maintenance: one stream flush absorbed as deltas
    // vs. rebuilding every index over the extended lake.
    let par = Parallelism::auto();
    let mut inc = IncrementalDiscovery::with_parallelism(lake.tables.clone(), par);
    let topk_ms = d3l_topk_ms(&inc, 0);
    println!(
        "\nD3L top-5 over {} columns: {topk_ms:.1} ms (median of 5)",
        inc.corpus().profiles().len()
    );
    let mut ing = StreamIngestor::new(&["event_id", "city", "qty"], 4_096, 7)
        .expect("ingestor columns are valid");
    for i in 0..5_000i64 {
        let city = ["delft", "paris", "oslo", "berlin"][(i % 4) as usize];
        ing.push(vec![Value::Int(i), Value::str(city), Value::Int(i % 50)])
            .expect("push row");
    }
    let t = Instant::now();
    inc.absorb_flush(&ing, "stream_events").expect("absorb flush");
    let flush_ms = t.elapsed().as_secs_f64() * 1e3;

    let mut extended = lake.tables.clone();
    extended.push(ing.sample_table("stream_events").expect("sample"));
    let t = Instant::now();
    let scratch = IncrementalDiscovery::with_parallelism(extended, par);
    let rebuild_ms = t.elapsed().as_secs_f64() * 1e3;
    assert_incremental_equal(&inc, &scratch);
    let inc_speedup = rebuild_ms / flush_ms.max(1e-9);
    println!(
        "\nincremental flush: {flush_ms:.1} ms vs {rebuild_ms:.1} ms rebuild \
         ({inc_speedup:.0}x), state byte-identical"
    );

    assert!(
        best_speedup >= 2.0,
        "columnar profiling must beat the row path ≥2x on the million-row lake, \
         best sweep row gave {best_speedup:.2}x"
    );
    assert!(
        inc_speedup >= 2.0,
        "delta maintenance must beat a rebuild ≥2x, got {inc_speedup:.2}x"
    );
    println!(
        "OK: top-k bit-equality held on every sweep row; best profiling speedup \
         {best_speedup:.2}x; incremental maintenance {inc_speedup:.0}x over rebuild."
    );

    let report = Json::obj(vec![
        ("tables", Json::Num(lake.tables.len() as f64)),
        ("rows", Json::Num(rows as f64)),
        ("sweep", Json::Array(sweep)),
        ("best_profile_speedup", Json::Num((best_speedup * 100.0).round() / 100.0)),
        ("d3l_topk_ms", Json::Num((topk_ms * 10.0).round() / 10.0)),
        (
            "incremental",
            Json::obj(vec![
                ("flush_ms", Json::Num((flush_ms * 10.0).round() / 10.0)),
                ("rebuild_ms", Json::Num((rebuild_ms * 10.0).round() / 10.0)),
                ("speedup", Json::Num(inc_speedup.round())),
                ("state_identical", Json::Bool(true)),
            ]),
        ),
    ]);
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_discovery.json");
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let date = lake_bench::trajectory::utc_date(secs);
    let entries = lake_bench::trajectory::record(out, &date, &report)
        .expect("append BENCH_discovery.json trajectory");
    println!("wrote {out} ({entries} dated entries)");
}
