//! Organization, enrichment, cleaning, extraction and integration claims:
//! KAYAK's task DAG (E5), Nargesian organizations (E6), D⁴ and DomainNet
//! (E7), CLAMS and Auto-Validate (E8), DATAMARAN (E11) and ALITE (E12).

use crate::standard_lake;
use lake_core::stats::f1;
use lake_core::synth::generate_domain_corpus;
use lake_core::{LakeError, Result, Table, Value};
use lake_ingest::datamaran::{Datamaran, DatamaranConfig};
use lake_integrate::alite::{align_columns, full_disjunction, outer_join_chain};
use lake_maintain::clean::autovalidate::{infer_rule, validate_batch};
use lake_maintain::clean::clams;
use lake_maintain::enrich::d4::{discover_domains, D4Config};
use lake_maintain::enrich::domainnet;
use lake_organize::kayak::{TaskGraph, TaskId};
use lake_organize::organization::{attribute_embeddings, build_flat, build_optimized, build_random};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

row! {
    /// One worker count of E5. With unit tasks, `w` workers need at least
    /// max(critical path, ⌈tasks / w⌉) rounds.
    E5Row {
        tasks: usize = "tasks" "{}",
        critical_path: usize = "critical path" "{}",
        workers: usize = "workers" "{}",
        rounds: usize = "rounds ≥" "{}",
        speedup: f64 = "speedup ≤" "{:.2}×",
        respects_dag: bool = "run respects the DAG" "{}",
    }
}

/// E5: 12 per-dataset detect → profile → stats chains feeding one
/// lake-wide joinability task, run on 1, 2, 4 and 8 workers and each
/// completion order checked against every edge.
pub fn e5() -> Result<Vec<E5Row>> {
    let mut g = TaskGraph::new();
    let mut edges: Vec<(TaskId, TaskId)> = Vec::new();
    let join = g.add_task("joinability", || {});
    for d in 0..12 {
        let [detect, profile, stats] =
            ["detect", "profile", "stats"].map(|s| g.add_task(&format!("{s}{d}"), || {}));
        edges.extend([(detect, profile), (profile, stats), (stats, join)]);
    }
    // Longest chain ending at each task: every edge into a task comes
    // before the edges out of it.
    let mut depth = vec![1usize; g.len()];
    for &(before, after) in &edges {
        g.add_dependency(before, after);
        depth[after.0] = depth[after.0].max(depth[before.0] + 1);
    }
    let critical_path = depth.into_iter().max().unwrap_or(0);
    let mut rows = Vec::new();
    for workers in [1usize, 2, 4, 8] {
        let order = g.run_parallel(workers)?;
        let done_at = |t: TaskId| order.iter().position(|&o| o == t);
        let valid = order.len() == g.len() && edges.iter().all(|&(b, a)| done_at(b) < done_at(a));
        let rounds = critical_path.max(g.len().div_ceil(workers));
        let (tasks, respects_dag) = (g.len(), valid);
        rows.push(E5Row {
            tasks,
            critical_path,
            workers,
            rounds,
            speedup: tasks as f64 / rounds as f64,
            respects_dag,
        });
    }
    Ok(rows)
}

row! {
    /// One organization of E6.
    E6Row {
        organization: String = "organization" "{}",
        nodes: usize = "nodes" "{}",
        edges: usize = "edges" "{}",
        probability: f64 = "P(discover)" "{:.4}",
    }
}

/// E6: flat, two random and three optimized organizations of the standard
/// lake's attributes, scored by the exact Markov navigation probability.
pub fn e6() -> Vec<E6Row> {
    let (tables, _) = standard_lake();
    let emb = attribute_embeddings(&tables, 32);
    let orgs = [("flat (1 level)".to_string(), build_flat(&emb))]
        .into_iter()
        .chain([1u64, 2].map(|s| (format!("random hierarchy #{s}"), build_random(&emb, s))))
        .chain([2usize, 4, 8].map(|b| (format!("optimized (b={b})"), build_optimized(&emb, b))));
    let rows = orgs.map(|(organization, org)| {
        let d = org.describe();
        let probability = org.expected_discovery_probability(&emb);
        E6Row { organization, nodes: d.nodes_built, edges: d.edges_built, probability }
    });
    rows.collect()
}

row! {
    /// One system of E7.
    E7Row {
        system: &'static str = "system" "{}",
        found: String = "found" "{}",
        precision: f64 = "P" "{:.2}",
        recall: f64 = "R" "{:.2}",
        f1: f64 = "F1" "{:.2}",
    }
}

/// The fruit/brand homographs the domain corpus plants.
pub const PLANTED_HOMOGRAPHS: [&str; 3] = ["apple", "blackberry", "kiwi"];

/// A row of E7 from true and false positives and the number of truths.
fn scored(system: &'static str, found: String, tp: usize, fp: usize, truths: usize) -> E7Row {
    let (precision, recall) = (tp as f64 / (tp + fp).max(1) as f64, tp as f64 / truths.max(1) as f64);
    E7Row { system, found, precision, recall, f1: f1(precision, recall) }
}

/// E7: 16 columns over four planted domains (fruit, brand, color, city).
/// D⁴ is scored on the column pairs it puts in one domain, DomainNet on
/// the homographs it flags.
pub fn e7() -> Result<Vec<E7Row>> {
    let (tables, labels) = generate_domain_corpus(11, 4, 100);
    let mut truth: BTreeMap<(usize, usize), &str> = BTreeMap::new();
    for (table, col, domain) in &labels {
        let ti = tables.iter().position(|t| &t.name == table).ok_or_else(|| LakeError::not_found(table))?;
        let ci = tables[ti].column_index(col).ok_or_else(|| LakeError::not_found(col))?;
        truth.insert((ti, ci), domain);
    }
    let d4 = discover_domains(&tables, D4Config::default());
    let domain = |c| d4.column_domain.get(c);
    let keys: Vec<&(usize, usize)> = truth.keys().collect();
    let pairs = keys.iter().enumerate().flat_map(|(i, a)| keys[i + 1..].iter().map(move |b| (*a, *b)));
    let (mut tp, mut fp, mut same) = (0, 0, 0);
    for (a, b) in pairs {
        let together = domain(a).is_some() && domain(a) == domain(b);
        let truly = truth.get(a) == truth.get(b);
        tp += usize::from(truly && together);
        fp += usize::from(!truly && together);
        same += usize::from(truly);
    }
    let net = domainnet::analyze(&tables, 5);
    let flagged: BTreeSet<String> = net.homographs().into_iter().map(|(v, _)| v).collect();
    let hits = flagged.iter().filter(|v| PLANTED_HOMOGRAPHS.contains(&v.as_str())).count();
    let homographs = flagged.iter().cloned().collect::<Vec<_>>().join(", ");
    let found = format!("{} communities; {homographs}", net.num_communities());
    Ok(vec![
        scored("D⁴ (column pairs in one domain)", format!("{} domains", d4.domains.len()), tp, fp, same),
        scored("DomainNet (homographs)", found, hits, flagged.len() - hits, PLANTED_HOMOGRAPHS.len()),
    ])
}

row! {
    /// E8: CLAMS on the dirty table, Auto-Validate on a clean and a drifted batch.
    E8Row {
        planted: usize = "planted rows" "{}",
        constraints: usize = "CLAMS constraints" "{}",
        flagged: usize = "flagged rows" "{}",
        true_flags: usize = "planted among flagged" "{}",
        rule_level: String = "Auto-Validate rule level" "{}",
        clean_accepted: bool = "clean batch accepted" "{}",
        drifted_accepted: bool = "drifted batch accepted" "{}",
    }
}

/// A clean city → country table with phone-formatted contacts.
fn contacts(rows: usize, rng: &mut StdRng) -> Result<Table> {
    let cities = [("delft", "nl"), ("paris", "fr"), ("rome", "it"), ("oslo", "no")];
    let data = (0..rows).map(|i| {
        let (city, country) = cities[rng.random_range(0..cities.len())];
        let phone = format!("06-{:04}-{:03}", rng.random_range(0..10_000), i % 1000);
        vec![Value::Int(i as i64), Value::str(city), Value::str(country), Value::str(phone)]
    });
    Table::from_rows("contacts", &["id", "city", "country", "phone"], data.collect())
}

/// The phone numbers of `rows` fresh contacts.
fn phones(rows: usize, rng: &mut StdRng) -> Result<Vec<String>> {
    let t = contacts(rows, rng)?;
    Ok(t.column("phone").map(|c| c.values.iter().map(Value::render).collect()).unwrap_or_default())
}

/// E8: 400 contacts with 5 % FD violations (country → `zz`) and 5 % type
/// anomalies (an integer city); an Auto-Validate rule (FPR budget 2 %)
/// trained on 300 clean phones, then shown a clean and a dash → slash
/// drifted batch of 100.
pub fn e8() -> Result<Vec<E8Row>> {
    let mut rng = StdRng::seed_from_u64(8);
    let mut cols = contacts(400, &mut rng)?.columns().to_vec();
    let mut planted = BTreeSet::new();
    for (col, bad) in [(2, Value::str("zz")), (1, Value::Int(12345))] {
        for _ in 0..20 {
            let r = rng.random_range(0..400);
            cols[col].values[r] = bad.clone();
            planted.insert(r);
        }
    }
    let report = clams::analyze(&Table::from_columns("contacts", cols)?, 0.85);
    let flagged: BTreeSet<usize> = report.review_queue.iter().map(|(t, _)| t.row).collect();
    let mut rng = StdRng::seed_from_u64(9);
    let train = phones(300, &mut rng)?;
    let rule = infer_rule(&train.iter().map(String::as_str).collect::<Vec<_>>(), 0.02);
    let clean = phones(100, &mut rng)?;
    let drifted: Vec<String> = clean.iter().map(|v| v.replace('-', "/")).collect();
    let accepted = |batch: &[String]| validate_batch(&rule, batch.iter().map(String::as_str), 0.05);
    Ok(vec![E8Row {
        planted: planted.len(),
        constraints: report.constraints.len(),
        flagged: flagged.len(),
        true_flags: flagged.intersection(&planted).count(),
        rule_level: format!("{:?}", rule.level),
        clean_accepted: accepted(&clean),
        drifted_accepted: accepted(&drifted),
    }])
}

row! {
    /// One log of E11.
    E11Row {
        lines: usize = "lines (naive records)" "{}",
        templates: usize = "templates" "{}",
        found: usize = "found" "{}",
        records: usize = "records" "{}",
        extracted: usize = "extracted" "{}",
        unmatched: usize = "unmatched" "{}",
        with_fields: usize = "with fields" "{}",
    }
}

/// A log of at least `lines` lines from `templates` known record
/// templates; error records carry multi-line stack frames. Returns the
/// lines and the number of records.
fn synth_log(lines: usize, templates: usize, seed: u64) -> (Vec<String>, usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut log = Vec::new();
    let mut records = 0;
    while log.len() < lines {
        let t = rng.random_range(0..templates);
        let (d, h, m, s) = (
            rng.random_range(1..28),
            rng.random_range(0..24),
            rng.random_range(0..60),
            rng.random_range(0..60),
        );
        let ts = format!("2024-01-{d:02} {h:02}:{m:02}:{s:02}");
        records += 1;
        match t {
            0 => log.push(format!("{ts} INFO user {} logged in", rng.random_range(100..999))),
            1 => log.push(format!(
                "{ts} WARN disk {}% full on node{}",
                rng.random_range(50..99),
                rng.random_range(0..8)
            )),
            2 => {
                log.push(format!("{ts} ERROR request {} failed", rng.random_range(1000..9999)));
                for f in 0..rng.random_range(1..4) {
                    log.push(format!("  at frame_{f} in module{}", rng.random_range(0..5)));
                }
            }
            _ => log.push(format!("{ts} DEBUG cache hit ratio {:.2}", rng.random::<f64>())),
        }
    }
    (log, records)
}

/// E11: DATAMARAN on 2 000-line logs of 2, 3 and 4 templates, then with
/// default settings on a 500-line two-template log. A naive
/// one-line-one-record splitter would count every line.
pub fn e11() -> Vec<E11Row> {
    let extract = |lines, templates, seed, d: Datamaran| {
        let (log, records) = synth_log(lines, templates, seed);
        let result = d.extract_records(&log);
        E11Row {
            lines: log.len(),
            templates,
            found: result.templates.len(),
            records,
            extracted: result.records.len(),
            unmatched: result.unmatched,
            with_fields: result.records.iter().filter(|r| !r.fields.is_empty()).count(),
        }
    };
    let tuned = || Datamaran::new(DatamaranConfig { min_coverage: 0.05, refine: true });
    let mut rows: Vec<E11Row> = [2, 3, 4].into_iter().map(|t| extract(2_000, t, 7, tuned())).collect();
    rows.push(extract(500, 2, 9, Datamaran::default()));
    rows
}

row! {
    /// One integration of E12.
    E12Row {
        integration: &'static str = "integration" "{}",
        attributes: usize = "aligned attributes" "{}",
        rows: usize = "rows" "{}",
        complete: usize = "fully associated" "{}",
        tuples_preserved: bool = "every source tuple preserved" "{}",
    }
}

/// R(person, city), S(city, country), T(country, person): associations
/// that close a cycle per entity.
fn cyclic_tables(entities: usize) -> Result<Vec<Table>> {
    let table = |name: &str, cols: [&str; 2], vals: [&str; 2]| {
        let rows = (0..entities).map(|i| vals.map(|v| Value::str(format!("{v}{i}"))).to_vec());
        Table::from_rows(name, &cols, rows.collect())
    };
    Ok(vec![
        table("r", ["person", "city"], ["p", "city"])?,
        table("s", ["city", "country"], ["city", "country"])?,
        table("t", ["country", "person"], ["country", "q"])?,
    ])
}

/// E12: six cyclic entities, aligned by embeddings as ALITE does; full
/// disjunction against a chain of binary outer joins. A row is fully
/// associated when ≥ 3 of its values are non-null.
pub fn e12() -> Result<Vec<E12Row>> {
    let tables = cyclic_tables(6)?;
    let refs: Vec<&Table> = tables.iter().collect();
    let alignment = align_columns(&refs, 0.45);
    let row = |integration, t: &Table| {
        let preserved = refs.iter().zip(&alignment.assignment).all(|(src, targets)| {
            (0..src.num_rows()).all(|r| {
                let cells = || src.columns().iter().zip(targets).map(|(col, &at)| (at, &col.values[r]));
                t.iter_rows().any(|row| cells().all(|(at, v)| &row[at] == v))
            })
        });
        let complete = t.iter_rows().filter(|r| r.iter().filter(|v| !v.is_null()).count() >= 3).count();
        let (attributes, rows, tuples_preserved) = (alignment.num_attributes, t.num_rows(), preserved);
        E12Row { integration, attributes, rows, complete, tuples_preserved }
    };
    Ok(vec![
        row("full disjunction", &full_disjunction(&refs, &alignment)?),
        row("outer-join chain", &outer_join_chain(&refs, &alignment)?),
    ])
}
