//! `BENCHMARK.json`, the harness's own vocabulary and `result.json` must
//! name the same workloads and metrics. Run from the package root
//! (`cargo test` inside `bench/`), so `../BENCHMARK.json` is the repo's.

use lake_core::Json;
use lake_e2e_bench::names::{MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use lake_e2e_bench::report::{result_document, Report};

fn benchmark_json() -> Json {
    let text = std::fs::read_to_string("../BENCHMARK.json").expect("BENCHMARK.json at the repo root");
    lake_formats::json::parse(&text).expect("BENCHMARK.json parses")
}

fn listed(doc: &Json, key: &str) -> Vec<(String, String, String, Option<f64>)> {
    let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).unwrap_or_default().to_string();
    doc.get(key)
        .and_then(Json::as_array)
        .expect(key)
        .iter()
        .map(|m| {
            (field(m, "name"), field(m, "unit"), field(m, "better"), m.get("bound").and_then(Json::as_f64))
        })
        .collect()
}

fn defined(defs: &[MetricDef], bounded: bool) -> Vec<(String, String, String, Option<f64>)> {
    defs.iter()
        .map(|d| {
            (d.name.to_string(), d.unit.to_string(), d.better.name().to_string(), bounded.then_some(d.bound))
        })
        .collect()
}

#[test]
fn benchmark_json_lists_exactly_the_harness_vocabulary() {
    let doc = benchmark_json();
    assert_eq!(listed(&doc, "end_to_end"), defined(END_TO_END, true));
    assert_eq!(listed(&doc, "per_layer"), defined(PER_LAYER, false));
    let workloads: Vec<(String, String)> = doc
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            let field = |k: &str| w.get(k).and_then(Json::as_str).unwrap_or_default().to_string();
            (field("name"), field("why"))
        })
        .collect();
    let ours: Vec<(String, String)> = WORKLOADS.iter().map(|(n, w)| (n.to_string(), w.to_string())).collect();
    assert_eq!(workloads, ours);
    assert_eq!(doc.get("paths"), Some(&Json::Array(vec![Json::str("bench")])));
}

#[test]
fn benchmark_json_stays_inside_the_contract_limits() {
    let doc = benchmark_json();
    let keys: Vec<&str> = doc.as_object().expect("object").keys().map(String::as_str).collect();
    assert_eq!(keys, ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"]);
    let seconds = doc.get("run_seconds").and_then(Json::as_f64).expect("run_seconds");
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
    assert!((1..=16).contains(&END_TO_END.len()) && (1..=128).contains(&PER_LAYER.len()));
    let ok_name = |s: &str| {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let ok_unit = |s: &str| {
        !s.is_empty() && s.len() <= 16 && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    let mut seen = std::collections::BTreeSet::new();
    for d in END_TO_END.iter().chain(PER_LAYER) {
        assert!(ok_name(d.name), "{}", d.name);
        assert!(ok_unit(d.unit), "{} {}", d.name, d.unit);
        assert!(seen.insert(d.name), "{} listed twice", d.name);
    }
    for d in END_TO_END {
        assert!(d.bound > 0.0 && d.bound <= 0.25, "{}", d.name);
    }
    let setup = END_TO_END.iter().find(|d| d.name == "setup_s").expect("setup_s");
    assert_eq!((setup.unit, setup.better.name()), ("s", "lower"));
    assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound), "setup_s has the largest bound");
    for (name, why) in WORKLOADS {
        assert!(ok_name(name) && seen.insert(name));
        assert!(why.len() <= 200 && !why.contains('\n'), "{name}");
    }
}

#[test]
fn result_json_round_trips_and_names_every_workload_and_metric() {
    let runs: Vec<(&str, bool, Json)> = WORKLOADS
        .iter()
        .flat_map(|(w, _)| [false, true].map(|traced| (*w, traced, Report::new(w, traced).to_run_json())))
        .collect();
    let doc = result_document(42, 15.0, &runs);
    let back = lake_formats::json::parse(&doc.to_string()).expect("result.json parses");
    assert_eq!(back, doc);
    assert_eq!(back.get("claim"), Some(&Json::Null));
    let workloads = back.get("workloads").and_then(Json::as_object).expect("workloads");
    let mut names: Vec<&str> = workloads.keys().map(String::as_str).collect();
    let mut ours: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
    names.sort_unstable();
    ours.sort_unstable();
    assert_eq!(names, ours);
    for (name, entry) in workloads {
        for (run, defs) in [("untraced", END_TO_END), ("traced", PER_LAYER)] {
            let metrics = entry.path(&format!("{run}.metrics")).and_then(Json::as_object).expect(name);
            let mut got: Vec<&str> = metrics.keys().map(String::as_str).collect();
            let mut want: Vec<&str> = defs.iter().map(|d| d.name).collect();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "{name} {run}");
        }
    }
}

#[test]
fn the_driver_line_has_exactly_the_contract_keys() {
    let mut report = Report::new("discover", false);
    report.check(true, "unused");
    report.set("setup_s", 0.8127, 3);
    let line = report.to_json();
    let keys: Vec<&str> = line.as_object().expect("object").keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(line.path("metrics.setup_s.value").and_then(Json::as_f64), Some(0.8127));
    assert_eq!(line.path("metrics.setup_s.unit").and_then(Json::as_str), Some("s"));
    // A name outside the run's own list is not reported.
    report.set("wire.connect_us_p50", 1.0, 1);
    assert!(report
        .to_json()
        .path("metrics")
        .and_then(Json::as_object)
        .is_some_and(|m| m.len() == END_TO_END.len()));
}
