//! `lake_e2e`: the benchmark's one executable.
//!
//! ```text
//! lake_e2e --workload W --seed N --seconds S --trace 0|1 [--out DIR] [--server-bin PATH]
//! lake_e2e [--workload W] [--seed N] [--seconds S] [--out DIR] [--server-bin PATH]
//! lake_e2e agree A/result.json B/result.json
//! ```
//!
//! With `--trace` it makes one run and ends its standard output with the
//! one-line JSON result. Without, it makes every run of every workload
//! (or of the one named), untraced then traced, each in a process of its
//! own; prints every metric, writes `DIR/result.json`, and exits non-zero
//! when a correctness check failed.
//! `agree` compares two result files metric by metric against the bounds.
//! Paths come from the arguments or the working directory.

use lake_core::{Json, LakeError, Result};
use lake_e2e_bench::report::{result_document, Report};
use lake_e2e_bench::serve::Mix;
use lake_e2e_bench::{analytics, discover, names, procfs, serve, RunConfig};
use std::path::{Path, PathBuf};

const DEFAULT_SECONDS: f64 = 15.0;

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).cloned()
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T> {
    match flag(args, name) {
        Some(v) => v.parse().map_err(|_| LakeError::invalid(format!("{name} {v:?} is not valid"))),
        None => Ok(default),
    }
}

/// One run of one workload: fills a report, writes the trace of a traced run.
fn run_one(workload: &'static str, cfg: &RunConfig, out: &Path) -> Result<Report> {
    let _ = std::fs::remove_dir_all(&cfg.work);
    std::fs::create_dir_all(&cfg.work)
        .map_err(|e| LakeError::Io(format!("create {}: {e}", cfg.work.display())))?;
    let mut report = Report::new(workload, cfg.traced);
    let ticks_before = procfs::host_cpu_ticks();
    let outcome = match workload {
        "serve_mixed" => serve::run(cfg, Mix::Mixed, &mut report),
        "serve_bulk" => serve::run(cfg, Mix::Bulk, &mut report),
        "discover" => discover::run(cfg, &mut report),
        _ => analytics::run(cfg, &mut report),
    };
    let _ = std::fs::remove_dir_all(&cfg.work);
    let tracer = outcome?;
    // A contended host shows here before it shows in the timings.
    if let (Some((s0, t0)), Some((s1, t1))) = (ticks_before, procfs::host_cpu_ticks()) {
        report.set("host.cpu_steal_share", (s1 - s0) / (t1 - t0).max(1.0), 1);
    }
    if cfg.traced {
        // Each workload must stay inside its own layers.
        let foreign: &[&str] = if workload.starts_with("serve_") {
            &["discovery.", "query.", "house.", "ingest.", "formats.csv", "formats.columnar"]
        } else {
            &["server.", "wire."]
        };
        let strays = tracer.names().iter().filter(|n| foreign.iter().any(|f| n.starts_with(f))).count();
        report.check(strays == 0, "foreign_span_in_trace");
        let path = out.join(format!("trace-{workload}.json"));
        tracer.write(&path).map_err(|e| LakeError::Io(format!("write {}: {e}", path.display())))?;
    }
    for name in report.missing() {
        report.fail(&format!("unmeasured_{name}"), 1);
    }
    Ok(report)
}

fn workload_named(name: &str) -> Result<&'static str> {
    names::WORKLOADS
        .iter()
        .map(|(w, _)| *w)
        .find(|w| *w == name)
        .ok_or_else(|| LakeError::invalid(format!("unknown workload {name:?}")))
}

fn metric_value(doc: &Json, workload: &str, metric: &str) -> Option<f64> {
    doc.get("workloads")?.get(workload)?.get("untraced")?.get("metrics")?.get(metric)?.get("value")?.as_f64()
}

/// Compare the end-to-end metrics of two result files; `Ok(true)` when
/// every one agrees within its bound and nothing failed in either.
fn agree(a: &Path, b: &Path) -> Result<bool> {
    let load = |p: &Path| -> Result<Json> {
        let text =
            std::fs::read_to_string(p).map_err(|e| LakeError::Io(format!("read {}: {e}", p.display())))?;
        lake_formats::json::parse(&text)
    };
    let (a, b) = (load(a)?, load(b)?);
    let mut ok = true;
    for (workload, _) in names::WORKLOADS {
        for run in ["untraced", "traced"] {
            for doc in [&a, &b] {
                let failed = doc.path(&format!("workloads.{workload}.{run}.failed")).and_then(Json::as_f64);
                if failed != Some(0.0) {
                    println!("{workload} {run} failed={failed:?}");
                    ok = false;
                }
            }
        }
        for def in names::END_TO_END {
            let (Some(x), Some(y)) =
                (metric_value(&a, workload, def.name), metric_value(&b, workload, def.name))
            else {
                println!("{workload} {} missing", def.name);
                ok = false;
                continue;
            };
            let diff = (x - y).abs() / x.abs().max(y.abs()).max(f64::MIN_POSITIVE);
            let verdict = if diff <= def.bound { "ok" } else { "DISAGREE" };
            ok &= diff <= def.bound;
            println!(
                "{workload} {} {x} {y} {} diff={:.4} bound={} {verdict}",
                def.name, def.unit, diff, def.bound
            );
        }
    }
    Ok(ok)
}

fn run() -> Result<i32> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("agree") {
        let (Some(a), Some(b)) = (args.get(1), args.get(2)) else {
            return Err(LakeError::invalid("usage: lake_e2e agree A/result.json B/result.json"));
        };
        return Ok(if agree(Path::new(a), Path::new(b))? { 0 } else { 1 });
    }
    let seed: u64 = parsed(&args, "--seed", 42)?;
    let seconds: f64 = parsed(&args, "--seconds", DEFAULT_SECONDS)?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(LakeError::invalid("--seconds must be positive"));
    }
    let out = PathBuf::from(flag(&args, "--out").unwrap_or_else(|| "bench/out".to_string()));
    std::fs::create_dir_all(&out).map_err(|e| LakeError::Io(format!("create {}: {e}", out.display())))?;
    // The server gets its --wal-dir as an absolute path.
    let out = out.canonicalize().map_err(|e| LakeError::Io(format!("resolve {}: {e}", out.display())))?;
    let server_bin = PathBuf::from(
        flag(&args, "--server-bin").unwrap_or_else(|| "target/release/lake_server".to_string()),
    );
    let config = |traced: bool| RunConfig {
        seed,
        seconds,
        traced,
        server_bin: server_bin.clone(),
        work: out.join(format!("work-{}", std::process::id())),
    };
    let only = flag(&args, "--workload").map(|w| workload_named(&w)).transpose()?;

    if let Some(trace) = flag(&args, "--trace") {
        let workload = only.ok_or_else(|| LakeError::invalid("--trace needs --workload"))?;
        let report = run_one(workload, &config(trace == "1"), &out)?;
        let path = run_file(&out, workload, report.traced);
        std::fs::write(&path, format!("{}\n", report.to_run_json()))
            .map_err(|e| LakeError::Io(format!("write {}: {e}", path.display())))?;
        print!("{}", report.lines());
        println!("{}", report.to_json());
        return Ok(0);
    }

    // Every run is a process of its own, so that one workload's heap is
    // not another's peak memory.
    let exe = std::env::current_exe().map_err(|e| LakeError::Io(format!("own path: {e}")))?;
    let mut runs = Vec::new();
    for (workload, _) in names::WORKLOADS.iter().filter(|(w, _)| only.is_none_or(|o| o == *w)) {
        for traced in [false, true] {
            let status = std::process::Command::new(&exe)
                .args(["--workload", workload, "--trace", if traced { "1" } else { "0" }])
                .args(["--seed", &seed.to_string(), "--seconds", &seconds.to_string()])
                .arg("--out")
                .arg(&out)
                .arg("--server-bin")
                .arg(&server_bin)
                .status()
                .map_err(|e| LakeError::Io(format!("spawn {}: {e}", exe.display())))?;
            if !status.success() {
                return Err(LakeError::Io(format!("{workload} run ended with {status}")));
            }
            let path = run_file(&out, workload, traced);
            let text = std::fs::read_to_string(&path)
                .map_err(|e| LakeError::Io(format!("read {}: {e}", path.display())))?;
            runs.push((*workload, traced, lake_formats::json::parse(&text)?));
        }
    }
    let mut correct = runs.iter().all(|(_, _, run)| run.get("correct") == Some(&Json::Bool(true)));
    // Bytes must weigh more on serve_bulk than on serve_mixed.
    let share = |w: &str| {
        runs.iter().find(|(workload, traced, _)| *traced && *workload == w).and_then(|(_, _, run)| {
            run.get("metrics")?.get("server.server.payload_share_of_put")?.get("value")?.as_f64()
        })
    };
    if let (Some(mixed), Some(bulk)) = (share("serve_mixed"), share("serve_bulk")) {
        println!("check payload_share_of_put serve_bulk {bulk} > serve_mixed {mixed}");
        correct &= bulk > mixed;
    }
    let doc = result_document(seed, seconds, &runs);
    let path = out.join("result.json");
    std::fs::write(&path, format!("{doc}\n"))
        .map_err(|e| LakeError::Io(format!("write {}: {e}", path.display())))?;
    println!(
        "summary {}",
        Json::obj(vec![
            ("result", Json::str(path.to_string_lossy())),
            ("correct", Json::Bool(correct)),
            ("claim", Json::Null),
        ])
    );
    Ok(if correct { 0 } else { 1 })
}

fn run_file(out: &Path, workload: &str, traced: bool) -> PathBuf {
    out.join(format!("run-{workload}-{}.json", if traced { "traced" } else { "untraced" }))
}

fn main() {
    match run() {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("lake_e2e: {e}");
            std::process::exit(2);
        }
    }
}
