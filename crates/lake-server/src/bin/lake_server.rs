//! The `lake_server` CLI: serve, one-shot client requests, and swarm runs.
//!
//! ```text
//! lake_server serve [--addr A] [--workers N] [--capacity N] [--chaos]
//!                   [--wal-dir DIR] [--wal-rotate N]
//! lake_server request <ADDR> <VERB> [--tenant T] [--name N] [--kind K] [--body JSON]
//! lake_server swarm <ADDR> [--clients N] [--requests N] [--seed S] [--trace PATH]
//! ```
//!
//! `serve` installs a SIGTERM handler that begins a graceful drain; the
//! process exits 0 after in-flight work finishes (the `scripts/server.sh`
//! smoke gate asserts exactly this). The `drain` protocol verb triggers
//! the same path for environments where signals are awkward.
//!
//! `--wal-dir` turns on the write-ahead journal: mutations are fsynced
//! before the ack and replayed from `DIR/_wal/` on the next boot, with a
//! `recovery {json}` line printed before `listening on` so restart
//! harnesses can assert the replay counts. `RUSTLAKE_CRASH_POINT` /
//! `RUSTLAKE_CRASH_AT` arm a deterministic in-process crash point on the
//! write path (chaos harnesses only).

use lake_core::degrade::QuotaConfig;
use lake_core::{CrashSwitch, LakeError, Parallelism, Result, SystemClock};
use lake_obs::MetricsRegistry;
use lake_server::protocol::{self, Request, Verb, DEFAULT_MAX_FRAME_BYTES};
use lake_server::{run_swarm, LakeServer, ServerConfig, SwarmConfig, WalConfig};
use lake_store::polystore::Polystore;
use std::sync::Arc;

/// SIGTERM → drain flag. The handler only stores an atomic, which is
/// async-signal-safe; the serve loop polls the flag.
#[allow(unsafe_code)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static TERM: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_term(_signum: i32) {
        TERM.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> isize;
    }

    const SIGTERM: i32 = 15;
    const SIGINT: i32 = 2;

    pub fn install() {
        unsafe {
            signal(SIGTERM, on_term);
            signal(SIGINT, on_term);
        }
    }

    pub fn termed() -> bool {
        TERM.load(Ordering::SeqCst)
    }
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).cloned()
}

fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

fn parse_num(args: &[String], flag: &str, default: u64) -> u64 {
    flag_value(args, flag).and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn cmd_serve(args: &[String]) -> Result<i32> {
    let mut cfg = ServerConfig {
        addr: flag_value(args, "--addr").unwrap_or_else(|| "127.0.0.1:0".to_string()),
        queue_capacity: parse_num(args, "--capacity", 256) as usize,
        enable_chaos_verbs: has_flag(args, "--chaos"),
        ..ServerConfig::default()
    };
    if let Some(w) = flag_value(args, "--workers").and_then(|v| v.parse::<usize>().ok()) {
        cfg.workers = Parallelism::fixed(w);
    }
    if let Some(q) = flag_value(args, "--max-requests").and_then(|v| v.parse::<u64>().ok()) {
        cfg.default_quota = QuotaConfig::unlimited().with_max_requests(q);
    }
    if let Some(dir) = flag_value(args, "--wal-dir") {
        let mut wal = WalConfig::new(dir);
        wal.rotate_every = parse_num(args, "--wal-rotate", wal.rotate_every);
        cfg.wal = Some(wal);
    }
    cfg.crash = Arc::new(CrashSwitch::from_env());
    let registry = Arc::new(MetricsRegistry::new());
    let handle = LakeServer::start(
        cfg,
        Arc::new(Polystore::new()),
        Arc::clone(&registry),
        Arc::new(SystemClock),
    )?;
    sig::install();
    // Restart harnesses parse this line to assert replay counts; it
    // precedes `listening on` so readers see it before connecting.
    if let Some(report) = handle.recovery_report() {
        println!("recovery {}", report.to_json());
    }
    // The smoke gate greps for this exact prefix to learn the port.
    println!("listening on {}", handle.addr());
    while !sig::termed() && !handle.is_draining() {
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    eprintln!("draining...");
    let report = handle.join()?;
    eprintln!(
        "drained={} in_flight_at_exit={} offered={} admitted={} shed={} drain_rejected={} panics={}",
        report.drained,
        report.in_flight_at_exit,
        report.admission.offered,
        report.admission.admitted,
        report.admission.shed,
        report.admission.drain_rejected,
        report.worker_panics,
    );
    Ok(if report.drained { 0 } else { 1 })
}

fn cmd_request(args: &[String]) -> Result<i32> {
    let addr = args
        .first()
        .ok_or_else(|| LakeError::invalid("usage: lake_server request <ADDR> <VERB> [...]"))?;
    let verb = Verb::parse(
        args.get(1)
            .ok_or_else(|| LakeError::invalid("request needs a verb"))?,
    )?;
    let tenant = flag_value(args, "--tenant").unwrap_or_else(|| "cli".to_string());
    let mut req = Request::new(&tenant, verb);
    if let Some(name) = flag_value(args, "--name") {
        req = req.with_name(&name);
    }
    if let Some(kind) = flag_value(args, "--kind") {
        req = req.with_kind(&kind);
    }
    if let Some(body) = flag_value(args, "--body") {
        req = req.with_body(lake_formats::json::parse(&body)?);
    }
    let resp = protocol::request(addr, &req, 5_000, DEFAULT_MAX_FRAME_BYTES)?;
    println!("{}", resp.to_json());
    Ok(if resp.is_ok() { 0 } else { 2 })
}

fn cmd_swarm(args: &[String]) -> Result<i32> {
    let addr = args
        .first()
        .ok_or_else(|| LakeError::invalid("usage: lake_server swarm <ADDR> [...]"))?;
    let cfg = SwarmConfig {
        clients: parse_num(args, "--clients", 64) as usize,
        requests_per_client: parse_num(args, "--requests", 20) as usize,
        tenants: parse_num(args, "--tenants", 8) as usize,
        seed: parse_num(args, "--seed", 42),
        ..SwarmConfig::default()
    };
    let report = run_swarm(addr, &cfg);
    println!("{}", report.to_json(&cfg));
    if let Some(path) = flag_value(args, "--trace") {
        // The trace is a pure function of the config; serialize it twice
        // and byte-compare before writing, the same discipline the bench
        // JSON artifacts follow.
        let trace = lake_server::capture_trace(&cfg);
        let bytes = format!("{}\n", trace.to_json());
        let again = format!("{}\n", lake_server::capture_trace(&cfg).to_json());
        if bytes != again {
            return Err(LakeError::invalid("trace capture is not deterministic"));
        }
        std::fs::write(&path, &bytes)
            .map_err(|e| LakeError::Io(format!("writing trace {path}: {e}")))?;
        eprintln!("trace: {} records -> {path}", trace.len());
    }
    Ok(if report.transport_errors == 0 { 0 } else { 2 })
}

fn run() -> Result<i32> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("usage: lake_server <serve|request|swarm> [...]");
        return Ok(2);
    };
    match cmd.as_str() {
        "serve" => cmd_serve(rest),
        "request" => cmd_request(rest),
        "swarm" => cmd_swarm(rest),
        other => {
            eprintln!("unknown command {other:?}; use serve, request, or swarm");
            Ok(2)
        }
    }
}

fn main() {
    match run() {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("lake_server: {e}");
            std::process::exit(1);
        }
    }
}
