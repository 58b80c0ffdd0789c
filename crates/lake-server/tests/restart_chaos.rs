//! Crash-restart chaos: a supervisor that boots the real `lake_server`
//! binary, kills it at seeded crash points (in-process aborts armed via
//! `RUSTLAKE_CRASH_POINT`, a raw `kill -9`, and the chaos `crash` verb),
//! restarts it against the same data directory, and asserts the
//! durability contract:
//!
//! * every client-acknowledged write is readable after recovery;
//! * no unacknowledged write is half-visible beyond what the journal
//!   recorded (pre-journal and torn-frame crashes lose exactly the
//!   in-flight request, never an earlier ack);
//! * recovery is deterministic: the same workload crashed at the same
//!   point recovers with a byte-identical `recovery` report;
//! * `lake_server_recovery_replayed_total` equals the journal's frame
//!   count.

use lake_core::crash::CrashPoint;
use lake_core::Json;
use lake_server::protocol::{self, Request, Verb, DEFAULT_MAX_FRAME_BYTES};
use lake_store::durable::scan_frames;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};

const SEEDS: [u64; 3] = [7, 42, 1337];

struct Server {
    child: Child,
    addr: String,
    /// The raw JSON text of the `recovery` stdout line, when WAL was on.
    recovery_line: Option<String>,
}

impl Server {
    fn recovery(&self) -> Json {
        lake_formats::json::parse(self.recovery_line.as_ref().expect("no recovery line")).unwrap()
    }

    fn request(&self, req: &Request) -> lake_core::Result<protocol::Response> {
        protocol::request(&self.addr, req, 5_000, DEFAULT_MAX_FRAME_BYTES)
    }

    /// Graceful shutdown: `drain` verb, then wait for exit 0.
    fn drain_and_wait(mut self) {
        let _ = self.request(&Request::new("ops", Verb::Drain));
        let status = self.child.wait().unwrap();
        assert!(status.success(), "graceful exit failed: {status:?}");
    }

    /// Wait for the process to die from a crash (abort / SIGKILL).
    fn wait_for_crash(mut self) {
        let status = self.child.wait().unwrap();
        assert!(!status.success(), "expected a crash, got clean exit");
    }
}

fn boot(dir: &str, crash: Option<(CrashPoint, u64)>) -> Server {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_lake_server"));
    cmd.args([
        "serve",
        "--addr",
        "127.0.0.1:0",
        "--chaos",
        "--wal-dir",
        dir,
        "--wal-rotate",
        "1000000",
    ]);
    cmd.env_remove("RUSTLAKE_CRASH_POINT").env_remove("RUSTLAKE_CRASH_AT");
    if let Some((point, at)) = crash {
        cmd.env("RUSTLAKE_CRASH_POINT", point.name());
        cmd.env("RUSTLAKE_CRASH_AT", at.to_string());
    }
    cmd.stdout(Stdio::piped()).stderr(Stdio::null());
    let mut child = cmd.spawn().expect("spawn lake_server");
    let stdout = child.stdout.take().unwrap();
    let mut reader = BufReader::new(stdout);
    let mut recovery_line = None;
    let addr;
    let mut line = String::new();
    loop {
        line.clear();
        let n = reader.read_line(&mut line).unwrap();
        assert!(n > 0, "server exited before listening");
        let trimmed = line.trim_end();
        if let Some(rest) = trimmed.strip_prefix("recovery ") {
            recovery_line = Some(rest.to_string());
        }
        if let Some(rest) = trimmed.strip_prefix("listening on ") {
            addr = rest.to_string();
            break;
        }
    }
    Server { child, addr, recovery_line }
}

fn fresh_dir(tag: &str) -> String {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("lake-restart-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir.to_string_lossy().into_owned()
}

fn put(name: &str, seed: u64) -> Request {
    Request::new("chaos", Verb::Put)
        .with_name(name)
        .with_kind("text")
        .with_body(Json::str(format!("payload-{seed}-{name}")))
}

fn get(name: &str) -> Request {
    Request::new("chaos", Verb::Get).with_name(name)
}

fn assert_present(server: &Server, name: &str, seed: u64) {
    let resp = server.request(&get(name)).unwrap();
    assert!(resp.is_ok(), "{name} should be readable after recovery: {:?}", resp.code);
    assert_eq!(
        resp.body.path("body").and_then(Json::as_str),
        Some(format!("payload-{seed}-{name}").as_str()),
        "{name} body mismatch"
    );
}

fn assert_absent(server: &Server, name: &str) {
    let resp = server.request(&get(name)).unwrap();
    assert!(!resp.is_ok(), "{name} should NOT have survived the crash");
}

/// One crash-point scenario: sequential acked puts, crash on the k-th
/// mutation, restart, verify. Returns (acked names, recovery line).
fn run_crash_scenario(point: CrashPoint, seed: u64, run: u64) -> (Vec<String>, String) {
    let k = (seed % 4) + 2; // crash on the k-th mutation, 2..=5
    let dir = fresh_dir(&format!("{}-{seed}-{run}", point.name()));
    let server = boot(&dir, Some((point, k)));
    let mut acked = Vec::new();
    let mut crashed_on = None;
    for i in 1..=8u64 {
        let name = format!("d{i}");
        match server.request(&put(&name, seed)) {
            Ok(resp) if resp.is_ok() => acked.push(name),
            _ => {
                crashed_on = Some(name);
                break;
            }
        }
    }
    let crashed_on = crashed_on.expect("the armed crash point never fired");
    assert_eq!(crashed_on, format!("d{k}"), "crash fired on the wrong mutation");
    assert_eq!(acked.len() as u64, k - 1);
    server.wait_for_crash();

    let restarted = boot(&dir, None);
    let recovery_line = restarted.recovery_line.clone().expect("no recovery line");
    let recovery = restarted.recovery();
    for name in &acked {
        assert_present(&restarted, name, seed);
    }
    // The exact per-point visibility contract for the in-flight write.
    match point {
        CrashPoint::PreJournal => {
            assert_absent(&restarted, &crashed_on);
            let torn = recovery.get("torn_bytes").and_then(Json::as_f64).unwrap();
            assert_eq!(torn, 0.0, "pre-journal crash tears nothing");
        }
        CrashPoint::MidJournalTorn => {
            assert_absent(&restarted, &crashed_on);
            let torn = recovery.get("torn_bytes").and_then(Json::as_f64).unwrap();
            assert!(torn > 0.0, "torn crash must quarantine bytes: {recovery}");
        }
        CrashPoint::PostJournalPreApply | CrashPoint::PostApplyPreAck => {
            // Journaled before the crash: replay makes it visible even
            // though the client never got the ack (permitted by the
            // contract — journaled-but-unacked may survive).
            assert_present(&restarted, &crashed_on, seed);
        }
    }
    let replayed = recovery.get("replayed").and_then(Json::as_f64).unwrap() as u64;
    let expect_replayed = match point {
        CrashPoint::PreJournal | CrashPoint::MidJournalTorn => k - 1,
        CrashPoint::PostJournalPreApply | CrashPoint::PostApplyPreAck => k,
    };
    assert_eq!(replayed, expect_replayed, "{point:?} seed {seed}");
    restarted.drain_and_wait();
    let _ = std::fs::remove_dir_all(&dir);
    (acked, recovery_line)
}

fn crash_point_contract(point: CrashPoint) {
    for seed in SEEDS {
        let (acked_a, line_a) = run_crash_scenario(point, seed, 0);
        let (acked_b, line_b) = run_crash_scenario(point, seed, 1);
        assert_eq!(acked_a, acked_b, "same seed must ack the same writes");
        assert_eq!(
            line_a, line_b,
            "{point:?} seed {seed}: recovery reports must be byte-identical"
        );
    }
}

#[test]
fn pre_journal_crash_loses_only_the_inflight_write() {
    crash_point_contract(CrashPoint::PreJournal);
}

#[test]
fn torn_frame_crash_quarantines_the_tail() {
    crash_point_contract(CrashPoint::MidJournalTorn);
}

#[test]
fn post_journal_crash_replays_the_unacked_write() {
    crash_point_contract(CrashPoint::PostJournalPreApply);
}

#[test]
fn pre_ack_crash_replays_the_unacked_write() {
    crash_point_contract(CrashPoint::PostApplyPreAck);
}

#[test]
fn kill_nine_mid_swarm_preserves_every_acked_write() {
    for seed in SEEDS {
        let dir = fresh_dir(&format!("kill9-{seed}"));
        let server = boot(&dir, None);
        let addr = server.addr.clone();
        let acked_puts: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        let acked_dels: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        // Dels that were *sent* but never acknowledged: the kill may have
        // landed after the del was journaled, so these keys may
        // legitimately be absent after replay (journaled-but-unacked
        // mutations are allowed to survive). They are excluded from the
        // must-be-present set.
        let sent_dels: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        let clients: Vec<_> = (0..4u64)
            .map(|c| {
                let addr = addr.clone();
                let acked_puts = Arc::clone(&acked_puts);
                let acked_dels = Arc::clone(&acked_dels);
                let sent_dels = Arc::clone(&sent_dels);
                std::thread::spawn(move || {
                    // Disjoint per-client keys: live order and journal
                    // order agree trivially, so the assertion is exact.
                    for i in 0..60u64 {
                        let name = format!("c{c}-d{i}");
                        let r = protocol::request(
                            &addr,
                            &put(&name, seed),
                            5_000,
                            DEFAULT_MAX_FRAME_BYTES,
                        );
                        match r {
                            Ok(resp) if resp.is_ok() => {
                                acked_puts.lock().unwrap().push(name.clone())
                            }
                            _ => return,
                        }
                        if i % 5 == 4 {
                            sent_dels.lock().unwrap().push(name.clone());
                            let d = Request::new("chaos", Verb::Del).with_name(&name);
                            match protocol::request(&addr, &d, 5_000, DEFAULT_MAX_FRAME_BYTES) {
                                Ok(resp) if resp.is_ok() => {
                                    acked_dels.lock().unwrap().push(name)
                                }
                                _ => return,
                            }
                        }
                    }
                })
            })
            .collect();
        // Kill once the swarm has acknowledged writes, not after a fixed
        // delay: on a slow-fsync disk a timer can fire before any ack.
        let mut server = server;
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while acked_puts.lock().unwrap().len() < 8 {
            if std::time::Instant::now() >= deadline {
                let _ = server.child.kill();
                let _ = server.child.wait();
                panic!("seed {seed}: fewer than 8 puts acked within 10 s of starting the swarm");
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        server.child.kill().unwrap(); // SIGKILL — no cleanup of any kind
        server.child.wait().unwrap();
        for c in clients {
            c.join().unwrap();
        }
        let acked_puts = acked_puts.lock().unwrap().clone();
        let acked_dels = acked_dels.lock().unwrap().clone();
        let sent_dels = sent_dels.lock().unwrap().clone();

        // Parity: every intact journal frame must be replayed.
        let journal = std::fs::read(
            std::path::Path::new(&dir).join("_wal").join("journal.log"),
        )
        .unwrap_or_default();
        let frame_count = scan_frames(&journal).frames.len() as u64;

        let restarted = boot(&dir, None);
        let recovery = restarted.recovery();
        let replayed = recovery.get("replayed").and_then(Json::as_f64).unwrap() as u64;
        assert_eq!(replayed, frame_count, "seed {seed}: replay/journal parity");
        let metrics = restarted
            .request(&Request::new("ops", Verb::Metrics))
            .unwrap();
        let text = metrics.body.get("prometheus").and_then(Json::as_str).unwrap().to_string();
        assert!(
            text.contains(&format!("lake_server_recovery_replayed_total {frame_count}")),
            "seed {seed}: metric parity missing in:\n{text}"
        );

        let del_attempted: std::collections::BTreeSet<&String> = sent_dels.iter().collect();
        for name in &acked_puts {
            if del_attempted.contains(name) {
                continue;
            }
            assert_present(&restarted, name, seed);
        }
        for name in &acked_dels {
            assert_absent(&restarted, name);
        }
        assert!(
            !acked_puts.is_empty(),
            "seed {seed}: the swarm acked nothing before the kill"
        );
        restarted.drain_and_wait();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn crash_verb_aborts_and_recovery_restores_the_namespace() {
    let dir = fresh_dir("crash-verb");
    let server = boot(&dir, None);
    assert!(server.request(&put("survivor", 1)).unwrap().is_ok());
    // The crash verb aborts before any response is framed.
    assert!(server.request(&Request::new("chaos", Verb::Crash)).is_err());
    server.wait_for_crash();
    let restarted = boot(&dir, None);
    let replayed = restarted
        .recovery()
        .get("replayed")
        .and_then(Json::as_f64)
        .unwrap() as u64;
    assert_eq!(replayed, 1);
    assert_present(&restarted, "survivor", 1);
    restarted.drain_and_wait();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_verb_is_rejected_without_chaos() {
    // A non-chaos server must refuse the verb instead of dying.
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_lake_server"));
    cmd.args(["serve", "--addr", "127.0.0.1:0"]);
    cmd.env_remove("RUSTLAKE_CRASH_POINT").env_remove("RUSTLAKE_CRASH_AT");
    cmd.stdout(Stdio::piped()).stderr(Stdio::null());
    let mut child = cmd.spawn().unwrap();
    let mut reader = BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    let addr = loop {
        line.clear();
        assert!(reader.read_line(&mut line).unwrap() > 0);
        if let Some(rest) = line.trim_end().strip_prefix("listening on ") {
            break rest.to_string();
        }
    };
    let resp = protocol::request(
        &addr,
        &Request::new("t", Verb::Crash),
        5_000,
        DEFAULT_MAX_FRAME_BYTES,
    )
    .unwrap();
    assert!(!resp.is_ok(), "crash must be gated behind --chaos");
    let _ = protocol::request(
        &addr,
        &Request::new("ops", Verb::Drain),
        5_000,
        DEFAULT_MAX_FRAME_BYTES,
    );
    assert!(child.wait().unwrap().success());
}
