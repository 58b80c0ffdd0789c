//! Chaos drills for the multi-tenant server: swarms against fault-injected
//! storage, panic isolation, graceful drain under load, greedy-tenant
//! quota arithmetic, breaker isolation, and deterministic replay.
//!
//! The common gates: the process never dies, every admission counter is
//! conserved, every client-visible failure is a *typed* code (never a
//! silent drop), and the lock-order sanitizer stays quiet.

use lake_core::sync::sanitizer_violations;
use lake_core::{Json, ManualClock, Parallelism, RetryPolicy, SystemClock};
use lake_obs::MetricsRegistry;
use lake_core::degrade::{BreakerConfig, QuotaConfig};
use lake_server::protocol::{self, ErrorCode, Request, Verb, DEFAULT_MAX_FRAME_BYTES};
use lake_server::{run_swarm, LakeServer, ServerConfig, ServerHandle, SwarmConfig};
use lake_store::fault::{FaultPlan, FaultStore, Op};
use lake_store::object::MemoryStore;
use lake_store::polystore::Polystore;
use std::sync::Arc;

fn faulted_store(plan: FaultPlan, clock: Arc<dyn lake_core::retry::Clock>) -> Arc<Polystore> {
    Arc::new(
        Polystore::with_file_store(Box::new(FaultStore::new(MemoryStore::new(), plan)))
            .with_retry(RetryPolicy::new(5).with_jitter_seed(7))
            .with_clock(clock),
    )
}

fn start(
    cfg: ServerConfig,
    store: Arc<Polystore>,
    clock: Arc<dyn lake_core::retry::Clock>,
) -> (ServerHandle, Arc<MetricsRegistry>) {
    let registry = Arc::new(MetricsRegistry::new());
    let handle = LakeServer::start(cfg, store, Arc::clone(&registry), clock).unwrap();
    (handle, registry)
}

fn send(addr: &str, req: &Request) -> protocol::Response {
    protocol::request(addr, req, 5_000, DEFAULT_MAX_FRAME_BYTES).unwrap()
}

/// 200+ concurrent closed-loop connections against storage that throws
/// seeded transient faults: zero process deaths, zero silent drops,
/// bounded typed-error rate, clean drain, conserved counters.
#[test]
fn swarm_survives_transient_storage_faults() {
    let clock: Arc<dyn lake_core::retry::Clock> = Arc::new(SystemClock);
    let plan = FaultPlan::new()
        .seed(42)
        .fail_with_probability(Op::Put, 0.10)
        .fail_with_probability(Op::Get, 0.05);
    let store = faulted_store(plan, Arc::clone(&clock));
    let cfg = ServerConfig {
        queue_capacity: 1_024,
        enable_chaos_verbs: false,
        ..ServerConfig::default()
    };
    let (handle, _registry) = start(cfg, store, clock);
    let addr = handle.addr();

    let swarm = SwarmConfig {
        clients: 200,
        requests_per_client: 8,
        tenants: 8,
        seed: 42,
        payload_len: 64,
        ..SwarmConfig::default()
    };
    let report = run_swarm(&addr, &swarm);

    assert_eq!(report.offered, 1_600);
    let tallied: u64 = report.by_code.values().sum();
    assert_eq!(tallied, report.offered, "every request has exactly one outcome: {report:?}");
    assert_eq!(report.transport_errors, 0, "typed responses only: {:?}", report.by_code);
    // The retry budget absorbs almost everything; what surfaces must be
    // typed and rare (transient or the breaker reacting to a burst).
    let surfaced: u64 = report
        .by_code
        .iter()
        .filter(|(k, _)| *k != "ok" && *k != "not_found")
        .map(|(_, v)| *v)
        .sum();
    assert!(
        surfaced * 20 <= report.offered,
        "surfaced error rate above 5%: {:?}",
        report.by_code
    );
    assert!(report.ok > 0 && report.p99_us >= report.p50_us);

    let drained = handle.join().unwrap();
    assert!(drained.drained, "{drained:?}");
    assert_eq!(drained.worker_panics, 0);
    assert!(drained.admission.is_conserved(), "{drained:?}");
    assert_eq!(sanitizer_violations(), 0);
}

/// A panicking handler kills its connection, not the process: the panic
/// counter advances, the next request on a fresh connection succeeds.
#[test]
fn worker_panics_are_isolated_per_connection() {
    let clock: Arc<dyn lake_core::retry::Clock> = Arc::new(SystemClock);
    let store = Arc::new(Polystore::new());
    let cfg = ServerConfig { enable_chaos_verbs: true, ..ServerConfig::default() };
    let (handle, registry) = start(cfg, store, clock);
    let addr = handle.addr();

    let injected = 5u64;
    for _ in 0..injected {
        let r = protocol::request(
            &addr,
            &Request::new("chaos", Verb::Boom),
            5_000,
            DEFAULT_MAX_FRAME_BYTES,
        );
        // The handler died before responding: transport error, not a hang.
        assert!(r.is_err(), "boom must kill the connection: {r:?}");
    }
    // The server is alive and correct afterwards.
    let health = send(&addr, &Request::new("chaos", Verb::Health));
    assert!(health.is_ok());
    assert_eq!(
        registry.snapshot().counter_value("lake_server_worker_panics_total"),
        injected
    );
    let report = handle.join().unwrap();
    assert!(report.drained);
    assert_eq!(report.worker_panics, injected);
    assert!(report.admission.is_conserved());
}

/// Drain fired mid-swarm: in-flight work finishes, new work is rejected
/// with a typed `draining` frame or a clean connection refusal — never a
/// half-written response — and join reports a clean drain.
#[test]
fn drain_mid_swarm_is_graceful_and_typed() {
    let clock: Arc<dyn lake_core::retry::Clock> = Arc::new(SystemClock);
    let store = Arc::new(Polystore::new());
    let cfg = ServerConfig { queue_capacity: 1_024, ..ServerConfig::default() };
    let (handle, _registry) = start(cfg, store, clock);
    let addr = handle.addr();

    let swarm_addr = addr.clone();
    let swarm = std::thread::spawn(move || {
        run_swarm(
            &swarm_addr,
            &SwarmConfig {
                clients: 64,
                requests_per_client: 12,
                seed: 7,
                ..SwarmConfig::default()
            },
        )
    });
    std::thread::sleep(std::time::Duration::from_millis(30));
    handle.drain();
    let report = swarm.join().unwrap();
    let drained = handle.join().unwrap();

    // Every swarm request resolved one way: served, typed-rejected, or
    // cleanly refused once the listener closed. Parse errors would mean a
    // torn frame — the one thing drain must never produce.
    let tallied: u64 = report.by_code.values().sum();
    assert_eq!(tallied, report.offered);
    assert_eq!(report.by_code.get("transport_parse"), None, "{:?}", report.by_code);
    assert_eq!(report.by_code.get("transport_timeout"), None, "{:?}", report.by_code);
    assert!(drained.drained, "{drained:?}");
    assert_eq!(drained.in_flight_at_exit, 0);
    assert!(drained.admission.is_conserved());
    assert_eq!(drained.worker_panics, 0);
    assert_eq!(sanitizer_violations(), 0);
}

/// The greedy-tenant drill: tenant0 has a hard request budget and spends
/// it on `health` spam. Quota math is count-based, so the rejection count
/// is exact arithmetic — and nobody else is rejected at all, with
/// storage faults underneath: a budget of at most `retry attempts − 1`
/// per op is absorbed by the retries even if one unlucky op eats all of
/// it, whatever the interleaving.
#[test]
fn greedy_tenant_is_rejected_exactly_and_neighbours_unharmed() {
    let clock: Arc<dyn lake_core::retry::Clock> = Arc::new(ManualClock::new());
    let plan = FaultPlan::new().seed(7).fail_next(Op::Put, 4).fail_next(Op::Get, 4);
    let store = faulted_store(plan, Arc::clone(&clock));
    let budget = 40u64;
    let cfg = ServerConfig {
        queue_capacity: 1_024,
        quota_overrides: vec![(
            "tenant0".to_string(),
            QuotaConfig::unlimited().with_max_requests(budget),
        )],
        ..ServerConfig::default()
    };
    let (handle, _registry) = start(cfg, store, clock);
    let addr = handle.addr();

    let swarm = SwarmConfig {
        clients: 80,
        requests_per_client: 10,
        tenants: 4,
        seed: 1337,
        greedy_tenant_zero: true,
        ..SwarmConfig::default()
    };
    let report = run_swarm(&addr, &swarm);

    // 80 clients / 4 tenants → 20 clients are tenant0 → 200 offered.
    let offered_t0 = 20 * 10u64;
    assert_eq!(
        report.by_code.get("quota_requests").copied().unwrap_or(0),
        offered_t0 - budget,
        "429 count must be exact: {:?}",
        report.by_code
    );
    // With the fault budget absorbed, no other outcome exists.
    for code in report.by_code.keys() {
        assert!(
            matches!(code.as_str(), "ok" | "not_found" | "quota_requests"),
            "{code:?} leaked through the retry budget: {:?}",
            report.by_code
        );
    }
    assert_eq!(report.transport_errors, 0);
    let drained = handle.join().unwrap();
    assert!(drained.drained && drained.admission.is_conserved());
}

/// Breaker isolation under a virtual clock: an abusive tenant trips its
/// own breaker open, gets typed `breaker_open` rejections, and recovers
/// through a half-open probe after the scripted cooldown — while a
/// well-behaved tenant's requests flow the whole time.
#[test]
fn breaker_isolates_abusive_tenant_and_recovers() {
    let clock = Arc::new(ManualClock::new());
    let store = Arc::new(Polystore::new().with_clock(clock.clone()));
    let cfg = ServerConfig {
        enable_chaos_verbs: true,
        breaker: BreakerConfig { failure_threshold: 3, cooldown_ms: 1_000 },
        ..ServerConfig::default()
    };
    let clock_dyn: Arc<dyn lake_core::retry::Clock> = clock.clone();
    let (handle, _registry) = start(cfg, store, clock_dyn);
    let addr = handle.addr();

    // Trip the abuser's breaker with transient-failing requests.
    for _ in 0..3 {
        let r = send(&addr, &Request::new("abuser", Verb::Flaky));
        assert_eq!(r.code, ErrorCode::Transient);
    }
    let rejected = send(&addr, &Request::new("abuser", Verb::Get).with_name("x"));
    assert_eq!(rejected.code, ErrorCode::BreakerOpen);

    // The neighbour is untouched.
    let ok = send(
        &addr,
        &Request::new("steady", Verb::Put)
            .with_name("d")
            .with_kind("text")
            .with_body(Json::str("fine")),
    );
    assert!(ok.is_ok(), "{ok:?}");

    // Advance virtual time past the cooldown: one probe is admitted; a
    // successful conversation (even a NotFound) closes the breaker.
    clock.advance_micros(1_100_000);
    let probe = send(&addr, &Request::new("abuser", Verb::Get).with_name("x"));
    assert_eq!(probe.code, ErrorCode::NotFound, "probe flows to the backend");
    let after = send(
        &addr,
        &Request::new("abuser", Verb::Put)
            .with_name("back")
            .with_kind("text")
            .with_body(Json::str("recovered")),
    );
    assert!(after.is_ok(), "breaker closed again: {after:?}");

    let report = handle.join().unwrap();
    assert!(report.drained && report.admission.is_conserved());
    assert_eq!(report.worker_panics, 0);
}

/// Same seed, fresh server → byte-identical swarm reports, across several
/// seeds, with the fault plan fully absorbed by the retry budget.
#[test]
fn swarm_reports_replay_byte_identically_per_seed() {
    for seed in [7u64, 42, 1337] {
        let run = |seed: u64| {
            let clock = Arc::new(ManualClock::new());
            let plan = FaultPlan::new().seed(seed).fail_next(Op::Put, 3);
            let clock_dyn: Arc<dyn lake_core::retry::Clock> = clock.clone();
            let store = faulted_store(plan, Arc::clone(&clock_dyn));
            let cfg = ServerConfig {
                queue_capacity: 1_024,
                workers: Parallelism::fixed(4),
                ..ServerConfig::default()
            };
            let (handle, _registry) = start(cfg, store, clock_dyn);
            let swarm = SwarmConfig {
                clients: 48,
                requests_per_client: 6,
                tenants: 6,
                seed,
                ..SwarmConfig::default()
            };
            let report = run_swarm(&handle.addr(), &swarm);
            let drained = handle.join().unwrap();
            assert!(drained.drained && drained.admission.is_conserved());
            report.to_json(&swarm).to_string()
        };
        let a = run(seed);
        let b = run(seed);
        assert_eq!(a, b, "seed {seed} must replay byte-identically");
    }
    assert_eq!(sanitizer_violations(), 0);
}

/// A stalled client (partial frame, then silence) hits the read deadline
/// and gets a typed `timeout` response instead of parking a worker.
#[test]
fn stalled_connections_hit_the_read_deadline() {
    let clock: Arc<dyn lake_core::retry::Clock> = Arc::new(SystemClock);
    let store = Arc::new(Polystore::new());
    let cfg = ServerConfig { read_timeout_ms: 120, ..ServerConfig::default() };
    let (handle, registry) = start(cfg, store, clock);
    let addr = handle.addr();

    use std::io::Write;
    let mut stream = std::net::TcpStream::connect(&addr).unwrap();
    // Two bytes of a four-byte length prefix, then silence.
    stream.write_all(&[0u8, 0u8]).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_millis(2_000)))
        .unwrap();
    let resp = protocol::read_json(&mut stream, DEFAULT_MAX_FRAME_BYTES)
        .unwrap()
        .expect("a typed timeout frame, not a slammed connection");
    let parsed = protocol::Response::from_json(&resp).unwrap();
    assert_eq!(parsed.code, ErrorCode::Timeout);
    assert_eq!(
        registry.snapshot().counter_value("lake_server_read_timeouts_total"),
        1
    );
    let report = handle.join().unwrap();
    assert!(report.drained && report.admission.is_conserved());
}
