//! The accept/worker loops and the graceful-drain state machine.
//!
//! Topology: one acceptor thread blocks in `accept()`, offers every
//! inbound connection to the [`AdmissionController`], then hands admitted
//! sockets to a fixed worker pool (sized by [`lake_core::Parallelism`], the
//! same knob the batch fan-outs use) over an mpmc channel. Nothing between
//! a successful `accept()` and the response write polls or sleeps, so a
//! request costs what its work costs. Each worker serves one request per
//! connection inside `std::panic::catch_unwind`, so a panicking handler
//! kills *that connection*, increments `lake_server_worker_panics_total`,
//! and the process lives on.
//!
//! Drain is a three-step ladder, observable at every rung:
//!
//! 1. [`ServerHandle::drain`], the `drain` verb or [`ServerHandle::join`]
//!    flips the admission flag — new connections get a typed `draining`
//!    rejection, never a hung accept;
//! 2. flag, then wake: the caller that flipped the flag unblocks the
//!    acceptor with a loopback connection of its own, which the acceptor
//!    knows by its peer address and counts nowhere (it is not an offer);
//!    the acceptor exits and drops the task sender, so workers finish
//!    every queued and in-flight request, then see the channel disconnect
//!    and exit;
//! 3. [`ServerHandle::join`] blocks until the acceptor and the pool have
//!    exited, or the drain deadline passes, retrying the wake-up until one
//!    has connected, and returns a [`DrainReport`] with the final
//!    conserved admission counters.

use crate::admission::{AdmissionController, AdmissionCounters, Offer};
use crate::protocol::{
    self, dataset_from_body, dataset_to_body, ErrorCode, Request, Response, Verb,
    DEFAULT_MAX_FRAME_BYTES,
};
use crate::tenant::Tenants;
use crate::wal::{self, RecoveryReport, Wal, WalConfig, WalOp};
use lake_core::degrade::{Admission, BreakerConfig, QuotaConfig, QuotaDecision};
use lake_core::retry::Clock;
use lake_core::sync::{self, Receiver, Sender};
use lake_core::{
    CrashPoint, CrashSwitch, Dataset, Json, LakeError, Parallelism, Result, SystemClock,
};
use lake_obs::{MetricsRegistry, MICROS_TO_SECONDS};
use lake_store::polystore::Polystore;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Ceiling on one drain wake-up's loopback connect. Generous on purpose:
/// a connect given up on here can still complete in the kernel and reach
/// the acceptor unrecognised, where it would be counted as an offer.
const WAKE_CONNECT_TIMEOUT: Duration = Duration::from_millis(100);

/// One slice of `join`'s wait: how often a lost wake-up is offered again.
const SLICE: Duration = Duration::from_millis(1);

/// Everything tunable about one server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (tests).
    pub addr: String,
    /// Worker pool size — the same sizing policy as the batch fan-outs
    /// (`RUSTLAKE_WORKERS` respected via [`Parallelism::auto`]).
    pub workers: Parallelism,
    /// Concurrent-connection ceiling; offers beyond it are shed with a
    /// typed rejection.
    pub queue_capacity: usize,
    /// Quota applied to tenants without an override.
    pub default_quota: QuotaConfig,
    /// Per-tenant quota overrides.
    pub quota_overrides: Vec<(String, QuotaConfig)>,
    /// Breaker thresholds shared by every tenant's breaker.
    pub breaker: BreakerConfig,
    /// Socket read deadline per connection, in milliseconds.
    pub read_timeout_ms: u64,
    /// Socket write deadline per connection, in milliseconds.
    pub write_timeout_ms: u64,
    /// How long [`ServerHandle::join`] waits for in-flight work.
    pub drain_deadline_ms: u64,
    /// Frame-size ceiling.
    pub max_frame_bytes: usize,
    /// Accept the `boom`/`flaky`/`crash` fault-injection verbs (chaos
    /// tests only).
    pub enable_chaos_verbs: bool,
    /// Journal mutations to disk and replay them on restart. `None`
    /// keeps the pre-durability in-memory behaviour.
    pub wal: Option<WalConfig>,
    /// In-process crash points on the write path (chaos harness; the
    /// default switch is disabled and free).
    pub crash: Arc<CrashSwitch>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: Parallelism::auto(),
            queue_capacity: 256,
            default_quota: QuotaConfig::unlimited(),
            quota_overrides: Vec::new(),
            breaker: BreakerConfig::default(),
            read_timeout_ms: 2_000,
            write_timeout_ms: 2_000,
            drain_deadline_ms: 5_000,
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            enable_chaos_verbs: false,
            wal: None,
            crash: Arc::new(CrashSwitch::disabled()),
        }
    }
}

/// What [`ServerHandle::join`] reports after shutdown.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DrainReport {
    /// `true` when the acceptor and every worker exited inside the drain
    /// deadline.
    pub drained: bool,
    /// Admitted connections still unreleased at exit (0 on a clean drain).
    pub in_flight_at_exit: usize,
    /// Final admission counters (conserved).
    pub admission: AdmissionCounters,
    /// Handler panics absorbed by worker isolation over the lifetime.
    pub worker_panics: u64,
}

struct Shared {
    cfg: ServerConfig,
    /// The listener's bound address: what clients dial, and where the
    /// drain wake-up connects.
    addr: SocketAddr,
    store: Arc<Polystore>,
    tenants: Tenants,
    admission: AdmissionController,
    registry: Arc<MetricsRegistry>,
    clock: Arc<dyn Clock>,
    wal: Option<Wal>,
    recovery: Option<RecoveryReport>,
    /// The drain wake-up's connection, once one has connected. Kept until
    /// shutdown so its port cannot pass to a real client while the
    /// acceptor may still compare peers against it.
    wake: Mutex<Option<TcpStream>>,
    /// How many of the acceptor and the workers have not returned yet, and
    /// the signal that the last one has, which `join` waits on.
    running: Mutex<usize>,
    all_exited: Condvar,
}

/// Held by the acceptor and by every worker for as long as it runs;
/// dropping it, by return or by panic, is the exit `join` waits for.
struct Running(Arc<Shared>);

impl Drop for Running {
    fn drop(&mut self) {
        let mut running = self.0.running.lock().unwrap_or_else(PoisonError::into_inner);
        *running = running.saturating_sub(1);
        if *running == 0 {
            self.0.all_exited.notify_all();
        }
    }
}

impl Shared {
    /// Flip the drain flag; the one caller that flipped it wakes the
    /// acceptor.
    fn begin_drain(&self) {
        if self.admission.begin_drain() {
            self.wake_acceptor();
        }
    }

    fn wake_slot(&self) -> MutexGuard<'_, Option<TcpStream>> {
        // The slot is only ever assigned whole, so a poisoned lock still
        // guards a valid value.
        self.wake.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Unblock the acceptor's `accept()` by connecting to our own listener
    /// (the crate denies `unsafe`, so the listening socket cannot be shut
    /// down under it). The slot stays locked across the connect on
    /// purpose: the acceptor can be handed the connection before `connect`
    /// returns here, and must not judge that peer until the stream is in
    /// the slot. A no-op once a wake-up has connected; a failed attempt (no
    /// descriptor, no port) leaves the slot empty for `join` to retry.
    fn wake_acceptor(&self) {
        let mut wake = self.wake_slot();
        if wake.is_none() {
            *wake = TcpStream::connect_timeout(&self.addr, WAKE_CONNECT_TIMEOUT).ok();
        }
    }

    /// `true` once the acceptor and every worker have returned.
    fn none_running(&self) -> bool {
        *self.running.lock().unwrap_or_else(PoisonError::into_inner) == 0
    }

    /// `true` for the drain wake-up's own connection.
    fn is_wake(&self, peer: SocketAddr) -> bool {
        // Only a drain makes wake-ups, so a serving acceptor reads one
        // atomic here and takes no lock.
        self.admission.is_draining()
            && self.wake_slot().as_ref().and_then(|s| s.local_addr().ok()) == Some(peer)
    }

    fn count_request(&self, verb: &str, code: ErrorCode, cost_us: u64) {
        self.registry
            .counter_with("lake_server_requests_total", &[("verb", verb), ("code", code.name())])
            .inc();
        self.registry
            .histogram("lake_server_request_cost_seconds", MICROS_TO_SECONDS)
            .observe(cost_us);
    }
}

/// The server factory. [`LakeServer::start`] is the only entry point; the
/// running instance is driven through the returned [`ServerHandle`].
pub struct LakeServer;

impl LakeServer {
    /// Bind, spawn the acceptor and worker pool, and return the handle.
    pub fn start(
        cfg: ServerConfig,
        store: Arc<Polystore>,
        registry: Arc<MetricsRegistry>,
        clock: Arc<dyn Clock>,
    ) -> Result<ServerHandle> {
        let listener = TcpListener::bind(&cfg.addr)
            .map_err(|e| LakeError::Io(format!("bind {}: {e}", cfg.addr)))?;
        let addr = listener
            .local_addr()
            .map_err(|e| LakeError::Io(format!("local_addr: {e}")))?;

        let mut tenants = Tenants::new(cfg.default_quota, cfg.breaker);
        for (tenant, quota) in &cfg.quota_overrides {
            tenants = tenants.with_override(tenant, *quota);
        }

        // Durability: open the journal, restore the snapshot, replay the
        // suffix — all before the first connection is accepted, so every
        // request observes the fully recovered namespace.
        let (wal, recovery) = match &cfg.wal {
            Some(wal_cfg) => {
                let (wal, recovered) =
                    Wal::open(wal_cfg.clone(), Arc::clone(&cfg.crash), &registry)?;
                let mut report = recovered.report;
                if let Some(snapshot) = &recovered.snapshot {
                    wal::restore_snapshot(&tenants, &store, snapshot)?;
                }
                let replay_counter = registry.counter("lake_server_recovery_replayed_total");
                let failed_counter = registry.counter("lake_server_recovery_failed_total");
                for rec in &recovered.records {
                    if wal::apply_record(&tenants, &store, rec).is_ok() {
                        report.replayed += 1;
                        replay_counter.inc();
                    } else {
                        failed_counter.inc();
                    }
                }
                registry
                    .counter("lake_server_recovery_stale_skipped_total")
                    .add(report.stale_skipped);
                (Some(wal), Some(report))
            }
            None => (None, None),
        };

        let worker_count = cfg.workers.workers().max(1);
        let shared = Arc::new(Shared {
            admission: AdmissionController::new(cfg.queue_capacity),
            tenants,
            cfg,
            addr,
            store,
            registry,
            clock,
            wal,
            recovery,
            wake: Mutex::new(None),
            running: Mutex::new(worker_count + 1),
            all_exited: Condvar::new(),
        });

        let (tx, rx) = sync::unbounded::<TcpStream>();
        let mut workers = Vec::with_capacity(worker_count);
        for _ in 0..worker_count {
            let rx = rx.clone();
            let running = Running(Arc::clone(&shared));
            workers.push(std::thread::spawn(move || worker_loop(&running.0, &rx)));
        }
        drop(rx);

        let acceptor = {
            let running = Running(Arc::clone(&shared));
            std::thread::spawn(move || accept_loop(&running.0, &listener, &tx))
        };

        Ok(ServerHandle { shared, acceptor, workers })
    }
}

/// A running server: its address, drain switch, and join/report.
pub struct ServerHandle {
    shared: Arc<Shared>,
    acceptor: std::thread::JoinHandle<()>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> String {
        self.shared.addr.to_string()
    }

    /// Begin a graceful drain: stop admitting, let in-flight work finish.
    /// Idempotent; also triggered remotely by the `drain` verb.
    pub fn drain(&self) {
        self.shared.begin_drain();
    }

    /// `true` once a drain has begun (locally or via the `drain` verb).
    pub fn is_draining(&self) -> bool {
        self.shared.admission.is_draining()
    }

    /// What startup recovery found and replayed (`None` without a WAL).
    pub fn recovery_report(&self) -> Option<RecoveryReport> {
        self.shared.recovery.clone()
    }

    /// Final metrics snapshot helper for gates.
    pub fn worker_panics(&self) -> u64 {
        self.shared
            .registry
            .snapshot()
            .counter_value("lake_server_worker_panics_total")
    }

    /// Drain (if not already draining), wait for the acceptor and the pool
    /// under the drain deadline, flush final gauges, and report. Threads
    /// that ignore the deadline are detached, never killed — the report
    /// says so instead.
    pub fn join(self) -> Result<DrainReport> {
        self.drain();
        // Once the acceptor has dropped the task sender, workers drain the
        // queue and exit on channel disconnect, and the last thread out
        // signals `all_exited`: a clean drain returns as soon as it is
        // over. The wait is sliced against the real clock, whatever clock
        // was injected: the drain deadline bounds a *hang*, which virtual
        // clocks cannot observe.
        let clock = SystemClock;
        let budget_us = self.shared.cfg.drain_deadline_ms.max(1).saturating_mul(1_000);
        let started_us = clock.now_micros();
        let deadline_us = started_us.saturating_add(budget_us);
        // With nothing in flight the exits are tens of microseconds away,
        // so the first slice yields across them instead of parking. A
        // parked `join` is woken by whichever thread left last, one time
        // in six onto that thread's core, and what the caller does next
        // starts cold there: measured on servers started and joined back
        // to back, the next start's median +0.2 ms and its spread ×5.
        let first_slice_us = started_us.saturating_add(SLICE.as_micros() as u64).min(deadline_us);
        while !self.shared.none_running() && clock.now_micros() < first_slice_us {
            std::thread::yield_now();
        }
        let drained = loop {
            let running = self.shared.running.lock().unwrap_or_else(PoisonError::into_inner);
            let (running, _) = self
                .shared
                .all_exited
                .wait_timeout_while(running, SLICE, |n| *n > 0)
                .unwrap_or_else(PoisonError::into_inner);
            let exited = *running == 0;
            drop(running);
            if exited || clock.now_micros() >= deadline_us {
                break exited;
            }
            if !self.acceptor.is_finished() {
                // Still blocked in `accept()`: the wake-up may have been
                // lost (connect failed), so offer it again.
                self.shared.wake_acceptor();
            }
        };
        // On a clean drain every thread is past its body, so the joins
        // below do not wait; a thread that outlived the deadline is left
        // detached.
        if (drained || self.acceptor.is_finished()) && self.acceptor.join().is_err() {
            // The acceptor never panics by design; record loudly if it did.
            self.shared.registry.counter("lake_server_acceptor_panics_total").inc();
        }
        for h in self.workers {
            if (drained || h.is_finished()) && h.join().is_err() {
                // Worker bodies catch handler panics; a panic here would
                // be a harness bug worth surfacing in the report counters.
                self.shared.registry.counter("lake_server_worker_panics_total").inc();
            }
        }
        let admission = self.shared.admission.counters();
        let panics = self
            .shared
            .registry
            .snapshot()
            .counter_value("lake_server_worker_panics_total");
        self.shared.registry.gauge("lake_server_draining").set(1);
        self.shared.registry.gauge("lake_server_inflight").set(
            i64::try_from(admission.in_flight).unwrap_or(i64::MAX),
        );
        Ok(DrainReport {
            drained: drained && admission.in_flight == 0,
            in_flight_at_exit: admission.in_flight,
            admission,
            worker_panics: panics,
        })
    }
}

fn accept_loop(shared: &Shared, listener: &TcpListener, tx: &Sender<TcpStream>) {
    loop {
        if shared.admission.is_draining() {
            return;
        }
        match listener.accept() {
            Ok((stream, peer)) => {
                if shared.is_wake(peer) {
                    // The drain's own connection, not a client: it is not
                    // an offer and no counter sees it.
                    return;
                }
                shared.registry.counter("lake_server_connections_total").inc();
                match shared.admission.offer() {
                    Offer::Admit => {
                        if tx.send(stream).is_err() {
                            // Worker pool is gone (shutdown race): the slot
                            // can never be served, release it.
                            shared.admission.release();
                        }
                    }
                    Offer::Shed => {
                        shared.registry.counter("lake_server_shed_total").inc();
                        reject(shared, stream, ErrorCode::Shed, "server at capacity");
                    }
                    Offer::Draining => {
                        shared.registry.counter("lake_server_draining_rejected_total").inc();
                        reject(shared, stream, ErrorCode::Draining, "server is draining");
                    }
                }
            }
            Err(_) => {
                // The error path only (no descriptors left, a handshake
                // aborted by the peer): counted, and backed off so a
                // persistent failure cannot spin a core — but a drain is
                // seen before the sleep, not after it.
                shared.registry.counter("lake_server_accept_errors_total").inc();
                if shared.admission.is_draining() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }
}

/// Best-effort typed rejection: configure short write deadlines, send the
/// frame, close. Failures are ignored — the client may already be gone —
/// but the *attempt* is the contract (never a silent drop).
fn reject(shared: &Shared, mut stream: TcpStream, code: ErrorCode, detail: &str) {
    let timeout = Some(Duration::from_millis(shared.cfg.write_timeout_ms.max(1)));
    let _ = stream.set_write_timeout(timeout);
    let _ = protocol::write_json(&mut stream, &Response::fail(code, detail).to_json());
    shared.count_request("none", code, 0);
}

fn worker_loop(shared: &Shared, rx: &Receiver<TcpStream>) {
    while let Ok(mut stream) = rx.recv() {
        let inflight = shared.registry.gauge("lake_server_inflight");
        inflight.add(1);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            handle_connection(shared, &mut stream);
        }));
        if outcome.is_err() {
            shared.registry.counter("lake_server_worker_panics_total").inc();
        }
        // The handler only borrowed the connection, so a panic is counted
        // before the connection closes: a client that saw it die, and
        // whatever that client does next, finds the counter already moved.
        drop(stream);
        inflight.add(-1);
        shared.admission.release();
    }
}

fn handle_connection(shared: &Shared, stream: &mut TcpStream) {
    let read_t = Some(Duration::from_millis(shared.cfg.read_timeout_ms.max(1)));
    let write_t = Some(Duration::from_millis(shared.cfg.write_timeout_ms.max(1)));
    if stream.set_read_timeout(read_t).is_err() || stream.set_write_timeout(write_t).is_err() {
        return;
    }
    // A request is priced and charged by the payload bytes it sent.
    let read = protocol::read_frame(stream, shared.cfg.max_frame_bytes).and_then(|payload| {
        payload.map(|p| Ok((protocol::payload_json(&p)?, p.len() as u64))).transpose()
    });
    let (frame, frame_bytes) = match read {
        Ok(Some(parsed)) => parsed,
        // Clean close before a request: nothing to answer.
        Ok(None) => return,
        Err(e) => {
            let code = match &e {
                LakeError::Transient(msg) if msg.starts_with("deadline") => {
                    shared.registry.counter("lake_server_read_timeouts_total").inc();
                    ErrorCode::Timeout
                }
                LakeError::Invalid(_) => ErrorCode::TooLarge,
                LakeError::Parse(_) => ErrorCode::BadRequest,
                _ => ErrorCode::Internal,
            };
            let resp = Response::fail(code, e);
            shared.count_request("unparsed", code, 0);
            let _ = protocol::write_json(stream, &resp.to_json());
            return;
        }
    };
    let (verb_label, resp) = match Request::from_json(&frame) {
        Ok(req) => {
            let label = req.verb.name();
            (label, dispatch(shared, &req, frame_bytes))
        }
        Err(e) => ("unparsed", Response::fail(ErrorCode::BadRequest, e)),
    };
    shared.count_request(verb_label, resp.code, resp.cost_us);
    let _ = protocol::write_json(stream, &resp.to_json());
}

fn dispatch(shared: &Shared, req: &Request, frame_bytes: u64) -> Response {
    if let Err(e) = Tenants::validate_ident(&req.tenant) {
        return Response::fail(ErrorCode::BadRequest, format!("tenant: {e}"));
    }
    if matches!(req.verb, Verb::Put | Verb::Get | Verb::Del) {
        if let Err(e) = Tenants::validate_ident(&req.name) {
            return Response::fail(ErrorCode::BadRequest, format!("name: {e}"));
        }
    }
    if req.verb.is_chaos() && !shared.cfg.enable_chaos_verbs {
        return Response::fail(
            ErrorCode::BadRequest,
            format!("chaos verb {:?} is disabled on this server", req.verb.name()),
        );
    }
    let cost_us = protocol::virtual_cost_us(req.verb, frame_bytes);

    // Admin verbs bypass quota and breaker: `drain` must work for an
    // operator even when every tenant budget is spent.
    if req.verb == Verb::Drain {
        shared.begin_drain();
        return Response::ok(Json::obj(vec![("draining", Json::Bool(true))]), cost_us);
    }

    // Rung 1 — per-tenant quota (count-based, order-independent).
    let decision = shared.tenants.charge(&req.tenant, frame_bytes);
    match decision {
        QuotaDecision::Granted => {}
        QuotaDecision::RequestsExhausted | QuotaDecision::BytesExhausted => {
            shared
                .registry
                .counter_with("lake_server_quota_rejected_total", &[("tenant", &req.tenant)])
                .inc();
            let code = if decision == QuotaDecision::RequestsExhausted {
                ErrorCode::QuotaRequests
            } else {
                ErrorCode::QuotaBytes
            };
            return Response::fail(code, format!("tenant {} over {}", req.tenant, decision.name()));
        }
    }

    // Rung 2 — per-tenant circuit breaker guards the storage verbs.
    let guarded = matches!(req.verb, Verb::Put | Verb::Get | Verb::Del | Verb::Flaky);
    if guarded {
        let now_us = shared.clock.now_micros();
        if shared.tenants.admit(&req.tenant, now_us) == Admission::Deny {
            shared
                .registry
                .counter_with("lake_server_breaker_rejected_total", &[("tenant", &req.tenant)])
                .inc();
            return Response::fail(
                ErrorCode::BreakerOpen,
                format!("tenant {}'s breaker is open", req.tenant),
            );
        }
    }

    let result = execute(shared, req);
    if guarded {
        // NotFound and friends are *successful conversations* with the
        // backend; only infrastructure failures feed the breaker.
        let success = !matches!(
            &result,
            Err(LakeError::Transient(_)) | Err(LakeError::Io(_))
        );
        let state = shared.tenants.record(&req.tenant, shared.clock.now_micros(), success);
        shared
            .registry
            .gauge_with("lake_server_breaker_state", &[("tenant", &req.tenant)])
            .set(state.gauge_value());
    }
    match result {
        Ok(body) => Response::ok(body, cost_us),
        Err(e) => Response::fail(ErrorCode::from_error(&e), e),
    }
}

fn execute(shared: &Shared, req: &Request) -> Result<Json> {
    match req.verb {
        Verb::Health => Ok(Json::obj(vec![
            ("status", Json::str("ok")),
            ("draining", Json::Bool(shared.admission.is_draining())),
        ])),
        Verb::Put => {
            // Validate *before* journaling: a malformed body must never
            // reach the journal (replay assumes every frame applies).
            let dataset = dataset_from_body(&req.kind, &req.body)?;
            mutate(shared, req, Some(dataset))
        }
        Verb::Get => {
            let id = shared
                .tenants
                .lookup(&req.tenant, &req.name)
                .ok_or_else(|| LakeError::not_found(format!("{}/{}", req.tenant, req.name)))?;
            let dataset = shared.store.retrieve(id)?;
            Ok(dataset_to_body(&dataset))
        }
        Verb::Del => {
            // Existence check before journaling: a del of a missing name
            // answers NotFound without ever touching the journal.
            if shared.tenants.lookup(&req.tenant, &req.name).is_none() {
                return Err(LakeError::not_found(format!("{}/{}", req.tenant, req.name)));
            }
            mutate(shared, req, None)
        }
        Verb::List => {
            let names = shared.tenants.list(&req.tenant);
            Ok(Json::obj(vec![(
                "datasets",
                Json::Array(names.into_iter().map(Json::Str).collect()),
            )]))
        }
        Verb::Stats => {
            let s = shared.tenants.stats(&req.tenant);
            let a = shared.admission.counters();
            Ok(Json::obj(vec![
                ("requests", Json::Num(s.usage.requests as f64)),
                ("bytes", Json::Num(s.usage.bytes as f64)),
                ("rejected", Json::Num(s.usage.rejected as f64)),
                ("breaker", Json::str(s.breaker.name())),
                ("datasets", Json::Num(s.datasets as f64)),
                ("server_in_flight", Json::Num(a.in_flight as f64)),
            ]))
        }
        Verb::Metrics => Ok(Json::obj(vec![(
            "prometheus",
            Json::str(lake_obs::export::prometheus_text(&shared.registry.snapshot())),
        )])),
        // `drain` is handled before the quota rung in `dispatch`.
        Verb::Drain => Ok(Json::obj(vec![("draining", Json::Bool(true))])),
        Verb::Flaky => Err(LakeError::transient("flaky verb: injected failure")),
        Verb::Boom => {
            #[expect(clippy::panic, reason = "the boom verb exercises worker isolation")]
            std::panic::panic_any("boom verb: injected handler panic");
        }
        Verb::Crash => {
            // `kill -9` from the inside: no response frame, no cleanup,
            // no flush. The restart-chaos harness owns what comes next.
            std::process::abort();
        }
    }
}

/// The one write path, for a validated put (`Some(dataset)`) or del
/// (`None`): journal (fsynced) when a WAL is configured → [`wal::apply`]
/// → advance the watermark → maybe rotate — with a crash point armed at
/// every journaled edge. The 200 is written by `handle_connection`
/// strictly after this returns, so an acknowledged mutation is always
/// journaled.
fn mutate(shared: &Shared, req: &Request, dataset: Option<Dataset>) -> Result<Json> {
    let journaled = match &shared.wal {
        Some(wal) => {
            let (op, kind, body) = match dataset {
                Some(_) => (WalOp::Put, req.kind.as_str(), &req.body),
                None => (WalOp::Del, "", &Json::Null),
            };
            shared.cfg.crash.fire(CrashPoint::PreJournal);
            let seq = wal.append(op, &req.tenant, &req.name, kind, body)?;
            shared.cfg.crash.fire(CrashPoint::PostJournalPreApply);
            Some((wal, seq))
        }
        None => None,
    };
    let out = wal::apply(&shared.tenants, &shared.store, &req.tenant, &req.name, dataset);
    if let Some((wal, seq)) = journaled {
        // The seq is resolved either way: on apply failure the client gets
        // an error (no ack), and replaying the frame after a crash at worst
        // re-attempts an unacknowledged write — which the contract permits.
        wal.mark_applied(seq);
        wal.maybe_rotate(&shared.tenants, &shared.store);
        shared.cfg.crash.fire(CrashPoint::PostApplyPreAck);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start_default(cfg: ServerConfig) -> ServerHandle {
        LakeServer::start(
            cfg,
            Arc::new(Polystore::new()),
            Arc::new(MetricsRegistry::new()),
            Arc::new(SystemClock),
        )
        .unwrap()
    }

    fn send(addr: &str, req: &Request) -> Response {
        protocol::request(addr, req, 2_000, DEFAULT_MAX_FRAME_BYTES).unwrap()
    }

    #[test]
    fn put_get_list_del_round_trip() {
        let h = start_default(ServerConfig::default());
        let addr = h.addr();
        let put = Request::new("acme", Verb::Put)
            .with_name("notes")
            .with_kind("text")
            .with_body(Json::str("hello lake"));
        assert!(send(&addr, &put).is_ok());
        let got = send(&addr, &Request::new("acme", Verb::Get).with_name("notes"));
        assert!(got.is_ok());
        assert_eq!(got.body.path("body").and_then(Json::as_str), Some("hello lake"));
        let listed = send(&addr, &Request::new("acme", Verb::List));
        assert_eq!(
            listed.body.get("datasets"),
            Some(&Json::Array(vec![Json::str("notes")]))
        );
        // Another tenant sees nothing.
        let other = send(&addr, &Request::new("rival", Verb::List));
        assert_eq!(other.body.get("datasets"), Some(&Json::Array(vec![])));
        let missing = send(&addr, &Request::new("rival", Verb::Get).with_name("notes"));
        assert_eq!(missing.code, ErrorCode::NotFound);
        assert!(send(&addr, &Request::new("acme", Verb::Del).with_name("notes")).is_ok());
        let gone = send(&addr, &Request::new("acme", Verb::Get).with_name("notes"));
        assert_eq!(gone.code, ErrorCode::NotFound);
        let report = h.join().unwrap();
        assert!(report.drained, "{report:?}");
        assert!(report.admission.is_conserved());
        assert_eq!(report.worker_panics, 0);
    }

    /// A mutation takes one route whether or not a journal is configured,
    /// so the two servers must be indistinguishable on the wire.
    #[test]
    fn in_memory_and_journaled_servers_answer_identically() {
        let dir = std::env::temp_dir().join(format!("lake-server-parity-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let notes = |verb| Request::new("acme", verb).with_name("notes");
        let script = [
            notes(Verb::Put).with_kind("text").with_body(Json::str("hello lake")),
            notes(Verb::Get),
            Request::new("acme", Verb::List),
            notes(Verb::Del),
            notes(Verb::Get),
            notes(Verb::Del),
            notes(Verb::Put).with_kind("parquet"),
        ];
        let run = |cfg: ServerConfig| -> Vec<(u16, String)> {
            let h = start_default(cfg);
            let answers = script
                .iter()
                .map(|req| send(&h.addr(), req))
                .map(|resp| (resp.code.code(), resp.to_json().to_string()))
                .collect();
            assert!(h.join().unwrap().drained);
            answers
        };
        let in_memory = run(ServerConfig::default());
        let journaled = run(ServerConfig {
            wal: Some(WalConfig::new(dir.to_string_lossy())),
            ..ServerConfig::default()
        });
        assert_eq!(in_memory, journaled);
        let codes: Vec<u16> = in_memory.iter().map(|(code, _)| *code).collect();
        assert_eq!(codes, vec![200, 200, 200, 200, 404, 404, 400]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn health_and_stats_and_metrics_respond() {
        let h = start_default(ServerConfig::default());
        let addr = h.addr();
        let health = send(&addr, &Request::new("t", Verb::Health));
        assert_eq!(health.body.get("status"), Some(&Json::str("ok")));
        let canonical = Request::new("t", Verb::Health).to_json().to_string();
        assert_eq!(health.cost_us, protocol::virtual_cost_us(Verb::Health, canonical.len() as u64));
        // A non-canonical frame is priced and charged by the bytes it
        // sent, not by the length of its canonical re-rendering.
        let padded = format!("  {}\n", canonical.replace(',', " ,\n  "));
        let mut stream = TcpStream::connect(&addr).unwrap();
        protocol::write_frame(&mut stream, padded.as_bytes()).unwrap();
        let answer = protocol::read_json(&mut stream, DEFAULT_MAX_FRAME_BYTES).unwrap().unwrap();
        assert_eq!(
            Response::from_json(&answer).unwrap().cost_us,
            protocol::virtual_cost_us(Verb::Health, padded.len() as u64)
        );
        let stats_req = Request::new("t", Verb::Stats);
        let stats = send(&addr, &stats_req);
        assert!(stats.is_ok());
        let charged = canonical.len() + padded.len() + stats_req.to_json().to_string().len();
        assert_eq!(stats.body.get("bytes"), Some(&Json::Num(charged as f64)));
        let metrics = send(&addr, &Request::new("t", Verb::Metrics));
        let text = metrics.body.get("prometheus").and_then(Json::as_str).unwrap_or("");
        assert!(text.contains("lake_server_requests_total"), "{text}");
        h.join().unwrap();
    }

    #[test]
    fn chaos_verbs_are_rejected_unless_enabled() {
        let h = start_default(ServerConfig::default());
        let addr = h.addr();
        let r = send(&addr, &Request::new("t", Verb::Flaky));
        assert_eq!(r.code, ErrorCode::BadRequest);
        h.join().unwrap();
    }

    /// `offered`, `admitted`, `shed`, `drain_rejected` of a report.
    fn tally(report: &DrainReport) -> [u64; 4] {
        let a = report.admission;
        [a.offered, a.admitted, a.shed, a.drain_rejected]
    }

    #[test]
    fn idle_drain_wakes_the_acceptor_and_counts_nothing() {
        let h = start_default(ServerConfig::default());
        let registry = Arc::clone(&h.shared.registry);
        h.drain();
        h.drain();
        // `drained` inside the 5 s deadline means the blocked acceptor was
        // woken; the wake-up itself is not an offer and no counter saw it.
        let report = h.join().unwrap();
        assert!(report.drained, "{report:?}");
        assert_eq!(tally(&report), [0, 0, 0, 0]);
        assert_eq!(registry.snapshot().counter_value("lake_server_connections_total"), 0);
    }

    #[test]
    fn drain_verb_flips_the_server_into_draining() {
        let h = start_default(ServerConfig::default());
        let addr = h.addr();
        assert!(send(&addr, &Request::new("ops", Verb::Drain)).is_ok());
        assert!(h.is_draining());
        // The verb's own wake-up ends the acceptor; `join` (which would
        // retry the wake-up) has not been called yet.
        for _ in 0..5_000 {
            if h.acceptor.is_finished() {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(h.acceptor.is_finished(), "the drain verb left the acceptor blocked in accept()");
        let report = h.join().unwrap();
        assert!(report.drained);
        assert_eq!(tally(&report), [1, 1, 0, 0]);
    }

    #[test]
    fn a_client_racing_the_drain_is_answered_or_refused_never_hung() {
        let h = start_default(ServerConfig::default());
        let addr = h.addr();
        let health = Request::new("t", Verb::Health);
        assert!(send(&addr, &health).is_ok());
        // Flag up, wake-up not connected yet: the next connection the
        // acceptor sees is a real client's, and it is an offer.
        assert!(h.shared.admission.begin_drain());
        let racing = protocol::request(&addr, &health, 2_000, DEFAULT_MAX_FRAME_BYTES);
        // And a client that comes after both flag and wake-up.
        h.shared.wake_acceptor();
        let late = protocol::request(&addr, &health, 2_000, DEFAULT_MAX_FRAME_BYTES);
        for answer in [racing, late] {
            // The typed rejection, or a transport error (refused, reset)
            // inside the read deadline: never a 200, never a hang.
            assert!(answer.map_or(true, |resp| resp.code == ErrorCode::Draining));
        }
        let report = h.join().unwrap();
        assert!(report.drained, "{report:?}");
        let [offered, admitted, shed, drain_rejected] = tally(&report);
        assert_eq!([admitted, shed], [1, 0]);
        assert_eq!(offered, 1 + drain_rejected);
    }

    #[test]
    fn join_gives_up_on_an_acceptor_no_wake_up_reaches() {
        let h = start_default(ServerConfig { drain_deadline_ms: 200, ..ServerConfig::default() });
        let addr = h.addr();
        // Put the acceptor back into `accept()` behind a served request,
        // then lose every wake-up: a connection to somewhere else sits in
        // the slot, so `wake_acceptor` takes the acceptor for woken.
        let health = Request::new("t", Verb::Health);
        assert!(send(&addr, &health).is_ok());
        std::thread::sleep(Duration::from_millis(50));
        let elsewhere = TcpListener::bind("127.0.0.1:0").unwrap();
        *h.shared.wake_slot() = TcpStream::connect(elsewhere.local_addr().unwrap()).ok();
        let report = h.join().unwrap();
        assert!(!report.drained, "{report:?}");
        assert_eq!(tally(&report), [1, 1, 0, 0]);
        // The acceptor was left detached in `accept()`; a client releases
        // it, and is told what it ran into.
        let late = protocol::request(&addr, &health, 2_000, DEFAULT_MAX_FRAME_BYTES);
        assert!(late.map_or(true, |resp| resp.code == ErrorCode::Draining));
    }

    #[test]
    fn bad_requests_get_typed_responses() {
        let h = start_default(ServerConfig::default());
        let addr = h.addr();
        let bad_tenant = send(&addr, &Request::new("no colons allowed!", Verb::Health));
        assert_eq!(bad_tenant.code, ErrorCode::BadRequest);
        let bad_kind = send(
            &addr,
            &Request::new("t", Verb::Put).with_name("x").with_kind("parquet"),
        );
        assert_eq!(bad_kind.code, ErrorCode::BadRequest);
        h.join().unwrap();
    }
}
