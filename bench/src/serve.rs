//! `serve_mixed` and `serve_bulk`: the unmodified `lake_server` binary as
//! a child process, driven over loopback by a closed loop of two clients.
//!
//! The protocol carries one request per connection, so every operation is
//! connect → send → wait/read → decode; the four stamps are taken by the
//! harness's own client, built on `protocol::write_frame`/`read_frame`.

use crate::report::Report;
use crate::stats::{median, tail_percentile, Timings};
use crate::trace::Tracer;
use crate::{procfs, RunConfig};
use lake_core::{Json, LakeError, Parallelism, Result, SystemClock};
use lake_obs::MetricsRegistry;
use lake_server::protocol::{self, ErrorCode, Request, Response, Verb, DEFAULT_MAX_FRAME_BYTES};
use lake_server::wal::WalConfig;
use lake_server::{LakeServer, ServerConfig};
use lake_store::polystore::Polystore;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Load-generator threads: one per core of the 2-core box.
pub const CLIENTS: usize = 2;
const TENANTS_PER_CLIENT: usize = 4;
/// Keys each client owns; with two clients the live lake holds 64 datasets.
pub const KEYS_PER_CLIENT: usize = 32;
const MISSES: usize = 16;
/// Set-up repetitions per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// In-process starts over the killed server's `--wal-dir` go on for
/// this long, and for at least this many; `ready_ms` is their median. A
/// `serve_mixed` start takes ≈ 2 ms and the host's speed shifts for
/// tenths of a second at a time, so a handful of them back to back would
/// report the shift, not the start.
const START_SAMPLING: Duration = Duration::from_secs(2);
const MIN_STARTS: usize = 5;
/// Restarts of the binary over the killed server's `--wal-dir`.
const BOOTS: usize = 5;
/// Journal frames the restarts replay.
const REPLAY_FRAMES: u64 = 512;
/// The server's default `--wal-rotate`: a rotation empties the journal
/// once it holds this many frames.
const ROTATE_EVERY: u64 = 1024;
const HEALTH_PROBES: usize = 300;
const TIMEOUT: Duration = Duration::from_secs(5);

/// The two traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// The `swarm` mix over 128-byte `text` datasets: fixed per-request
    /// cost dominates.
    Mixed,
    /// Half `put`, half `get` of 512-line `log` datasets (≈ 64 KB
    /// frames): bytes dominate.
    Bulk,
}

/// The five verbs the mixes use, as indices into per-verb arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `put` of a client-owned key.
    Put,
    /// `get`, hit or deliberate miss.
    Get,
    /// `list` of one tenant.
    List,
    /// `stats` of one tenant.
    Stats,
    /// `health`.
    Health,
}

/// One request of the stream: which frame of the pool to send and what
/// answer to expect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Put `key` with content `version`.
    Put { key: usize, version: usize },
    /// Get `key`; the body must equal the last acknowledged put.
    GetHit { key: usize },
    /// Get a name never put; `not_found` is the right answer.
    GetMiss { miss: usize },
    /// List a tenant's names.
    List { tenant: usize },
    /// A tenant's statistics.
    Stats { tenant: usize },
    /// The no-op verb.
    Health { tenant: usize },
}

impl Op {
    /// The verb class of this op.
    pub fn kind(self) -> Kind {
        match self {
            Op::Put { .. } => Kind::Put,
            Op::GetHit { .. } | Op::GetMiss { .. } => Kind::Get,
            Op::List { .. } => Kind::List,
            Op::Stats { .. } => Kind::Stats,
            Op::Health { .. } => Kind::Health,
        }
    }
}

impl Mix {
    /// The workload name.
    pub fn workload(self) -> &'static str {
        match self {
            Mix::Mixed => "serve_mixed",
            Mix::Bulk => "serve_bulk",
        }
    }

    /// Content versions pre-serialised per key.
    fn versions(self) -> usize {
        match self {
            Mix::Mixed => 4,
            Mix::Bulk => 2,
        }
    }

    /// Warm-up requests per client, part of every set-up.
    fn warmup(self) -> usize {
        match self {
            Mix::Mixed => 1000,
            Mix::Bulk => 200,
        }
    }

    /// Cumulative percentages: put, get, list, stats; the rest is health.
    fn cuts(self) -> [u8; 4] {
        match self {
            Mix::Mixed => [35, 65, 75, 85],
            Mix::Bulk => [50, 100, 100, 100],
        }
    }

    fn dataset_kind(self) -> &'static str {
        match self {
            Mix::Mixed => "text",
            Mix::Bulk => "log",
        }
    }

    /// One dataset body. `text` and `log` only: a `documents` put appends,
    /// so the lake would grow and the run would not be stationary.
    fn body(self, rng: &mut StdRng) -> Json {
        match self {
            Mix::Mixed => {
                let text: String = (0..128).map(|_| char::from(b'a' + rng.random_range(0..26u8))).collect();
                Json::Str(text)
            }
            Mix::Bulk => Json::Array((0..512).map(|i| Json::Str(log_line(rng, i))).collect()),
        }
    }
}

const WORDS: [&str; 16] = [
    "accepted",
    "backoff",
    "checkpoint",
    "compacted",
    "dataset",
    "evicted",
    "flushed",
    "granted",
    "ingest",
    "journal",
    "lease",
    "manifest",
    "quota",
    "replayed",
    "snapshot",
    "tenant",
];

/// A ≈ 125-byte log line with no character JSON must escape.
fn log_line(rng: &mut StdRng, i: usize) -> String {
    let mut line = format!(
        "2026-01-01T00:{:02}:{:02}Z host{:02} level=info seq={i:04}",
        i / 60 % 60,
        i % 60,
        rng.random_range(0..32u8)
    );
    for _ in 0..9 {
        line.push(' ');
        line.push_str(WORDS[rng.random_range(0..WORDS.len())]);
    }
    line
}

fn stream_rng(seed: u64, client: usize, salt: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ ((client as u64 + 1) << 32))
}

/// Every frame a client can send, serialised once during set-up so the
/// generator does not compete with the server for the two cores.
#[derive(Debug, Clone, PartialEq)]
pub struct Pool {
    /// `put[key][version]`.
    pub put: Vec<Vec<Vec<u8>>>,
    /// `get[key]`.
    pub get: Vec<Vec<u8>>,
    /// Deliberate misses.
    pub miss: Vec<Vec<u8>>,
    /// `list[tenant]`.
    pub list: Vec<Vec<u8>>,
    /// `stats[tenant]`.
    pub stats: Vec<Vec<u8>>,
    /// `health[tenant]`.
    pub health: Vec<Vec<u8>>,
    /// `content[key][version]`: the body a get must return.
    pub content: Vec<Vec<Json>>,
}

impl Pool {
    /// The pool of `client` — a pure function of `(mix, seed, client)`.
    pub fn generate(mix: Mix, seed: u64, client: usize) -> Pool {
        let mut rng = stream_rng(seed, client, 1);
        let frame = |req: Request| req.to_json().to_string().into_bytes();
        // Tenants are exclusive to a client, so no other writer can change
        // what its gets must return.
        let tenants: Vec<String> =
            (0..TENANTS_PER_CLIENT).map(|t| format!("tenant{}", client * TENANTS_PER_CLIENT + t)).collect();
        let tenant_of = |key: usize| tenants[key % TENANTS_PER_CLIENT].as_str();
        let name = |key: usize| format!("c{client}-k{key}");
        let mut put = Vec::with_capacity(KEYS_PER_CLIENT);
        let mut content = Vec::with_capacity(KEYS_PER_CLIENT);
        for key in 0..KEYS_PER_CLIENT {
            let bodies: Vec<Json> = (0..mix.versions()).map(|_| mix.body(&mut rng)).collect();
            put.push(
                bodies
                    .iter()
                    .map(|b| {
                        frame(
                            Request::new(tenant_of(key), Verb::Put)
                                .with_name(&name(key))
                                .with_kind(mix.dataset_kind())
                                .with_body(b.clone()),
                        )
                    })
                    .collect(),
            );
            content.push(bodies);
        }
        let per_tenant =
            |verb: Verb| tenants.iter().map(|t| frame(Request::new(t, verb))).collect::<Vec<_>>();
        Pool {
            get: (0..KEYS_PER_CLIENT)
                .map(|k| frame(Request::new(tenant_of(k), Verb::Get).with_name(&name(k))))
                .collect(),
            miss: (0..MISSES)
                .map(|m| {
                    frame(Request::new(tenant_of(m), Verb::Get).with_name(&format!("c{client}-missing-{m}")))
                })
                .collect(),
            list: per_tenant(Verb::List),
            stats: per_tenant(Verb::Stats),
            health: per_tenant(Verb::Health),
            put,
            content,
        }
    }

    /// The frame `op` sends.
    pub fn frame(&self, op: Op) -> &[u8] {
        match op {
            Op::Put { key, version } => &self.put[key][version],
            Op::GetHit { key } => &self.get[key],
            Op::GetMiss { miss } => &self.miss[miss],
            Op::List { tenant } => &self.list[tenant],
            Op::Stats { tenant } => &self.stats[tenant],
            Op::Health { tenant } => &self.health[tenant],
        }
    }
}

/// The request stream of one client: a pure function of `(mix, seed,
/// client)`; responses never feed back into it.
#[derive(Debug, Clone)]
pub struct OpStream {
    mix: Mix,
    rng: StdRng,
}

impl OpStream {
    /// The stream of `client`.
    pub fn new(mix: Mix, seed: u64, client: usize) -> OpStream {
        OpStream { mix, rng: stream_rng(seed, client, 2) }
    }
}

impl Iterator for OpStream {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        let rng = &mut self.rng;
        let pick: u8 = rng.random_range(0..100u8);
        let [put, get, list, stats] = self.mix.cuts();
        Some(if pick < put {
            Op::Put {
                key: rng.random_range(0..KEYS_PER_CLIENT),
                version: rng.random_range(0..self.mix.versions()),
            }
        } else if pick < get {
            // One get in five is a deliberate miss.
            if rng.random_range(0..5u8) == 0 {
                Op::GetMiss { miss: rng.random_range(0..MISSES) }
            } else {
                Op::GetHit { key: rng.random_range(0..KEYS_PER_CLIENT) }
            }
        } else if pick < list {
            Op::List { tenant: rng.random_range(0..TENANTS_PER_CLIENT) }
        } else if pick < stats {
            Op::Stats { tenant: rng.random_range(0..TENANTS_PER_CLIENT) }
        } else {
            Op::Health { tenant: rng.random_range(0..TENANTS_PER_CLIENT) }
        })
    }
}

/// The five clock reads of one exchange: start, connected, sent,
/// response read, response decoded.
type Stamps = [Instant; 5];

fn transport_kind(e: &LakeError) -> &'static str {
    match e {
        LakeError::Transient(m) if m.starts_with("deadline") => "transport_timeout",
        LakeError::Parse(_) => "transport_eof",
        LakeError::Invalid(_) => "transport_too_large",
        _ => "transport_io",
    }
}

/// One request over one connection, as `protocol::request` does it, with
/// a clock read between the steps. A transport failure is returned by
/// kind and never retried.
fn exchange(addr: &SocketAddr, frame: &[u8]) -> std::result::Result<(Stamps, Response), &'static str> {
    let t0 = Instant::now();
    let mut stream = TcpStream::connect(addr).map_err(|e| match e.kind() {
        std::io::ErrorKind::ConnectionRefused => "transport_refused",
        std::io::ErrorKind::AddrNotAvailable => "transport_addr_not_avail",
        std::io::ErrorKind::TimedOut => "transport_timeout",
        _ => "transport_io",
    })?;
    stream
        .set_read_timeout(Some(TIMEOUT))
        .and_then(|()| stream.set_write_timeout(Some(TIMEOUT)))
        .map_err(|_| "transport_io")?;
    let t1 = Instant::now();
    protocol::write_frame(&mut stream, frame).map_err(|e| transport_kind(&e))?;
    let t2 = Instant::now();
    let payload = protocol::read_frame(&mut stream, DEFAULT_MAX_FRAME_BYTES)
        .map_err(|e| transport_kind(&e))?
        .ok_or("transport_eof")?;
    let t3 = Instant::now();
    let resp = std::str::from_utf8(&payload)
        .ok()
        .and_then(|text| lake_formats::json::parse(text).ok())
        .and_then(|j| Response::from_json(&j).ok())
        .ok_or("transport_parse")?;
    let t4 = Instant::now();
    Ok(([t0, t1, t2, t3, t4], resp))
}

const SPAN_NAMES: [&str; 4] = ["wire.connect", "wire.send", "wire.wait_read", "wire.decode"];

/// What one client measured.
#[derive(Debug, Clone)]
struct Tally {
    /// Request latency by verb class (indexed by `Kind as usize`).
    latency: [Timings; 5],
    /// The four client spans, from traced requests only.
    parts: [Timings; 4],
    /// `wait_read` of traced puts and gets, for the unattributed share.
    wait_put: Timings,
    wait_get: Timings,
    /// Requests finished with tracing on / off (traced run only).
    ops_traced: u64,
    ops_untraced: u64,
    attempted: u64,
    failures: BTreeMap<&'static str, u64>,
    tracer: Tracer,
}

/// One closed-loop client: it sends its next request only after the
/// previous one completed.
struct Client {
    id: u64,
    addr: SocketAddr,
    pool: Arc<Pool>,
    ops: OpStream,
    /// Version of the last acknowledged put per key.
    current: Vec<usize>,
    requests: u64,
    /// Latencies are kept only inside the timed window.
    recording: bool,
    tally: Tally,
}

impl Client {
    fn new(id: usize, mix: Mix, seed: u64, pool: Arc<Pool>, addr: SocketAddr, epoch: Instant) -> Client {
        Client {
            id: id as u64,
            addr,
            pool,
            ops: OpStream::new(mix, seed, id),
            current: vec![0; KEYS_PER_CLIENT],
            requests: 0,
            recording: false,
            tally: Tally {
                latency: Default::default(),
                parts: Default::default(),
                wait_put: Timings::default(),
                wait_get: Timings::default(),
                ops_traced: 0,
                ops_untraced: 0,
                attempted: 0,
                failures: BTreeMap::new(),
                tracer: Tracer::new(epoch, false),
            },
        }
    }

    /// `Ok` when the response is the right answer to `op`.
    fn verify(&mut self, op: Op, resp: &Response) -> std::result::Result<(), &'static str> {
        let code_ok = resp.code == ErrorCode::Ok;
        let num = |key: &str| resp.body.get(key).and_then(Json::as_f64);
        let keys_per_tenant = (KEYS_PER_CLIENT / TENANTS_PER_CLIENT) as f64;
        match op {
            Op::Put { key, version } => {
                if code_ok {
                    self.current[key] = version;
                }
                code_ok.then_some(()).ok_or("wrong_code")
            }
            Op::GetHit { key } => {
                if !code_ok {
                    Err("wrong_code")
                } else if resp.body.get("body") != Some(&self.pool.content[key][self.current[key]]) {
                    Err("wrong_body")
                } else {
                    Ok(())
                }
            }
            Op::GetMiss { .. } => (resp.code == ErrorCode::NotFound).then_some(()).ok_or("wrong_code"),
            Op::List { .. } => {
                let listed = resp.body.get("datasets").and_then(Json::as_array).map(<[Json]>::len);
                if !code_ok {
                    Err("wrong_code")
                } else if listed != Some(KEYS_PER_CLIENT / TENANTS_PER_CLIENT) {
                    Err("wrong_body")
                } else {
                    Ok(())
                }
            }
            Op::Stats { .. } => {
                if !code_ok {
                    Err("wrong_code")
                } else if num("datasets") != Some(keys_per_tenant) {
                    Err("wrong_body")
                } else {
                    Ok(())
                }
            }
            Op::Health { .. } => {
                let status = resp.body.get("status").and_then(Json::as_str);
                (code_ok && status == Some("ok")).then_some(()).ok_or("wrong_code")
            }
        }
    }

    /// Send one request, check its answer, record what this phase keeps.
    /// Returns the request's latency when a response arrived.
    fn perform(&mut self, op: Op) -> Option<Duration> {
        self.requests += 1;
        self.tally.attempted += 1;
        let outcome = exchange(&self.addr, self.pool.frame(op));
        let failure = match &outcome {
            Ok((_, resp)) => self.verify(op, resp).err(),
            Err(kind) => Some(*kind),
        };
        if let Some(kind) = failure {
            *self.tally.failures.entry(kind).or_insert(0) += 1;
        }
        let (t, _) = outcome.ok()?;
        let latency = Some(t[4] - t[0]);
        if !self.recording {
            return latency;
        }
        let kind = op.kind();
        self.tally.latency[kind as usize].push(t[4] - t[0]);
        if self.tally.tracer.on {
            self.tally.ops_traced += 1;
            let request_id = (self.id << 40) | self.requests;
            let root = self.tally.tracer.add("wire.request", t[0], t[4], None, request_id);
            for (i, name) in SPAN_NAMES.iter().enumerate() {
                self.tally.tracer.add(name, t[i], t[i + 1], root, request_id);
                self.tally.parts[i].push(t[i + 1] - t[i]);
            }
            match kind {
                Kind::Put => self.tally.wait_put.push(t[3] - t[2]),
                Kind::Get => self.tally.wait_get.push(t[3] - t[2]),
                _ => {}
            }
        } else {
            self.tally.ops_untraced += 1;
        }
        latency
    }

    fn preload(&mut self) {
        for key in 0..KEYS_PER_CLIENT {
            let _ = self.perform(Op::Put { key, version: 0 });
        }
    }

    fn stream(&mut self, requests: usize) {
        for _ in 0..requests {
            if let Some(op) = self.ops.next() {
                let _ = self.perform(op);
            }
        }
    }

    /// The timed window. A traced run records spans in the second and
    /// fourth quarter only, so the other two quarters give the untraced
    /// rate the overhead ratio compares against.
    fn window(&mut self, start: Instant, seconds: f64, traced: bool) -> Instant {
        self.recording = true;
        loop {
            let now = Instant::now();
            let elapsed = (now - start).as_secs_f64();
            if elapsed >= seconds {
                break;
            }
            self.tally.tracer.on = traced && (elapsed * 4.0 / seconds) as u32 % 2 == 1;
            if let Some(op) = self.ops.next() {
                let _ = self.perform(op);
            }
        }
        self.recording = false;
        self.tally.tracer.on = false;
        Instant::now()
    }

    /// A put that changes nothing a later check depends on except
    /// `current`, which it keeps right: used to steer the journal depth.
    fn serial_put(&mut self, i: usize, versions: usize) {
        let key = i % KEYS_PER_CLIENT;
        let _ = self.perform(Op::Put { key, version: (self.current[key] + 1) % versions });
    }
}

/// A running `lake_server serve` child.
struct Server {
    child: Child,
    addr: SocketAddr,
    /// The `recovery {json}` line, when the journal directory was not new.
    recovery: Option<Json>,
    /// Spawn → `listening on`.
    boot: Duration,
    _stdout: BufReader<ChildStdout>,
}

impl Server {
    /// Start the server on `wal_dir` and wait for `listening on`.
    fn boot(bin: &Path, wal_dir: &Path) -> Result<Server> {
        let started = Instant::now();
        let mut child = Command::new(bin)
            .args(["serve", "--workers", "2", "--wal-dir"])
            .arg(wal_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| LakeError::Io(format!("spawn {}: {e}", bin.display())))?;
        let mut stdout = BufReader::new(
            child.stdout.take().ok_or_else(|| LakeError::Io("server stdout not piped".into()))?,
        );
        let mut recovery = None;
        let mut line = String::new();
        // `None` when the child closed its output before (or instead of)
        // a well-formed `listening on` line.
        let addr: Option<SocketAddr> = loop {
            line.clear();
            if stdout.read_line(&mut line).unwrap_or(0) == 0 {
                break None;
            }
            if let Some(json) = line.strip_prefix("recovery ") {
                recovery = lake_formats::json::parse(json.trim()).ok();
            } else if let Some(addr) = line.strip_prefix("listening on ") {
                break addr.trim().parse().ok();
            }
        };
        let boot = started.elapsed();
        let Some(addr) = addr else {
            let _ = child.kill();
            let mut err = String::new();
            if let Some(mut stderr) = child.stderr.take() {
                let _ = stderr.read_to_string(&mut err);
            }
            let _ = child.wait();
            return Err(LakeError::Io(format!("server did not start listening: {line}{err}")));
        };
        Ok(Server { child, addr, recovery, boot, _stdout: stdout })
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Ask for a graceful drain and collect the exit code and the
    /// `drained=… offered=…` line the binary prints on stderr.
    fn drain(mut self) -> Result<(bool, BTreeMap<String, String>)> {
        let frame = Request::new("ops", Verb::Drain).to_json().to_string();
        exchange(&self.addr, frame.as_bytes()).map_err(|k| LakeError::Io(format!("drain verb: {k}")))?;
        let deadline = Instant::now() + Duration::from_secs(10);
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(5)),
                _ => return Err(LakeError::Io("server did not exit after drain".into())),
            }
        };
        let mut err = String::new();
        if let Some(mut stderr) = self.child.stderr.take() {
            let _ = stderr.read_to_string(&mut err);
        }
        let fields = err
            .lines()
            .filter(|l| l.starts_with("drained="))
            .flat_map(str::split_whitespace)
            .filter_map(|kv| kv.split_once('='))
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        Ok((status.success(), fields))
    }
}

impl Drop for Server {
    /// SIGKILL, then wait: no run leaves a server behind, whatever path
    /// it returned on.
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The server's own counters and gauges, summed over labels, plus how
/// long the scrape took.
fn scrape(addr: &SocketAddr) -> Result<(BTreeMap<String, f64>, Duration)> {
    let frame = Request::new("ops", Verb::Metrics).to_json().to_string();
    let (t, resp) =
        exchange(addr, frame.as_bytes()).map_err(|k| LakeError::Io(format!("metrics verb: {k}")))?;
    let text = resp
        .body
        .get("prometheus")
        .and_then(Json::as_str)
        .ok_or_else(|| LakeError::Io("metrics verb: no prometheus body".into()))?;
    let mut sums = BTreeMap::new();
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let Some((series, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let name = series.split('{').next().unwrap_or(series);
        if let Ok(v) = value.parse::<f64>() {
            *sums.entry(name.to_string()).or_insert(0.0) += v;
        }
    }
    Ok((sums, t[4] - t[0]))
}

struct Live {
    server: Server,
    clients: Vec<Client>,
    wal_dir: PathBuf,
}

/// One set-up: inputs from the seed, a fresh server, the pre-loaded
/// keys, and the warm-up requests.
fn set_up(cfg: &RunConfig, mix: Mix, rep: usize, epoch: Instant) -> Result<Live> {
    let pools: Vec<Arc<Pool>> = (0..CLIENTS).map(|c| Arc::new(Pool::generate(mix, cfg.seed, c))).collect();
    let wal_dir = cfg.work.join(format!("wal-{rep}"));
    std::fs::create_dir_all(&wal_dir).map_err(|e| LakeError::Io(format!("create wal dir: {e}")))?;
    let server = Server::boot(&cfg.server_bin, &wal_dir)?;
    let mut clients: Vec<Client> = pools
        .into_iter()
        .enumerate()
        .map(|(c, pool)| Client::new(c, mix, cfg.seed, pool, server.addr, epoch))
        .collect();
    std::thread::scope(|s| {
        for c in clients.iter_mut() {
            s.spawn(|| {
                c.preload();
                c.stream(mix.warmup());
            });
        }
    });
    // Every window starts at the same point of the rotation cycle.
    if !steer_depth(&server, &mut clients[0], mix)? {
        return Err(LakeError::Io("set-up could not bring the journal to 512 frames".into()));
    }
    Ok(Live { server, clients, wal_dir })
}

/// Bring the journal to exactly `REPLAY_FRAMES` frames, one put at a time.
fn steer_depth(server: &Server, client: &mut Client, mix: Mix) -> Result<bool> {
    let depth = |server: &Server| -> Result<u64> {
        Ok(scrape(&server.addr)?.0.get("lake_server_wal_depth").copied().unwrap_or(0.0) as u64)
    };
    let at = depth(server)?;
    let puts = if at <= REPLAY_FRAMES {
        REPLAY_FRAMES - at
    } else {
        ROTATE_EVERY - at.min(ROTATE_EVERY) + REPLAY_FRAMES
    };
    for i in 0..puts as usize {
        client.serial_put(i, mix.versions());
    }
    Ok(depth(server)? == REPLAY_FRAMES)
}

/// Count what a client's requests did, whatever phase they ran in:
/// failures are tallied by kind and never dropped.
fn count_requests(report: &mut Report, tally: &Tally) {
    report.attempted += tally.attempted;
    for (kind, n) in &tally.failures {
        report.fail(kind, *n);
    }
}

/// The timed window, bracketed by two scrapes of the server's counters.
fn timed_window(cfg: &RunConfig, server: &Server, clients: &mut [Client], report: &mut Report) -> Result<()> {
    let sent = |clients: &[Client]| clients.iter().map(|c| c.tally.attempted).sum::<u64>();
    let (before, _) = scrape(&server.addr)?;
    let (sent0, lost0) = (sent(clients), transport_failures(clients));
    let (server_cpu0, gen_cpu0) = (procfs::cpu_us(server.pid()), procfs::cpu_us(0));
    let start = Instant::now();
    let ends: Vec<Instant> = std::thread::scope(|s| {
        let handles: Vec<_> =
            clients.iter_mut().map(|c| s.spawn(move || c.window(start, cfg.seconds, cfg.traced))).collect();
        handles.into_iter().filter_map(|h| h.join().ok()).collect()
    });
    let wall = ends.iter().max().map_or(cfg.seconds, |e| (*e - start).as_secs_f64());
    let (server_cpu1, gen_cpu1) = (procfs::cpu_us(server.pid()), procfs::cpu_us(0));
    let (after, scrape_time) = scrape(&server.addr)?;
    let (ops, lost) = (sent(clients) - sent0, transport_failures(clients) - lost0);
    let delta = |name: &str| after.get(name).unwrap_or(&0.0) - before.get(name).unwrap_or(&0.0);

    // Every request that reached the server was counted by it exactly
    // once; the first scrape is counted after its own snapshot.
    let served = delta("lake_server_requests_total") - 1.0;
    report.check(served == (ops - lost) as f64, "server_request_count_mismatch");

    let mut latency: [Timings; 5] = Default::default();
    for c in clients.iter() {
        for (all, own) in latency.iter_mut().zip(&c.tally.latency) {
            all.merge(own);
        }
    }
    let [put, get, ..] = &mut latency;
    report.set("ops_per_s", ops as f64 / wall, ops as usize);
    report.set("write_p50_ms", put.p50_ms(), put.n());
    report.set("read_p50_ms", get.p50_ms(), get.n());
    for (name, t) in [("server.put_p99_ms", &mut *put), ("server.get_p99_ms", &mut *get)] {
        if let Some(q) = tail_percentile(t.n()) {
            report.set(name, t.percentile_ms(q), t.n());
        }
    }
    report.set("server.put_max_ms", put.max_ms(), put.n());
    report.set("server.requests_total", served, 1);
    report.set("server.admission.shed_total", delta("lake_server_shed_total"), 1);
    let (appended, batches) =
        (delta("lake_server_wal_appended_total"), delta("lake_server_wal_fsync_batches_total"));
    report.set("server.wal.appended_total", appended, 1);
    report.set("server.wal.fsync_batches_total", batches, 1);
    report.set("server.wal.frames_per_fsync", appended / batches.max(1.0), batches as usize);
    report.set("server.wal.rotations_total", delta("lake_server_wal_rotations_total"), 1);
    report.set("obs.scrape_ms", scrape_time.as_secs_f64() * 1e3, 1);
    if let (Some(a), Some(b)) = (server_cpu0, server_cpu1) {
        report.set("server.cpu_us_per_op", (b - a) / ops.max(1) as f64, ops as usize);
    }
    if let (Some(a), Some(b)) = (gen_cpu0, gen_cpu1) {
        report.set("gen.cpu_share", (b - a) / (wall * 1e6), 1);
    }
    Ok(())
}

/// `kill -9` with exactly `REPLAY_FRAMES` frames in the journal, then
/// restart on the same directory, first in process and then as the
/// binary: every start replays the same frames. Returns the last boot,
/// still running.
fn crash_and_restart(
    cfg: &RunConfig,
    mix: Mix,
    server: Server,
    client: &mut Client,
    wal_dir: &Path,
    report: &mut Report,
) -> Result<Server> {
    report.check(steer_depth(&server, client, mix)?, "wal_depth_not_512");
    // Under two clients the peak depends on which worker's heap the
    // rotations fell to (149 or 205 MiB on serve_bulk), so it is
    // reported beside the steadier end-to-end `peak_rss_mb`, not as it.
    if let Some(mb) = procfs::peak_rss_mb(server.pid()) {
        report.set("server.window_peak_rss_mb", mb, 1);
    }
    drop(server);

    // Cold start to first answerable request, timed on the library's
    // `LakeServer::start` — what the binary does between exec and
    // `listening on`. Process start itself swings between 3.5 and 5.5 ms
    // on this host for whole runs at a time, which would drown the
    // recovery of `serve_mixed`; the binary's boots follow, per layer.
    let mut starts = Vec::new();
    let sampling = Instant::now();
    while starts.len() < MIN_STARTS || sampling.elapsed() < START_SAMPLING {
        let config = ServerConfig {
            workers: Parallelism::fixed(2),
            wal: Some(WalConfig::new(wal_dir.to_string_lossy().into_owned())),
            ..ServerConfig::default()
        };
        let started = Instant::now();
        let handle = LakeServer::start(
            config,
            Arc::new(Polystore::new()),
            Arc::new(MetricsRegistry::new()),
            Arc::new(SystemClock),
        )?;
        starts.push(started.elapsed().as_secs_f64() * 1e3);
        let replayed = handle.recovery_report().map(|r| r.replayed);
        report.check(replayed == Some(REPLAY_FRAMES), "recovery_report_mismatch");
        handle.join()?;
    }
    report.set("ready_ms", median(&starts), starts.len());

    let mut boots = Vec::with_capacity(BOOTS);
    let mut server = None;
    for _ in 0..BOOTS {
        drop(server.take());
        let s = Server::boot(&cfg.server_bin, wal_dir)?;
        let field = |key: &str| s.recovery.as_ref().and_then(|r| r.get(key)).and_then(Json::as_f64);
        let frames = Some(REPLAY_FRAMES as f64);
        let ok = field("frames") == frames && field("replayed") == frames && field("torn_bytes") == Some(0.0);
        report.check(ok, "recovery_report_mismatch");
        report.set("server.recovery_replayed", field("replayed").unwrap_or(0.0), 1);
        boots.push(s.boot.as_secs_f64() * 1e3);
        server = Some(s);
    }
    report.set("server.boot_ms_p50", median(&boots), boots.len());
    server.ok_or_else(|| LakeError::Io("no restart ran".into()))
}

/// Process-crash durability (every acknowledged put is readable from the
/// restarted server), its peak memory over one rotation cycle, then a
/// graceful drain and its conservation law.
fn verify_and_drain(server: Server, mix: Mix, clients: &mut [Client], report: &mut Report) -> Result<()> {
    for c in clients.iter_mut() {
        c.addr = server.addr;
        for key in 0..KEYS_PER_CLIENT {
            let _ = c.perform(Op::GetHit { key });
        }
    }
    // The same work on every run — recovery of 512 frames, 512 serial
    // puts, the rotation they trigger — on a process that did nothing
    // else: its peak memory repeats where the loaded server's does not.
    for i in 0..(ROTATE_EVERY - REPLAY_FRAMES) as usize {
        clients[0].serial_put(i, mix.versions());
    }
    let rotations = scrape(&server.addr)?.0.get("lake_server_wal_rotations_total").copied();
    report.check(rotations == Some(1.0), "no_rotation_after_restart");
    if let Some(mb) = procfs::peak_rss_mb(server.pid()) {
        report.set("peak_rss_mb", mb, 1);
    }
    let (clean_exit, drain) = server.drain()?;
    let count = |key: &str| drain.get(key).and_then(|v| v.parse::<u64>().ok());
    let conserved = match (count("offered"), count("admitted"), count("shed"), count("drain_rejected")) {
        (Some(o), Some(a), Some(s), Some(d)) => o == a + s + d,
        _ => false,
    };
    report.check(conserved, "admission_not_conserved");
    report.check(clean_exit && drain.get("drained").map(String::as_str) == Some("true"), "unclean_drain");
    Ok(())
}

/// Run one serve workload and fill `report`.
pub fn run(cfg: &RunConfig, mix: Mix, report: &mut Report) -> Result<Tracer> {
    let epoch = Instant::now();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut live = None;
    for rep in 0..SETUPS {
        // Earlier repetitions are torn down before the next starts.
        if let Some(Live { server, clients, wal_dir }) = live.take() {
            drop(server);
            let _ = std::fs::remove_dir_all(wal_dir);
            clients.iter().for_each(|c| count_requests(report, &c.tally));
        }
        let started = Instant::now();
        live = Some(set_up(cfg, mix, rep, epoch)?);
        setups.push(started.elapsed().as_secs_f64());
    }
    report.set("setup_s", median(&setups), setups.len());
    let Live { server, mut clients, wal_dir } = live.ok_or_else(|| LakeError::Io("no set-up ran".into()))?;

    timed_window(cfg, &server, &mut clients, report)?;
    if cfg.traced {
        // The fixed cost of a request: the no-op verb, one at a time.
        let mut rtt = Timings::default();
        for i in 0..HEALTH_PROBES {
            if let Some(latency) = clients[0].perform(Op::Health { tenant: i % TENANTS_PER_CLIENT }) {
                rtt.push(latency);
            }
        }
        report.set("server.server.health_rtt_us_p50", rtt.p50_us(), rtt.n());
    }
    let server = crash_and_restart(cfg, mix, server, &mut clients[0], &wal_dir, report)?;
    verify_and_drain(server, mix, &mut clients, report)?;
    let _ = std::fs::remove_dir_all(&wal_dir);

    let mut tracer = Tracer::new(epoch, true);
    let mut parts: [Timings; 4] = Default::default();
    let (mut wait_put, mut wait_get) = (Timings::default(), Timings::default());
    let (mut ops_traced, mut ops_untraced) = (0u64, 0u64);
    for c in clients {
        count_requests(report, &c.tally);
        for (all, own) in parts.iter_mut().zip(&c.tally.parts) {
            all.merge(own);
        }
        wait_put.merge(&c.tally.wait_put);
        wait_get.merge(&c.tally.wait_get);
        ops_traced += c.tally.ops_traced;
        ops_untraced += c.tally.ops_untraced;
        tracer.absorb(c.tally.tracer);
    }
    if cfg.traced {
        for (part, name) in parts.iter_mut().zip([
            "wire.connect_us_p50",
            "wire.send_us_p50",
            "wire.wait_read_us_p50",
            "wire.decode_us_p50",
        ]) {
            report.set(name, part.p50_us(), part.n());
        }
        // The four spans are contiguous, so they account for the whole
        // request; the ratio is checked all the same (before the replay
        // adds its own roots to the trace).
        let ratio = tracer.root_coverage();
        report.set("wire.span_sum_ratio", ratio, tracer.spans().len() / 5);
        report.check((ratio - 1.0).abs() <= 0.05, "client_spans_do_not_sum");
        // Equal time was spent with tracing on and off.
        report.set(
            "trace.overhead_ratio",
            ops_untraced as f64 / ops_traced.max(1) as f64,
            ops_traced as usize,
        );
        crate::replay::run(cfg, mix, report, &mut tracer, &mut wait_put, &mut wait_get)?;
        report.set("trace.spans", tracer.spans().len() as f64, 1);
    }
    Ok(tracer)
}

fn transport_failures(clients: &[Client]) -> u64 {
    clients
        .iter()
        .flat_map(|c| c.tally.failures.iter())
        .filter(|(kind, _)| kind.starts_with("transport_"))
        .map(|(_, n)| *n)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_frames_and_streams() {
        for mix in [Mix::Mixed, Mix::Bulk] {
            assert_eq!(Pool::generate(mix, 42, 0), Pool::generate(mix, 42, 0));
            let a: Vec<Op> = OpStream::new(mix, 42, 1).take(500).collect();
            let b: Vec<Op> = OpStream::new(mix, 42, 1).take(500).collect();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn another_seed_or_client_gives_other_frames() {
        let base = Pool::generate(Mix::Mixed, 42, 0);
        assert_ne!(base.put, Pool::generate(Mix::Mixed, 7, 0).put);
        assert_ne!(base.put, Pool::generate(Mix::Mixed, 42, 1).put);
        let a: Vec<Op> = OpStream::new(Mix::Mixed, 42, 0).take(100).collect();
        let b: Vec<Op> = OpStream::new(Mix::Mixed, 7, 0).take(100).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn bulk_frames_are_about_64_kb_and_the_mix_holds() {
        let pool = Pool::generate(Mix::Bulk, 42, 0);
        let len = pool.put[0][0].len();
        assert!((56_000..72_000).contains(&len), "{len}");
        let ops: Vec<Op> = OpStream::new(Mix::Mixed, 42, 0).take(20_000).collect();
        let share = |k: Kind| ops.iter().filter(|o| o.kind() == k).count() as f64 / ops.len() as f64;
        assert!((share(Kind::Put) - 0.35).abs() < 0.02);
        assert!((share(Kind::Get) - 0.30).abs() < 0.02);
        assert!((share(Kind::Health) - 0.15).abs() < 0.02);
        let misses = ops.iter().filter(|o| matches!(o, Op::GetMiss { .. })).count() as f64;
        assert!((misses / (share(Kind::Get) * ops.len() as f64) - 0.2).abs() < 0.03);
    }

    #[test]
    fn frames_parse_back_into_the_requests_they_encode() {
        let pool = Pool::generate(Mix::Mixed, 42, 1);
        let text = std::str::from_utf8(pool.frame(Op::Put { key: 5, version: 2 })).unwrap();
        let req = Request::from_json(&lake_formats::json::parse(text).unwrap()).unwrap();
        assert_eq!(req.verb, Verb::Put);
        assert_eq!(req.name, "c1-k5");
        assert_eq!(req.tenant, "tenant5");
        assert_eq!(req.body, pool.content[5][2]);
    }
}
