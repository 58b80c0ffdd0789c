//! A seeded closed-loop client swarm for chaos drills and benchmarks.
//!
//! `clients` threads each run `requests_per_client` sequential requests
//! (closed loop: a client never has two requests outstanding). The verb
//! mix, payload sizes, and key choices are drawn from a per-client
//! `StdRng` seeded as `seed ^ fnv1a(client_index)` — so the *multiset* of
//! requests the swarm offers is a pure function of the config, regardless
//! of thread interleaving.
//!
//! Every outcome is tallied by typed code — including transport-level
//! failures (`transport_eof`, `transport_refused`, …), because a chaos
//! gate that cannot see dropped connections cannot bound them. Latency
//! percentiles are computed over the server's deterministic virtual-cost
//! model ([`crate::protocol::virtual_cost_us`]) as an order-independent
//! multiset, which is what makes a [`SwarmReport`] byte-identical across
//! same-seed runs.

use crate::protocol::{self, Request, Response, Verb, DEFAULT_MAX_FRAME_BYTES};
use lake_core::value::fnv1a;
use lake_core::{Json, LakeError};
use lake_sched::{TraceRecord, WorkloadTrace};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeMap;

/// Shape of one swarm run.
#[derive(Debug, Clone)]
pub struct SwarmConfig {
    /// Concurrent client threads.
    pub clients: usize,
    /// Sequential requests per client.
    pub requests_per_client: usize,
    /// Tenant pool size; client `i` acts as tenant `i % tenants`.
    pub tenants: usize,
    /// Master seed for the deterministic request mix.
    pub seed: u64,
    /// Approximate payload length for `put` bodies.
    pub payload_len: usize,
    /// Client-side socket deadline per request.
    pub request_timeout_ms: u64,
    /// Frame ceiling for responses.
    pub max_frame_bytes: usize,
    /// Percent (0–100) of storage requests replaced by the `flaky` chaos
    /// verb (requires a chaos-enabled server).
    pub flaky_percent: u8,
    /// Percent (0–100) of storage requests replaced by the `boom` chaos
    /// verb (panics the handler; requires a chaos-enabled server).
    pub boom_percent: u8,
    /// When set, tenant 0's clients send *only* `health` requests: their
    /// quota consumption becomes pure arithmetic (offered − budget =
    /// rejections, exactly), which the greedy-tenant gates assert.
    pub greedy_tenant_zero: bool,
}

impl Default for SwarmConfig {
    fn default() -> SwarmConfig {
        SwarmConfig {
            clients: 64,
            requests_per_client: 20,
            tenants: 8,
            seed: 42,
            payload_len: 128,
            request_timeout_ms: 5_000,
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            flaky_percent: 0,
            boom_percent: 0,
            greedy_tenant_zero: false,
        }
    }
}

/// Aggregated swarm outcome. Everything here is deterministic for a fixed
/// `(config, server-config)` pair when the server is fault-free or its
/// fault plan is fully absorbed by retries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SwarmReport {
    /// Requests attempted (clients × requests_per_client).
    pub offered: u64,
    /// Requests answered `ok`.
    pub ok: u64,
    /// Outcome tally: typed response codes plus `transport_*` categories.
    pub by_code: BTreeMap<String, u64>,
    /// Connections that failed below the protocol (subset of `by_code`).
    pub transport_errors: u64,
    /// Virtual-cost percentiles over successful responses, microseconds.
    pub p50_us: u64,
    /// 99th percentile.
    pub p99_us: u64,
    /// Mean.
    pub mean_us: u64,
    /// Maximum.
    pub max_us: u64,
}

impl SwarmReport {
    /// Canonical JSON (sorted keys via [`Json`]'s `BTreeMap` objects) —
    /// the payload `tests/chaos.rs` byte-compares across same-seed runs.
    pub fn to_json(&self, cfg: &SwarmConfig) -> Json {
        let by_code: Vec<(String, Json)> = self
            .by_code
            .iter()
            .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
            .collect();
        Json::obj(vec![
            ("clients", Json::Num(cfg.clients as f64)),
            ("requests_per_client", Json::Num(cfg.requests_per_client as f64)),
            ("tenants", Json::Num(cfg.tenants as f64)),
            ("seed", Json::Num(cfg.seed as f64)),
            ("offered", Json::Num(self.offered as f64)),
            ("ok", Json::Num(self.ok as f64)),
            (
                "by_code",
                Json::Object(by_code.into_iter().collect()),
            ),
            ("transport_errors", Json::Num(self.transport_errors as f64)),
            ("p50_us", Json::Num(self.p50_us as f64)),
            ("p99_us", Json::Num(self.p99_us as f64)),
            ("mean_us", Json::Num(self.mean_us as f64)),
            ("max_us", Json::Num(self.max_us as f64)),
        ])
    }
}

/// Tally one client-side outcome into `(code → count)`.
fn code_label(result: &Result<Response, LakeError>) -> String {
    match result {
        Ok(resp) => resp.code.name().to_string(),
        Err(LakeError::Transient(msg)) if msg.starts_with("connect") => {
            "transport_refused".to_string()
        }
        Err(LakeError::Transient(msg)) if msg.starts_with("deadline") => {
            "transport_timeout".to_string()
        }
        Err(LakeError::Io(msg)) if msg.contains("closed before responding") => {
            "transport_eof".to_string()
        }
        Err(LakeError::Parse(_)) => "transport_parse".to_string(),
        Err(_) => "transport_io".to_string(),
    }
}

struct ClientOutcome {
    by_code: BTreeMap<String, u64>,
    costs: Vec<u64>,
}

/// The full request sequence client `index` offers — a pure function of
/// the config (responses never feed back into the stream), which is what
/// makes both the swarm's offered multiset and its captured trace
/// deterministic across thread interleavings.
fn client_requests(cfg: &SwarmConfig, index: usize) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ fnv1a(&(index as u64).to_le_bytes()));
    let tenant = format!("tenant{}", index % cfg.tenants.max(1));
    let greedy = cfg.greedy_tenant_zero && index.is_multiple_of(cfg.tenants.max(1));
    let mut put_keys: Vec<String> = Vec::new();
    (0..cfg.requests_per_client)
        .map(|seq| {
            if greedy {
                Request::new(&tenant, Verb::Health)
            } else {
                build_request(&mut rng, cfg, &tenant, index, seq, &mut put_keys)
            }
        })
        .collect()
}

fn run_client(addr: &str, cfg: &SwarmConfig, index: usize) -> ClientOutcome {
    let mut by_code: BTreeMap<String, u64> = BTreeMap::new();
    let mut costs: Vec<u64> = Vec::with_capacity(cfg.requests_per_client);
    for req in client_requests(cfg, index) {
        let result = protocol::request(addr, &req, cfg.request_timeout_ms, cfg.max_frame_bytes);
        *by_code.entry(code_label(&result)).or_insert(0) += 1;
        if let Ok(resp) = &result {
            if resp.is_ok() {
                costs.push(resp.cost_us);
            }
        }
    }
    ClientOutcome { by_code, costs }
}

/// Client `index`'s traced timeline: closed-loop virtual arrivals (each
/// request arrives when the model says the previous one completed) and
/// the server's own cost model as service demand. The byte count matches
/// the server's `frame_bytes` exactly because both sides measure the
/// canonical re-serialization of the request JSON.
fn client_trace(cfg: &SwarmConfig, index: usize) -> Vec<TraceRecord> {
    let mut arrival_us = 0u64;
    client_requests(cfg, index)
        .iter()
        .map(|req| {
            let bytes = req.to_json().to_string().len() as u64;
            let cost_us = protocol::virtual_cost_us(req.verb, bytes);
            let rec = TraceRecord {
                arrival_us,
                tenant: req.tenant.clone(),
                verb: req.verb.name().to_string(),
                cost_us,
            };
            arrival_us = arrival_us.saturating_add(cost_us);
            rec
        })
        .collect()
}

/// Capture the canonical workload trace a swarm with this config offers:
/// every client's closed-loop virtual timeline, merged and canonicalized.
/// Pure — no server needed — so the `--trace` flag can serialize it twice
/// and byte-compare before writing, and `lake-sched` replays of the same
/// config are guaranteed to simulate the exact workload the swarm ran.
pub fn capture_trace(cfg: &SwarmConfig) -> WorkloadTrace {
    let mut trace = WorkloadTrace::new("swarm", cfg.seed);
    for index in 0..cfg.clients {
        trace.records.extend(client_trace(cfg, index));
    }
    trace.canonicalize();
    trace
}

fn build_request(
    rng: &mut StdRng,
    cfg: &SwarmConfig,
    tenant: &str,
    index: usize,
    seq: usize,
    put_keys: &mut Vec<String>,
) -> Request {
    // Chaos substitution first, so its rate is exact per the rng stream.
    let roll: u8 = rng.random_range(0..100u8);
    if roll < cfg.boom_percent {
        return Request::new(tenant, Verb::Boom);
    }
    if roll < cfg.boom_percent.saturating_add(cfg.flaky_percent) {
        return Request::new(tenant, Verb::Flaky);
    }
    let pick: u8 = rng.random_range(0..100u8);
    if pick < 35 {
        // Put one of this client's own keys (client-scoped names keep the
        // mix independent across clients).
        let slot: usize = rng.random_range(0..4usize);
        let name = format!("c{index}-k{slot}");
        let fill: u8 = rng.random_range(0..26u8);
        let ch = char::from(b'a' + fill);
        let body: String = std::iter::repeat_n(ch, cfg.payload_len.max(1)).collect();
        if !put_keys.contains(&name) {
            put_keys.push(name.clone());
        }
        Request::new(tenant, Verb::Put).with_name(&name).with_kind("text").with_body(Json::str(body))
    } else if pick < 65 {
        // Get: mostly own put keys, sometimes a deterministic miss.
        let miss: u8 = rng.random_range(0..5u8);
        let name = if put_keys.is_empty() || miss == 0 {
            format!("c{index}-missing-{seq}")
        } else {
            let i: usize = rng.random_range(0..put_keys.len());
            put_keys.get(i).cloned().unwrap_or_else(|| format!("c{index}-k0"))
        };
        Request::new(tenant, Verb::Get).with_name(&name)
    } else if pick < 75 {
        Request::new(tenant, Verb::List)
    } else if pick < 85 {
        Request::new(tenant, Verb::Stats)
    } else {
        Request::new(tenant, Verb::Health)
    }
}

/// Exact order statistic: the `q`-th percentile of a sorted slice —
/// the workspace-wide definition with pinned empty/single semantics.
use lake_core::stats::percentile_u64 as percentile;

/// Run the swarm against `addr` and aggregate the outcome.
pub fn run_swarm(addr: &str, cfg: &SwarmConfig) -> SwarmReport {
    let handles: Vec<std::thread::JoinHandle<ClientOutcome>> = (0..cfg.clients)
        .map(|i| {
            let addr = addr.to_string();
            let cfg = cfg.clone();
            std::thread::spawn(move || run_client(&addr, &cfg, i))
        })
        .collect();
    let mut by_code: BTreeMap<String, u64> = BTreeMap::new();
    let mut costs: Vec<u64> = Vec::new();
    for h in handles {
        // A client thread never panics by construction; if one does, fold
        // it into the transport tally rather than poisoning the run.
        match h.join() {
            Ok(outcome) => {
                for (k, v) in outcome.by_code {
                    *by_code.entry(k).or_insert(0) += v;
                }
                costs.extend(outcome.costs);
            }
            Err(_) => *by_code.entry("transport_client_panic".to_string()).or_insert(0) += 1,
        }
    }
    costs.sort_unstable();
    let offered = (cfg.clients * cfg.requests_per_client) as u64;
    let ok = by_code.get("ok").copied().unwrap_or(0);
    let transport_errors = by_code
        .iter()
        .filter(|(k, _)| k.starts_with("transport_"))
        .map(|(_, v)| *v)
        .sum();
    let mean_us = if costs.is_empty() {
        0
    } else {
        costs.iter().sum::<u64>() / costs.len() as u64
    };
    SwarmReport {
        offered,
        ok,
        transport_errors,
        p50_us: percentile(&costs, 50),
        p99_us: percentile(&costs, 99),
        mean_us,
        max_us: costs.last().copied().unwrap_or(0),
        by_code,
    }
}

/// [`run_swarm`] plus the canonical trace of what it offered — the pair
/// the `swarm --trace <path>` flag and `sched_calibration.rs` consume.
/// The trace is computed from the config, not from responses, so chaos
/// faults perturb the report but never the trace.
pub fn run_swarm_traced(addr: &str, cfg: &SwarmConfig) -> (SwarmReport, WorkloadTrace) {
    let report = run_swarm(addr, cfg);
    (report, capture_trace(cfg))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_exact_order_statistics() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50), 50);
        assert_eq!(percentile(&v, 99), 99);
        assert_eq!(percentile(&v, 100), 100);
        assert_eq!(percentile(&[], 50), 0);
        assert_eq!(percentile(&[7], 99), 7);
    }

    #[test]
    fn request_mix_is_deterministic_per_seed() {
        let cfg = SwarmConfig { clients: 1, requests_per_client: 50, ..SwarmConfig::default() };
        let build = |cfg: &SwarmConfig| {
            let mut rng = StdRng::seed_from_u64(cfg.seed ^ fnv1a(&3u64.to_le_bytes()));
            let mut keys = Vec::new();
            (0..cfg.requests_per_client)
                .map(|seq| {
                    let r = build_request(&mut rng, cfg, "t", 3, seq, &mut keys);
                    format!("{:?}:{}:{}", r.verb, r.name, r.body.to_string().len())
                })
                .collect::<Vec<String>>()
        };
        assert_eq!(build(&cfg), build(&cfg));
        let other = SwarmConfig { seed: 7, ..cfg.clone() };
        assert_ne!(build(&cfg), build(&other), "different seed, different mix");
    }

    #[test]
    fn captured_trace_is_deterministic_and_canonical() {
        let cfg = SwarmConfig { clients: 6, requests_per_client: 10, ..SwarmConfig::default() };
        let a = capture_trace(&cfg);
        let b = capture_trace(&cfg);
        assert_eq!(a.to_json().to_string(), b.to_json().to_string());
        assert_eq!(a.len(), 60);
        assert_eq!(a.source, "swarm");
        assert_eq!(a.seed, cfg.seed);
        // Canonical order: non-decreasing arrivals.
        assert!(a.records.windows(2).all(|w| w[0].arrival_us <= w[1].arrival_us));
        let other = capture_trace(&SwarmConfig { seed: 7, ..cfg });
        assert_ne!(a.to_json().to_string(), other.to_json().to_string());
    }

    #[test]
    fn trace_costs_match_the_server_cost_model() {
        let cfg = SwarmConfig { clients: 2, requests_per_client: 20, ..SwarmConfig::default() };
        for index in 0..cfg.clients {
            let reqs = client_requests(&cfg, index);
            let trace = client_trace(&cfg, index);
            assert_eq!(reqs.len(), trace.len());
            let mut expected_arrival = 0u64;
            for (req, rec) in reqs.iter().zip(trace.iter()) {
                let bytes = req.to_json().to_string().len() as u64;
                assert_eq!(rec.cost_us, protocol::virtual_cost_us(req.verb, bytes));
                assert_eq!(rec.arrival_us, expected_arrival, "closed-loop cumsum");
                assert_eq!(rec.verb, req.verb.name());
                expected_arrival += rec.cost_us;
            }
        }
    }

    #[test]
    fn report_json_is_canonical_and_stable() {
        let cfg = SwarmConfig::default();
        let mut by_code = BTreeMap::new();
        by_code.insert("ok".to_string(), 10u64);
        by_code.insert("not_found".to_string(), 2u64);
        let report = SwarmReport {
            offered: 12,
            ok: 10,
            by_code,
            transport_errors: 0,
            p50_us: 100,
            p99_us: 900,
            mean_us: 200,
            max_us: 950,
        };
        let a = report.to_json(&cfg).to_string();
        let b = report.to_json(&cfg).to_string();
        assert_eq!(a, b);
        assert!(a.contains("\"by_code\":{\"not_found\":2,\"ok\":10}"), "{a}");
    }
}
