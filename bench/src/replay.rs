//! Layer replay for the serve workloads (traced run only): the same
//! seeded request stream the clients send, driven by one thread through
//! each public function the server's request path calls, each call timed
//! from outside and recorded as a span under its request. What the wire-level `wait_read` span holds beyond these
//! layers is reported as `unattributed`, never folded into a layer.

use crate::pass::Pass;
use crate::report::Report;
use crate::serve::{Mix, Op, OpStream, Pool, KEYS_PER_CLIENT};
use crate::stats::{tail_percentile, Timings};
use crate::trace::Tracer;
use crate::RunConfig;
use lake_core::retry::Clock;
use lake_core::{CrashSwitch, Json, LakeError, Result, SystemClock};
use lake_obs::MetricsRegistry;
use lake_query::{BreakerConfig, QuotaConfig};
use lake_server::protocol::{self, dataset_from_body, dataset_to_body, Request, Response};
use lake_server::wal::{self, Wal, WalConfig, WalOp, WalRecord};
use lake_server::{AdmissionController, Tenants};
use lake_store::durable::encode_frame;
use lake_store::polystore::Polystore;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Frames in the journal when `Wal::rotate` is timed.
const ROTATE_FRAMES: usize = 64;
const ROTATIONS: usize = 5;

fn replay_ops(mix: Mix) -> usize {
    match mix {
        Mix::Mixed => 4000,
        Mix::Bulk => 600,
    }
}

fn open_wal(dir: &Path, registry: &MetricsRegistry) -> Result<Wal> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| LakeError::Io(format!("create {}: {e}", dir.display())))?;
    let cfg = WalConfig::new(dir.to_string_lossy().into_owned());
    Ok(Wal::open(cfg, Arc::new(CrashSwitch::disabled()), registry)?.0)
}

/// Bytes the user handed over in a put body.
fn user_bytes(body: &Json) -> usize {
    match body {
        Json::Str(s) => s.len(),
        Json::Array(lines) => lines.iter().filter_map(Json::as_str).map(str::len).sum(),
        _ => 0,
    }
}

/// Timings of the put path and the get path, kept apart because their
/// frames differ by three orders of magnitude on `serve_bulk`.
#[derive(Default)]
struct PerVerb {
    put: Timings,
    get: Timings,
}

impl PerVerb {
    fn of(&mut self, op: Op) -> Option<&mut Timings> {
        match op {
            Op::Put { .. } => Some(&mut self.put),
            Op::GetHit { .. } => Some(&mut self.get),
            _ => None,
        }
    }
}

/// Replay the stream and report the per-layer metrics.
pub fn run(
    cfg: &RunConfig,
    mix: Mix,
    report: &mut Report,
    tracer: &mut Tracer,
    wait_put: &mut Timings,
    wait_get: &mut Timings,
) -> Result<()> {
    let pool = Pool::generate(mix, cfg.seed, 0);
    let other = Pool::generate(mix, cfg.seed, 1);
    let ops: Vec<Op> = OpStream::new(mix, cfg.seed, 0).take(replay_ops(mix)).collect();
    let tenants = Tenants::new(QuotaConfig::unlimited(), BreakerConfig::default());
    let store = Polystore::new();
    let admission = AdmissionController::new(256);
    let clock = SystemClock;
    let registry = MetricsRegistry::new();
    let wal_dir = cfg.work.join("replay-wal");
    let wal = open_wal(&wal_dir, &registry)?;

    let request_of = |frame: &[u8]| -> Result<Request> {
        let text = std::str::from_utf8(frame).map_err(|_| LakeError::parse("frame is not UTF-8"))?;
        Request::from_json(&lake_formats::json::parse(text)?)
    };
    // The live lake: both clients' keys, as the server holds them.
    for p in [&pool, &other] {
        for key in 0..KEYS_PER_CLIENT {
            let req = request_of(p.frame(Op::Put { key, version: 0 }))?;
            let rec = WalRecord {
                seq: 0,
                op: WalOp::Put,
                tenant: req.tenant,
                name: req.name,
                kind: req.kind,
                body: req.body,
            };
            wal::apply_record(&tenants, &store, &rec)?;
        }
    }

    let (mut parse, mut from_json, mut encode) = (PerVerb::default(), PerVerb::default(), PerVerb::default());
    let (mut from_body, mut to_body, mut offer, mut ladder) =
        (Timings::default(), Timings::default(), Timings::default(), Timings::default());
    let (mut append, mut apply, mut wal_encode, mut put_store, mut retrieve) =
        (Timings::default(), Timings::default(), Timings::default(), Timings::default(), Timings::default());
    let mut user = 0usize;
    for (i, &op) in ops.iter().enumerate() {
        // One root span per replayed request, one child span per layer.
        let mut request = Pass::begin(tracer, "replay.request", i as u64);
        let mut s = request.root_stage();
        let frame = pool.frame(op);
        let text = std::str::from_utf8(frame).map_err(|_| LakeError::parse("frame is not UTF-8"))?;
        let mut scratch = Timings::default();
        let json = s.op("formats.json.parse", parse.of(op).unwrap_or(&mut scratch), || {
            lake_formats::json::parse(text)
        })?;
        let req =
            s.op("server.protocol.request_from_json", from_json.of(op).unwrap_or(&mut scratch), || {
                Request::from_json(&json)
            })?;
        s.op("server.admission.offer_release", &mut offer, || {
            admission.offer();
            admission.release();
        });
        if matches!(op, Op::Put { .. } | Op::GetHit { .. }) {
            s.op("server.tenant.charge_admit_record", &mut ladder, || {
                tenants.charge(&req.tenant, frame.len() as u64);
                tenants.admit(&req.tenant, clock.now_micros());
                tenants.record(&req.tenant, clock.now_micros(), true)
            });
        }
        let cost = protocol::virtual_cost_us(req.verb, frame.len() as u64);
        let body = match op {
            Op::Put { .. } => {
                user += user_bytes(&req.body);
                let dataset = s.op("server.protocol.dataset_from_body", &mut from_body, || {
                    dataset_from_body(&req.kind, &req.body)
                })?;
                let seq = s.op("server.wal.append", &mut append, || {
                    wal.append(WalOp::Put, &req.tenant, &req.name, &req.kind, &req.body)
                })?;
                let rec = WalRecord {
                    seq,
                    op: WalOp::Put,
                    tenant: req.tenant.clone(),
                    name: req.name.clone(),
                    kind: req.kind.clone(),
                    body: req.body.clone(),
                };
                s.op("server.wal.encode_frame", &mut wal_encode, || {
                    encode_frame(rec.to_json().to_string().as_bytes())
                })?;
                let out = s.op("server.wal.apply_record", &mut apply, || {
                    wal::apply_record(&tenants, &store, &rec)
                })?;
                wal.mark_applied(seq);
                let id = tenants.assign(&req.tenant, &req.name);
                let scoped = Tenants::scoped(&req.tenant, &req.name);
                s.op("store.polystore.store", &mut put_store, || store.store(id, &scoped, dataset))?;
                out
            }
            Op::GetHit { .. } => {
                let id =
                    tenants.lookup(&req.tenant, &req.name).ok_or_else(|| LakeError::not_found(&req.name))?;
                let dataset = s.op("store.polystore.retrieve", &mut retrieve, || store.retrieve(id))?;
                s.op("server.protocol.dataset_to_body", &mut to_body, || dataset_to_body(&dataset))
            }
            _ => Json::Null,
        };
        s.op("server.protocol.response_encode", encode.of(op).unwrap_or(&mut scratch), || {
            Response::ok(body, cost).to_json().to_string()
        });
        request.end(1);
    }

    let journal =
        std::fs::metadata(Wal::journal_path(&WalConfig::new(wal_dir.to_string_lossy().into_owned())))
            .map(|m| m.len())
            .unwrap_or(0);
    report.set("server.wal.bytes_per_user_byte", journal as f64 / user.max(1) as f64, append.n());

    // Wal::rotate with the live lake in the store and a short journal.
    let mut rotate = Timings::default();
    let mut next = 0usize;
    for _ in 0..ROTATIONS {
        for _ in 0..ROTATE_FRAMES {
            let key = next % KEYS_PER_CLIENT;
            next += 1;
            let req = request_of(pool.frame(Op::Put { key, version: 0 }))?;
            let seq = wal.append(WalOp::Put, &req.tenant, &req.name, &req.kind, &req.body)?;
            wal.mark_applied(seq);
        }
        let started = Instant::now();
        wal.rotate(&tenants, &store)?;
        rotate.push(started.elapsed());
    }
    drop(wal);

    // Two appenders at once: does group commit batch them?
    let registry2 = MetricsRegistry::new();
    let wal2 = open_wal(&wal_dir, &registry2)?;
    let puts: Vec<Request> = ops
        .iter()
        .filter(|op| matches!(op, Op::Put { .. }))
        .map(|&op| request_of(pool.frame(op)))
        .collect::<Result<_>>()?;
    let halves = puts.split_at(puts.len() / 2);
    let mut append_2x = Timings::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = [halves.0, halves.1]
            .into_iter()
            .map(|half| {
                let wal2 = &wal2;
                s.spawn(move || {
                    let mut t = Timings::default();
                    for req in half {
                        let started = Instant::now();
                        let seq = wal2.append(WalOp::Put, &req.tenant, &req.name, &req.kind, &req.body);
                        t.push(started.elapsed());
                        if let Ok(seq) = seq {
                            wal2.mark_applied(seq);
                        }
                    }
                    t
                })
            })
            .collect();
        for h in handles {
            if let Ok(t) = h.join() {
                append_2x.merge(&t);
            }
        }
    });
    let snap = registry2.snapshot();
    let appended = snap.counter_value("lake_server_wal_appended_total");
    let batches = snap.counter_value("lake_server_wal_fsync_batches_total");
    report.check(appended == puts.len() as u64, "replay_append_lost");
    drop(wal2);
    let _ = std::fs::remove_dir_all(&wal_dir);

    report.set("formats.json.parse_us_p50", parse.put.p50_us(), parse.put.n());
    report.set("server.protocol.request_from_json_us_p50", from_json.put.p50_us(), from_json.put.n());
    report.set("server.protocol.dataset_from_body_us_p50", from_body.p50_us(), from_body.n());
    report.set("server.protocol.dataset_to_body_us_p50", to_body.p50_us(), to_body.n());
    report.set("server.protocol.response_encode_us_p50", encode.get.p50_us(), encode.get.n());
    report.set("server.admission.offer_release_us_p50", offer.p50_us(), offer.n());
    report.set("server.tenant.charge_admit_record_us_p50", ladder.p50_us(), ladder.n());
    report.set("server.wal.append_us_p50", append.p50_us(), append.n());
    if let Some(q) = tail_percentile(append.n()) {
        report.set("server.wal.append_us_p99", append.percentile_us(q), append.n());
    }
    report.set("server.wal.append_2x_us_p50", append_2x.p50_us(), append_2x.n());
    report.set(
        "server.wal.replay_frames_per_fsync",
        appended as f64 / batches.max(1) as f64,
        batches as usize,
    );
    report.set("server.wal.rotate_ms_p50", rotate.p50_ms(), rotate.n());
    report.set("server.wal.apply_record_us_p50", apply.p50_us(), apply.n());
    report.set("store.polystore.store_us_p50", put_store.p50_us(), put_store.n());
    report.set("store.polystore.retrieve_us_p50", retrieve.p50_us(), retrieve.n());

    // The server calls dataset_from_body twice on a put: once to validate
    // before journaling, once inside apply_record (already in `apply`).
    let fixed = offer.p50_us() + ladder.p50_us();
    let put_layers = parse.put.p50_us()
        + from_json.put.p50_us()
        + from_body.p50_us()
        + append.p50_us()
        + apply.p50_us()
        + encode.put.p50_us()
        + fixed;
    let get_layers = parse.get.p50_us()
        + from_json.get.p50_us()
        + retrieve.p50_us()
        + to_body.p50_us()
        + encode.get.p50_us()
        + fixed;
    report.set("server.server.unattributed_put_us", wait_put.p50_us() - put_layers, wait_put.n());
    report.set("server.server.unattributed_get_us", wait_get.p50_us() - get_layers, wait_get.n());
    // JSON + store + journal bytes: the layers whose cost grows with the
    // payload, as a share of what a put waits for.
    let payload = parse.put.p50_us()
        + from_json.put.p50_us()
        + from_body.p50_us()
        + wal_encode.p50_us()
        + apply.p50_us()
        + encode.put.p50_us();
    report.set("server.server.payload_share_of_put", payload / wait_put.p50_us().max(1e-9), wait_put.n());
    Ok(())
}
