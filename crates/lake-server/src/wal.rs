//! The write-ahead journal and recovery path (durability tier).
//!
//! Every mutating verb (`put`/`del`) is journaled — framed, checksummed,
//! and fsynced — *before* the worker acknowledges it on the socket, so a
//! `kill -9` at any instant loses no acknowledged write. The pieces:
//!
//! * **journal** — length-prefixed FNV-1a-64-checksummed frames (the
//!   [`lake_store::durable`] discipline, byte-compatible with the
//!   lakehouse `TxnLog` checksum family) holding one [`WalRecord`] each,
//!   appended under **group commit**: concurrent writers enqueue encoded
//!   frames, one leader drains a batch of them (at most two per worker
//!   of [`lake_core::Parallelism`], the same knob as the worker pool)
//!   and pays a single `sync_data` for the whole batch;
//! * **recovery** — [`Wal::open`] truncates a torn tail (quarantining the
//!   damaged bytes under `_wal/quarantine/`), loads the checksummed
//!   snapshot if one exists, and hands back the suffix of records the
//!   server must replay; [`apply_record`] decodes each and hands it to
//!   the same `apply` the live path calls, so replay and live execution
//!   cannot diverge;
//! * **rotation** — once the journal holds `rotate_every` frames, the
//!   state at the **contiguous-applied watermark** is dumped to an
//!   atomically-replaced snapshot and the journal is compacted down to
//!   the frames past the watermark, bounding replay time. Rotation never
//!   quiesces writers: appends continue against the file lock while the
//!   snapshot is dumped lock-free.
//!
//! Crash points ([`lake_core::CrashPoint`]) bracket every edge of the
//! write path — before the journal write, torn mid-frame, after the
//! journal but before apply, after apply but before the ack — so the
//! restart-chaos harness can prove the exact visibility contract at each:
//! a write is readable after restart **iff** its frame hit the journal
//! intact.
//!
//! Lock ranks: the flush leader nests `SERVER_WAL_FILE` (21) →
//! `SERVER_WAL_QUEUE` (22), strictly ascending; the watermark
//! (`SERVER_WAL_MARK`, 23) is only ever taken alone. No lock is held
//! across a polystore call.

use crate::protocol::dataset_from_body;
use crate::tenant::Tenants;
use lake_core::sync::rank;
use lake_core::{
    CrashPoint, CrashSwitch, Dataset, Json, LakeError, OrderedMutex, Parallelism, Result,
};
use lake_obs::metrics::{Counter, Gauge};
use lake_obs::MetricsRegistry;
use lake_store::durable::{append_sync, atomic_write_sync, checksum_hex, encode_frame, scan_frames};
use lake_store::polystore::Polystore;
use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::fs::{File, OpenOptions};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Everything tunable about the journal.
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Root data directory; the journal lives under `<dir>/_wal/`.
    pub dir: String,
    /// Rotate (snapshot + compact) once the journal holds this many
    /// frames, so replay is bounded.
    pub rotate_every: u64,
}

impl WalConfig {
    /// Defaults: rotate every 1024 frames.
    pub fn new(dir: impl Into<String>) -> WalConfig {
        WalConfig { dir: dir.into(), rotate_every: 1024 }
    }
}

/// The mutation kind a journal record captures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalOp {
    /// Store a dataset.
    Put,
    /// Delete a dataset.
    Del,
}

impl WalOp {
    /// Stable journal label.
    pub fn name(self) -> &'static str {
        match self {
            WalOp::Put => "put",
            WalOp::Del => "del",
        }
    }

    /// Parse a journal label.
    pub fn parse(s: &str) -> Result<WalOp> {
        match s {
            "put" => Ok(WalOp::Put),
            "del" => Ok(WalOp::Del),
            other => Err(LakeError::parse(format!("unknown wal op: {other}"))),
        }
    }
}

/// One journaled mutation — everything replay needs to re-execute it.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// Journal sequence number (1-based, dense per journal lifetime).
    pub seq: u64,
    /// The mutation kind.
    pub op: WalOp,
    /// Owning tenant.
    pub tenant: String,
    /// Dataset name inside the tenant's namespace.
    pub name: String,
    /// Wire kind (`text`/`log`/`documents`); empty for `del`.
    pub kind: String,
    /// Request body; `Null` for `del`.
    pub body: Json,
}

/// The journal payload's layout, owned here for [`WalRecord::to_json`] and
/// [`Wal::append`] alike. Canonical JSON — `BTreeMap`-backed objects, so
/// the rendered bytes (and therefore the frame checksum) are deterministic.
fn record_json(seq: u64, op: WalOp, tenant: &str, name: &str, kind: &str, body: &Json) -> Json {
    Json::obj(vec![
        ("seq", Json::Num(seq as f64)),
        ("op", Json::str(op.name())),
        ("tenant", Json::str(tenant)),
        ("name", Json::str(name)),
        ("kind", Json::str(kind)),
        ("body", body.clone()),
    ])
}

impl WalRecord {
    /// The record as its journal payload (see [`record_json`]).
    pub fn to_json(&self) -> Json {
        record_json(self.seq, self.op, &self.tenant, &self.name, &self.kind, &self.body)
    }

    /// Decode one journal frame; `None` when the payload is not a record
    /// (not UTF-8, not JSON, a field missing). The only frame decoder:
    /// recovery and rotation both read the journal through it.
    fn from_frame(frame: &[u8]) -> Option<WalRecord> {
        let text = std::str::from_utf8(frame).ok()?;
        let j = lake_formats::json::parse(text).ok()?;
        WalRecord::from_json(&j).ok()
    }

    /// Parse a journal frame payload.
    pub fn from_json(j: &Json) -> Result<WalRecord> {
        let seq = j
            .get("seq")
            .and_then(Json::as_f64)
            .ok_or_else(|| LakeError::parse("wal record missing \"seq\""))?;
        let op = j
            .get("op")
            .and_then(Json::as_str)
            .ok_or_else(|| LakeError::parse("wal record missing \"op\""))?;
        let field = |key: &str| -> Result<String> {
            j.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| LakeError::parse(format!("wal record missing {key:?}")))
        };
        Ok(WalRecord {
            seq: seq as u64,
            op: WalOp::parse(op)?,
            tenant: field("tenant")?,
            name: field("name")?,
            kind: field("kind")?,
            body: j.get("body").cloned().unwrap_or(Json::Null),
        })
    }
}

/// What [`Wal::open`] found on disk — deterministic for a given set of
/// on-disk bytes, so same-seed crash runs recover byte-identically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Valid journal bytes retained after torn-tail truncation.
    pub journal_bytes: u64,
    /// Intact frames found in the journal.
    pub frames: u64,
    /// Records replayed into the live namespace (set by the server after
    /// the replay pass).
    pub replayed: u64,
    /// Frames at or below the snapshot watermark, skipped as stale.
    pub stale_skipped: u64,
    /// Damaged tail bytes truncated and quarantined.
    pub torn_bytes: u64,
    /// `true` when a valid snapshot was restored.
    pub snapshot_loaded: bool,
    /// The snapshot's watermark sequence (0 without a snapshot).
    pub snapshot_seq: u64,
    /// `true` when a snapshot existed but failed its checksum and was
    /// moved to quarantine.
    pub snapshot_quarantined: bool,
}

impl RecoveryReport {
    /// Canonical JSON (the `recovery` line the server binary prints).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("journal_bytes", Json::Num(self.journal_bytes as f64)),
            ("frames", Json::Num(self.frames as f64)),
            ("replayed", Json::Num(self.replayed as f64)),
            ("stale_skipped", Json::Num(self.stale_skipped as f64)),
            ("torn_bytes", Json::Num(self.torn_bytes as f64)),
            ("snapshot_loaded", Json::Bool(self.snapshot_loaded)),
            ("snapshot_seq", Json::Num(self.snapshot_seq as f64)),
            ("snapshot_quarantined", Json::Bool(self.snapshot_quarantined)),
        ])
    }

    /// Parse a report (the chaos harness reads the binary's stdout).
    pub fn from_json(j: &Json) -> Result<RecoveryReport> {
        let num = |key: &str| -> Result<u64> {
            j.get(key)
                .and_then(Json::as_f64)
                .map(|n| n as u64)
                .ok_or_else(|| LakeError::parse(format!("recovery report missing {key:?}")))
        };
        let flag = |key: &str| -> bool {
            matches!(j.get(key), Some(Json::Bool(true)))
        };
        Ok(RecoveryReport {
            journal_bytes: num("journal_bytes")?,
            frames: num("frames")?,
            replayed: num("replayed")?,
            stale_skipped: num("stale_skipped")?,
            torn_bytes: num("torn_bytes")?,
            snapshot_loaded: flag("snapshot_loaded"),
            snapshot_seq: num("snapshot_seq")?,
            snapshot_quarantined: flag("snapshot_quarantined"),
        })
    }
}

/// What the server must do with the disk state [`Wal::open`] found.
#[derive(Debug)]
pub struct Recovered {
    /// Snapshot payload (`{"seq": n, "tenants": {...}}`) to restore
    /// before replay, when one was valid.
    pub snapshot: Option<Json>,
    /// Journal records past the snapshot watermark, in seq order.
    pub records: Vec<WalRecord>,
    /// The report with every field except `replayed` finalized.
    pub report: RecoveryReport,
}

struct WalQueue {
    next_seq: u64,
    /// Encoded frames awaiting a group-commit leader, in seq order.
    pending: Vec<(u64, Vec<u8>)>,
}

struct Watermark {
    /// Lowest seq not yet resolved; `next - 1` is the contiguous-applied
    /// watermark rotation snapshots at.
    next: u64,
    /// Resolved seqs above `next` (out-of-order completions).
    pending: BTreeSet<u64>,
}

/// The running journal. See the module docs for the locking and
/// group-commit design.
pub struct Wal {
    cfg: WalConfig,
    /// Max frames one group-commit leader drains per fsync: two per
    /// worker of the pool (`RUSTLAKE_WORKERS`).
    group_cap: usize,
    crash: Arc<CrashSwitch>,
    queue: OrderedMutex<WalQueue>,
    file: OrderedMutex<File>,
    mark: OrderedMutex<Watermark>,
    /// Highest seq whose frame has been fsynced.
    durable_seq: AtomicU64,
    /// Frames physically in the journal (drives rotation).
    depth: AtomicU64,
    rotating: AtomicBool,
    appended: Arc<Counter>,
    fsync_batches: Arc<Counter>,
    rotations: Arc<Counter>,
    rotation_errors: Arc<Counter>,
    depth_gauge: Arc<Gauge>,
}

impl Wal {
    fn wal_dir(cfg: &WalConfig) -> PathBuf {
        Path::new(&cfg.dir).join("_wal")
    }

    /// The journal file path for a config (tests and gates inspect it).
    pub fn journal_path(cfg: &WalConfig) -> PathBuf {
        Wal::wal_dir(cfg).join("journal.log")
    }

    /// The snapshot file path for a config.
    pub fn snapshot_path(cfg: &WalConfig) -> PathBuf {
        Wal::wal_dir(cfg).join("snapshot.json")
    }

    /// The quarantine directory for a config.
    pub fn quarantine_dir(cfg: &WalConfig) -> PathBuf {
        Wal::wal_dir(cfg).join("quarantine")
    }

    /// Open (creating if absent) the journal under `cfg.dir`, truncating
    /// and quarantining any torn tail, and return the recovery work.
    pub fn open(
        cfg: WalConfig,
        crash: Arc<CrashSwitch>,
        registry: &MetricsRegistry,
    ) -> Result<(Wal, Recovered)> {
        let quarantine = Wal::quarantine_dir(&cfg);
        std::fs::create_dir_all(&quarantine)
            .map_err(|e| LakeError::Io(format!("create {}: {e}", quarantine.display())))?;

        // 1. Snapshot: load and checksum-validate; quarantine on damage.
        let snap_path = Wal::snapshot_path(&cfg);
        let mut snapshot = None;
        let mut snapshot_quarantined = false;
        let mut snapshot_seq = 0u64;
        if snap_path.exists() {
            match load_snapshot(&snap_path) {
                Ok(payload) => {
                    snapshot_seq = payload
                        .get("seq")
                        .and_then(Json::as_f64)
                        .map(|n| n as u64)
                        .unwrap_or(0);
                    snapshot = Some(payload);
                }
                Err(_) => {
                    let dest = quarantine.join("snapshot.corrupt");
                    std::fs::rename(&snap_path, &dest)
                        .map_err(|e| LakeError::Io(format!("quarantine snapshot: {e}")))?;
                    snapshot_quarantined = true;
                }
            }
        }

        // 2. Journal: longest valid frame prefix; quarantine + truncate
        // the rest. A frame whose checksum passes but whose payload does
        // not parse is treated the same as torn — the suffix from that
        // frame on is damage.
        let journal_path = Wal::journal_path(&cfg);
        let bytes = match std::fs::read(&journal_path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(LakeError::Io(format!("read journal: {e}"))),
        };
        let scan = scan_frames(&bytes);
        let mut records = Vec::with_capacity(scan.frames.len());
        let mut keep_len = scan.valid_len;
        let mut offset = 0usize;
        for frame in &scan.frames {
            let Some(rec) = WalRecord::from_frame(frame) else {
                keep_len = offset;
                break;
            };
            records.push(rec);
            offset += frame.len() + lake_store::durable::FRAME_OVERHEAD;
        }
        let torn_bytes = (bytes.len() - keep_len) as u64;
        if keep_len < bytes.len() {
            let suffix = bytes.get(keep_len..).unwrap_or(&[]);
            atomic_write_sync(&quarantine.join(format!("{keep_len:020}.torn")), suffix)?;
            let f = OpenOptions::new()
                .write(true)
                .create(true)
                .open(&journal_path)
                .map_err(|e| LakeError::Io(format!("open journal for truncate: {e}")))?;
            f.set_len(keep_len as u64)
                .and_then(|()| f.sync_all())
                .map_err(|e| LakeError::Io(format!("truncate journal: {e}")))?;
        }

        // 3. Partition stale (≤ snapshot watermark) from live records.
        let frames = records.len() as u64;
        let max_seq = records.iter().map(|r| r.seq).max().unwrap_or(0);
        let next_seq = max_seq.max(snapshot_seq) + 1;
        let stale = records.iter().filter(|r| r.seq <= snapshot_seq).count() as u64;
        records.retain(|r| r.seq > snapshot_seq);

        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&journal_path)
            .map_err(|e| LakeError::Io(format!("open journal: {e}")))?;

        registry
            .counter("lake_server_wal_torn_bytes_total")
            .add(torn_bytes);
        let depth_gauge = registry.gauge("lake_server_wal_depth");
        depth_gauge.set(i64::try_from(frames).unwrap_or(i64::MAX));
        let wal = Wal {
            group_cap: Parallelism::auto().workers().max(1) * 2,
            crash,
            queue: OrderedMutex::new(
                WalQueue { next_seq, pending: Vec::new() },
                rank::SERVER_WAL_QUEUE,
                "server.wal.queue",
            ),
            file: OrderedMutex::new(file, rank::SERVER_WAL_FILE, "server.wal.file"),
            mark: OrderedMutex::new(
                Watermark { next: next_seq, pending: BTreeSet::new() },
                rank::SERVER_WAL_MARK,
                "server.wal.mark",
            ),
            durable_seq: AtomicU64::new(next_seq - 1),
            depth: AtomicU64::new(frames),
            rotating: AtomicBool::new(false),
            appended: registry.counter("lake_server_wal_appended_total"),
            fsync_batches: registry.counter("lake_server_wal_fsync_batches_total"),
            rotations: registry.counter("lake_server_wal_rotations_total"),
            rotation_errors: registry.counter("lake_server_wal_rotation_errors_total"),
            depth_gauge,
            cfg,
        };
        let report = RecoveryReport {
            journal_bytes: keep_len as u64,
            frames,
            replayed: 0,
            stale_skipped: stale,
            torn_bytes,
            snapshot_loaded: snapshot.is_some(),
            snapshot_seq,
            snapshot_quarantined,
        };
        Ok((wal, Recovered { snapshot, records, report }))
    }

    /// Journal one mutation and return once its frame is fsynced (group
    /// commit: the fsync may cover other writers' frames too). The seq it
    /// returns orders this write against every other journaled mutation.
    pub fn append(&self, op: WalOp, tenant: &str, name: &str, kind: &str, body: &Json) -> Result<u64> {
        let seq = {
            let mut q = self.queue.lock();
            let seq = q.next_seq;
            let payload = record_json(seq, op, tenant, name, kind, body).to_string();
            let frame = encode_frame(payload.as_bytes())?;
            q.next_seq += 1;
            q.pending.push((seq, frame));
            seq
        };
        self.flush_to(seq)?;
        Ok(seq)
    }

    /// Group-commit loop: return once `seq` is durable, becoming the
    /// flush leader whenever no other writer has covered it yet.
    fn flush_to(&self, seq: u64) -> Result<()> {
        loop {
            if self.durable_seq.load(Ordering::Acquire) >= seq {
                return Ok(());
            }
            let mut file = self.file.lock();
            if self.durable_seq.load(Ordering::Acquire) >= seq {
                return Ok(());
            }
            let batch: Vec<(u64, Vec<u8>)> = {
                let mut q = self.queue.lock();
                let take = q.pending.len().min(self.group_cap);
                q.pending.drain(..take).collect()
            };
            // The queue cannot be empty here: a frame leaves `pending`
            // only under the file lock, and `durable_seq` advances past
            // it before that lock is released.
            let Some((last_seq, _)) = batch.last() else { continue };
            let max_seq = *last_seq;
            let mut buf = Vec::new();
            for (_, frame) in &batch {
                buf.extend_from_slice(frame);
            }
            if self.crash.triggered(CrashPoint::MidJournalTorn) {
                // Deterministic torn write: persist all but the tail of
                // the final frame's checksum, then die like `kill -9`.
                // Recovery must truncate the partial frame.
                let cut = buf.len().saturating_sub(5);
                let partial = buf.get(..cut).unwrap_or(&[]);
                let _ = append_sync(&mut file, partial);
                std::process::abort();
            }
            append_sync(&mut file, &buf)?;
            self.appended.add(batch.len() as u64);
            self.fsync_batches.inc();
            let depth = self.depth.fetch_add(batch.len() as u64, Ordering::SeqCst)
                + batch.len() as u64;
            self.depth_gauge.set(i64::try_from(depth).unwrap_or(i64::MAX));
            self.durable_seq.store(max_seq, Ordering::Release);
        }
    }

    /// Record that `seq`'s effect is resolved (applied, or definitively
    /// answered); advances the contiguous watermark rotation snapshots at.
    pub fn mark_applied(&self, seq: u64) {
        let mut guard = self.mark.lock();
        let m = &mut *guard;
        m.pending.insert(seq);
        while m.pending.remove(&m.next) {
            m.next += 1;
        }
    }

    /// Highest seq whose frame is fsynced.
    pub fn durable_seq(&self) -> u64 {
        self.durable_seq.load(Ordering::Acquire)
    }

    /// Frames physically in the journal.
    pub fn depth(&self) -> u64 {
        self.depth.load(Ordering::SeqCst)
    }

    /// Rotate when the journal has grown past `rotate_every` frames.
    /// Rotation failures never fail the triggering request — the journal
    /// is still durable, only unbounded — they are counted on
    /// `lake_server_wal_rotation_errors_total` instead.
    pub fn maybe_rotate(&self, tenants: &Tenants, store: &Polystore) {
        if self.depth.load(Ordering::SeqCst) < self.cfg.rotate_every.max(1) {
            return;
        }
        if self
            .rotating
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            return;
        }
        if self.rotate(tenants, store).is_err() {
            self.rotation_errors.inc();
        }
        self.rotating.store(false, Ordering::SeqCst);
    }

    /// Snapshot the state at the contiguous-applied watermark, then
    /// compact the journal down to the frames past it. Crash-safe at
    /// every step: both files move via atomic rename, and replay skips
    /// frames at or below the snapshot's watermark as stale.
    pub fn rotate(&self, tenants: &Tenants, store: &Polystore) -> Result<()> {
        let watermark = {
            let m = self.mark.lock();
            m.next.saturating_sub(1)
        };
        // Dump with no wal lock held; tenant/store locks are taken and
        // released inside each call.
        let dump = dump_state(tenants, store);
        let payload = Json::obj(vec![
            ("seq", Json::Num(watermark as f64)),
            ("tenants", dump),
        ]);
        let rendered = payload.to_string();
        let wrapped = Json::obj(vec![
            ("crc", Json::str(checksum_hex(rendered.as_bytes()))),
            ("payload", payload),
        ]);
        atomic_write_sync(&Wal::snapshot_path(&self.cfg), wrapped.to_string().as_bytes())?;

        // Compact under the file lock so no append lands between the
        // read and the rename.
        let journal_path = Wal::journal_path(&self.cfg);
        let mut file = self.file.lock();
        let bytes = std::fs::read(&journal_path)
            .map_err(|e| LakeError::Io(format!("read journal for rotate: {e}")))?;
        let scan = scan_frames(&bytes);
        let mut kept = Vec::new();
        let mut kept_frames = 0u64;
        for frame in &scan.frames {
            if WalRecord::from_frame(frame).is_some_and(|r| r.seq > watermark) {
                kept.extend_from_slice(&encode_frame(frame)?);
                kept_frames += 1;
            }
        }
        atomic_write_sync(&journal_path, &kept)?;
        let reopened = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&journal_path)
            .map_err(|e| LakeError::Io(format!("reopen journal: {e}")))?;
        *file = reopened;
        self.depth.store(kept_frames, Ordering::SeqCst);
        self.depth_gauge.set(i64::try_from(kept_frames).unwrap_or(i64::MAX));
        self.rotations.inc();
        Ok(())
    }
}

/// Load and checksum-validate a snapshot file, returning its payload.
fn load_snapshot(path: &Path) -> Result<Json> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| LakeError::Io(format!("read snapshot: {e}")))?;
    let wrapped = lake_formats::json::parse(&text)?;
    let crc = wrapped
        .get("crc")
        .and_then(Json::as_str)
        .ok_or_else(|| LakeError::parse("snapshot missing \"crc\""))?;
    let payload = wrapped
        .get("payload")
        .ok_or_else(|| LakeError::parse("snapshot missing \"payload\""))?;
    if checksum_hex(payload.to_string().as_bytes()) != crc {
        return Err(LakeError::parse("snapshot checksum mismatch"));
    }
    Ok(payload.clone())
}

/// Apply one mutation to the live namespace and build its response body:
/// `Some(dataset)` stores it under `tenant/name` (a put), `None` removes
/// that name (a del; of a missing name a no-op, so replay is idempotent).
/// The only code that stores or removes a dataset for a put or del — the
/// live path (with or without a journal) and replay both end here.
pub(crate) fn apply(
    tenants: &Tenants,
    store: &Polystore,
    tenant: &str,
    name: &str,
    dataset: Option<Dataset>,
) -> Result<Json> {
    let Some(dataset) = dataset else {
        if let Some(id) = tenants.lookup(tenant, name) {
            store.remove(id)?;
            tenants.remove_name(tenant, name);
        }
        return Ok(Json::obj(vec![("deleted", Json::str(name))]));
    };
    let kind = dataset.kind().name();
    let id = tenants.assign(tenant, name);
    let placement = store.store(id, &Tenants::scoped(tenant, name), dataset)?;
    Ok(Json::obj(vec![
        ("id", Json::Num(id.0 as f64)),
        ("kind", Json::str(kind)),
        ("store", Json::str(placement.store.name())),
    ]))
}

/// Decode one journal record and [`apply`] it (replay, tests, benches).
pub fn apply_record(tenants: &Tenants, store: &Polystore, rec: &WalRecord) -> Result<Json> {
    let dataset = match rec.op {
        WalOp::Put => Some(dataset_from_body(&rec.kind, &rec.body)?),
        WalOp::Del => None,
    };
    apply(tenants, store, &rec.tenant, &rec.name, dataset)
}

/// Dump every tenant namespace as `{tenant: {name: {"kind","body"}}}` —
/// the snapshot payload. Datasets that fail retrieval are skipped (their
/// journal frames past the watermark still cover them).
pub fn dump_state(tenants: &Tenants, store: &Polystore) -> Json {
    let mut out = BTreeMap::new();
    for tenant in tenants.tenant_names() {
        let mut ns = BTreeMap::new();
        for name in tenants.list(&tenant) {
            let Some(id) = tenants.lookup(&tenant, &name) else { continue };
            let Ok(dataset) = store.retrieve(id) else { continue };
            ns.insert(name, crate::protocol::dataset_to_body(&dataset));
        }
        out.insert(tenant, Json::Object(ns));
    }
    Json::Object(out)
}

/// Restore a snapshot payload's `tenants` map into the live namespace.
/// Returns the number of datasets restored. A bulk load, not a mutation:
/// it stores directly, with no response body to build.
pub fn restore_snapshot(tenants: &Tenants, store: &Polystore, payload: &Json) -> Result<u64> {
    let mut restored = 0u64;
    let Some(map) = payload.get("tenants").and_then(Json::as_object) else {
        return Ok(0);
    };
    for (tenant, ns) in map {
        let Some(names) = ns.as_object() else { continue };
        for (name, entry) in names {
            let kind = entry
                .get("kind")
                .and_then(Json::as_str)
                .ok_or_else(|| LakeError::parse("snapshot entry missing \"kind\""))?;
            let body = entry.get("body").unwrap_or(&Json::Null);
            let dataset = dataset_from_body(kind, body)?;
            let id = tenants.assign(tenant, name);
            store.store(id, &Tenants::scoped(tenant, name), dataset)?;
            restored += 1;
        }
    }
    Ok(restored)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> String {
        let dir = std::env::temp_dir().join(format!("lake-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.to_string_lossy().into_owned()
    }

    fn open(dir: &str) -> (Wal, Recovered) {
        Wal::open(
            WalConfig::new(dir),
            Arc::new(CrashSwitch::disabled()),
            &MetricsRegistry::new(),
        )
        .unwrap()
    }

    fn put_record(seq_name: &str, body: &str) -> (WalOp, String, String, String, Json) {
        (
            WalOp::Put,
            "acme".to_string(),
            seq_name.to_string(),
            "text".to_string(),
            Json::str(body),
        )
    }

    #[test]
    fn records_round_trip_canonically() {
        let rec = WalRecord {
            seq: 7,
            op: WalOp::Put,
            tenant: "acme".into(),
            name: "notes".into(),
            kind: "text".into(),
            body: Json::str("hello"),
        };
        let rendered = rec.to_json().to_string();
        let back = WalRecord::from_json(&lake_formats::json::parse(&rendered).unwrap()).unwrap();
        assert_eq!(back, rec);
        // Canonical: re-rendering is byte-identical.
        assert_eq!(back.to_json().to_string(), rendered);
    }

    /// The on-disk format, pinned: one put and one del as the payload
    /// `to_json` renders, and as the frames (u32 BE length, payload, u64
    /// BE FNV-1a-64) `append` leaves in `journal.log`. A journal written
    /// by any earlier build must keep replaying, so these bytes only
    /// change with a migration.
    #[test]
    fn journal_bytes_are_golden() {
        const PUT: &str = "{\"body\":\"hello lake\",\"kind\":\"text\",\"name\":\"notes\",\
                           \"op\":\"put\",\"seq\":1,\"tenant\":\"acme\"}";
        const DEL: &str = "{\"body\":null,\"kind\":\"\",\"name\":\"notes\",\
                           \"op\":\"del\",\"seq\":2,\"tenant\":\"acme\"}";
        let put = WalRecord {
            seq: 1,
            op: WalOp::Put,
            tenant: "acme".into(),
            name: "notes".into(),
            kind: "text".into(),
            body: Json::str("hello lake"),
        };
        let del = WalRecord {
            seq: 2,
            op: WalOp::Del,
            tenant: "acme".into(),
            name: "notes".into(),
            kind: String::new(),
            body: Json::Null,
        };
        assert_eq!(put.to_json().to_string(), PUT);
        assert_eq!(del.to_json().to_string(), DEL);

        let dir = temp_dir("golden");
        let (wal, _) = open(&dir);
        for rec in [&put, &del] {
            let seq = wal.append(rec.op, &rec.tenant, &rec.name, &rec.kind, &rec.body).unwrap();
            assert_eq!(seq, rec.seq);
        }
        let mut golden = Vec::new();
        for (payload, crc) in [(PUT, 0x705b_66b6_653a_5a13_u64), (DEL, 0x48cb_be88_76a4_ae1f)] {
            golden.extend_from_slice(&(payload.len() as u32).to_be_bytes());
            golden.extend_from_slice(payload.as_bytes());
            golden.extend_from_slice(&crc.to_be_bytes());
        }
        assert_eq!(std::fs::read(Wal::journal_path(&WalConfig::new(&dir))).unwrap(), golden);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn append_then_reopen_replays_everything() {
        let dir = temp_dir("replay");
        {
            let (wal, rec) = open(&dir);
            assert_eq!(rec.report.frames, 0);
            for i in 0..5 {
                let (op, t, n, k, b) = put_record(&format!("d{i}"), "v");
                let seq = wal.append(op, &t, &n, &k, &b).unwrap();
                wal.mark_applied(seq);
            }
            assert_eq!(wal.durable_seq(), 5);
        }
        let (_wal, rec) = open(&dir);
        assert_eq!(rec.report.frames, 5);
        assert_eq!(rec.records.len(), 5);
        assert_eq!(rec.report.torn_bytes, 0);
        let seqs: Vec<u64> = rec.records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3, 4, 5]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_quarantined_and_truncated() {
        let dir = temp_dir("torn");
        {
            let (wal, _) = open(&dir);
            let (op, t, n, k, b) = put_record("keep", "v");
            wal.append(op, &t, &n, &k, &b).unwrap();
        }
        // Tear the file by hand: append half a frame.
        let journal = Wal::journal_path(&WalConfig::new(&dir));
        let clean_len = std::fs::metadata(&journal).unwrap().len();
        let mut f = OpenOptions::new().append(true).open(&journal).unwrap();
        use std::io::Write;
        f.write_all(&[0, 0, 0, 99, b'x', b'y']).unwrap();
        drop(f);
        let (_wal, rec) = open(&dir);
        assert_eq!(rec.records.len(), 1);
        assert_eq!(rec.report.torn_bytes, 6);
        assert_eq!(rec.report.journal_bytes, clean_len);
        assert_eq!(std::fs::metadata(&journal).unwrap().len(), clean_len);
        let quarantined: Vec<_> = std::fs::read_dir(Wal::quarantine_dir(&WalConfig::new(&dir)))
            .unwrap()
            .filter_map(|e| e.ok())
            .collect();
        assert_eq!(quarantined.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_bounds_replay_with_a_snapshot() {
        let dir = temp_dir("rotate");
        let tenants = Tenants::new(
            lake_query::QuotaConfig::unlimited(),
            lake_query::BreakerConfig::default(),
        );
        let store = Polystore::new();
        let (wal, _) = open(&dir);
        for i in 0..6 {
            let rec = WalRecord {
                seq: 0,
                op: WalOp::Put,
                tenant: "acme".into(),
                name: format!("d{i}"),
                kind: "text".into(),
                body: Json::str("v"),
            };
            let seq = wal
                .append(rec.op, &rec.tenant, &rec.name, &rec.kind, &rec.body)
                .unwrap();
            apply_record(&tenants, &store, &WalRecord { seq, ..rec }).unwrap();
            wal.mark_applied(seq);
        }
        wal.rotate(&tenants, &store).unwrap();
        assert_eq!(wal.depth(), 0, "all frames were below the watermark");
        // One more write after rotation.
        let (op, t, n, k, b) = put_record("post", "v");
        let seq = wal.append(op, &t, &n, &k, &b).unwrap();
        wal.mark_applied(seq);
        drop(wal);

        let (_wal, rec) = open(&dir);
        assert!(rec.report.snapshot_loaded);
        assert_eq!(rec.report.snapshot_seq, 6);
        assert_eq!(rec.records.len(), 1, "only the post-rotation frame replays");
        assert_eq!(rec.report.stale_skipped, 0, "stale frames were compacted away");
        let restored_tenants = Tenants::new(
            lake_query::QuotaConfig::unlimited(),
            lake_query::BreakerConfig::default(),
        );
        let restored_store = Polystore::new();
        let n = restore_snapshot(
            &restored_tenants,
            &restored_store,
            rec.snapshot.as_ref().unwrap(),
        )
        .unwrap();
        assert_eq!(n, 6);
        assert_eq!(restored_tenants.list("acme").len(), 6);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_snapshot_is_quarantined_not_trusted() {
        let dir = temp_dir("badsnap");
        let cfg = WalConfig::new(&dir);
        std::fs::create_dir_all(Wal::quarantine_dir(&cfg)).unwrap();
        std::fs::write(
            Wal::snapshot_path(&cfg),
            "{\"crc\":\"0000000000000000\",\"payload\":{\"seq\":3,\"tenants\":{}}}",
        )
        .unwrap();
        let (_wal, rec) = open(&dir);
        assert!(rec.report.snapshot_quarantined);
        assert!(!rec.report.snapshot_loaded);
        assert_eq!(rec.report.snapshot_seq, 0);
        assert!(Wal::quarantine_dir(&cfg).join("snapshot.corrupt").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_commit_batches_concurrent_appends() {
        let dir = temp_dir("group");
        let registry = MetricsRegistry::new();
        let wal = Arc::new(
            Wal::open(WalConfig::new(&dir), Arc::new(CrashSwitch::disabled()), &registry)
                .unwrap()
                .0,
        );
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let wal = Arc::clone(&wal);
                std::thread::spawn(move || {
                    for i in 0..8 {
                        let (op, tn, n, k, b) = put_record(&format!("t{t}-d{i}"), "v");
                        let seq = wal.append(op, &tn, &n, &k, &b).unwrap();
                        wal.mark_applied(seq);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(wal.durable_seq(), 32);
        let snap = registry.snapshot();
        assert_eq!(snap.counter_value("lake_server_wal_appended_total"), 32);
        let batches = snap.counter_value("lake_server_wal_fsync_batches_total");
        assert!(batches >= 1 && batches <= 32, "{batches}");
        drop(wal);
        let (_wal, rec) = open(&dir);
        assert_eq!(rec.records.len(), 32);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
