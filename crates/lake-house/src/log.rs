//! The transaction log: ACID commits over an object store.
//!
//! Commit protocol (Delta-style): a writer reads the current version `v`,
//! prepares a list of [`Action`]s, and attempts to create
//! `_log/<v+1 padded>.json` with *put-if-absent*. The object store makes
//! exactly one concurrent writer win; losers re-read the log, check their
//! actions against the winner's (logical conflict detection), and retry
//! or abort. Snapshots replay actions; a checkpoint every
//! `checkpoint_every` commits bounds replay cost. Old versions remain
//! readable (time travel).
//!
//! Every entry carries an FNV-1a checksum over its action list, so a torn
//! or bit-rotted entry is detected at read time instead of silently
//! replaying garbage; [`TxnLog::recover`] (in [`crate::recovery`])
//! quarantines such entries. All object-store I/O runs under a
//! [`RetryPolicy`], so transient storage failures are absorbed rather
//! than surfaced to every caller.

use crate::obs::HouseMetrics;
use lake_core::retry::{retry_with_stats, Clock, RetryPolicy, RetryStats, SystemClock};
use lake_core::{Json, LakeError, Result};
use lake_formats::json as jsonfmt;
use lake_store::durable::checksum_hex;
use lake_store::object::ObjectStore;
use lake_core::sync::LeafMutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Parse and integrity-check one serialized log entry. Entries written
/// before checksums existed (no `crc` field) are accepted; a present but
/// mismatching checksum is a [`LakeError::Parse`], exactly like torn JSON.
pub(crate) fn validate_entry(bytes: &[u8]) -> Result<Vec<Action>> {
    let doc = jsonfmt::parse(&String::from_utf8_lossy(bytes))?;
    let actions = doc
        .get("actions")
        .and_then(Json::as_array)
        .ok_or_else(|| LakeError::parse("log entry lacks actions"))?;
    if let Some(stored) = doc.get("crc").and_then(Json::as_str) {
        let computed = checksum_hex(Json::Array(actions.to_vec()).to_string().as_bytes());
        if stored != computed {
            return Err(LakeError::parse(format!(
                "log entry checksum mismatch (stored {stored}, computed {computed})"
            )));
        }
    }
    actions.iter().map(Action::from_json).collect()
}

/// One logged action.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// A data file became part of the table.
    AddFile {
        /// Object key of the data file.
        path: String,
        /// Row count.
        rows: usize,
    },
    /// A data file was logically removed (compaction, delete).
    RemoveFile {
        /// Object key.
        path: String,
    },
    /// Table metadata was set.
    SetMeta {
        /// Key.
        key: String,
        /// Value.
        value: String,
    },
}

impl Action {
    fn to_json(&self) -> Json {
        match self {
            Action::AddFile { path, rows } => Json::obj(vec![
                ("action", Json::str("add")),
                ("path", Json::str(path.clone())),
                ("rows", Json::Num(*rows as f64)),
            ]),
            Action::RemoveFile { path } => Json::obj(vec![
                ("action", Json::str("remove")),
                ("path", Json::str(path.clone())),
            ]),
            Action::SetMeta { key, value } => Json::obj(vec![
                ("action", Json::str("meta")),
                ("key", Json::str(key.clone())),
                ("value", Json::str(value.clone())),
            ]),
        }
    }

    fn from_json(j: &Json) -> Result<Action> {
        let kind = j
            .get("action")
            .and_then(Json::as_str)
            .ok_or_else(|| LakeError::parse("log entry lacks action"))?;
        let get_str = |k: &str| -> Result<String> {
            j.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| LakeError::parse(format!("log entry lacks {k}")))
        };
        Ok(match kind {
            "add" => Action::AddFile {
                path: get_str("path")?,
                rows: j.get("rows").and_then(Json::as_f64).unwrap_or(0.0) as usize,
            },
            "remove" => Action::RemoveFile { path: get_str("path")? },
            "meta" => Action::SetMeta { key: get_str("key")?, value: get_str("value")? },
            other => return Err(LakeError::parse(format!("unknown action {other}"))),
        })
    }
}

/// A materialized table state at one version.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Version this snapshot reflects (0 = empty table, pre-first-commit).
    pub version: u64,
    /// Live data files with row counts, in add order.
    pub files: Vec<(String, usize)>,
    /// Metadata.
    pub meta: BTreeMap<String, String>,
}

impl Snapshot {
    fn apply(&mut self, actions: &[Action]) {
        for a in actions {
            match a {
                Action::AddFile { path, rows } => self.files.push((path.clone(), *rows)),
                Action::RemoveFile { path } => self.files.retain(|(p, _)| p != path),
                Action::SetMeta { key, value } => {
                    self.meta.insert(key.clone(), value.clone());
                }
            }
        }
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("version", Json::Num(self.version as f64)),
            (
                "files",
                Json::Array(
                    self.files
                        .iter()
                        .map(|(p, r)| {
                            Json::obj(vec![("path", Json::str(p.clone())), ("rows", Json::Num(*r as f64))])
                        })
                        .collect(),
                ),
            ),
            (
                "meta",
                Json::Object(
                    self.meta
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::str(v.clone())))
                        .collect(),
                ),
            ),
        ])
    }

    pub(crate) fn from_json(j: &Json) -> Result<Snapshot> {
        let version = j
            .get("version")
            .and_then(Json::as_f64)
            .ok_or_else(|| LakeError::parse("checkpoint lacks version"))? as u64;
        let files = j
            .get("files")
            .and_then(Json::as_array)
            .ok_or_else(|| LakeError::parse("checkpoint lacks files"))?
            .iter()
            .map(|f| {
                Ok((
                    f.get("path")
                        .and_then(Json::as_str)
                        .ok_or_else(|| LakeError::parse("file lacks path"))?
                        .to_string(),
                    f.get("rows").and_then(Json::as_f64).unwrap_or(0.0) as usize,
                ))
            })
            .collect::<Result<Vec<_>>>()?;
        let meta = j
            .get("meta")
            .and_then(Json::as_object)
            .map(|m| {
                m.iter()
                    .filter_map(|(k, v)| v.as_str().map(|s| (k.clone(), s.to_string())))
                    .collect()
            })
            .unwrap_or_default();
        Ok(Snapshot { version, files, meta })
    }

    /// Total live rows.
    pub fn total_rows(&self) -> usize {
        self.files.iter().map(|(_, r)| r).sum()
    }
}

/// The transaction log for one table prefix in an object store.
pub struct TxnLog<'a> {
    pub(crate) store: &'a dyn ObjectStore,
    pub(crate) prefix: String,
    /// Write a checkpoint after every N commits.
    pub checkpoint_every: u64,
    policy: RetryPolicy,
    clock: Arc<dyn Clock>,
    stats: LeafMutex<RetryStats>,
    obs: Option<HouseMetrics>,
}

impl<'a> TxnLog<'a> {
    /// Open (or create) the log at `prefix` (e.g. `tables/orders`).
    pub fn open(store: &'a dyn ObjectStore, prefix: &str) -> TxnLog<'a> {
        TxnLog {
            store,
            prefix: prefix.trim_end_matches('/').to_string(),
            checkpoint_every: 10,
            policy: RetryPolicy::default(),
            clock: Arc::new(SystemClock),
            stats: LeafMutex::new(RetryStats::default(), "house.log.retry_stats"),
            obs: None,
        }
    }

    /// Replace the retry policy governing this handle's object-store I/O.
    pub fn with_retry(mut self, policy: RetryPolicy) -> TxnLog<'a> {
        self.policy = policy;
        self
    }

    /// Replace the backoff clock (tests inject a [`lake_core::ManualClock`]
    /// so retries never sleep).
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> TxnLog<'a> {
        self.clock = clock;
        self
    }

    /// Record commits, checkpoints, recovery, and retry activity into a
    /// `lake-obs` registry (and, when the [`HouseMetrics`] carries a
    /// tracer, spans). The [`TxnLog::retry_stats`] API keeps working —
    /// registry counters are mirrored from the same deltas.
    pub fn with_obs(mut self, obs: HouseMetrics) -> TxnLog<'a> {
        self.obs = Some(obs);
        self
    }

    /// The attached observability handles, if any.
    pub(crate) fn obs(&self) -> Option<&HouseMetrics> {
        self.obs.as_ref()
    }

    /// Retry counters accumulated by this handle since it was opened.
    pub fn retry_stats(&self) -> RetryStats {
        *self.stats.lock()
    }

    /// Drive one store operation under this log's retry policy,
    /// accumulating into the handle's [`RetryStats`] (and mirroring the
    /// delta into the registry when obs is attached).
    pub(crate) fn run_retry<T>(&self, op: impl FnMut() -> Result<T>) -> Result<T> {
        // Accumulate into a local block and merge under a short lock
        // afterwards: holding the stats guard across the retried store
        // I/O (as this used to) is exactly the guard-across-blocking
        // hazard lake-lint rule 7 exists to catch.
        let mut delta = RetryStats::default();
        let out = retry_with_stats(&self.policy, self.clock.as_ref(), &mut delta, op);
        self.stats.lock().merge(&delta);
        if let Some(obs) = &self.obs {
            obs.record_retry_delta(&RetryStats::default(), &delta);
        }
        out
    }

    pub(crate) fn entry_key(&self, version: u64) -> String {
        format!("{}/_log/{version:020}.json", self.prefix)
    }

    pub(crate) fn checkpoint_key(&self, version: u64) -> String {
        format!("{}/_log/checkpoint-{version:020}.json", self.prefix)
    }

    /// The versions of the `_log/` objects named `<stem><version>.json`:
    /// `stem` is `""` for commit entries, `"checkpoint-"` for checkpoints.
    /// The one place `_log/` keys are parsed — anything else under the
    /// directory (`quarantine/<v>.corrupt`, the other stem) fails the
    /// parse and is skipped.
    pub(crate) fn log_versions(&self, stem: &str) -> impl Iterator<Item = u64> {
        let dir = format!("{}/_log/{stem}", self.prefix);
        self.store.list(&dir).into_iter().filter_map(move |k| {
            k.strip_prefix(&dir)?.strip_suffix(".json")?.parse::<u64>().ok()
        })
    }

    /// Latest committed version (0 when the log is empty).
    pub fn latest_version(&self) -> u64 {
        self.log_versions("").max().unwrap_or(0)
    }

    pub(crate) fn read_entry(&self, version: u64) -> Result<Vec<Action>> {
        let key = self.entry_key(version);
        let bytes = self.run_retry(|| self.store.get(&key))?;
        validate_entry(&bytes)
    }

    /// Replay entries `1..=version` from scratch, ignoring checkpoints —
    /// the ground truth recovery verifies checkpoints against.
    pub(crate) fn replay(&self, version: u64) -> Result<Snapshot> {
        let mut snap = Snapshot::default();
        for v in 1..=version {
            let actions = self.read_entry(v)?;
            snap.apply(&actions);
            snap.version = v;
        }
        Ok(snap)
    }

    fn latest_checkpoint_at_or_before(&self, version: u64) -> Option<Snapshot> {
        let v = self.log_versions("checkpoint-").filter(|&v| v <= version).max()?;
        let key = self.checkpoint_key(v);
        let bytes = self.run_retry(|| self.store.get(&key)).ok()?;
        let doc = jsonfmt::parse(&String::from_utf8_lossy(&bytes)).ok()?;
        Snapshot::from_json(&doc).ok()
    }

    /// The snapshot at a specific version (time travel).
    pub fn snapshot_at(&self, version: u64) -> Result<Snapshot> {
        let mut snap = self
            .latest_checkpoint_at_or_before(version)
            .unwrap_or_default();
        for v in (snap.version + 1)..=version {
            let actions = self.read_entry(v)?;
            snap.apply(&actions);
            snap.version = v;
        }
        Ok(snap)
    }

    /// The current snapshot.
    pub fn snapshot(&self) -> Result<Snapshot> {
        self.snapshot_at(self.latest_version())
    }

    /// Attempt one commit of `actions` on top of `base_version`.
    /// Returns the new version, or `Conflict` when another writer won.
    pub fn try_commit(&self, base_version: u64, actions: &[Action]) -> Result<u64> {
        let next = base_version + 1;
        let actions_json = Json::Array(actions.iter().map(Action::to_json).collect());
        let crc = checksum_hex(actions_json.to_string().as_bytes());
        let doc = Json::obj(vec![("actions", actions_json), ("crc", Json::str(crc))]);
        let key = self.entry_key(next);
        let payload = doc.to_string();
        match self.run_retry(|| self.store.put_if_absent(&key, payload.as_bytes())) {
            Ok(()) => {
                if self.checkpoint_every > 0 && next.is_multiple_of(self.checkpoint_every) {
                    // Best-effort checkpoint (readers never require it).
                    let _span = self.obs.as_ref().and_then(|o| o.span("house.checkpoint"));
                    if let Ok(snap) = self.snapshot_at(next) {
                        let ck = self.checkpoint_key(next);
                        let body = snap.to_json().to_string();
                        if self.run_retry(|| self.store.put(&ck, body.as_bytes())).is_ok() {
                            if let Some(obs) = &self.obs {
                                obs.checkpoint_total.inc();
                            }
                        }
                    }
                }
                Ok(next)
            }
            Err(LakeError::AlreadyExists(_)) => {
                Err(LakeError::Conflict(format!("version {next} already committed")))
            }
            Err(e) => Err(e),
        }
    }

    /// Commit with optimistic retry: on conflict, re-read the interleaved
    /// commits and retry unless a *logical* conflict exists (a winner
    /// removed a file this transaction also touches). Appends (pure
    /// `AddFile`/`SetMeta`) always merge. Returns the committed version.
    pub fn commit(&self, actions: &[Action]) -> Result<u64> {
        let _span = self.obs.as_ref().and_then(|o| o.span("house.commit"));
        let start = self.clock.now_micros();
        let out = self.commit_inner(actions);
        if let Some(obs) = &self.obs {
            obs.commit_seconds
                .observe(self.clock.now_micros().saturating_sub(start));
            match &out {
                Ok(_) => obs.commit_total.inc(),
                Err(LakeError::Conflict(_)) => obs.commit_conflicts_total.inc(),
                Err(_) => {}
            }
        }
        out
    }

    fn commit_inner(&self, actions: &[Action]) -> Result<u64> {
        let mut base = self.latest_version();
        // Fail fast on a detectably corrupt tip: committing on top of a
        // torn entry would strand this commit behind garbage (recovery
        // quarantines everything past the first corrupt entry, including
        // otherwise-valid successors). Surfacing the parse error here
        // keeps torn entries trailing — the caller runs `recover()` and
        // retries. The conflict path below re-validates every interleaved
        // entry, so a tip torn *after* this check still cannot be built
        // upon.
        if base > 0 {
            self.read_entry(base)?;
        }
        for _ in 0..64 {
            // Semantic validation against the base snapshot: a removal of
            // a file that is no longer live means another transaction got
            // there first — surface it as a conflict rather than silently
            // committing a no-op removal.
            let removals: Vec<&String> = actions
                .iter()
                .filter_map(|a| match a {
                    Action::RemoveFile { path } => Some(path),
                    _ => None,
                })
                .collect();
            if !removals.is_empty() {
                let snap = self.snapshot_at(base)?;
                for path in &removals {
                    if !snap.files.iter().any(|(p, _)| p == *path) {
                        return Err(LakeError::Conflict(format!(
                            "file {path} is not live at version {base}"
                        )));
                    }
                }
            }
            match self.try_commit(base, actions) {
                Ok(v) => return Ok(v),
                Err(LakeError::Conflict(_)) => {
                    let newest = self.latest_version();
                    // Logical conflict check against interleaved commits.
                    for v in (base + 1)..=newest {
                        let winner = self.read_entry(v)?;
                        if conflicts(actions, &winner) {
                            return Err(LakeError::Conflict(format!(
                                "transaction conflicts with commit {v}"
                            )));
                        }
                    }
                    base = newest;
                }
                Err(e) => return Err(e),
            }
        }
        Err(LakeError::Conflict("retry budget exhausted".into()))
    }
}

/// Two transactions conflict when either removes a file the other touches.
fn conflicts(ours: &[Action], theirs: &[Action]) -> bool {
    let touched = |actions: &[Action]| -> Vec<String> {
        actions
            .iter()
            .filter_map(|a| match a {
                Action::AddFile { path, .. } | Action::RemoveFile { path } => Some(path.clone()),
                Action::SetMeta { .. } => None,
            })
            .collect()
    };
    let removed = |actions: &[Action]| -> Vec<String> {
        actions
            .iter()
            .filter_map(|a| match a {
                Action::RemoveFile { path } => Some(path.clone()),
                _ => None,
            })
            .collect()
    };
    let ours_touched = touched(ours);
    let theirs_touched = touched(theirs);
    removed(ours).iter().any(|p| theirs_touched.contains(p))
        || removed(theirs).iter().any(|p| ours_touched.contains(p))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lake_store::object::MemoryStore;
    use std::sync::Arc;

    fn add(path: &str, rows: usize) -> Action {
        Action::AddFile { path: path.to_string(), rows }
    }

    #[test]
    fn commits_advance_versions_and_snapshots_replay() {
        let store = MemoryStore::new();
        let log = TxnLog::open(&store, "t");
        assert_eq!(log.latest_version(), 0);
        assert_eq!(log.snapshot().unwrap(), Snapshot::default());

        let v1 = log.commit(&[add("d/a.pql", 10)]).unwrap();
        let v2 = log.commit(&[add("d/b.pql", 20)]).unwrap();
        assert_eq!((v1, v2), (1, 2));
        let snap = log.snapshot().unwrap();
        assert_eq!(snap.version, 2);
        assert_eq!(snap.total_rows(), 30);
        assert_eq!(snap.files.len(), 2);
    }

    #[test]
    fn time_travel_reads_history() {
        let store = MemoryStore::new();
        let log = TxnLog::open(&store, "t");
        log.commit(&[add("a", 1)]).unwrap();
        log.commit(&[add("b", 2)]).unwrap();
        log.commit(&[Action::RemoveFile { path: "a".into() }]).unwrap();
        assert_eq!(log.snapshot_at(1).unwrap().files.len(), 1);
        assert_eq!(log.snapshot_at(2).unwrap().files.len(), 2);
        assert_eq!(log.snapshot_at(3).unwrap().files.len(), 1);
        assert_eq!(log.snapshot_at(3).unwrap().files[0].0, "b");
    }

    #[test]
    fn meta_actions_accumulate() {
        let store = MemoryStore::new();
        let log = TxnLog::open(&store, "t");
        log.commit(&[Action::SetMeta { key: "owner".into(), value: "ops".into() }]).unwrap();
        log.commit(&[Action::SetMeta { key: "owner".into(), value: "sci".into() }]).unwrap();
        assert_eq!(log.snapshot().unwrap().meta["owner"], "sci");
        assert_eq!(log.snapshot_at(1).unwrap().meta["owner"], "ops");
    }

    #[test]
    fn try_commit_detects_lost_race() {
        let store = MemoryStore::new();
        let log = TxnLog::open(&store, "t");
        let base = log.latest_version();
        log.try_commit(base, &[add("a", 1)]).unwrap();
        let r = log.try_commit(base, &[add("b", 1)]);
        assert!(matches!(r, Err(LakeError::Conflict(_))));
    }

    #[test]
    fn append_append_merges_remove_conflicts_abort() {
        let store = MemoryStore::new();
        let log = TxnLog::open(&store, "t");
        log.commit(&[add("a", 1)]).unwrap();
        // Appender vs appender: both succeed via retry.
        let base = log.latest_version();
        log.try_commit(base, &[add("b", 1)]).unwrap();
        let v = log.commit(&[add("c", 1)]).unwrap();
        assert_eq!(v, 3);
        // Remover vs concurrent remove of same file: logical conflict.
        let base = log.latest_version();
        log.try_commit(base, &[Action::RemoveFile { path: "a".into() }]).unwrap();
        let r = log.commit(&[Action::RemoveFile { path: "a".into() }]);
        assert!(matches!(r, Err(LakeError::Conflict(_))), "{r:?}");
    }

    #[test]
    fn concurrent_writers_all_commit_exactly_once() {
        let store = Arc::new(MemoryStore::new());
        let mut handles = Vec::new();
        for i in 0..8 {
            let store = Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                let log = TxnLog::open(store.as_ref(), "t");
                log.commit(&[add(&format!("f{i}"), i)]).unwrap()
            }));
        }
        let mut versions: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        versions.sort_unstable();
        assert_eq!(versions, (1..=8).collect::<Vec<u64>>());
        let log = TxnLog::open(store.as_ref(), "t");
        assert_eq!(log.snapshot().unwrap().files.len(), 8);
    }

    #[test]
    fn entries_carry_checksums_and_tampering_is_detected() {
        let store = MemoryStore::new();
        let log = TxnLog::open(&store, "t");
        log.commit(&[add("a", 1)]).unwrap();
        let key = "t/_log/00000000000000000001.json";
        let bytes = store.get(key).unwrap();
        let text = String::from_utf8_lossy(&bytes).into_owned();
        assert!(text.contains("\"crc\""), "{text}");
        // A single corrupted byte in the payload fails validation even
        // though the tampered entry is still well-formed JSON.
        let tampered = text.replace("\"path\":\"a\"", "\"path\":\"z\"");
        assert_ne!(tampered, text);
        store.put(key, tampered.as_bytes()).unwrap();
        let r = log.read_entry(1);
        assert!(matches!(r, Err(LakeError::Parse(_))), "{r:?}");
    }

    #[test]
    fn entries_without_checksums_are_tolerated() {
        let store = MemoryStore::new();
        let log = TxnLog::open(&store, "t");
        // A pre-checksum entry, as an older writer would have produced.
        store
            .put(
                "t/_log/00000000000000000001.json",
                br#"{"actions":[{"action":"add","path":"old","rows":3}]}"#,
            )
            .unwrap();
        assert_eq!(log.snapshot().unwrap().total_rows(), 3);
    }

    #[test]
    fn commit_absorbs_transient_store_failures() {
        use lake_core::{ManualClock, RetryPolicy};
        use lake_store::{FaultPlan, FaultStore, Op};
        let store =
            FaultStore::new(MemoryStore::new(), FaultPlan::new().fail_next(Op::PutIfAbsent, 2));
        let clock = Arc::new(ManualClock::new());
        let log = TxnLog::open(&store, "t")
            .with_retry(RetryPolicy::new(4))
            .with_clock(clock.clone());
        assert_eq!(log.commit(&[add("a", 1)]).unwrap(), 1);
        let stats = log.retry_stats();
        assert_eq!(stats.retries, 2);
        assert_eq!(stats.gave_up, 0);
        assert_eq!(clock.sleeps().len(), 2, "backoff went through the injected clock");
    }

    #[test]
    fn obs_mirrors_commits_retries_and_spans() {
        use crate::obs::HouseMetrics;
        use lake_core::{ManualClock, RetryPolicy};
        use lake_obs::{MetricsRegistry, Tracer};
        use lake_store::{FaultPlan, FaultStore, Op};

        let store =
            FaultStore::new(MemoryStore::new(), FaultPlan::new().fail_next(Op::PutIfAbsent, 2));
        let clock = Arc::new(ManualClock::new());
        let reg = MetricsRegistry::new();
        let tracer = Tracer::new(clock.clone());
        let log = TxnLog::open(&store, "t")
            .with_retry(RetryPolicy::new(4))
            .with_clock(clock.clone())
            .with_obs(HouseMetrics::register(&reg).with_tracer(tracer.clone()));

        assert_eq!(log.commit(&[add("a", 1)]).unwrap(), 1);
        // Losing a race surfaces as a conflict and is counted as one.
        let base = log.latest_version();
        log.try_commit(base, &[Action::RemoveFile { path: "a".into() }]).unwrap();
        let r = log.commit(&[Action::RemoveFile { path: "a".into() }]);
        assert!(matches!(r, Err(LakeError::Conflict(_))));

        let snap = reg.snapshot();
        assert_eq!(snap.counter_value("lake_house_commit_total"), 1);
        assert_eq!(snap.counter_value("lake_house_commit_conflicts_total"), 1);
        // Registry counters mirror the bespoke RetryStats exactly.
        let stats = log.retry_stats();
        assert_eq!(stats.retries, 2);
        assert_eq!(snap.counter_value("lake_house_retry_retries_total"), stats.retries);
        assert_eq!(snap.counter_value("lake_house_retry_attempts_total"), stats.attempts);
        assert_eq!(snap.counter_value("lake_house_retry_backoff_ms_total"), stats.backoff_ms);
        // Backoff time (virtual) shows up in the commit latency histogram.
        let hist = snap.histogram("lake_house_commit_seconds").cloned().unwrap_or_default();
        assert_eq!(hist.count, 2);
        assert!(hist.sum > 0, "manual-clock backoff measured: {}", hist.sum);
        // Spans recorded one per commit() call.
        let commits = tracer
            .finished_spans()
            .iter()
            .filter(|s| s.name == "house.commit")
            .count();
        assert_eq!(commits, 2);
    }

    #[test]
    fn checkpoints_speed_up_but_do_not_change_snapshots() {
        let store = MemoryStore::new();
        let mut log = TxnLog::open(&store, "t");
        log.checkpoint_every = 5;
        for i in 0..12 {
            log.commit(&[add(&format!("f{i}"), 1)]).unwrap();
        }
        // A checkpoint exists…
        assert!(store.list("t/_log/checkpoint-").iter().any(|k| k.contains("10")));
        // …and snapshots agree with full replay.
        let snap = log.snapshot().unwrap();
        assert_eq!(snap.files.len(), 12);
        assert_eq!(snap.version, 12);
        // Time travel before the checkpoint still works.
        assert_eq!(log.snapshot_at(3).unwrap().files.len(), 3);
    }
}
