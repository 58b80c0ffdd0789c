//! A lakehouse table: ACID appends, statistics-pruned scans, compaction.
//!
//! Data files are parquet-lite objects; every append is one atomic commit.
//! Scans consult per-file column statistics *before* reading file bodies —
//! the "auxiliary structures such as indexes over open data formats"
//! direction of §8.3 — and report how many files were skipped. Compaction
//! rewrites many small files into one, committing `remove+add` atomically
//! so concurrent readers always see a consistent snapshot and concurrent
//! appends either merge or conflict cleanly.

use crate::log::{Action, Snapshot, TxnLog};
use lake_core::retry::{Clock, RetryPolicy, RetryStats};
use lake_core::{LakeError, Result, Row, Table, Value};
use lake_formats::columnar::{self, ColumnarFile};
use lake_formats::varint::{get_str, get_u64, put_str, put_u64};
use lake_index::bloom::BloomFilter;
use lake_store::object::ObjectStore;
use lake_store::predicate::{self, Predicate};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Scan metrics: data-skipping effectiveness (E10).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Files whose stats allowed skipping without reading the body.
    pub files_skipped: usize,
    /// Files pruned by their Bloom sidecar (value inside the min/max range
    /// but provably absent) — the Hyperspace-style auxiliary index of §8.3.
    pub files_bloom_pruned: usize,
    /// Files actually decoded.
    pub files_read: usize,
}

/// Serialize per-column Bloom filters as a sidecar blob.
fn encode_blooms(table: &Table) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(b"BLS1");
    put_u64(&mut out, table.num_columns() as u64);
    for col in table.columns() {
        put_str(&mut out, &col.name);
        let domain = col.text_domain();
        let mut bloom = BloomFilter::for_items(domain.len().max(8), 0.01);
        for v in domain {
            bloom.insert(&v);
        }
        let bytes = bloom.to_bytes();
        put_u64(&mut out, bytes.len() as u64);
        out.extend_from_slice(&bytes);
    }
    out
}

/// Parse a sidecar blob back into `(column, filter)` pairs.
fn decode_blooms(buf: &[u8]) -> Option<Vec<(String, BloomFilter)>> {
    if buf.get(..4)? != b"BLS1" {
        return None;
    }
    let mut pos = 4;
    let n = get_u64(buf, &mut pos).ok()? as usize;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let name = get_str(buf, &mut pos).ok()?;
        let len = get_u64(buf, &mut pos).ok()? as usize;
        let end = pos.checked_add(len).filter(|&e| e <= buf.len())?;
        let bloom = BloomFilter::from_bytes(buf.get(pos..end)?)?;
        pos = end;
        out.push((name, bloom));
    }
    Some(out)
}

/// A lakehouse table bound to an object store prefix.
pub struct LakeTable<'a> {
    store: &'a dyn ObjectStore,
    log: TxnLog<'a>,
    prefix: String,
    file_seq: AtomicU64,
}

impl<'a> LakeTable<'a> {
    /// Open (or create) the table at `prefix`.
    pub fn open(store: &'a dyn ObjectStore, prefix: &str) -> LakeTable<'a> {
        let prefix = prefix.trim_end_matches('/').to_string();
        LakeTable {
            store,
            log: TxnLog::open(store, &prefix),
            file_seq: AtomicU64::new(store.list(&format!("{prefix}/data/")).len() as u64),
            prefix,
        }
    }

    /// The transaction log (for version/time-travel access).
    pub fn log(&self) -> &TxnLog<'a> {
        &self.log
    }

    /// Replace the retry policy governing all of this handle's
    /// object-store I/O — log entries and data files alike.
    pub fn with_retry(mut self, policy: RetryPolicy) -> LakeTable<'a> {
        self.log = self.log.with_retry(policy);
        self
    }

    /// Replace the backoff clock (tests inject a
    /// [`lake_core::ManualClock`] so retries never sleep).
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> LakeTable<'a> {
        self.log = self.log.with_clock(clock);
        self
    }

    /// Record this table's commits, retries, and appends into a
    /// `lake-obs` registry (see [`crate::obs::HouseMetrics`]).
    pub fn with_obs(mut self, obs: crate::obs::HouseMetrics) -> LakeTable<'a> {
        self.log = self.log.with_obs(obs);
        self
    }

    /// Retry counters accumulated across this handle's operations.
    pub fn retry_stats(&self) -> RetryStats {
        self.log.retry_stats()
    }

    fn new_file_key(&self) -> String {
        // lint: ordering — name uniqueness rests on fetch_add atomicity.
        let n = self.file_seq.fetch_add(1, Ordering::Relaxed);
        // Thread id keeps concurrent writers from colliding on names.
        let tid = std::thread::current().id();
        format!("{}/data/part-{n:06}-{tid:?}.pql", self.prefix)
    }

    /// Append a batch of rows (as a [`Table`] whose name is ignored) in
    /// one ACID commit. Returns the committed version.
    pub fn append(&self, batch: &Table) -> Result<u64> {
        if batch.num_rows() == 0 {
            return Err(LakeError::invalid("empty append"));
        }
        let _span = self.log.obs().and_then(|o| o.span("house.append"));
        if let Some(obs) = self.log.obs() {
            obs.append_rows_total.add(batch.num_rows() as u64);
        }
        let key = self.new_file_key();
        let body = columnar::encode(batch);
        self.log.run_retry(|| self.store.put(&key, &body))?;
        // Bloom sidecar: best-effort auxiliary index (readers tolerate its
        // absence, so a crash between the two puts is harmless).
        let bloom_key = format!("{key}.bloom");
        let sidecar = encode_blooms(batch);
        self.log.run_retry(|| self.store.put(&bloom_key, &sidecar))?;
        self.log.commit(&[Action::AddFile { path: key, rows: batch.num_rows() }])
    }

    /// Scan the latest snapshot with optional predicates, using per-file
    /// statistics to skip files that cannot match equality predicates.
    pub fn scan(&self, predicates: &[Predicate]) -> Result<(Vec<Row>, ScanStats)> {
        self.scan_at(self.log.latest_version(), predicates)
    }

    /// Scan a historical version (time travel).
    pub fn scan_at(&self, version: u64, predicates: &[Predicate]) -> Result<(Vec<Row>, ScanStats)> {
        let snap = self.log.snapshot_at(version)?;
        self.scan_snapshot(&snap, predicates)
    }

    fn scan_snapshot(&self, snap: &Snapshot, predicates: &[Predicate]) -> Result<(Vec<Row>, ScanStats)> {
        let mut stats = ScanStats::default();
        let mut rows = Vec::new();
        for (path, _) in &snap.files {
            let bytes = self.log.run_retry(|| self.store.get(path))?;
            let file = ColumnarFile::open(&bytes)?;
            // Data skipping: equality predicates vs min/max.
            if predicate::stats_rule_out(file.stats(), predicates) {
                stats.files_skipped += 1;
                continue;
            }
            // Second pruning stage: Bloom sidecars catch in-range misses.
            let eq_preds: Vec<&Predicate> = predicates
                .iter()
                .filter(|p| p.op == predicate::CompareOp::Eq)
                .collect();
            if !eq_preds.is_empty() {
                let bloom_key = format!("{path}.bloom");
                if let Ok(side) = self.log.run_retry(|| self.store.get(&bloom_key)) {
                    if let Some(blooms) = decode_blooms(&side) {
                        let provably_absent = eq_preds.iter().any(|p| {
                            blooms
                                .iter()
                                .find(|(n, _)| *n == p.attribute)
                                .is_some_and(|(_, b)| !b.may_contain(&p.value.render()))
                        });
                        if provably_absent {
                            stats.files_bloom_pruned += 1;
                            continue;
                        }
                    }
                }
            }
            stats.files_read += 1;
            let (columns, matched) = predicate::scan_file(&file, predicates, None)?;
            // Rows are the contract here: move each gathered cell into one.
            let mut cells: Vec<_> = columns.into_iter().map(|c| c.values.into_iter()).collect();
            let row = |_: &usize| -> Row {
                cells.iter_mut().map(|c| c.next().unwrap_or(Value::Null)).collect()
            };
            rows.extend(matched.iter().map(row));
        }
        Ok((rows, stats))
    }

    /// Compact all current files into one, atomically. Returns the new
    /// version, or `Conflict` when a concurrent writer interfered with the
    /// compacted files.
    pub fn compact(&self) -> Result<u64> {
        self.compact_from(self.log.snapshot()?)
    }

    /// Compact the files of a specific snapshot (the snapshot a compactor
    /// read may be stale by commit time — that race is what the conflict
    /// detection catches).
    pub fn compact_from(&self, snap: Snapshot) -> Result<u64> {
        if snap.files.len() <= 1 {
            return Ok(snap.version);
        }
        // Read and merge all live files.
        let mut merged: Option<Table> = None;
        for (path, _) in &snap.files {
            let t = columnar::decode(&self.log.run_retry(|| self.store.get(path))?)?;
            merged = Some(match merged {
                None => t,
                Some(mut acc) => {
                    for row in t.iter_rows() {
                        acc.push_row(row)?;
                    }
                    acc
                }
            });
        }
        let merged = merged
            .ok_or_else(|| LakeError::invalid("compaction snapshot lists no readable files"))?;
        let key = self.new_file_key();
        let body = columnar::encode(&merged);
        self.log.run_retry(|| self.store.put(&key, &body))?;
        let bloom_key = format!("{key}.bloom");
        let sidecar = encode_blooms(&merged);
        self.log.run_retry(|| self.store.put(&bloom_key, &sidecar))?;
        let mut actions: Vec<Action> = snap
            .files
            .iter()
            .map(|(p, _)| Action::RemoveFile { path: p.clone() })
            .collect();
        actions.push(Action::AddFile { path: key, rows: merged.num_rows() });
        self.log.commit(&actions)
    }

    /// Number of live data files.
    pub fn file_count(&self) -> Result<usize> {
        Ok(self.log.snapshot()?.files.len())
    }

    /// Delete all rows matching every predicate, as one ACID commit:
    /// affected files are rewritten without the matching rows (or removed
    /// entirely when emptied). Returns the number of rows deleted.
    pub fn delete_where(&self, predicates: &[Predicate]) -> Result<usize> {
        if predicates.is_empty() {
            return Err(LakeError::invalid(
                "refusing an unpredicated delete; use predicates or drop the table",
            ));
        }
        let snap = self.log.snapshot()?;
        let mut actions = Vec::new();
        let mut deleted = 0usize;
        for (path, _) in &snap.files {
            let bytes = self.log.run_retry(|| self.store.get(path))?;
            let file = ColumnarFile::open(&bytes)?;
            // Skip files whose stats prove no row matches an Eq predicate.
            if predicate::stats_rule_out(file.stats(), predicates) {
                continue;
            }
            let (_, doomed) = predicate::scan_file(&file, predicates, Some(&[]))?;
            if doomed.is_empty() {
                continue;
            }
            deleted += doomed.len();
            actions.push(Action::RemoveFile { path: path.clone() });
            // The rows that stay are the complement of the ascending matches.
            let mut next_doomed = doomed.iter().peekable();
            let stay: Vec<usize> =
                (0..file.num_rows()).filter(|i| next_doomed.next_if_eq(&i).is_none()).collect();
            if !stay.is_empty() {
                let (all, _) = predicate::scan_file(&file, &[], None)?;
                let all = Table::from_columns(file.name(), all)?;
                let kept = Table::from_columns(file.name(), predicate::gather(&all, &stay, None))?;
                let key = self.new_file_key();
                let body = columnar::encode(&kept);
                self.log.run_retry(|| self.store.put(&key, &body))?;
                let bloom_key = format!("{key}.bloom");
                let sidecar = encode_blooms(&kept);
                self.log.run_retry(|| self.store.put(&bloom_key, &sidecar))?;
                actions.push(Action::AddFile { path: key, rows: kept.num_rows() });
            }
        }
        if !actions.is_empty() {
            self.log.commit(&actions)?;
        }
        Ok(deleted)
    }

    /// Garbage-collect data objects unreachable from the last
    /// `retain_versions` snapshots (Delta-style `VACUUM`). Time travel to
    /// versions older than the retention window stops working for vacuumed
    /// files — the documented trade-off. Returns the keys deleted.
    ///
    /// Like Delta's VACUUM, this must not run concurrently with writers:
    /// a data file whose commit is still in flight is not yet reachable
    /// from any snapshot and would be collected (production systems guard
    /// this with wall-clock retention periods; this lake uses logical time
    /// only, so the caller serializes vacuum against writes).
    pub fn vacuum(&self, retain_versions: u64) -> Result<Vec<String>> {
        let latest = self.log.latest_version();
        let from = latest.saturating_sub(retain_versions.saturating_sub(1).min(latest));
        let mut live = std::collections::BTreeSet::new();
        for v in from..=latest {
            for (path, _) in self.log.snapshot_at(v)?.files {
                live.insert(path);
            }
        }
        let mut deleted = Vec::new();
        for key in self.store.list(&format!("{}/data/", self.prefix)) {
            // A `.bloom` sidecar lives and dies with its data file.
            let owner = key.strip_suffix(".bloom").unwrap_or(&key).to_string();
            if !live.contains(&owner) {
                self.log.run_retry(|| self.store.delete(&key))?;
                deleted.push(key);
            }
        }
        Ok(deleted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lake_core::Value;
    use lake_store::object::MemoryStore;
    use lake_store::predicate::CompareOp;
    use std::sync::Arc;

    fn batch(range: std::ops::Range<i64>) -> Table {
        let rows: Vec<Row> = range
            .map(|i| vec![Value::Int(i), Value::str(format!("v{i}"))])
            .collect();
        Table::from_rows("batch", &["id", "payload"], rows).unwrap()
    }

    #[test]
    fn append_and_scan() {
        let store = MemoryStore::new();
        let t = LakeTable::open(&store, "tables/events");
        t.append(&batch(0..10)).unwrap();
        t.append(&batch(10..25)).unwrap();
        let (rows, stats) = t.scan(&[]).unwrap();
        assert_eq!(rows.len(), 25);
        assert_eq!(stats.files_read, 2);
        assert!(t.append(&Table::from_rows("e", &["a"], vec![]).unwrap()).is_err());
    }

    #[test]
    fn data_skipping_prunes_files_by_stats() {
        let store = MemoryStore::new();
        let t = LakeTable::open(&store, "t");
        t.append(&batch(0..100)).unwrap();
        t.append(&batch(100..200)).unwrap();
        t.append(&batch(200..300)).unwrap();
        let preds = [Predicate::new("id", CompareOp::Eq, 150i64)];
        let (rows, stats) = t.scan(&preds).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(stats.files_read, 1);
        assert_eq!(stats.files_skipped, 2);
    }

    #[test]
    fn time_travel_scans_history() {
        let store = MemoryStore::new();
        let t = LakeTable::open(&store, "t");
        t.append(&batch(0..5)).unwrap();
        t.append(&batch(5..9)).unwrap();
        let (v1, _) = t.scan_at(1, &[]).unwrap();
        let (v2, _) = t.scan_at(2, &[]).unwrap();
        assert_eq!(v1.len(), 5);
        assert_eq!(v2.len(), 9);
    }

    #[test]
    fn compaction_reduces_files_preserves_rows() {
        let store = MemoryStore::new();
        let t = LakeTable::open(&store, "t");
        for i in 0..5 {
            t.append(&batch(i * 10..(i + 1) * 10)).unwrap();
        }
        assert_eq!(t.file_count().unwrap(), 5);
        let before: usize = t.scan(&[]).unwrap().0.len();
        t.compact().unwrap();
        assert_eq!(t.file_count().unwrap(), 1);
        assert_eq!(t.scan(&[]).unwrap().0.len(), before);
        // Old version still shows 5 files (snapshot isolation for readers).
        assert_eq!(t.log().snapshot_at(5).unwrap().files.len(), 5);
    }

    #[test]
    fn concurrent_appends_all_land() {
        let store = Arc::new(MemoryStore::new());
        // Initialize the table once.
        LakeTable::open(store.as_ref(), "t").append(&batch(0..1)).unwrap();
        let mut handles = Vec::new();
        for i in 0..6i64 {
            let store = Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                let t = LakeTable::open(store.as_ref(), "t");
                t.append(&batch(i * 100..i * 100 + 10)).unwrap()
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let t = LakeTable::open(store.as_ref(), "t");
        assert_eq!(t.scan(&[]).unwrap().0.len(), 1 + 60);
        assert_eq!(t.log().latest_version(), 7);
    }

    #[test]
    fn bloom_sidecar_prunes_in_range_misses() {
        let store = MemoryStore::new();
        let t = LakeTable::open(&store, "t");
        // Files with even ids only: an odd probe is inside min/max but absent.
        let rows: Vec<Row> = (0..50).map(|i| vec![Value::Int(i * 2)]).collect();
        t.append(&Table::from_rows("b", &["id"], rows).unwrap()).unwrap();
        let rows2: Vec<Row> = (100..150).map(|i| vec![Value::Int(i * 2)]).collect();
        t.append(&Table::from_rows("b", &["id"], rows2).unwrap()).unwrap();

        let (hits, stats) = t.scan(&[Predicate::new("id", CompareOp::Eq, 51i64)]).unwrap();
        assert!(hits.is_empty());
        // min/max cannot prune file 1 (51 ∈ [0, 98]) — the bloom does.
        assert_eq!(stats.files_bloom_pruned, 1);
        assert_eq!(stats.files_skipped, 1); // file 2 pruned by min/max
        assert_eq!(stats.files_read, 0);

        // A present value is never bloom-pruned (no false negatives).
        let (hits2, stats2) = t.scan(&[Predicate::new("id", CompareOp::Eq, 50i64)]).unwrap();
        assert_eq!(hits2.len(), 1);
        assert_eq!(stats2.files_read, 1);
    }

    #[test]
    fn vacuum_keeps_live_sidecars() {
        let store = MemoryStore::new();
        let t = LakeTable::open(&store, "t");
        t.append(&batch(0..10)).unwrap();
        t.append(&batch(10..20)).unwrap();
        t.compact().unwrap();
        t.vacuum(1).unwrap();
        let keys = store.list("t/data/");
        // Exactly one data file + its sidecar remain.
        assert_eq!(keys.len(), 2, "{keys:?}");
        assert!(keys.iter().any(|k| k.ends_with(".bloom")));
        // Bloom still effective after compaction+vacuum.
        let (_, stats) = t.scan(&[Predicate::new("id", CompareOp::Eq, 9999i64)]).unwrap();
        assert_eq!(stats.files_read + stats.files_bloom_pruned + stats.files_skipped, 1);
    }

    #[test]
    fn delete_where_rewrites_only_affected_files() {
        let store = MemoryStore::new();
        let t = LakeTable::open(&store, "t");
        t.append(&batch(0..10)).unwrap();
        t.append(&batch(100..110)).unwrap();
        let deleted = t
            .delete_where(&[Predicate::new("id", CompareOp::Ge, 100i64)])
            .unwrap();
        assert_eq!(deleted, 10);
        let (rows, _) = t.scan(&[]).unwrap();
        assert_eq!(rows.len(), 10);
        assert!(rows.iter().all(|r| r[0].as_i64().unwrap() < 100));
        // Old snapshot still sees everything (time travel).
        assert_eq!(t.scan_at(2, &[]).unwrap().0.len(), 20);
    }

    #[test]
    fn partial_delete_keeps_remaining_rows_in_file() {
        let store = MemoryStore::new();
        let t = LakeTable::open(&store, "t");
        t.append(&batch(0..10)).unwrap();
        let deleted = t.delete_where(&[Predicate::new("id", CompareOp::Lt, 3i64)]).unwrap();
        assert_eq!(deleted, 3);
        let (rows, _) = t.scan(&[]).unwrap();
        assert_eq!(rows.len(), 7);
        assert_eq!(t.file_count().unwrap(), 1);
    }

    #[test]
    fn unpredicated_delete_is_refused() {
        let store = MemoryStore::new();
        let t = LakeTable::open(&store, "t");
        t.append(&batch(0..5)).unwrap();
        assert!(t.delete_where(&[]).is_err());
    }

    #[test]
    fn vacuum_removes_only_unreachable_files() {
        let store = MemoryStore::new();
        let t = LakeTable::open(&store, "t");
        for i in 0..4i64 {
            t.append(&batch(i * 10..(i + 1) * 10)).unwrap();
        }
        t.compact().unwrap(); // old 4 files now unreferenced by HEAD
        let before = store.list("t/data/").len();
        assert_eq!(before, 10, "5 data files + 5 bloom sidecars");
        // Retaining all history: nothing deletable.
        let none = t.vacuum(100).unwrap();
        assert!(none.is_empty());
        // Retaining only the latest version: the 4 pre-compaction files
        // (and their sidecars) go.
        let gone = t.vacuum(1).unwrap();
        assert_eq!(gone.len(), 8);
        assert_eq!(store.list("t/data/").len(), 2);
        // Current data unaffected.
        assert_eq!(t.scan(&[]).unwrap().0.len(), 40);
    }

    #[test]
    fn compaction_racing_compaction_conflicts() {
        let store = MemoryStore::new();
        let t = LakeTable::open(&store, "t");
        t.append(&batch(0..5)).unwrap();
        t.append(&batch(5..10)).unwrap();
        // The compactor reads its snapshot, then a racer removes one of
        // the files before the compactor commits.
        let snap = t.log().snapshot().unwrap();
        let victim = snap.files[0].0.clone();
        t.log()
            .try_commit(snap.version, &[Action::RemoveFile { path: victim }])
            .unwrap();
        let r = t.compact_from(snap);
        assert!(matches!(r, Err(LakeError::Conflict(_))), "{r:?}");
    }
}
