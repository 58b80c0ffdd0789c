//! Crash recovery for the transaction log.
//!
//! A log entry can be torn — a `FaultStore` torn write, or a machine
//! crash before an unsynced entry reached the disk — leaving a trailing
//! entry that parses as garbage, or not at all. Because every entry carries a
//! checksum ([`crate::log`]), such corruption is detectable; this module
//! makes it *repairable*: [`TxnLog::recover`] walks the log, finds the
//! longest fully-valid contiguous version prefix, moves everything after
//! it into `_log/quarantine/` (nothing is destroyed — operators can
//! inspect the torn bytes), and re-verifies every surviving checkpoint
//! against a from-scratch replay of the entries it claims to summarize.
//! After recovery the table answers reads and accepts commits again,
//! continuing from the recovered version.

use crate::log::{validate_entry, Snapshot, TxnLog};
use lake_core::Result;
use lake_formats::json as jsonfmt;

/// What [`TxnLog::recover`] found and fixed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Log entries examined.
    pub scanned: u64,
    /// Highest fully-valid contiguous version; the table's state after
    /// recovery.
    pub recovered_version: u64,
    /// Versions whose entries were torn, corrupt, or stranded beyond a
    /// corrupt entry, moved to `_log/quarantine/` (ascending).
    pub quarantined: Vec<u64>,
    /// Checkpoints that matched a from-scratch replay of their entries.
    pub checkpoints_verified: u64,
    /// Checkpoints deleted: unreadable, mismatching replayed state, or
    /// summarizing versions beyond the recovered one.
    pub checkpoints_dropped: u64,
}

impl RecoveryReport {
    /// True when the log needed no repair at all.
    pub fn is_clean(&self) -> bool {
        self.quarantined.is_empty() && self.checkpoints_dropped == 0
    }
}

impl<'a> TxnLog<'a> {
    fn quarantine_key(&self, version: u64) -> String {
        // `.corrupt`, not `.json`: version listing keys off the `.json`
        // suffix, so quarantined entries can never be mistaken for live
        // ones.
        format!("{}/_log/quarantine/{version:020}.corrupt", self.prefix)
    }

    /// All committed entry versions, ascending (checkpoints and
    /// quarantined entries excluded).
    fn entry_versions(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self.log_versions("").collect();
        out.sort_unstable();
        out
    }

    /// All checkpoint versions, ascending.
    fn checkpoint_versions(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self.log_versions("checkpoint-").collect();
        out.sort_unstable();
        out
    }

    /// Detect and repair crash damage, returning what was done.
    ///
    /// Protocol:
    /// 1. Walk entries from version 1 upward; an entry that fails to
    ///    parse, fails its checksum, or leaves a gap ends the valid
    ///    prefix.
    /// 2. Every entry beyond the valid prefix is moved (copy, then
    ///    delete) to `_log/quarantine/<version>.corrupt`.
    /// 3. Every checkpoint at or below the recovered version is
    ///    re-verified against a checkpoint-free replay of entries
    ///    `1..=v`; mismatching, unreadable, or now-unreachable
    ///    checkpoints are deleted (snapshots fall back to pure replay).
    ///
    /// Idempotent: recovering a healthy log changes nothing and reports
    /// [`RecoveryReport::is_clean`]. I/O runs under the log's retry
    /// policy; a persistent storage failure aborts recovery with the
    /// underlying error rather than quarantining readable history.
    pub fn recover(&self) -> Result<RecoveryReport> {
        let _span = self.obs().and_then(|o| o.span("house.recover"));
        let out = self.recover_inner();
        if let (Some(obs), Ok(report)) = (self.obs(), &out) {
            obs.recover_total.inc();
            obs.recover_quarantined_total.add(report.quarantined.len() as u64);
        }
        out
    }

    fn recover_inner(&self) -> Result<RecoveryReport> {
        let mut report = RecoveryReport::default();
        let versions = self.entry_versions();
        report.scanned = versions.len() as u64;

        // 1. Longest valid contiguous prefix.
        let mut expected = 1u64;
        let mut suspects: Vec<u64> = Vec::new();
        for v in &versions {
            if *v == expected && suspects.is_empty() {
                let key = self.entry_key(*v);
                let bytes = self.run_retry(|| self.store.get(&key))?;
                match validate_entry(&bytes) {
                    Ok(_) => {
                        report.recovered_version = *v;
                        expected += 1;
                    }
                    Err(_) => suspects.push(*v),
                }
            } else {
                // Either beyond a corrupt entry or beyond a gap: this
                // version's history is unreadable, so the entry cannot
                // be replayed and is quarantined with the rest.
                suspects.push(*v);
            }
        }

        // 2. Quarantine everything past the valid prefix.
        for v in suspects {
            let key = self.entry_key(v);
            let qkey = self.quarantine_key(v);
            if let Ok(bytes) = self.run_retry(|| self.store.get(&key)) {
                self.run_retry(|| self.store.put(&qkey, &bytes))?;
            }
            self.run_retry(|| self.store.delete(&key))?;
            report.quarantined.push(v);
        }

        // 3. Re-verify surviving checkpoints against pure replay.
        for cv in self.checkpoint_versions() {
            let ck = self.checkpoint_key(cv);
            if cv > report.recovered_version {
                self.run_retry(|| self.store.delete(&ck))?;
                report.checkpoints_dropped += 1;
                continue;
            }
            let replayed = self.replay(cv)?;
            let stored: Option<Snapshot> = self
                .run_retry(|| self.store.get(&ck))
                .ok()
                .and_then(|b| jsonfmt::parse(&String::from_utf8_lossy(&b)).ok())
                .and_then(|doc| Snapshot::from_json(&doc).ok());
            match stored {
                Some(s) if s == replayed => report.checkpoints_verified += 1,
                _ => {
                    self.run_retry(|| self.store.delete(&ck))?;
                    report.checkpoints_dropped += 1;
                }
            }
        }

        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::Action;
    use lake_store::object::{MemoryStore, ObjectStore};

    fn add(path: &str, rows: usize) -> Action {
        Action::AddFile { path: path.to_string(), rows }
    }

    fn seeded_log(store: &MemoryStore, commits: usize) -> TxnLog<'_> {
        let log = TxnLog::open(store, "t");
        for i in 0..commits {
            log.commit(&[add(&format!("f{i}"), i + 1)]).unwrap();
        }
        log
    }

    #[test]
    fn recovering_a_healthy_log_is_a_clean_no_op() {
        let store = MemoryStore::new();
        let log = seeded_log(&store, 5);
        let before = log.snapshot().unwrap();
        let report = log.recover().unwrap();
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.scanned, 5);
        assert_eq!(report.recovered_version, 5);
        assert_eq!(log.snapshot().unwrap(), before);
    }

    #[test]
    fn hand_corrupted_trailing_entry_is_quarantined() {
        let store = MemoryStore::new();
        let log = seeded_log(&store, 4);
        // Tear the last entry in half, as a dying writer would.
        let key = "t/_log/00000000000000000004.json";
        let bytes = store.get(key).unwrap();
        let half = bytes.len() / 2;
        store.put(key, bytes.get(..half).unwrap_or(&bytes)).unwrap();
        assert!(log.snapshot().is_err(), "torn entry must fail replay");

        let report = log.recover().unwrap();
        assert_eq!(report.recovered_version, 3);
        assert_eq!(report.quarantined, vec![4]);
        assert!(!report.is_clean());
        // The table reads again, at the last valid version…
        let snap = log.snapshot().unwrap();
        assert_eq!(snap.version, 3);
        assert_eq!(snap.files.len(), 3);
        // …the torn bytes survive for inspection…
        let q = store.get("t/_log/quarantine/00000000000000000004.corrupt").unwrap();
        assert_eq!(q.len(), half);
        // …and new commits continue from the recovered version.
        assert_eq!(log.commit(&[add("again", 9)]).unwrap(), 4);
    }

    #[test]
    fn checksum_corruption_mid_history_quarantines_the_tail() {
        let store = MemoryStore::new();
        let log = seeded_log(&store, 5);
        // Flip a payload byte in entry 3: still valid JSON, bad checksum.
        let key = "t/_log/00000000000000000003.json";
        let text = String::from_utf8_lossy(&store.get(key).unwrap()).into_owned();
        store.put(key, text.replace("\"f2\"", "\"xx\"").as_bytes()).unwrap();

        let report = log.recover().unwrap();
        assert_eq!(report.recovered_version, 2);
        // Entries 4 and 5 were valid but their history is gone.
        assert_eq!(report.quarantined, vec![3, 4, 5]);
        assert_eq!(log.snapshot().unwrap().version, 2);
    }

    #[test]
    fn corrupt_checkpoint_is_dropped_and_replay_takes_over() {
        let store = MemoryStore::new();
        let mut log = TxnLog::open(&store, "t");
        log.checkpoint_every = 3;
        for i in 0..6 {
            log.commit(&[add(&format!("f{i}"), 1)]).unwrap();
        }
        // Corrupt the checkpoint at version 3; leave the one at 6 intact.
        let ck = "t/_log/checkpoint-00000000000000000003.json";
        assert!(store.exists(ck));
        store.put(ck, br#"{"version":3,"files":"not-an-array"}"#).unwrap();

        let report = log.recover().unwrap();
        assert_eq!(report.checkpoints_dropped, 1);
        assert_eq!(report.checkpoints_verified, 1);
        assert!(!store.exists(ck));
        assert_eq!(log.snapshot().unwrap().files.len(), 6);
    }

    #[test]
    fn lying_checkpoint_is_caught_by_replay_verification() {
        let store = MemoryStore::new();
        let mut log = TxnLog::open(&store, "t");
        log.checkpoint_every = 2;
        for i in 0..4 {
            log.commit(&[add(&format!("f{i}"), 1)]).unwrap();
        }
        // A well-formed checkpoint whose contents disagree with the log.
        let ck = "t/_log/checkpoint-00000000000000000002.json";
        store
            .put(ck, br#"{"version":2,"files":[{"path":"phantom","rows":999}],"meta":{}}"#)
            .unwrap();
        let report = log.recover().unwrap();
        assert_eq!(report.checkpoints_dropped, 1);
        assert!(!store.exists(ck));
        // Replay is authoritative.
        assert_eq!(log.snapshot().unwrap().total_rows(), 4);
    }

    #[test]
    fn checkpoint_beyond_recovered_version_is_dropped() {
        let store = MemoryStore::new();
        let mut log = TxnLog::open(&store, "t");
        log.checkpoint_every = 2;
        for i in 0..2 {
            log.commit(&[add(&format!("f{i}"), 1)]).unwrap();
        }
        // Corrupt entry 1: the whole log is quarantined, so the
        // checkpoint at 2 summarizes versions that no longer exist.
        store.put("t/_log/00000000000000000001.json", b"{torn").unwrap();
        let report = log.recover().unwrap();
        assert_eq!(report.recovered_version, 0);
        assert_eq!(report.quarantined, vec![1, 2]);
        assert_eq!(report.checkpoints_dropped, 1);
        assert_eq!(log.snapshot().unwrap(), Snapshot::default());
        // The table is usable again from scratch.
        assert_eq!(log.commit(&[add("fresh", 1)]).unwrap(), 1);
    }

    #[test]
    fn recover_is_idempotent_after_repair() {
        let store = MemoryStore::new();
        let log = seeded_log(&store, 3);
        store.put("t/_log/00000000000000000003.json", b"\xff\xfe garbage").unwrap();
        let first = log.recover().unwrap();
        assert!(!first.is_clean());
        let second = log.recover().unwrap();
        assert!(second.is_clean(), "{second:?}");
        assert_eq!(second.recovered_version, 2);
        assert_eq!(second.scanned, 2);
    }
}
