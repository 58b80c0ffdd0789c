//! Chaos suite: scripted fault injection against the lakehouse ACID
//! protocol.
//!
//! Every scenario drives real commits through a [`FaultStore`] with a
//! deterministic [`FaultPlan`] — transient errors, torn writes, and
//! scripted crash points — under a seeded [`RetryPolicy`] whose backoff
//! flows through a [`ManualClock`], so nothing here ever sleeps and every
//! run replays byte-for-byte per seed. The invariants asserted are the
//! ACID ones: exactly one winner per version, no committed action lost,
//! snapshot equals replay, and time travel surviving recovery.

use lake_core::{LakeError, ManualClock, RetryPolicy, Row, Table, Value};
use lake_house::{Action, HouseMetrics, LakeTable, TxnLog};
use lake_obs::MetricsRegistry;
use lake_store::object::{MemoryStore, ObjectStore};
use lake_store::{FaultPlan, FaultStore, Op};
use std::sync::Arc;

/// The three fixed seeds every seeded scenario replays under (change
/// them and the suite must still pass — determinism is per-seed, not
/// per-value).
const SEEDS: [u64; 3] = [7, 42, 1337];

fn add(path: &str, rows: usize) -> Action {
    Action::AddFile { path: path.to_string(), rows }
}

fn batch(range: std::ops::Range<i64>) -> Table {
    let rows: Vec<Row> = range
        .map(|i| vec![Value::Int(i), Value::str(format!("v{i}"))])
        .collect();
    Table::from_rows("batch", &["id", "payload"], rows).unwrap()
}

// ---------------------------------------------------------------- transient

#[test]
fn transient_faults_are_absorbed_with_a_deterministic_backoff_schedule() {
    for seed in SEEDS {
        let run = || {
            let faulty = FaultStore::new(
                MemoryStore::new(),
                FaultPlan::new().fail_next(Op::PutIfAbsent, 2).fail_next(Op::Get, 1),
            );
            let clock = Arc::new(ManualClock::new());
            let log = TxnLog::open(&faulty, "t")
                .with_retry(RetryPolicy::new(5).with_base_delay_ms(4).with_jitter_seed(seed))
                .with_clock(clock.clone());
            log.commit(&[add("a", 1)]).unwrap();
            log.commit(&[add("b", 2)]).unwrap();
            assert_eq!(log.snapshot().unwrap().files.len(), 2);
            (clock.sleeps(), log.retry_stats().retries)
        };
        let (sleeps_a, retries_a) = run();
        let (sleeps_b, retries_b) = run();
        assert_eq!(sleeps_a, sleeps_b, "backoff schedule must replay for seed {seed}");
        assert_eq!((retries_a, retries_b), (3, 3));
        assert!(!sleeps_a.is_empty());
    }
}

#[test]
fn torn_data_file_write_is_healed_by_retry() {
    let backend = Arc::new(MemoryStore::new());
    let faulty =
        FaultStore::new(Arc::clone(&backend), FaultPlan::new().torn_write(Op::Put, 1, 0.5));
    let clock = Arc::new(ManualClock::new());
    let table = LakeTable::open(&faulty, "t").with_retry(RetryPolicy::new(4)).with_clock(clock);
    table.append(&batch(0..10)).unwrap();
    assert_eq!(faulty.stats().torn_writes, 1);
    assert!(table.retry_stats().retries >= 1);
    // A plain put is idempotent: the retried overwrite healed the tear,
    // so a full scan decodes every row.
    let (rows, _) = table.scan(&[]).unwrap();
    assert_eq!(rows.len(), 10);
}

#[test]
fn recovery_itself_retries_transient_store_failures() {
    for seed in SEEDS {
        let backend = Arc::new(MemoryStore::new());
        let writer = TxnLog::open(backend.as_ref(), "t");
        for i in 0..3 {
            writer.commit(&[add(&format!("f{i}"), 1)]).unwrap();
        }
        let key = "t/_log/00000000000000000003.json";
        let bytes = backend.get(key).unwrap();
        backend.put(key, &bytes[..7]).unwrap();

        let faulty = FaultStore::new(
            Arc::clone(&backend),
            FaultPlan::new().seed(seed).fail_with_probability(Op::Get, 0.25),
        );
        let clock = Arc::new(ManualClock::new());
        let log = TxnLog::open(&faulty, "t")
            .with_retry(RetryPolicy::new(10).with_jitter_seed(seed))
            .with_clock(clock);
        let report = log.recover().unwrap();
        assert_eq!(report.recovered_version, 2);
        assert_eq!(report.quarantined, vec![3]);
        let again = log.recover().unwrap();
        assert!(again.is_clean(), "{again:?}");
    }
}

// ------------------------------------------------------------------- crash

#[test]
fn crash_before_log_write_leaves_the_log_clean() {
    let backend = Arc::new(MemoryStore::new());
    // Survive the data and bloom puts, die before the log entry.
    let faulty =
        FaultStore::new(Arc::clone(&backend), FaultPlan::new().crash_at(Op::PutIfAbsent, 1));
    let dying = LakeTable::open(&faulty, "t");
    let err = dying.append(&batch(0..5)).unwrap_err();
    assert!(matches!(err, LakeError::Io(_)), "{err:?}");
    assert!(faulty.is_crashed());
    // Atomicity: nothing was committed, and the log is clean.
    let clean = TxnLog::open(backend.as_ref(), "t");
    assert_eq!(clean.latest_version(), 0);
    assert!(clean.recover().unwrap().is_clean());
    // The orphaned data file and sidecar are vacuumable.
    assert_eq!(backend.list("t/data/").len(), 2);
    let table = LakeTable::open(backend.as_ref(), "t");
    assert_eq!(table.vacuum(1).unwrap().len(), 2);
    assert!(backend.list("t/data/").is_empty());
}

#[test]
fn crash_torn_log_entry_is_quarantined_with_an_accurate_report() {
    for seed in SEEDS {
        let backend = Arc::new(MemoryStore::new());
        let writer = TxnLog::open(backend.as_ref(), "t");
        for i in 0..3 {
            writer.commit(&[add(&format!("f{i}"), i as usize)]).unwrap();
        }
        let faulty = FaultStore::new(
            Arc::clone(&backend),
            FaultPlan::new().seed(seed).crash_torn(Op::PutIfAbsent, 1, 0.4),
        );
        let dying = TxnLog::open(&faulty, "t");
        assert!(dying.commit(&[add("doomed", 9)]).is_err());
        assert!(faulty.is_crashed());
        // The torn entry squats on version 4: reads fail until recovery.
        let survivor = TxnLog::open(backend.as_ref(), "t");
        assert!(survivor.snapshot().is_err());
        let report = survivor.recover().unwrap();
        assert_eq!(report.scanned, 4);
        assert_eq!(report.recovered_version, 3);
        assert_eq!(report.quarantined, vec![4]);
        assert!(!report.is_clean());
        assert_eq!(survivor.snapshot().unwrap().files.len(), 3);
        // The doomed action never committed; re-running it lands at 4.
        assert_eq!(survivor.commit(&[add("doomed", 9)]).unwrap(), 4);
    }
}

#[test]
fn hand_corrupted_table_restores_with_an_accurate_report() {
    let store = MemoryStore::new();
    let table = LakeTable::open(&store, "tbl");
    for i in 0..4i64 {
        table.append(&batch(i * 10..(i + 1) * 10)).unwrap();
    }
    // Hand-corrupt the trailing entry with garbage bytes.
    let key = "tbl/_log/00000000000000000004.json";
    store.put(key, b"\x00\xffnot json at all").unwrap();
    assert!(table.scan(&[]).is_err());

    let report = table.log().recover().unwrap();
    assert_eq!(report.scanned, 4);
    assert_eq!(report.recovered_version, 3);
    assert_eq!(report.quarantined, vec![4]);
    assert_eq!(report.checkpoints_dropped, 0);
    // The table reads again at the recovered version…
    let (rows, _) = table.scan(&[]).unwrap();
    assert_eq!(rows.len(), 30);
    // …and the corrupt bytes are preserved for inspection.
    assert!(store.exists("tbl/_log/quarantine/00000000000000000004.corrupt"));
}

#[test]
fn commit_refuses_to_build_on_a_torn_tip() {
    let store = MemoryStore::new();
    let log = TxnLog::open(&store, "t");
    log.commit(&[add("a", 1)]).unwrap();
    log.commit(&[add("b", 1)]).unwrap();
    let key = "t/_log/00000000000000000002.json";
    let bytes = store.get(key).unwrap();
    store.put(key, &bytes[..bytes.len() / 2]).unwrap();
    // A commit on top of detectable garbage must fail, not bury it —
    // otherwise recovery would quarantine this (valid) commit along with
    // the torn entry and a committed action would be lost.
    let r = log.commit(&[add("c", 1)]);
    assert!(matches!(r, Err(LakeError::Parse(_))), "{r:?}");
    log.recover().unwrap();
    assert_eq!(log.commit(&[add("c", 1)]).unwrap(), 2);
}

#[test]
fn crash_at_each_append_step_preserves_acid() {
    // One scripted crash per step of the append protocol: before the
    // data put, between data and bloom puts, before the log entry
    // (clean), and mid log entry (torn).
    let plans: [(FaultPlan, bool); 4] = [
        (FaultPlan::new().crash_at(Op::Put, 1), false),
        (FaultPlan::new().crash_at(Op::Put, 2), false),
        (FaultPlan::new().crash_at(Op::PutIfAbsent, 1), false),
        (FaultPlan::new().crash_torn(Op::PutIfAbsent, 1, 0.5), true),
    ];
    for (plan, torn) in plans {
        let backend = Arc::new(MemoryStore::new());
        LakeTable::open(backend.as_ref(), "t").append(&batch(0..5)).unwrap();
        let faulty = FaultStore::new(Arc::clone(&backend), plan);
        let dying = LakeTable::open(&faulty, "t");
        assert!(dying.append(&batch(5..10)).is_err());
        assert!(faulty.is_crashed());

        let table = LakeTable::open(backend.as_ref(), "t");
        let report = table.log().recover().unwrap();
        assert_eq!(report.quarantined.is_empty(), !torn, "{report:?}");
        // Exactly the committed append is visible; the dying one is
        // all-or-nothing gone.
        let (rows, _) = table.scan(&[]).unwrap();
        assert_eq!(rows.len(), 5);
        assert_eq!(table.log().latest_version(), 1);
        // The table accepts writes again, and orphans are vacuumable.
        table.append(&batch(50..53)).unwrap();
        assert_eq!(table.scan(&[]).unwrap().0.len(), 8);
        table.vacuum(1).unwrap();
        assert_eq!(backend.list("t/data/").len(), 4, "2 live files + 2 sidecars");
    }
}

// ------------------------------------------------------------- concurrency

#[test]
fn exactly_one_winner_per_version_under_concurrent_faulty_writers() {
    for seed in SEEDS {
        let backend = Arc::new(MemoryStore::new());
        let mut handles = Vec::new();
        for w in 0..4u64 {
            let backend = Arc::clone(&backend);
            handles.push(std::thread::spawn(move || {
                let plan = FaultPlan::new()
                    .seed(seed.wrapping_mul(31).wrapping_add(w))
                    .fail_with_probability(Op::PutIfAbsent, 0.3)
                    .fail_with_probability(Op::Get, 0.2);
                let faulty = FaultStore::new(backend, plan);
                let clock = Arc::new(ManualClock::new());
                let log = TxnLog::open(&faulty, "t")
                    .with_retry(RetryPolicy::new(12).with_jitter_seed(seed + w))
                    .with_clock(clock);
                let mut committed = Vec::new();
                for c in 0..3 {
                    let path = format!("w{w}-c{c}");
                    let v = log.commit(&[add(&path, 1)]).unwrap();
                    committed.push((path, v));
                }
                committed
            }));
        }
        let mut all: Vec<(String, u64)> =
            handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
        // Exactly one winner per version: 12 commits, versions 1..=12,
        // no duplicates.
        let mut versions: Vec<u64> = all.iter().map(|(_, v)| *v).collect();
        versions.sort_unstable();
        assert_eq!(versions, (1..=12).collect::<Vec<u64>>());
        // No committed action lost, none duplicated.
        let log = TxnLog::open(backend.as_ref(), "t");
        let snap = log.snapshot().unwrap();
        let mut snap_paths: Vec<&str> = snap.files.iter().map(|(p, _)| p.as_str()).collect();
        snap_paths.sort_unstable();
        all.sort_by(|a, b| a.0.cmp(&b.0));
        let committed_paths: Vec<&str> = all.iter().map(|(p, _)| p.as_str()).collect();
        assert_eq!(snap_paths, committed_paths);
        assert!(log.recover().unwrap().is_clean());
    }
}

#[test]
fn concurrent_writer_death_is_recoverable_by_survivors() {
    for seed in SEEDS {
        let backend = Arc::new(MemoryStore::new());
        TxnLog::open(backend.as_ref(), "t").commit(&[add("seed", 1)]).unwrap();
        let mut handles = Vec::new();
        for w in 0..4u64 {
            let backend = Arc::clone(&backend);
            handles.push(std::thread::spawn(move || {
                let plan = if w == 0 {
                    // This writer dies mid log write on its first commit.
                    FaultPlan::new().crash_torn(Op::PutIfAbsent, 1, 0.6)
                } else {
                    FaultPlan::new()
                        .seed(seed ^ w)
                        .fail_with_probability(Op::PutIfAbsent, 0.2)
                };
                let faulty = FaultStore::new(backend, plan);
                let clock = Arc::new(ManualClock::new());
                let log = TxnLog::open(&faulty, "t")
                    .with_retry(RetryPolicy::new(8).with_jitter_seed(seed + w))
                    .with_clock(clock);
                let path = format!("w{w}");
                let outcome = log.commit(&[add(&path, 1)]).map(|_| ());
                (path, outcome)
            }));
        }
        let results: Vec<(String, Result<(), LakeError>)> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(
            results.iter().any(|(p, r)| p == "w0" && r.is_err()),
            "the crash-scripted writer must have died"
        );
        // Survivors (or an operator) recover, then replay every failed
        // commit — failed commits are guaranteed side-effect-free.
        let log = TxnLog::open(backend.as_ref(), "t");
        log.recover().unwrap();
        for (path, outcome) in &results {
            if outcome.is_err() {
                log.commit(&[add(path, 1)]).unwrap();
            }
        }
        let snap = log.snapshot().unwrap();
        let mut paths: Vec<&str> = snap.files.iter().map(|(p, _)| p.as_str()).collect();
        paths.sort_unstable();
        assert_eq!(paths, vec!["seed", "w0", "w1", "w2", "w3"]);
        assert!(log.recover().unwrap().is_clean());
    }
}

// ---------------------------------------------------------------- replay

#[test]
fn snapshot_equals_pure_replay_after_recovery() {
    let store = MemoryStore::new();
    let mut log = TxnLog::open(&store, "t");
    log.checkpoint_every = 5;
    for i in 0..12 {
        log.commit(&[add(&format!("f{i}"), i as usize)]).unwrap();
    }
    let key = "t/_log/00000000000000000012.json";
    let bytes = store.get(key).unwrap();
    store.put(key, &bytes[..bytes.len() / 2]).unwrap();

    let report = log.recover().unwrap();
    assert_eq!(report.recovered_version, 11);
    assert_eq!(report.checkpoints_verified, 2, "checkpoints at 5 and 10 re-verified");
    let from_checkpoint = log.snapshot().unwrap();
    // Deleting the checkpoints forces a from-scratch replay; both views
    // of the table must be identical.
    for k in store.list("t/_log/checkpoint-") {
        store.delete(&k).unwrap();
    }
    let pure = log.snapshot().unwrap();
    assert_eq!(from_checkpoint, pure);
    assert_eq!(pure.version, 11);
    assert_eq!(pure.files.len(), 11);
}

#[test]
fn time_travel_after_recovery_preserves_row_level_history() {
    let store = MemoryStore::new();
    let table = LakeTable::open(&store, "t");
    table.append(&batch(0..5)).unwrap();
    table.append(&batch(5..10)).unwrap();
    table.append(&batch(10..15)).unwrap();
    store.put("t/_log/00000000000000000003.json", b"{torn mid-write").unwrap();
    table.log().recover().unwrap();

    let ids_at = |v: u64| -> Vec<i64> {
        let (rows, _) = table.scan_at(v, &[]).unwrap();
        let mut ids: Vec<i64> = rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
        ids.sort_unstable();
        ids
    };
    // Row-level equality with the pre-crash versions.
    assert_eq!(ids_at(1), (0..5).collect::<Vec<i64>>());
    assert_eq!(ids_at(2), (0..10).collect::<Vec<i64>>());
    // The torn version is gone; history ends at the recovered version.
    assert_eq!(table.log().latest_version(), 2);
    assert!(table.scan_at(3, &[]).is_err());
    // New commits do not disturb recovered history.
    table.append(&batch(100..105)).unwrap();
    assert_eq!(ids_at(1), (0..5).collect::<Vec<i64>>());
    assert_eq!(ids_at(2), (0..10).collect::<Vec<i64>>());
}

#[test]
fn checkpoint_damage_is_found_and_dropped_accurately() {
    let store = MemoryStore::new();
    let mut log = TxnLog::open(&store, "t");
    log.checkpoint_every = 2;
    for i in 0..5 {
        log.commit(&[add(&format!("f{i}"), 1)]).unwrap();
    }
    // Corrupt the checkpoint at 2; tear the entry at 5.
    store.put("t/_log/checkpoint-00000000000000000002.json", b"]]junk").unwrap();
    let key = "t/_log/00000000000000000005.json";
    let bytes = store.get(key).unwrap();
    store.put(key, &bytes[..5]).unwrap();

    let report = log.recover().unwrap();
    assert_eq!(report.scanned, 5);
    assert_eq!(report.recovered_version, 4);
    assert_eq!(report.quarantined, vec![5]);
    assert_eq!(report.checkpoints_dropped, 1, "the corrupt checkpoint at 2");
    assert_eq!(report.checkpoints_verified, 1, "the intact checkpoint at 4");
    assert_eq!(log.snapshot().unwrap().files.len(), 4);
}

// ------------------------------------------------------------ observability

#[test]
fn registry_retry_metrics_match_the_scripted_fault_count() {
    // Every transient the FaultPlan injects must surface as exactly one
    // retry in the metrics registry — the observability plane may neither
    // invent faults nor swallow them.
    for seed in SEEDS {
        let scripted = 3u64; // 2 × PutIfAbsent + 1 × Get below
        let faulty = FaultStore::new(
            MemoryStore::new(),
            FaultPlan::new().fail_next(Op::PutIfAbsent, 2).fail_next(Op::Get, 1),
        );
        let clock = Arc::new(ManualClock::new());
        let registry = MetricsRegistry::new();
        let log = TxnLog::open(&faulty, "t")
            .with_retry(RetryPolicy::new(5).with_base_delay_ms(4).with_jitter_seed(seed))
            .with_clock(clock)
            .with_obs(HouseMetrics::register(&registry));
        log.commit(&[add("a", 1)]).unwrap();
        log.commit(&[add("b", 2)]).unwrap();

        let snap = registry.snapshot();
        assert_eq!(faulty.stats().transients_injected, scripted, "seed {seed}");
        assert_eq!(
            snap.counter_value("lake_house_retry_retries_total"),
            faulty.stats().transients_injected,
            "registry retries must equal injected transients for seed {seed}"
        );
        // The registry mirrors the bespoke RetryStats exactly.
        let stats = log.retry_stats();
        assert_eq!(snap.counter_value("lake_house_retry_retries_total"), stats.retries);
        assert_eq!(snap.counter_value("lake_house_retry_attempts_total"), stats.attempts);
        assert_eq!(snap.counter_value("lake_house_retry_gave_up_total"), stats.gave_up);
        assert_eq!(snap.counter_value("lake_house_retry_backoff_ms_total"), stats.backoff_ms);
        // Both commits landed and were measured.
        assert_eq!(snap.counter_value("lake_house_commit_total"), 2);
        let commit_seconds = snap.histogram("lake_house_commit_seconds").unwrap();
        assert_eq!(commit_seconds.count, 2);
    }
}

// ------------------------------------------------------------------- soak

#[test]
fn probabilistic_soak_is_deterministic_per_seed() {
    let soak = |seed: u64| {
        let faulty = FaultStore::new(
            MemoryStore::new(),
            FaultPlan::new()
                .seed(seed)
                .fail_with_probability(Op::PutIfAbsent, 0.25)
                .fail_with_probability(Op::Get, 0.15)
                .latency_ms(Op::Put, 2),
        );
        let clock = Arc::new(ManualClock::new());
        let log = TxnLog::open(&faulty, "t")
            .with_retry(RetryPolicy::new(10).with_base_delay_ms(3).with_jitter_seed(seed))
            .with_clock(clock.clone());
        for i in 0..20 {
            log.commit(&[add(&format!("f{i}"), i as usize)]).unwrap();
        }
        let snap = log.snapshot().unwrap();
        assert_eq!(snap.version, 20);
        assert_eq!(snap.files.len(), 20);
        let fstats = faulty.stats();
        (clock.sleeps(), log.retry_stats(), fstats.transients_injected, fstats.simulated_latency_ms)
    };
    for seed in SEEDS {
        let a = soak(seed);
        let b = soak(seed);
        assert_eq!(a, b, "soak must replay byte-for-byte for seed {seed}");
        assert!(a.2 > 0, "the fault plan must actually have fired for seed {seed}");
    }
}
