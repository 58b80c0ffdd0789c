//! Property suite for the write-ahead journal's recovery contract:
//!
//! * **replay idempotence** — recovering a journal once, twice, or
//!   replaying its records a second time over an already-recovered state
//!   all land on byte-identical namespace dumps;
//! * **concurrency invariance** — the recovered state is byte-identical
//!   whether the workload was appended by 1, 2, 4, or 8 threads (group
//!   commit batches differently, the journal interleaves differently,
//!   the *state* may not);
//! * **torn-tail safety** — truncating the journal at *every* byte
//!   offset inside the last frame never loses an earlier entry: the
//!   prefix decodes completely or the tail is dropped whole, and the
//!   on-disk recovery path quarantines the damage without touching the
//!   acked prefix.

use lake_core::{CrashSwitch, Json};
use lake_obs::MetricsRegistry;
use lake_core::degrade::{BreakerConfig, QuotaConfig};
use lake_server::wal::{
    apply_record, dump_state, restore_snapshot, Wal, WalConfig, WalOp, WalRecord,
};
use lake_server::Tenants;
use lake_store::durable::{encode_frame, scan_frames};
use lake_store::polystore::Polystore;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn fresh_dir(tag: &str) -> String {
    let n = DIR_SEQ.fetch_add(1, Ordering::SeqCst);
    let dir = std::env::temp_dir().join(format!(
        "lake-walprop-{tag}-{}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir.to_string_lossy().into_owned()
}

fn fresh_tenants() -> Tenants {
    Tenants::new(QuotaConfig::unlimited(), BreakerConfig::default())
}

/// A seeded workload of puts (mixed wire kinds) with occasional dels of
/// earlier keys.
fn workload(seed: u64, n: usize) -> Vec<(WalOp, String, String, Json)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(n);
    let mut live: Vec<String> = Vec::new();
    for i in 0..n {
        if !live.is_empty() && rng.random_range(0..4u32) == 0 {
            let victim = live.remove(rng.random_range(0..live.len()));
            out.push((WalOp::Del, victim, String::new(), Json::Null));
            continue;
        }
        let name = format!("d{i}");
        let (kind, body) = match rng.random_range(0..3u32) {
            0 => ("text", Json::str(format!("v-{seed}-{i}"))),
            1 => (
                "log",
                Json::Array(vec![Json::str(format!("l0-{i}")), Json::str(format!("l1-{i}"))]),
            ),
            _ => (
                "documents",
                Json::Array(vec![Json::obj(vec![("k", Json::Num(i as f64))])]),
            ),
        };
        live.push(name.clone());
        out.push((WalOp::Put, name, kind.to_string(), body));
    }
    out
}

fn open_wal(dir: &str) -> (Wal, lake_server::wal::Recovered) {
    Wal::open(
        WalConfig::new(dir),
        Arc::new(CrashSwitch::disabled()),
        &MetricsRegistry::new(),
    )
    .unwrap()
}

/// Append the workload, applying each record live (the durable path's
/// journal-then-apply order), and return the live state dump.
fn run_workload(dir: &str, ops: &[(WalOp, String, String, Json)], threads: usize) -> String {
    let (wal, _) = open_wal(dir);
    let wal = Arc::new(wal);
    let tenants = Arc::new(fresh_tenants());
    let store = Arc::new(Polystore::new());
    // Split the workload into per-thread slices over disjoint keys: each
    // op stays in its original relative order within its thread.
    let chunks: Vec<Vec<(WalOp, String, String, Json)>> = (0..threads)
        .map(|t| {
            ops.iter()
                .enumerate()
                .filter(|(i, _)| i % threads == t)
                .map(|(_, op)| op.clone())
                .collect()
        })
        .collect();
    let handles: Vec<_> = chunks
        .into_iter()
        .map(|chunk| {
            let wal = Arc::clone(&wal);
            let tenants = Arc::clone(&tenants);
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                for (op, name, kind, body) in chunk {
                    let seq = wal.append(op, "acme", &name, &kind, &body).unwrap();
                    let rec = WalRecord {
                        seq,
                        op,
                        tenant: "acme".into(),
                        name,
                        kind,
                        body,
                    };
                    apply_record(&tenants, &store, &rec).unwrap();
                    wal.mark_applied(seq);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    dump_state(&tenants, &store).to_string()
}

/// Recover the journal at `dir` into a fresh namespace; returns the dump
/// and the records that were replayed.
fn recover(dir: &str) -> (String, Vec<WalRecord>) {
    let (_wal, recovered) = open_wal(dir);
    let tenants = fresh_tenants();
    let store = Polystore::new();
    if let Some(snapshot) = &recovered.snapshot {
        restore_snapshot(&tenants, &store, snapshot).unwrap();
    }
    for rec in &recovered.records {
        apply_record(&tenants, &store, rec).unwrap();
    }
    (dump_state(&tenants, &store).to_string(), recovered.records)
}

proptest! {
    #[test]
    fn replay_is_idempotent(seed in any::<u64>(), n in 1usize..8) {
        // Dels of already-deleted keys would be order-dependent across
        // threads; sequential here, so any workload shape is fine.
        let ops = workload(seed, n);
        let dir = fresh_dir("idem");
        let live = run_workload(&dir, &ops, 1);

        let (once, records) = recover(&dir);
        prop_assert_eq!(&once, &live);

        // Recovering the same journal again is byte-identical.
        let (twice, _) = recover(&dir);
        prop_assert_eq!(&once, &twice);

        // Double-applying a record changes nothing for the overwrite
        // kinds (text/log re-put the same file key, dels are no-ops).
        // The documents kind is deliberately excluded: the document
        // store's `insert_many` has append semantics, live *and* on
        // replay — recovery reproduces live execution faithfully, and
        // the recover-twice check above is the idempotence that holds
        // for every kind.
        let overwrite: Vec<_> =
            records.iter().filter(|r| r.kind != "documents").cloned().collect();
        let once_state = {
            let tenants = fresh_tenants();
            let store = Polystore::new();
            for rec in &overwrite {
                apply_record(&tenants, &store, rec).unwrap();
            }
            dump_state(&tenants, &store).to_string()
        };
        let tenants = fresh_tenants();
        let store = Polystore::new();
        for rec in overwrite.iter().chain(overwrite.iter()) {
            apply_record(&tenants, &store, rec).unwrap();
        }
        prop_assert_eq!(&dump_state(&tenants, &store).to_string(), &once_state);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovered_state_is_identical_across_worker_counts(seed in any::<u64>()) {
        // Puts only: disjoint keys per op, so every interleaving of the
        // thread slices linearizes to the same final namespace.
        let ops: Vec<_> = workload(seed, 12)
            .into_iter()
            .filter(|(op, ..)| *op == WalOp::Put)
            .collect();
        let mut dumps = Vec::new();
        for threads in [1usize, 2, 4, 8] {
            let dir = fresh_dir(&format!("par{threads}"));
            let live = run_workload(&dir, &ops, threads);
            let (recovered_dump, _) = recover(&dir);
            prop_assert_eq!(&recovered_dump, &live);
            dumps.push(recovered_dump);
            let _ = std::fs::remove_dir_all(&dir);
        }
        for d in &dumps {
            prop_assert_eq!(d, &dumps.first().unwrap().clone());
        }
    }

    #[test]
    fn torn_tail_at_every_offset_never_loses_an_earlier_entry(seed in any::<u64>(), n in 2usize..6) {
        // In-memory exhaustive sweep over the decode pipeline recovery
        // uses: frames encoded exactly as `Wal::append` encodes them.
        let ops: Vec<_> = workload(seed, n)
            .into_iter()
            .filter(|(op, ..)| *op == WalOp::Put)
            .collect();
        prop_assume!(ops.len() >= 2);
        let mut image = Vec::new();
        let mut frame_ends = Vec::new();
        for (i, (op, name, kind, body)) in ops.iter().enumerate() {
            let rec = WalRecord {
                seq: i as u64 + 1,
                op: *op,
                tenant: "acme".into(),
                name: name.clone(),
                kind: kind.clone(),
                body: body.clone(),
            };
            image.extend_from_slice(
                &encode_frame(rec.to_json().to_string().as_bytes()).unwrap(),
            );
            frame_ends.push(image.len());
        }
        let keep = frame_ends[frame_ends.len() - 2];
        for cut in keep..=image.len() {
            let scan = scan_frames(&image[..cut]);
            let expected = if cut == image.len() { ops.len() } else { ops.len() - 1 };
            prop_assert_eq!(scan.frames.len(), expected);
            // Every surviving frame decodes to its original record.
            for (i, frame) in scan.frames.iter().enumerate() {
                let j = lake_formats::json::parse(std::str::from_utf8(frame).unwrap()).unwrap();
                let rec = WalRecord::from_json(&j).unwrap();
                prop_assert_eq!(rec.seq, i as u64 + 1);
                prop_assert_eq!(&rec.name, &ops[i].1);
            }
        }
    }

    #[test]
    fn disk_recovery_survives_a_random_torn_cut(seed in any::<u64>()) {
        // The full disk path (quarantine + truncate + replay) probed at
        // one seeded offset per case; the exhaustive sweep above covers
        // every offset on the shared decode pipeline.
        let ops: Vec<_> = workload(seed, 5)
            .into_iter()
            .filter(|(op, ..)| *op == WalOp::Put)
            .collect();
        prop_assume!(ops.len() >= 2);
        let dir = fresh_dir("cut");
        run_workload(&dir, &ops, 1);
        let journal = std::path::Path::new(&dir).join("_wal").join("journal.log");
        let bytes = std::fs::read(&journal).unwrap();
        let scan = scan_frames(&bytes);
        let last_start = scan.valid_len
            - scan.frames.last().unwrap().len()
            - lake_store::durable::FRAME_OVERHEAD;
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
        let cut = rng.random_range(last_start..bytes.len());
        std::fs::write(&journal, &bytes[..cut]).unwrap();

        let (_dump, records) = recover(&dir);
        prop_assert_eq!(records.len(), ops.len() - 1);
        for (rec, op) in records.iter().zip(ops.iter()) {
            prop_assert_eq!(&rec.name, &op.1);
        }
        // The journal on disk was truncated back to the intact prefix,
        // byte for byte; when the cut left partial bytes (not a clean
        // frame boundary), they were quarantined.
        let truncated = std::fs::read(&journal).unwrap();
        prop_assert_eq!(&truncated[..], &bytes[..last_start]);
        if cut > last_start {
            let quarantine = std::path::Path::new(&dir).join("_wal").join("quarantine");
            prop_assert!(std::fs::read_dir(quarantine).unwrap().count() >= 1);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
