//! Deterministic parallel execution for the discovery/profiling tier.
//!
//! The Table-3 pipelines (column profiling, index construction, query
//! fan-out) are embarrassingly parallel, but the reproduction's results
//! must stay *bit-identical* to the sequential reference — a benchmark
//! whose precision/recall columns depend on the worker count is not a
//! reproduction. This module provides the one primitive everything else
//! is built on: a parallel map over an index range whose output is
//! reassembled in input order, so
//!
//! ```text
//! map_range(par, 0..n, f)  ==  (0..n).map(f).collect()
//! ```
//!
//! for every worker count, including 1 (which short-circuits to the
//! plain sequential loop — no threads, no channels).
//!
//! ## Execution model
//!
//! The range is split into contiguous chunks (a few per worker, so a
//! slow chunk does not straggle the whole map) that scoped `std::thread`
//! workers claim in turn from a shared atomic cursor. Each worker sends
//! `(chunk index, results)` back on a `std::sync::mpsc` channel; the
//! caller slots chunks back into input order. Determinism therefore never depends on scheduling — only
//! *when* a chunk is computed varies, never *what* or *where in the
//! output* it lands.
//!
//! ## Panic propagation
//!
//! A panicking closure poisons its worker; `std::thread::scope` re-raises
//! the panic on the caller's thread once all workers are joined. The
//! result collector simply drains until every result sender is gone, so a
//! dead worker can never deadlock the caller.
//!
//! ## Worker sizing
//!
//! [`Parallelism::auto`] resolves to `std::thread::available_parallelism`
//! at call time, overridable per call site with [`Parallelism::fixed`]
//! (the injectable override the determinism tests use, e.g.
//! `lake-discovery`'s `par_prop.rs`) or process-wide with the
//! `RUSTLAKE_WORKERS` environment variable.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Target number of chunks handed to each worker; >1 so the shared
/// cursor load-balances uneven per-item cost without hurting determinism.
const CHUNKS_PER_WORKER: usize = 4;

/// Worker-count policy for a parallel section.
///
/// The default ([`Parallelism::auto`]) sizes to the hardware;
/// [`Parallelism::fixed`] pins the count (1 = sequential in-thread
/// execution). Output is bit-identical either way — the policy only
/// changes wall-clock time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Parallelism(usize);

impl Parallelism {
    /// Size to the hardware: `RUSTLAKE_WORKERS` if set and positive,
    /// otherwise `std::thread::available_parallelism` (1 if unknown).
    pub fn auto() -> Parallelism {
        Parallelism(0)
    }

    /// Exactly `workers` workers (clamped to at least 1).
    pub fn fixed(workers: usize) -> Parallelism {
        Parallelism(workers.max(1))
    }

    /// One worker: runs inline on the calling thread, no threads spawned.
    pub fn sequential() -> Parallelism {
        Parallelism::fixed(1)
    }

    /// The resolved worker count (≥ 1).
    pub fn workers(self) -> usize {
        if self.0 > 0 {
            return self.0;
        }
        if let Ok(v) = std::env::var("RUSTLAKE_WORKERS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n > 0 {
                    return n;
                }
            }
        }
        std::thread::available_parallelism().map(usize::from).unwrap_or(1)
    }
}

/// Parallel map over an index range, output in index order.
///
/// Equivalent to `(range).map(f).collect()` for every worker count —
/// the closure runs exactly once per index and results are reassembled
/// in input order. A panic in `f` propagates to the caller.
pub fn map_range<R, F>(par: Parallelism, range: std::ops::Range<usize>, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let n = range.end.saturating_sub(range.start);
    let workers = par.workers().min(n);
    if workers <= 1 {
        return range.map(f).collect();
    }

    // Contiguous chunks, claimed in turn through a shared cursor.
    let chunk = (n / (workers * CHUNKS_PER_WORKER)).max(1);
    let num_chunks = n.div_ceil(chunk);
    let cursor = AtomicUsize::new(0);

    let mut slots: Vec<Option<Vec<R>>> = Vec::new();
    slots.resize_with(num_chunks, || None);
    std::thread::scope(|s| {
        let (res_tx, res_rx) = mpsc::channel::<(usize, Vec<R>)>();
        for _ in 0..workers {
            let res_tx = res_tx.clone();
            let (f, cursor) = (&f, &cursor);
            s.spawn(move || loop {
                // lint: ordering — the cursor only hands out distinct chunk indices.
                let ci = cursor.fetch_add(1, Ordering::Relaxed);
                if ci >= num_chunks {
                    return;
                }
                let lo = range.start + ci * chunk;
                let hi = (lo + chunk).min(range.end);
                let out: Vec<R> = (lo..hi).map(f).collect();
                if res_tx.send((ci, out)).is_err() {
                    return;
                }
            });
        }
        drop(res_tx);
        // Drain until every worker has dropped its sender; a worker that
        // panicked mid-chunk leaves its slot empty, and the scope re-raises
        // its panic right after this loop ends.
        while let Ok((ci, out)) = res_rx.recv() {
            if let Some(slot) = slots.get_mut(ci) {
                *slot = Some(out);
            }
        }
    });
    // Reaching here means no worker panicked, so every slot is filled;
    // chunks flatten back into exact input order.
    slots.into_iter().flatten().flatten().collect()
}

/// Parallel map over a slice, output in input order.
///
/// Equivalent to `items.iter().map(f).collect()` for every worker count.
pub fn map<T, R, F>(par: Parallelism, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    map_range(par, 0..items.len(), |i| f(&items[i]))
}

/// Parallel map over a slice with the element index, output in input
/// order. Equivalent to `items.iter().enumerate().map(|(i, t)| f(i, t))`.
pub fn map_indexed<T, R, F>(par: Parallelism, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    map_range(par, 0..items.len(), |i| f(i, &items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_matches_sequential_in_order() {
        // Nonzero starts: chunk bounds are offsets from the range start.
        for start in [0usize, 5, 100] {
            for n in [0usize, 1, 2, 7, 100, 1000] {
                for workers in [1usize, 2, 3, 8, 33] {
                    let range = start..start + n;
                    let seq: Vec<usize> = range.clone().map(|i| i * i + 1).collect();
                    let par = map_range(Parallelism::fixed(workers), range, |i| i * i + 1);
                    assert_eq!(seq, par, "start={start} n={n} workers={workers}");
                }
            }
        }
    }

    #[test]
    fn slice_maps_match_iterators() {
        let items: Vec<String> = (0..57).map(|i| format!("v{i}")).collect();
        let seq: Vec<usize> = items.iter().map(String::len).collect();
        assert_eq!(map(Parallelism::fixed(4), &items, |s| s.len()), seq);
        let seq_ix: Vec<usize> = items.iter().enumerate().map(|(i, s)| i + s.len()).collect();
        assert_eq!(map_indexed(Parallelism::fixed(4), &items, |i, s| i + s.len()), seq_ix);
    }

    #[test]
    fn one_worker_runs_inline_without_threads() {
        // The sequential fast path must run on the calling thread: the
        // closure below is only `Sync` (shared &AtomicUsize), and thread
        // identity proves no hand-off happened.
        let tid = std::thread::current().id();
        let calls = AtomicUsize::new(0);
        let out = map_range(Parallelism::sequential(), 0..10, |i| {
            assert_eq!(std::thread::current().id(), tid);
            calls.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(out, (0..10).collect::<Vec<_>>());
        assert_eq!(calls.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn every_index_runs_exactly_once() {
        let n = 250;
        let counts: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let _ = map_range(Parallelism::fixed(6), 0..n, |i| {
            counts[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let result = std::panic::catch_unwind(|| {
            map_range(Parallelism::fixed(3), 0..64, |i| {
                if i == 40 {
                    panic!("injected worker failure");
                }
                i
            })
        });
        assert!(result.is_err(), "worker panic must reach the caller");
    }

    #[test]
    fn workers_resolve_to_at_least_one() {
        assert_eq!(Parallelism::fixed(0).workers(), 1);
        assert!(Parallelism::auto().workers() >= 1);
        assert_eq!(Parallelism::sequential().workers(), 1);
        assert_eq!(Parallelism::default(), Parallelism::auto());
    }

    #[test]
    fn results_survive_uneven_chunk_timing() {
        // Stagger chunk cost so later chunks finish first; order must hold.
        let out = map_range(Parallelism::fixed(4), 0..40, |i| {
            if i % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            i * 3
        });
        assert_eq!(out, (0..40).map(|i| i * 3).collect::<Vec<_>>());
    }
}
