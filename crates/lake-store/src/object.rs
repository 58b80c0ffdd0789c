//! An immutable-blob object store: the HDFS / S3 / Azure Blob stand-in.
//!
//! File-based storage is "one of the most common data storage options for
//! data lakes" (§4.1). Algorithms above this layer need exactly four
//! things: write a blob, write-if-absent (the atomic primitive Delta-style
//! transaction logs rely on for optimistic concurrency, §8.3), read a
//! blob, and list keys under a prefix. Two backends are provided — an
//! in-memory map and a local directory — behind one trait, so every higher
//! layer is backend-agnostic.
//!
//! ## Decorator ordering
//!
//! Decorators ([`crate::fault::FaultStore`], [`crate::obs::ObsStore`])
//! wrap a *per-writer handle* to a shared backend (`Arc<S>`), never the
//! backend itself. The canonical stack is
//! `ObsStore<FaultStore<Arc<S>>>` — **faults inside, observation
//! outside** — which gives each layer exactly one vantage point:
//!
//! * the observer sees every attempt (including ones a fault eats
//!   before they reach the backend), so error counters and retry
//!   attempt counts line up with what the caller experienced;
//! * a `LocalDirStore` or `Polystore` shared by several writers is
//!   touched once per *surviving* call, so nothing is double-counted
//!   when each writer wraps the same `Arc<S>` in its own stack;
//! * reversing the order (`FaultStore<ObsStore<S>>`) would hide
//!   injected faults from the metrics — the observer would record a
//!   success for a call whose caller saw an error.

use lake_core::{LakeError, Result};
use lake_core::sync::LeafRwLock;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Blob storage with atomic conditional put.
pub trait ObjectStore: Send + Sync {
    /// Write `data` under `key`, replacing any existing blob.
    fn put(&self, key: &str, data: &[u8]) -> Result<()>;

    /// Write `data` under `key` only if `key` does not exist.
    ///
    /// Returns [`LakeError::AlreadyExists`] on conflict. This must be
    /// atomic with respect to concurrent `put_if_absent` calls on the same
    /// key — the lakehouse commit protocol depends on it.
    fn put_if_absent(&self, key: &str, data: &[u8]) -> Result<()>;

    /// Read the blob at `key`.
    fn get(&self, key: &str) -> Result<Vec<u8>>;

    /// Whether `key` exists.
    fn exists(&self, key: &str) -> bool;

    /// Delete the blob at `key` (idempotent: missing keys are fine).
    fn delete(&self, key: &str) -> Result<()>;

    /// All keys starting with `prefix`, in lexicographic order.
    fn list(&self, prefix: &str) -> Vec<String>;

    /// Size in bytes of the blob at `key`.
    ///
    /// The default reads the whole blob; backends with cheap metadata
    /// (an in-memory map, a filesystem stat) should override it.
    fn size(&self, key: &str) -> Result<usize> {
        self.get(key).map(|d| d.len())
    }
}

/// Shared handles delegate, so decorators like
/// [`crate::fault::FaultStore`] can wrap one backend per writer while all
/// writers still contend on the same blobs. `put_if_absent` atomicity is
/// exactly the inner store's: delegation adds no new race window.
impl<S: ObjectStore + ?Sized> ObjectStore for Arc<S> {
    fn put(&self, key: &str, data: &[u8]) -> Result<()> {
        (**self).put(key, data)
    }
    fn put_if_absent(&self, key: &str, data: &[u8]) -> Result<()> {
        (**self).put_if_absent(key, data)
    }
    fn get(&self, key: &str) -> Result<Vec<u8>> {
        (**self).get(key)
    }
    fn exists(&self, key: &str) -> bool {
        (**self).exists(key)
    }
    fn delete(&self, key: &str) -> Result<()> {
        (**self).delete(key)
    }
    fn list(&self, prefix: &str) -> Vec<String> {
        (**self).list(prefix)
    }
    fn size(&self, key: &str) -> Result<usize> {
        (**self).size(key)
    }
}

/// In-memory object store; the default for tests and benchmarks.
#[derive(Debug)]
pub struct MemoryStore {
    blobs: LeafRwLock<BTreeMap<String, Vec<u8>>>,
}

impl Default for MemoryStore {
    fn default() -> MemoryStore {
        MemoryStore::new()
    }
}

impl MemoryStore {
    /// A fresh, empty store.
    pub fn new() -> MemoryStore {
        MemoryStore {
            blobs: LeafRwLock::new(BTreeMap::new(), "store.object.blobs"),
        }
    }

    /// Number of stored blobs.
    pub fn len(&self) -> usize {
        self.blobs.read().len()
    }

    /// `true` when no blobs are stored.
    pub fn is_empty(&self) -> bool {
        self.blobs.read().is_empty()
    }

    /// Total stored bytes.
    pub fn total_bytes(&self) -> usize {
        self.blobs.read().values().map(Vec::len).sum()
    }
}

impl ObjectStore for MemoryStore {
    fn put(&self, key: &str, data: &[u8]) -> Result<()> {
        self.blobs.write().insert(key.to_string(), data.to_vec());
        Ok(())
    }

    fn put_if_absent(&self, key: &str, data: &[u8]) -> Result<()> {
        // Atomic: the whole-map write lock makes the existence check and
        // the insert one critical section — concurrent callers serialize.
        let mut blobs = self.blobs.write();
        if blobs.contains_key(key) {
            return Err(LakeError::AlreadyExists(key.to_string()));
        }
        blobs.insert(key.to_string(), data.to_vec());
        Ok(())
    }

    fn get(&self, key: &str) -> Result<Vec<u8>> {
        self.blobs
            .read()
            .get(key)
            .cloned()
            .ok_or_else(|| LakeError::not_found(key))
    }

    fn exists(&self, key: &str) -> bool {
        self.blobs.read().contains_key(key)
    }

    fn delete(&self, key: &str) -> Result<()> {
        self.blobs.write().remove(key);
        Ok(())
    }

    fn list(&self, prefix: &str) -> Vec<String> {
        self.blobs
            .read()
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, _)| k.clone())
            .collect()
    }

    fn size(&self, key: &str) -> Result<usize> {
        self.blobs
            .read()
            .get(key)
            .map(Vec::len)
            .ok_or_else(|| LakeError::not_found(key))
    }
}

/// Object store persisting blobs as files under a root directory.
///
/// Keys map to relative paths; `/` in keys becomes directory structure.
/// Both puts write a hidden temp file first and then publish it under the
/// key in one atomic filesystem call, so a key is absent or complete.
#[derive(Debug)]
pub struct LocalDirStore {
    root: PathBuf,
    tmp_seq: AtomicU64,
}

impl LocalDirStore {
    /// Open (creating if needed) a store rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> Result<LocalDirStore> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(LocalDirStore { root, tmp_seq: AtomicU64::new(0) })
    }

    /// Write `data` to a fresh temp file beside `path` (a hidden name that
    /// `list` skips) and return the temp file's path. A failed write
    /// leaves no temp file behind.
    fn write_tmp(&self, path: &Path, data: &[u8]) -> Result<PathBuf> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let file_name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "blob".to_string());
        let tmp = path.with_file_name(format!(
            ".{file_name}.tmp-{}-{}",
            std::process::id(),
            // lint: ordering — temp-name uniqueness rests on fetch_add
            // atomicity; no cross-variable ordering is implied.
            self.tmp_seq.fetch_add(1, Ordering::Relaxed)
        ));
        if let Err(e) = std::fs::write(&tmp, data) {
            let _ = std::fs::remove_file(&tmp);
            return Err(e.into());
        }
        Ok(tmp)
    }

    fn path_of(&self, key: &str) -> Result<PathBuf> {
        // Reject path escapes; keys are logical names, not paths.
        if key.split('/').any(|seg| seg == ".." || seg.is_empty()) || key.starts_with('/') {
            return Err(LakeError::invalid(format!("bad object key {key:?}")));
        }
        Ok(self.root.join(key))
    }

    fn collect(&self, dir: &Path, prefix: &str, out: &mut Vec<String>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for entry in entries.flatten() {
            let path = entry.path();
            let rel = path
                .strip_prefix(&self.root)
                .map(|p| p.to_string_lossy().replace('\\', "/"))
                .unwrap_or_default();
            if path.is_dir() {
                self.collect(&path, prefix, out);
            } else if rel.starts_with(prefix) && !is_tmp_name(&rel) {
                out.push(rel);
            }
        }
    }
}

/// Is `rel` one of [`LocalDirStore`]'s in-flight temp files? Those are
/// invisible to `list` so a concurrent reader never sees a blob that was
/// not yet published under its key.
fn is_tmp_name(rel: &str) -> bool {
    rel.rsplit('/')
        .next()
        .is_some_and(|name| name.starts_with('.') && name.contains(".tmp-"))
}

impl ObjectStore for LocalDirStore {
    /// Crash-safe overwrite: the bytes land in a fresh temp file which is
    /// then renamed over `key`. A writer dying mid-`put` can leave a stray
    /// temp file but can never leave `key` holding a torn blob — rename
    /// within one directory is atomic on POSIX filesystems.
    fn put(&self, key: &str, data: &[u8]) -> Result<()> {
        let path = self.path_of(key)?;
        let tmp = self.write_tmp(&path, data)?;
        if let Err(e) = std::fs::rename(&tmp, &path) {
            let _ = std::fs::remove_file(&tmp);
            return Err(e.into());
        }
        Ok(())
    }

    /// Atomic publish: the bytes land in a complete temp file, which is
    /// then hard-linked to `key`. `link(2)` fails with `EEXIST` when the
    /// key exists, atomically, so exactly one concurrent creator wins, and
    /// a reader finds the key absent or holding every byte — never empty
    /// or partial. The temp file is unlinked on every exit; a writer dying
    /// mid-call can leave only a stray temp file, which `list` skips.
    fn put_if_absent(&self, key: &str, data: &[u8]) -> Result<()> {
        let path = self.path_of(key)?;
        let tmp = self.write_tmp(&path, data)?;
        let linked = std::fs::hard_link(&tmp, &path);
        let _ = std::fs::remove_file(&tmp);
        match linked {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                Err(LakeError::AlreadyExists(key.to_string()))
            }
            Err(e) => Err(e.into()),
        }
    }

    fn get(&self, key: &str) -> Result<Vec<u8>> {
        let path = self.path_of(key)?;
        std::fs::read(&path).map_err(|e| {
            if e.kind() == std::io::ErrorKind::NotFound {
                LakeError::not_found(key)
            } else {
                e.into()
            }
        })
    }

    fn exists(&self, key: &str) -> bool {
        self.path_of(key).map(|p| p.is_file()).unwrap_or(false)
    }

    fn delete(&self, key: &str) -> Result<()> {
        let path = self.path_of(key)?;
        match std::fs::remove_file(path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    fn list(&self, prefix: &str) -> Vec<String> {
        let mut out = Vec::new();
        self.collect(&self.root.clone(), prefix, &mut out);
        out.sort();
        out
    }

    fn size(&self, key: &str) -> Result<usize> {
        let path = self.path_of(key)?;
        match std::fs::metadata(&path) {
            Ok(m) if m.is_file() => Ok(m.len() as usize),
            Ok(_) => Err(LakeError::not_found(key)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                Err(LakeError::not_found(key))
            }
            Err(e) => Err(e.into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn exercise(store: &dyn ObjectStore) {
        store.put("a/one", b"1").unwrap();
        store.put("a/two", b"22").unwrap();
        store.put("b/three", b"333").unwrap();
        assert_eq!(store.get("a/one").unwrap(), b"1");
        assert!(store.exists("a/two"));
        assert!(!store.exists("a/nope"));
        assert_eq!(store.list("a/"), vec!["a/one".to_string(), "a/two".to_string()]);
        assert_eq!(store.list(""), vec!["a/one", "a/two", "b/three"]);
        assert_eq!(store.size("b/three").unwrap(), 3);

        // Conditional put.
        assert!(matches!(
            store.put_if_absent("a/one", b"x"),
            Err(LakeError::AlreadyExists(_))
        ));
        store.put_if_absent("a/new", b"n").unwrap();
        assert_eq!(store.get("a/new").unwrap(), b"n");

        // Overwrite + delete.
        store.put("a/one", b"updated").unwrap();
        assert_eq!(store.get("a/one").unwrap(), b"updated");
        store.delete("a/one").unwrap();
        assert!(!store.exists("a/one"));
        store.delete("a/one").unwrap(); // idempotent
        assert!(matches!(store.get("a/one"), Err(LakeError::NotFound(_))));
    }

    #[test]
    fn memory_store_semantics() {
        let s = MemoryStore::new();
        exercise(&s);
        assert_eq!(s.len(), 3);
        assert!(s.total_bytes() > 0);
    }

    #[test]
    fn local_dir_store_semantics() {
        let dir = std::env::temp_dir().join(format!("lake_store_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let s = LocalDirStore::open(&dir).unwrap();
        exercise(&s);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn local_dir_rejects_escaping_keys() {
        let dir = std::env::temp_dir().join(format!("lake_store_esc_{}", std::process::id()));
        let s = LocalDirStore::open(&dir).unwrap();
        assert!(s.put("../evil", b"x").is_err());
        assert!(s.put("/abs", b"x").is_err());
        assert!(s.put("a//b", b"x").is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `size` must agree with `get().len()` on every backend — and must
    /// not fall back to reading the body (checked indirectly: both
    /// overrides answer for keys of every size including empty).
    #[test]
    fn size_agrees_with_get_len_on_all_backends() {
        let dir = std::env::temp_dir().join(format!("lake_store_size_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let local = LocalDirStore::open(&dir).unwrap();
        let mem = MemoryStore::new();
        let stores: [&dyn ObjectStore; 2] = [&mem, &local];
        for store in stores {
            for (key, len) in [("empty", 0usize), ("small", 3), ("big", 4096)] {
                store.put(key, &vec![7u8; len]).unwrap();
                assert_eq!(store.size(key).unwrap(), store.get(key).unwrap().len());
                assert_eq!(store.size(key).unwrap(), len);
            }
            assert!(matches!(store.size("absent"), Err(LakeError::NotFound(_))));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn local_put_is_tempfile_then_rename() {
        let dir = std::env::temp_dir().join(format!("lake_store_tmp_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let s = LocalDirStore::open(&dir).unwrap();
        s.put("a/blob", b"first").unwrap();
        s.put("a/blob", b"second-longer-content").unwrap();
        assert_eq!(s.get("a/blob").unwrap(), b"second-longer-content");
        // No temp residue on disk and none visible through list().
        let mut names = Vec::new();
        fn walk(dir: &std::path::Path, out: &mut Vec<String>) {
            for e in std::fs::read_dir(dir).unwrap().flatten() {
                if e.path().is_dir() {
                    walk(&e.path(), out);
                } else {
                    out.push(e.file_name().to_string_lossy().into_owned());
                }
            }
        }
        walk(&dir, &mut names);
        assert_eq!(names, vec!["blob".to_string()], "{names:?}");
        assert_eq!(s.list(""), vec!["a/blob".to_string()]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_local_puts_never_interleave() {
        let dir = std::env::temp_dir().join(format!("lake_store_race_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let s = Arc::new(LocalDirStore::open(&dir).unwrap());
        let mut handles = Vec::new();
        for i in 0..8u8 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for _ in 0..20 {
                    s.put("contested", &vec![i; 512]).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Whole-blob atomicity: the final content is exactly one writer's
        // 512 identical bytes, never a mix.
        let got = s.get("contested").unwrap();
        assert_eq!(got.len(), 512);
        assert!(got.iter().all(|&b| b == got[0]), "interleaved write detected");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_reader_sees_a_conditional_put_absent_or_whole() {
        use std::sync::atomic::AtomicBool;
        let dir = std::env::temp_dir().join(format!("lake_store_pia_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let s = Arc::new(LocalDirStore::open(&dir).unwrap());
        let blob: Arc<Vec<u8>> = Arc::new((0..8usize << 20).map(|i| (i % 251) as u8).collect());
        for round in 0..24 {
            let key = format!("_log/{round:020}.json");
            let done = Arc::new(AtomicBool::new(false));
            let reader = {
                let (s, key) = (Arc::clone(&s), key.clone());
                let (blob, done) = (Arc::clone(&blob), Arc::clone(&done));
                std::thread::spawn(move || {
                    // Poll until the whole blob shows; record anything else seen.
                    let mut torn = Vec::new();
                    loop {
                        let finished = done.load(std::sync::atomic::Ordering::SeqCst);
                        match s.get(&key) {
                            Ok(bytes) if bytes == *blob => return torn,
                            Ok(bytes) => torn.push(bytes.len()),
                            Err(LakeError::NotFound(_)) if !finished => {}
                            Err(e) => panic!("{e:?} after the put returned"),
                        }
                    }
                })
            };
            s.put_if_absent(&key, &blob).unwrap();
            done.store(true, std::sync::atomic::Ordering::SeqCst);
            let torn = reader.join().unwrap();
            assert!(torn.is_empty(), "round {round}: partial blobs of lengths {torn:?}");
        }
        assert_eq!(std::fs::read_dir(dir.join("_log")).unwrap().count(), 24, "no temp file left");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn arc_handles_share_one_backend() {
        let inner = Arc::new(MemoryStore::new());
        let a = Arc::clone(&inner);
        let b = Arc::clone(&inner);
        a.put("k", b"v").unwrap();
        assert_eq!(b.get("k").unwrap(), b"v");
        assert!(matches!(b.put_if_absent("k", b"w"), Err(LakeError::AlreadyExists(_))));
        assert_eq!(b.size("k").unwrap(), 1);
    }

    #[test]
    fn concurrent_put_if_absent_has_single_winner() {
        let s = Arc::new(MemoryStore::new());
        let mut handles = Vec::new();
        for i in 0..16 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                s.put_if_absent("race", format!("writer{i}").as_bytes()).is_ok()
            }));
        }
        let wins = handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .filter(|&won| won)
            .count();
        assert_eq!(wins, 1);
    }
}
