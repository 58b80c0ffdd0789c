//! Crash-safe file primitives: checksummed frames, fsynced appends, and
//! atomic replace — the `sync_all` discipline the server's write-ahead
//! journal is built on.
//!
//! The rest of the storage tier is content-addressed and immutable, so
//! torn writes only ever cost an orphaned object. A *journal* is the one
//! place the lake appends to a mutable file whose tail may be torn by
//! `kill -9` mid-write, so this module owns the three disciplines that
//! make that survivable:
//!
//! * **framing** — every record is `[u32 BE payload length][payload]
//!   [u64 BE FNV-1a-64(payload)]` (the same checksum family the lakehouse
//!   `TxnLog` uses for its commit entries), so a reader can detect exactly
//!   where a torn tail begins: [`scan_frames`] returns the longest valid
//!   prefix and the byte offset of the first damage;
//! * **fsync before acknowledge** — [`append_sync`] never returns before
//!   `sync_data`; lake-lint rule 9 ("durability discipline") enforces
//!   structurally that no journal path calls `write_all` without a
//!   following sync;
//! * **atomic replace** — [`atomic_write_sync`] writes a temp file in the
//!   destination directory, fsyncs it, renames over the target, and
//!   fsyncs the directory, so snapshots are always either the old or the
//!   new bytes, never a prefix.

use lake_core::{LakeError, Result};
use std::fs::File;
use std::io::Write;
use std::path::Path;

/// FNV-1a 64-bit — the workspace's standard content checksum, under the
/// name the journal code and the lakehouse log's entry crc know it by.
pub use lake_core::value::fnv1a as fnv1a64;

/// The checksum rendered the way the lakehouse log stores it: 16 lowercase
/// hex digits.
pub fn checksum_hex(bytes: &[u8]) -> String {
    format!("{:016x}", fnv1a64(bytes))
}

/// Per-frame overhead: 4-byte length prefix + 8-byte checksum suffix.
pub const FRAME_OVERHEAD: usize = 12;

/// Encode one payload as a length-prefixed, checksum-suffixed frame.
pub fn encode_frame(payload: &[u8]) -> Result<Vec<u8>> {
    let len = u32::try_from(payload.len())
        .map_err(|_| LakeError::invalid("frame payload exceeds u32::MAX"))?;
    let mut out = Vec::with_capacity(payload.len() + FRAME_OVERHEAD);
    out.extend_from_slice(&len.to_be_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&fnv1a64(payload).to_be_bytes());
    Ok(out)
}

/// What [`scan_frames`] found in a journal image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameScan {
    /// Payloads of the longest valid frame prefix, in file order.
    pub frames: Vec<Vec<u8>>,
    /// Byte length of that valid prefix; everything past it is damage.
    pub valid_len: usize,
    /// `true` when bytes exist past `valid_len` (torn tail or corruption).
    pub torn: bool,
}

/// Walk `bytes` frame by frame, stopping at the first incomplete frame or
/// checksum mismatch. A clean file yields `torn == false` and
/// `valid_len == bytes.len()`; any damage yields the longest valid prefix
/// plus the offset recovery should truncate to.
pub fn scan_frames(bytes: &[u8]) -> FrameScan {
    let mut frames = Vec::new();
    let mut offset = 0usize;
    loop {
        let Some(header) = bytes.get(offset..offset + 4) else { break };
        let mut len_buf = [0u8; 4];
        len_buf.copy_from_slice(header);
        let len = u32::from_be_bytes(len_buf) as usize;
        let payload_end = offset + 4 + len;
        let frame_end = payload_end + 8;
        let Some(payload) = bytes.get(offset + 4..payload_end) else { break };
        let Some(crc_bytes) = bytes.get(payload_end..frame_end) else { break };
        let mut crc_buf = [0u8; 8];
        crc_buf.copy_from_slice(crc_bytes);
        if u64::from_be_bytes(crc_buf) != fnv1a64(payload) {
            break;
        }
        frames.push(payload.to_vec());
        offset = frame_end;
    }
    FrameScan { frames, valid_len: offset, torn: offset != bytes.len() }
}

/// Append `buf` to `file` and `sync_data` before returning: once this
/// returns `Ok`, the bytes survive `kill -9`. One call per group-commit
/// batch, so the fsync cost is amortized across every frame in the batch.
pub fn append_sync(file: &mut File, buf: &[u8]) -> Result<()> {
    file.write_all(buf)
        .map_err(|e| LakeError::Io(format!("journal append: {e}")))?;
    file.sync_data().map_err(|e| LakeError::Io(format!("journal sync: {e}")))
}

/// Write `bytes` to `path` crash-safely: temp file in the same directory,
/// `sync_all`, atomic rename, then directory fsync so the rename itself
/// is durable. Readers see the old content or the new, never a prefix.
pub fn atomic_write_sync(path: &Path, bytes: &[u8]) -> Result<()> {
    let dir = path
        .parent()
        .ok_or_else(|| LakeError::invalid(format!("{}: no parent directory", path.display())))?;
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| LakeError::invalid(format!("{}: no file name", path.display())))?;
    let tmp = dir.join(format!(".{name}.tmp-{}", std::process::id()));
    let mut f = File::create(&tmp)
        .map_err(|e| LakeError::Io(format!("create {}: {e}", tmp.display())))?;
    f.write_all(bytes)
        .and_then(|()| f.sync_all())
        .map_err(|e| LakeError::Io(format!("write {}: {e}", tmp.display())))?;
    drop(f);
    std::fs::rename(&tmp, path)
        .map_err(|e| LakeError::Io(format!("rename {} -> {}: {e}", tmp.display(), path.display())))?;
    // Make the rename durable: fsync the containing directory.
    File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| LakeError::Io(format!("sync dir {}: {e}", dir.display())))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_matches_the_lakehouse_constants() {
        // Spot values pinned so the discipline stays byte-compatible with
        // the TxnLog entries' crc field.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(checksum_hex(b"").len(), 16);
        assert_ne!(fnv1a64(b"a"), fnv1a64(b"b"));
    }

    #[test]
    fn frames_round_trip() {
        let mut image = Vec::new();
        for payload in [b"one".as_slice(), b"".as_slice(), b"three".as_slice()] {
            image.extend_from_slice(&encode_frame(payload).unwrap());
        }
        let scan = scan_frames(&image);
        assert!(!scan.torn);
        assert_eq!(scan.valid_len, image.len());
        assert_eq!(scan.frames, vec![b"one".to_vec(), b"".to_vec(), b"three".to_vec()]);
    }

    #[test]
    fn torn_tail_is_detected_at_every_offset() {
        let mut image = Vec::new();
        image.extend_from_slice(&encode_frame(b"keep-me").unwrap());
        let keep_len = image.len();
        image.extend_from_slice(&encode_frame(b"torn-me").unwrap());
        for cut in keep_len..image.len() {
            let scan = scan_frames(&image[..cut]);
            assert_eq!(scan.frames, vec![b"keep-me".to_vec()], "cut at {cut}");
            assert_eq!(scan.valid_len, keep_len, "cut at {cut}");
            assert_eq!(scan.torn, cut != keep_len, "cut at {cut}");
        }
    }

    #[test]
    fn corrupt_checksum_stops_the_scan() {
        let mut image = encode_frame(b"good").unwrap();
        let mut bad = encode_frame(b"evil").unwrap();
        let last = bad.len() - 1;
        bad[last] ^= 0xff;
        let keep = image.len();
        image.extend_from_slice(&bad);
        let scan = scan_frames(&image);
        assert_eq!(scan.frames.len(), 1);
        assert_eq!(scan.valid_len, keep);
        assert!(scan.torn);
    }

    #[test]
    fn append_sync_and_scan_agree_on_disk() {
        let dir = std::env::temp_dir().join(format!("lake-durable-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.log");
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .unwrap();
        append_sync(&mut f, &encode_frame(b"alpha").unwrap()).unwrap();
        append_sync(&mut f, &encode_frame(b"beta").unwrap()).unwrap();
        let scan = scan_frames(&std::fs::read(&path).unwrap());
        assert!(!scan.torn);
        assert_eq!(scan.frames, vec![b"alpha".to_vec(), b"beta".to_vec()]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn atomic_write_replaces_whole_files() {
        let dir = std::env::temp_dir().join(format!("lake-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snapshot.json");
        atomic_write_sync(&path, b"v1").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"v1");
        atomic_write_sync(&path, b"v2-longer").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"v2-longer");
        // No temp residue.
        let stray: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains("tmp"))
            .collect();
        assert!(stray.is_empty(), "{stray:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
