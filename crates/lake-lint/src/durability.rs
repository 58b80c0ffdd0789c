//! Durability-discipline lint: journal paths must fsync what they write.
//!
//! The server's ack contract (DESIGN.md §16) is "acked means on disk":
//! a mutation's journal frame is `write_all`-ed *and* fsynced before the
//! 200 reaches the socket. A `write_all` that is never followed by
//! `sync_all`/`sync_data` keeps the contract true in every functional
//! test — the page cache serves the bytes back — and silently false on
//! power loss, which is exactly the failure the WAL exists to survive.
//! No test short of pulling the plug catches it, so the discipline has
//! to be structural.
//!
//! Scope: library sources whose repo path contains `wal` or `durable`
//! (the journal and its fsync helpers). In every `fn` of a scoped file,
//! a `.write_all(` call must be followed — later in the same function,
//! closures included — by a `.sync_all(` or `.sync_data(` call. Writes
//! that are deliberately volatile (say, a scratch file recreated on
//! boot) carry a `// lint: durability <why>` justification on the same
//! or preceding line. `#[cfg(test)]` regions are exempt, like every
//! other source lint; tests, benches, and bins are exempt via the
//! shared directory walk.

use crate::errors::{matches_at, strip_comments_and_strings};
use crate::{Finding, Rule};

/// One function body being tracked: the brace depth of its body and the
/// lines of `.write_all(` calls not yet followed by a sync.
struct FnFrame {
    body_depth: usize,
    pending: Vec<usize>,
}

/// Does this repo-relative path carry journal/fsync code the rule owns?
fn in_scope(file: &str) -> bool {
    file.contains("wal") || file.contains("durable")
}

/// Scan one library source file for unsynced journal writes.
pub fn scan_source(file: &str, src: &str) -> Vec<Finding> {
    if !in_scope(file) {
        return Vec::new();
    }
    let raw_lines: Vec<&str> = src.lines().collect();
    let stripped = strip_comments_and_strings(src);
    let chars: Vec<char> = stripped.chars().collect();
    let mut findings = Vec::new();
    let mut frames: Vec<FnFrame> = Vec::new();
    let mut i = 0usize;
    let mut line = 1usize;
    let mut brace_depth = 0usize;
    let mut cfg_test_depth: Option<usize> = None;
    // Set while between a `fn` keyword and its body `{` (or a bodyless
    // `;`); tracks paren/bracket nesting so a `;` inside `[u8; 12]` in
    // the signature does not end the header early.
    let mut fn_header: Option<usize> = None;
    while i < chars.len() {
        let c = chars[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
                continue;
            }
            '{' => {
                brace_depth += 1;
                if fn_header.take().is_some() {
                    frames.push(FnFrame { body_depth: brace_depth, pending: Vec::new() });
                }
                i += 1;
                continue;
            }
            '}' => {
                brace_depth = brace_depth.saturating_sub(1);
                if cfg_test_depth.is_some_and(|d| brace_depth < d) {
                    cfg_test_depth = None;
                }
                while frames.last().is_some_and(|f| brace_depth < f.body_depth) {
                    if let Some(frame) = frames.pop() {
                        for at in frame.pending {
                            findings.push(Finding {
                                rule: Rule::Durability,
                                file: file.to_string(),
                                line: at,
                                message: "write_all on a journal path with no following \
                                          sync_all/sync_data in this fn; the ack contract \
                                          needs the bytes on disk, not in the page cache — \
                                          fsync or justify with `// lint: durability <why>`"
                                    .to_string(),
                            });
                        }
                    }
                }
                i += 1;
                continue;
            }
            '(' | '[' => {
                if let Some(d) = fn_header.as_mut() {
                    *d += 1;
                }
            }
            ')' | ']' => {
                if let Some(d) = fn_header.as_mut() {
                    *d = d.saturating_sub(1);
                }
            }
            // Bodyless declaration (trait method, extern).
            ';' if fn_header == Some(0) => fn_header = None,
            _ => {}
        }
        if matches_at(&chars, i, "#[cfg(test)") {
            cfg_test_depth = Some(brace_depth);
            i += 1;
            continue;
        }
        let boundary =
            i == 0 || chars.get(i - 1).is_none_or(|p| !p.is_alphanumeric() && *p != '_');
        if boundary
            && matches_at(&chars, i, "fn")
            && chars.get(i + 2).is_some_and(|n| !n.is_alphanumeric() && *n != '_')
        {
            fn_header = Some(0);
            i += 2;
            continue;
        }
        if cfg_test_depth.is_none() {
            if matches_at(&chars, i, ".write_all(") {
                if !has_durability_justification(&raw_lines, line) {
                    if let Some(frame) = frames.last_mut() {
                        frame.pending.push(line);
                    }
                }
                i += ".write_all(".len();
                continue;
            }
            if matches_at(&chars, i, ".sync_all(") || matches_at(&chars, i, ".sync_data(") {
                if let Some(frame) = frames.last_mut() {
                    frame.pending.clear();
                }
                i += ".sync_".len();
                continue;
            }
        }
        i += 1;
    }
    findings
}

/// Is there a `lint: durability` justification on `line` or in the
/// contiguous `//` comment block immediately above it?
fn has_durability_justification(raw_lines: &[&str], line: usize) -> bool {
    let here = raw_lines.get(line.wrapping_sub(1)).copied().unwrap_or("");
    if here.contains("lint: durability") {
        return true;
    }
    let mut ln = line.wrapping_sub(1); // 0-based index of the line above
    while ln > 0 {
        ln -= 1;
        let text = raw_lines.get(ln).copied().unwrap_or("").trim_start();
        if !text.starts_with("//") {
            return false;
        }
        if text.contains("lint: durability") {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unsynced_write_is_flagged_synced_write_is_not() {
        let src = r#"
pub fn synced(f: &mut std::fs::File, buf: &[u8]) -> std::io::Result<()> {
    f.write_all(buf)?;
    f.sync_data()
}
pub fn unsynced(f: &mut std::fs::File, buf: &[u8]) -> std::io::Result<()> {
    f.write_all(buf)
}
"#;
        let f = scan_source("crates/x/src/wal.rs", src);
        assert_eq!(f.len(), 1, "{f:#?}");
        assert_eq!(f[0].rule, Rule::Durability);
        assert_eq!(f[0].line, 7, "{f:#?}");
    }

    #[test]
    fn sync_inside_a_closure_chain_counts() {
        let src = r#"
pub fn chained(f: &std::fs::File, b: &[u8]) -> std::io::Result<()> {
    (&*f).write_all(b).and_then(|()| f.sync_all())
}
"#;
        assert!(scan_source("crates/x/src/durable.rs", src).is_empty());
    }

    #[test]
    fn a_sync_before_the_write_does_not_satisfy_it() {
        let src = r#"
pub fn backwards(f: &mut std::fs::File, b: &[u8]) -> std::io::Result<()> {
    f.sync_data()?;
    f.write_all(b)
}
"#;
        assert_eq!(scan_source("crates/x/src/wal.rs", src).len(), 1);
    }

    #[test]
    fn out_of_scope_files_and_cfg_test_regions_are_exempt() {
        let src = r#"
pub fn unsynced(f: &mut std::fs::File, b: &[u8]) -> std::io::Result<()> {
    f.write_all(b)
}
"#;
        assert!(scan_source("crates/x/src/object.rs", src).is_empty());
        let test_src = r#"
#[cfg(test)]
mod tests {
    fn tear(f: &mut std::fs::File, b: &[u8]) { let _ = f.write_all(b); }
}
"#;
        assert!(scan_source("crates/x/src/wal.rs", test_src).is_empty());
    }

    #[test]
    fn justified_writes_and_array_signatures_are_handled()  {
        let src = r#"
pub fn scratch(f: &mut std::fs::File) -> std::io::Result<()> {
    // lint: durability scratch file, recreated from the journal on boot
    f.write_all(b"tmp")
}
pub fn header(f: &mut std::fs::File, b: [u8; 12]) -> std::io::Result<()> {
    f.write_all(&b)?;
    f.sync_data()
}
"#;
        assert!(scan_source("crates/x/src/wal.rs", src).is_empty());
    }
}
