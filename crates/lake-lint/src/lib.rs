//! `lake-lint`: repo-native static analysis for the rustlake workspace.
//!
//! Seven checks keep the survey's architecture and the lakehouse's
//! reliability story honest as the codebase scales. They are numbered as
//! they always were; rules 1 (panic-freedom and hot-path indexing) and 4
//! (clock discipline) are clippy's now. Their levels sit in each library
//! crate's `lib.rs` (`clippy::unwrap_used` … `clippy::disallowed_methods`,
//! plus `clippy::indexing_slicing` on the hot paths) and their
//! configuration in the root `clippy.toml`.
//!
//! 2. **Tier layering** ([`layering`]): crate dependencies must respect
//!    the paper's storage → functions → facade DAG.
//! 3. **Error discipline** ([`errors`]): `pub fn`s must not return
//!    `Result<_, String>` or `Box<dyn Error>` — error kinds drive retry
//!    and conflict handling, so they must stay typed. The same pass
//!    requires every `ObjectStore` impl that provides `put_if_absent` to
//!    document its atomicity guarantee: the commit protocol's whole
//!    correctness rests on that one primitive.
//! 5. **Float ordering** ([`float`]): `partial_cmp` results must not be
//!    unwrapped (or `unwrap_or`-defaulted) — score comparators sort with
//!    `f64::total_cmp`, which cannot panic on NaN and keeps sorts total.
//! 6. **Nested lock** ([`concurrency`]): every lock is a leaf — nothing
//!    is acquired while a guard is live, directly or through a uniquely
//!    named callee. The one declared pair uses `LeafMutex::lock_inside`.
//! 7. **Guard across blocking** ([`concurrency`]): no lock guard may be
//!    held across `ObjectStore` calls, `retry_with_stats`, channel
//!    send/recv, or `lake_core::par` fan-outs.
//! 8. **Atomic ordering** ([`concurrency`]): `Ordering::Relaxed` is
//!    allowed only on declared counter atomics (lake-obs metric cells);
//!    elsewhere it needs a `// lint: ordering` justification.
//! 9. **Durability discipline** ([`durability`]): in journal/WAL library
//!    sources (paths containing `wal` or `durable`), every `.write_all(`
//!    must be followed in the same fn by `.sync_all(`/`.sync_data(` —
//!    the server's ack contract is "on disk", not "in the page cache",
//!    and only a power cut ever exposes the difference. Deliberately
//!    volatile writes justify with `// lint: durability <why>`.
//!
//! Any finding fails the check. Run as:
//!
//! ```text
//! cargo run -p lake-lint -- check
//! ```

#![cfg_attr(not(test), deny(unused_crate_dependencies))]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::disallowed_methods
)]

pub mod concurrency;
pub mod durability;
pub mod errors;
pub mod float;
pub mod layering;

use std::fmt;
use std::path::{Path, PathBuf};

/// The lint rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// Stringly-typed public error return.
    ErrorDiscipline,
    /// Tier-inverting dependency edge.
    Layering,
    /// `partial_cmp` result forced open instead of handled as an `Option`.
    FloatOrdering,
    /// Lock acquired while a guard is live.
    NestedLock,
    /// Lock guard held across a blocking call (I/O, retry, channel, fan-out).
    GuardBlocking,
    /// `Ordering::Relaxed` outside declared counter atomics, unjustified.
    AtomicOrdering,
    /// `write_all` on a journal path with no following fsync in the fn.
    Durability,
}

impl Rule {
    /// Stable key used in CLI output.
    pub fn key(self) -> &'static str {
        match self {
            Rule::ErrorDiscipline => "error-discipline",
            Rule::Layering => "layering",
            Rule::FloatOrdering => "float-ordering",
            Rule::NestedLock => "nested-lock",
            Rule::GuardBlocking => "guard-blocking",
            Rule::AtomicOrdering => "atomic-ordering",
            Rule::Durability => "durability",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.key())
    }
}

/// One lint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Which rule fired.
    pub rule: Rule,
    /// Repo-relative file path (forward slashes).
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)
    }
}

/// Directory names whose contents are exempt from source lints.
const EXEMPT_DIRS: &[&str] = &["tests", "benches", "bin", "examples", "fixtures", "target"];

/// Scan every first-party crate under `root/crates` — library sources and
/// manifests — and return all findings sorted by (file, line). The
/// `crates/vendored/` stand-ins for external dependencies are skipped:
/// they mirror foreign APIs, not lake conventions.
pub fn scan_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    let mut conc = concurrency::Analysis::default();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir() && p.join("Cargo.toml").is_file())
        .collect();
    crate_dirs.sort();
    for crate_dir in crate_dirs {
        let manifest = crate_dir.join("Cargo.toml");
        let rel = relative_to(&manifest, root);
        findings.extend(layering::check_manifest_file(&manifest, &rel)?);
        let src = crate_dir.join("src");
        if src.is_dir() {
            walk_sources(&src, root, &mut findings, &mut conc)?;
        }
    }
    findings.extend(conc.finish());
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(findings)
}

fn walk_sources(
    dir: &Path,
    root: &Path,
    findings: &mut Vec<Finding>,
    conc: &mut concurrency::Analysis,
) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> =
        std::fs::read_dir(dir)?.filter_map(|e| e.ok()).map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if EXEMPT_DIRS.contains(&name) {
                continue;
            }
            walk_sources(&path, root, findings, conc)?;
        } else if name.ends_with(".rs") {
            let rel = relative_to(&path, root);
            let src = std::fs::read_to_string(&path)?;
            findings.extend(errors::scan_source(&rel, &src));
            findings.extend(errors::scan_atomicity(&rel, &src));
            findings.extend(float::scan_source(&rel, &src));
            findings.extend(durability::scan_source(&rel, &src));
            conc.add_source(&rel, &src);
        }
    }
    Ok(())
}

/// Render `path` relative to `root` with forward slashes (stable across
/// platforms in findings).
fn relative_to(path: &Path, root: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Locate the workspace root: walk up from `start` until a `Cargo.toml`
/// containing a `[workspace]` table is found.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.lines().any(|l| l.trim() == "[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_paths_use_forward_slashes() {
        let root = Path::new("/ws");
        let p = Path::new("/ws/crates/lake-core/src/lib.rs");
        assert_eq!(relative_to(p, root), "crates/lake-core/src/lib.rs");
    }
}
