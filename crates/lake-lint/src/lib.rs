//! `lake-lint`: repo-native static analysis for the rustlake workspace.
//!
//! Nine checks keep the survey's architecture and the lakehouse's
//! reliability story honest as the codebase scales:
//!
//! 1. **Panic-freedom** ([`scanner`]): library code must not call
//!    `.unwrap()`/`.expect()` or invoke `panic!`-family macros; slice
//!    indexing is additionally banned on configured hot paths (the ACID
//!    commit/time-travel files). Tests, benches, bins, and examples are
//!    exempt.
//! 2. **Tier layering** ([`layering`]): crate dependencies must respect
//!    the paper's storage → functions → facade DAG; an inverted edge
//!    fails immediately and cannot be baselined.
//! 3. **Error discipline** ([`errors`]): `pub fn`s must not return
//!    `Result<_, String>` or `Box<dyn Error>` — error kinds drive retry
//!    and conflict handling, so they must stay typed. The same pass
//!    requires every `ObjectStore` impl that provides `put_if_absent` to
//!    document its atomicity guarantee: the commit protocol's whole
//!    correctness rests on that one primitive.
//! 4. **Clock discipline** ([`clock`]): library code must not call
//!    `Instant::now`/`SystemTime::now` directly — timed paths thread a
//!    `lake_core::retry::Clock` so chaos suites and latency histograms
//!    replay deterministically. Only `impl … Clock for …` blocks touch
//!    the real clock.
//! 5. **Float ordering** ([`float`]): `partial_cmp` results must not be
//!    unwrapped (or `unwrap_or`-defaulted) — score comparators sort with
//!    `f64::total_cmp`, which cannot panic on NaN and keeps sorts total.
//! 6. **Lock ordering** ([`concurrency`]): nested `OrderedMutex`/
//!    `OrderedRwLock` acquisitions must follow the declared global order
//!    in `lake_core::sync::rank` with strictly increasing ranks; raw
//!    locks are implicit leaves. Inversions and cycles can deadlock, so
//!    — like layering — they are never baselinable.
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
//! Existing violations are grandfathered in `lake-lint.baseline.toml`
//! ([`baseline`]); the baseline can only shrink. Run as:
//!
//! ```text
//! cargo run -p lake-lint -- check
//! cargo run -p lake-lint -- fix-baseline
//! ```

pub mod baseline;
pub mod clock;
pub mod concurrency;
pub mod durability;
pub mod errors;
pub mod float;
pub mod layering;
pub mod scanner;

use std::fmt;
use std::path::{Path, PathBuf};

/// The lint rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Panic-prone construct in library code.
    Panic,
    /// Slice indexing on a declared hot path.
    Indexing,
    /// Stringly-typed public error return.
    ErrorDiscipline,
    /// Tier-inverting dependency edge.
    Layering,
    /// Direct wall/monotonic time read outside a `Clock` implementation.
    ClockDiscipline,
    /// `partial_cmp` result forced open instead of handled as an `Option`.
    FloatOrdering,
    /// Nested lock acquisition violating the declared global rank order.
    LockOrder,
    /// Lock guard held across a blocking call (I/O, retry, channel, fan-out).
    GuardBlocking,
    /// `Ordering::Relaxed` outside declared counter atomics, unjustified.
    AtomicOrdering,
    /// `write_all` on a journal path with no following fsync in the fn.
    Durability,
}

impl Rule {
    /// Stable key used in the baseline file and CLI output.
    pub fn key(self) -> &'static str {
        match self {
            Rule::Panic => "panic",
            Rule::Indexing => "indexing",
            Rule::ErrorDiscipline => "error-discipline",
            Rule::Layering => "layering",
            Rule::ClockDiscipline => "clock-discipline",
            Rule::FloatOrdering => "float-ordering",
            Rule::LockOrder => "lock-order",
            Rule::GuardBlocking => "guard-blocking",
            Rule::AtomicOrdering => "atomic-ordering",
            Rule::Durability => "durability",
        }
    }

    /// Inverse of [`Rule::key`].
    pub fn from_key(key: &str) -> Option<Rule> {
        match key {
            "panic" => Some(Rule::Panic),
            "indexing" => Some(Rule::Indexing),
            "error-discipline" => Some(Rule::ErrorDiscipline),
            "layering" => Some(Rule::Layering),
            "clock-discipline" => Some(Rule::ClockDiscipline),
            "float-ordering" => Some(Rule::FloatOrdering),
            "lock-order" => Some(Rule::LockOrder),
            "guard-blocking" => Some(Rule::GuardBlocking),
            "atomic-ordering" => Some(Rule::AtomicOrdering),
            "durability" => Some(Rule::Durability),
            _ => None,
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

/// Path prefixes (repo-relative, `/`-separated) where the slice-indexing
/// rule applies: the ACID commit / time-travel paths whose abort-freedom
/// guarantees depend on no out-of-bounds panics, plus lake-obs — metric
/// recording sits on every instrumented hot path and must never abort it —
/// and lake-sched, whose event loop must drain every schedule it is handed.
/// The columnar execution spine is covered file-by-file: the dictionary
/// batch kernels, the parquet-lite codec, and incremental index
/// maintenance all run inside every profiling/ingest hot loop, D³L's
/// per-column state is rebuilt on that maintenance path, and the predicate
/// evaluators are the inner loop of every store, mediator and lakehouse scan.
pub const HOT_PATHS: &[&str] = &[
    "crates/lake-core/src/batch.rs",
    "crates/lake-discovery/src/d3l.rs",
    "crates/lake-discovery/src/incremental.rs",
    "crates/lake-formats/src/columnar.rs",
    "crates/lake-house/src/",
    "crates/lake-obs/src/",
    "crates/lake-sched/src/",
    "crates/lake-server/src/",
    "crates/lake-store/src/predicate.rs",
];

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
            let hot = HOT_PATHS.iter().any(|h| rel.starts_with(h));
            findings.extend(scanner::scan_source(&rel, &src, hot));
            findings.extend(errors::scan_source(&rel, &src));
            findings.extend(errors::scan_atomicity(&rel, &src));
            findings.extend(clock::scan_source(&rel, &src));
            findings.extend(float::scan_source(&rel, &src));
            findings.extend(durability::scan_source(&rel, &src));
            conc.add_source(&rel, &src);
        }
    }
    Ok(())
}

/// Render `path` relative to `root` with forward slashes (stable across
/// platforms for baseline entries).
fn relative_to(path: &Path, root: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Canonical baseline location within a workspace.
pub fn baseline_path(root: &Path) -> PathBuf {
    root.join("lake-lint.baseline.toml")
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

/// Full check result, ready for CLI rendering.
#[derive(Debug)]
pub struct Report {
    /// All current findings (including grandfathered ones).
    pub findings: Vec<Finding>,
    /// Comparison against the checked-in baseline.
    pub comparison: baseline::Comparison,
}

impl Report {
    /// Does the check pass (no new violations)?
    pub fn is_clean(&self) -> bool {
        self.comparison.new_violations.is_empty()
    }
}

/// Why a lint run itself (not the scanned code) failed.
#[derive(Debug)]
pub enum LintError {
    /// The workspace scan could not read a source or manifest.
    Io(std::io::Error),
    /// `lake-lint.baseline.toml` is malformed.
    Baseline(baseline::BaselineError),
}

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LintError::Io(e) => write!(f, "scan failed: {e}"),
            LintError::Baseline(e) => write!(f, "lake-lint.baseline.toml: {e}"),
        }
    }
}

impl std::error::Error for LintError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LintError::Io(e) => Some(e),
            LintError::Baseline(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for LintError {
    fn from(e: std::io::Error) -> Self {
        LintError::Io(e)
    }
}

impl From<baseline::BaselineError> for LintError {
    fn from(e: baseline::BaselineError) -> Self {
        LintError::Baseline(e)
    }
}

/// Run the full check against the baseline at the canonical path; a
/// missing baseline file is treated as empty (everything counts as new).
pub fn check(root: &Path) -> Result<Report, LintError> {
    let findings = scan_workspace(root)?;
    let base = match std::fs::read_to_string(baseline_path(root)) {
        Ok(text) => baseline::Baseline::parse(&text)?,
        Err(_) => baseline::Baseline::default(),
    };
    let comparison = baseline::compare(&findings, &base);
    Ok(Report { findings, comparison })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_keys_roundtrip() {
        for rule in [
            Rule::Panic,
            Rule::Indexing,
            Rule::ErrorDiscipline,
            Rule::Layering,
            Rule::ClockDiscipline,
            Rule::FloatOrdering,
            Rule::LockOrder,
            Rule::GuardBlocking,
            Rule::AtomicOrdering,
            Rule::Durability,
        ] {
            assert_eq!(Rule::from_key(rule.key()), Some(rule));
        }
        assert_eq!(Rule::from_key("nope"), None);
    }

    #[test]
    fn relative_paths_use_forward_slashes() {
        let root = Path::new("/ws");
        let p = Path::new("/ws/crates/lake-core/src/lib.rs");
        assert_eq!(relative_to(p, root), "crates/lake-core/src/lib.rs");
    }
}
