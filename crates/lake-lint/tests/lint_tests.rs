//! Integration tests: fixture files with known violation counts, plus
//! workspace tests asserting a fresh scan of this repository is clean and
//! every library crate keeps the clippy levels that replaced rules 1 and 4.

use lake_lint::{layering, Rule};
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn tier_inversion_fixture_fails_layering() {
    let manifest = layering::parse_manifest(&fixture("tier_invert.toml"));
    assert_eq!(manifest.name, "lake-store");
    // dev-dependency on lake-house must NOT be parsed as an edge.
    assert!(!manifest.dependencies.contains(&"lake-house".to_string()), "{manifest:?}");

    let findings = layering::check_manifest(&manifest, "fixtures/tier_invert.toml");
    assert_eq!(findings.len(), 1, "{findings:#?}");
    assert_eq!(findings[0].rule, Rule::Layering);
    assert!(findings[0].message.contains("lake-query"), "{}", findings[0].message);
}

#[test]
fn string_error_fixture_has_expected_findings() {
    let src = fixture("string_error.rs");
    let findings = lake_lint::errors::scan_source("fixtures/string_error.rs", &src);
    assert_eq!(findings.len(), 2, "{findings:#?}");
    assert!(findings.iter().all(|f| f.rule == Rule::ErrorDiscipline));
    assert!(findings[0].message.contains("String"), "{}", findings[0].message);
    assert!(findings[1].message.contains("Box<dyn Error>"), "{}", findings[1].message);
}

#[test]
fn float_ordering_fixture_has_expected_findings() {
    let src = fixture("float_ordering.rs");
    let findings = lake_lint::float::scan_source("fixtures/float_ordering.rs", &src);
    assert_eq!(findings.len(), 2, "{findings:#?}");
    assert!(findings.iter().all(|f| f.rule == Rule::FloatOrdering));
    assert!(findings[0].message.contains("unwrap"), "{}", findings[0].message);
    assert!(findings[1].message.contains("unwrap_or"), "{}", findings[1].message);
}

#[test]
fn wal_no_sync_fixture_has_expected_findings() {
    let src = fixture("wal_no_sync.rs");
    // The fixture name contains `wal`, so it is in scope…
    let findings = lake_lint::durability::scan_source("fixtures/wal_no_sync.rs", &src);
    assert_eq!(findings.len(), 1, "{findings:#?}");
    assert_eq!(findings[0].rule, Rule::Durability);
    assert!(findings[0].message.contains("sync_all"), "{}", findings[0].message);
    // …while the same source under a non-journal path is not.
    assert!(lake_lint::durability::scan_source("fixtures/other.rs", &src).is_empty());
}

/// Run the workspace-wide concurrency analysis over a single fixture.
fn analyze_fixture(name: &str) -> Vec<lake_lint::Finding> {
    let src = fixture(name);
    let mut conc = lake_lint::concurrency::Analysis::default();
    conc.add_source(&format!("fixtures/{name}"), &src);
    conc.finish()
}

#[test]
fn nested_lock_fixture_flags_nesting_only() {
    let findings = analyze_fixture("nested_lock.rs");
    assert!(findings.iter().all(|f| f.rule == Rule::NestedLock), "{findings:#?}");
    let lines: Vec<usize> = findings.iter().map(|f| f.line).collect();
    assert_eq!(lines, [15, 22], "direct nesting and nesting via `bump_a`: {findings:#?}");
    assert!(findings[1].message.contains("`bump_a` acquires `a`"), "{findings:#?}");
}

#[test]
fn guard_across_store_fixture_flags_blocking_calls_only() {
    let findings = analyze_fixture("guard_across_store.rs");
    assert!(findings.iter().all(|f| f.rule == Rule::GuardBlocking), "{findings:#?}");
    assert_eq!(findings.len(), 3, "{findings:#?}");
    for needle in ["put", "retry_with_stats", "send"] {
        assert!(
            findings.iter().any(|f| f.message.contains(&format!("`{needle}`"))),
            "missing {needle}: {findings:#?}"
        );
    }
}

#[test]
fn stray_relaxed_fixture_flags_only_unjustified_site() {
    let findings = analyze_fixture("stray_relaxed.rs");
    assert_eq!(findings.len(), 1, "{findings:#?}");
    assert_eq!(findings[0].rule, Rule::AtomicOrdering);
    assert_eq!(findings[0].line, 12, "{findings:#?}");
}

/// Rule triggers quoted inside strings, line comments, and block
/// comments must not fire for any source rule.
#[test]
fn quoted_triggers_never_fire() {
    let src = fixture("strings_and_comments.rs");
    let file = "fixtures/strings_and_comments.rs";
    let mut findings = lake_lint::errors::scan_source(file, &src);
    findings.extend(lake_lint::errors::scan_atomicity(file, &src));
    findings.extend(lake_lint::float::scan_source(file, &src));
    findings.extend(analyze_fixture("strings_and_comments.rs"));
    assert!(findings.is_empty(), "{findings:#?}");
}

/// Quote/brace characters in char literals must not open phantom
/// strings or corrupt brace depth: the real forced `partial_cmp` placed
/// after them must still be the one (and only) finding.
#[test]
fn char_literals_do_not_derail_the_scan() {
    let src = fixture("char_literals.rs");
    let findings = lake_lint::float::scan_source("fixtures/char_literals.rs", &src);
    assert_eq!(findings.len(), 1, "{findings:#?}");
    assert_eq!(findings[0].rule, Rule::FloatOrdering);
    assert_eq!(findings[0].line, 13, "{findings:#?}");
    assert!(analyze_fixture("char_literals.rs").is_empty());
}

fn workspace_root() -> PathBuf {
    let manifest_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    lake_lint::find_workspace_root(manifest_dir).expect("workspace root above lake-lint")
}

/// The lakehouse ACID paths are panic-free: lake-house's `lib.rs` denies
/// slice indexing beside the panic family, which clippy enforces, and a
/// fresh scan finds nothing there either.
#[test]
fn lake_house_is_panic_free() {
    let root = workspace_root();
    let lib = std::fs::read_to_string(root.join("crates/lake-house/src/lib.rs")).expect("lib.rs reads");
    assert!(denied_lints(&lib).contains(&"clippy::indexing_slicing"), "lake-house must deny indexing");
    let findings = lake_lint::scan_workspace(&root).expect("scan");
    let house: Vec<_> =
        findings.iter().filter(|f| f.file.starts_with("crates/lake-house/")).collect();
    assert!(house.is_empty(), "{house:#?}");
}

/// The Table-3 comparator burn-down is complete: no library source
/// forces a `partial_cmp` result open anywhere in the workspace, so the
/// float-ordering rule starts (and must stay) at zero.
#[test]
fn workspace_has_no_float_ordering_violations() {
    let root = workspace_root();
    let findings = lake_lint::scan_workspace(&root).expect("scan");
    let float: Vec<_> = findings.iter().filter(|f| f.rule == Rule::FloatOrdering).collect();
    assert!(float.is_empty(), "{float:#?}");
}

/// The concurrency rules launch at zero debt and must stay there: no
/// nested lock, no guard held across blocking, and no stray
/// `Ordering::Relaxed` anywhere in the workspace.
#[test]
fn workspace_has_no_concurrency_violations() {
    let root = workspace_root();
    let findings = lake_lint::scan_workspace(&root).expect("scan");
    let conc: Vec<_> = findings
        .iter()
        .filter(|f| {
            matches!(f.rule, Rule::NestedLock | Rule::GuardBlocking | Rule::AtomicOrdering)
        })
        .collect();
    assert!(conc.is_empty(), "{conc:#?}");
}

/// `LeafMutex::lock_inside` is the one declared nested pair (DESIGN.md
/// §13): library code calls it exactly once, in the WAL's flush leader,
/// so a second nested pair cannot land without an edit here.
#[test]
fn the_declared_nested_pair_has_one_call_site() {
    let root = workspace_root();
    let mut sources = Vec::new();
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/ lists") {
        rust_sources(&entry.expect("dir entry").path().join("src"), &mut sources);
    }
    let mut sites = Vec::new();
    for path in sources {
        let src = std::fs::read_to_string(&path).expect("source reads");
        let code = without_test_items(&lake_lint::errors::strip_comments_and_strings(&src));
        let rel = path.strip_prefix(&root).expect("under the root").to_path_buf();
        sites.extend(code.matches(".lock_inside(").map(|_| rel.clone()));
    }
    assert_eq!(sites, [Path::new("crates/lake-server/src/wal.rs")], "{sites:#?}");
}

/// Every `.rs` file under `dir`, recursively (nothing if `dir` is absent).
fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for path in entries.map(|e| e.expect("dir entry").path()) {
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// `code` without its `#[cfg(test)]` items, each cut through its
/// matching `}` (or its `;`). Expects comments and strings stripped.
fn without_test_items(code: &str) -> String {
    let mut out = String::new();
    let mut rest = code;
    while let Some(at) = rest.find("#[cfg(test)]") {
        out.push_str(&rest[..at]);
        rest = &rest[at..];
        let mut depth = 0usize;
        let end = rest.char_indices().find_map(|(i, c)| {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    return (depth == 0).then_some(i + 1);
                }
                ';' if depth == 0 => return Some(i + 1),
                _ => {}
            }
            None
        });
        rest = &rest[end.unwrap_or(rest.len())..];
    }
    out + rest
}

/// The WAL shipped with its fsync discipline intact: the durability
/// rule launches at zero and must stay there — every journal
/// write in the workspace is followed by a sync in the same fn.
#[test]
fn workspace_has_no_durability_violations() {
    let root = workspace_root();
    let findings = lake_lint::scan_workspace(&root).expect("scan");
    let dur: Vec<_> = findings.iter().filter(|f| f.rule == Rule::Durability).collect();
    assert!(dur.is_empty(), "{dur:#?}");
}

/// Every first-party manifest respects the tier DAG right now.
#[test]
fn workspace_has_no_layering_violations() {
    let root = workspace_root();
    let findings = lake_lint::scan_workspace(&root).expect("scan");
    let layering: Vec<_> = findings.iter().filter(|f| f.rule == Rule::Layering).collect();
    assert!(layering.is_empty(), "{layering:#?}");
}

/// Rules 1 (panic-freedom) and 4 (clock discipline) are clippy's: every
/// first-party library crate denies the panic family and raw clock reads
/// in its `lib.rs`, so a new crate cannot skip them. The levels live in
/// source rather than in `ci.sh` flags, so every clippy invocation sees
/// them and a site's `#[expect]` is always checked.
#[test]
fn every_library_crate_denies_panics_and_raw_clock_reads() {
    const LINTS: &[&str] = &[
        "clippy::unwrap_used",
        "clippy::expect_used",
        "clippy::panic",
        "clippy::unreachable",
        "clippy::todo",
        "clippy::unimplemented",
        "clippy::disallowed_methods",
    ];
    let crates = workspace_root().join("crates");
    let mut libs: Vec<PathBuf> = std::fs::read_dir(&crates)
        .expect("crates/ lists")
        .map(|e| e.expect("dir entry").path().join("src/lib.rs"))
        .filter(|p| p.is_file())
        .collect();
    libs.sort();
    assert!(libs.len() >= 18, "{libs:#?}");
    for lib in libs {
        let src = std::fs::read_to_string(&lib).expect("lib.rs reads");
        let listed = denied_lints(&src);
        let missing: Vec<_> = LINTS.iter().filter(|l| !listed.contains(l)).collect();
        assert!(missing.is_empty(), "{} does not deny {missing:?}", lib.display());
    }
}

/// Every lint named in a source file's `#![deny(…)]` attributes.
fn denied_lints(src: &str) -> Vec<&str> {
    src.split("#![deny(")
        .skip(1)
        .filter_map(|rest| rest.split(")]").next())
        .flat_map(|d| d.split(','))
        .map(str::trim)
        .collect()
}
