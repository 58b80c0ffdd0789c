//! Architecture-layering checker: enforces the survey's tier DAG.
//!
//! The paper's Fig. 2 architecture maps onto the workspace as four tiers:
//!
//! | tier | role                              | crates |
//! |------|-----------------------------------|--------|
//! | 0    | core model                        | `lake-core` |
//! | 1    | storage & primitives              | `lake-formats`, `lake-store`, `lake-index`, `lake-ml` |
//! | 2    | ingestion / maintenance / exploration functions | `lake-ingest`, `lake-discovery`, `lake-organize`, `lake-integrate`, `lake-maintain`, `lake-query`, `lake-house`, `lake-sched` |
//! | 3    | facade & tooling                  | `lake`, `lake-server`, `lake-bench`, `lake-lint` |
//!
//! A crate may depend only on crates of its own tier or below (same-tier
//! edges are allowed — cargo already guarantees acyclicity); any edge that
//! *inverts* a tier is a violation.
//!
//! One exception to the tier DAG: cross-cutting **leaf utility** crates
//! ([`LEAF_UTILITIES`], e.g. `lake-obs`). These sit outside the Fig. 2
//! pipeline and may be imported from *any* tier, but in exchange may
//! themselves depend only on tier-0 crates (or other leaf utilities), so
//! an edge through them can never smuggle in a tier inversion.
//!
//! The parser is a deliberately small hand-rolled TOML-subset reader —
//! enough for the `[dependencies]` tables cargo manifests actually use.

use std::path::Path;

use crate::{Finding, Rule};

/// Tier assignment for every first-party crate. New crates must be added
/// here — the checker fails on unknown `lake*` crates so the map cannot
/// silently rot.
pub const TIERS: &[(&str, u8)] = &[
    ("lake-core", 0),
    ("lake-formats", 1),
    ("lake-store", 1),
    ("lake-index", 1),
    ("lake-ml", 1),
    ("lake-ingest", 2),
    ("lake-discovery", 2),
    ("lake-organize", 2),
    ("lake-integrate", 2),
    ("lake-maintain", 2),
    ("lake-query", 2),
    ("lake-house", 2),
    ("lake-sched", 2),
    ("lake-server", 3),
    ("lake", 3),
    ("lake-bench", 3),
    ("lake-lint", 3),
];

/// Cross-cutting leaf utility crates: importable from any tier, allowed
/// to depend only on tier-0 crates and other leaf utilities.
pub const LEAF_UTILITIES: &[&str] = &["lake-obs"];

/// Is `name` a leaf utility crate (exempt from the tier DAG as a
/// dependency, but restricted to tier-0 dependencies itself)?
pub fn is_leaf_utility(name: &str) -> bool {
    LEAF_UTILITIES.contains(&name)
}

/// Look up a crate's tier.
pub fn tier_of(name: &str) -> Option<u8> {
    TIERS.iter().find(|(n, _)| *n == name).map(|&(_, t)| t)
}

/// The `[dependencies]` of one parsed manifest.
#[derive(Debug, Clone)]
pub struct Manifest {
    /// Package name from `[package] name = …`.
    pub name: String,
    /// Names listed under `[dependencies]` (dev/build deps excluded:
    /// tests and tooling may reach across tiers).
    pub dependencies: Vec<String>,
}

/// Parse the subset of a `Cargo.toml` the layering check needs.
///
/// Handles `[package]`/`[dependencies]` tables, inline dep specs
/// (`foo = { workspace = true }`), and dotted headers
/// (`[dependencies.foo]`). Unknown sections are ignored.
pub fn parse_manifest(text: &str) -> Manifest {
    #[derive(PartialEq)]
    enum Section {
        Package,
        Dependencies,
        Other,
    }
    let mut section = Section::Other;
    let mut name = String::new();
    let mut dependencies = Vec::new();
    for raw in text.lines() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(header) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            let header = header.trim();
            if header == "package" {
                section = Section::Package;
            } else if header == "dependencies" {
                section = Section::Dependencies;
            } else if let Some(dep) = header.strip_prefix("dependencies.") {
                // `[dependencies.foo]` declares foo directly.
                dependencies.push(dep.trim().to_string());
                section = Section::Other;
            } else {
                // Including [dev-dependencies], [build-dependencies],
                // [target.*], [lints], …
                section = Section::Other;
            }
            continue;
        }
        match section {
            Section::Package => {
                if let Some(v) = line.strip_prefix("name") {
                    let v = v.trim_start();
                    if let Some(v) = v.strip_prefix('=') {
                        name = v.trim().trim_matches('"').to_string();
                    }
                }
            }
            Section::Dependencies => {
                if let Some(eq) = line.find('=') {
                    let key = line[..eq].trim();
                    // `foo.workspace = true` also declares foo.
                    let key = key.split('.').next().unwrap_or(key);
                    if !key.is_empty() {
                        dependencies.push(key.trim_matches('"').to_string());
                    }
                }
            }
            Section::Other => {}
        }
    }
    Manifest { name, dependencies }
}

/// Check one manifest's dependency edges against the tier DAG.
/// `manifest_path` is the repo-relative path used in findings.
pub fn check_manifest(manifest: &Manifest, manifest_path: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    if is_leaf_utility(&manifest.name) {
        // Leaf utilities are importable from anywhere precisely because
        // their own reach is capped at tier 0.
        for dep in &manifest.dependencies {
            if !dep.starts_with("lake") || is_leaf_utility(dep) {
                continue;
            }
            if tier_of(dep) != Some(0) {
                findings.push(Finding {
                    rule: Rule::Layering,
                    file: manifest_path.to_string(),
                    line: 1,
                    message: format!(
                        "leaf utility `{}` may only depend on tier-0 crates, not `{dep}`",
                        manifest.name
                    ),
                });
            }
        }
        return findings;
    }
    let Some(own_tier) = tier_of(&manifest.name) else {
        if manifest.name.starts_with("lake") {
            findings.push(Finding {
                rule: Rule::Layering,
                file: manifest_path.to_string(),
                line: 1,
                message: format!(
                    "crate `{}` has no tier in lake-lint's TIERS map; add it",
                    manifest.name
                ),
            });
        }
        return findings;
    };
    for dep in &manifest.dependencies {
        if !dep.starts_with("lake") {
            continue; // vendored/external stand-ins are exempt
        }
        if is_leaf_utility(dep) {
            continue; // importable from any tier
        }
        match tier_of(dep) {
            Some(dep_tier) if dep_tier > own_tier => findings.push(Finding {
                rule: Rule::Layering,
                file: manifest_path.to_string(),
                line: 1,
                message: format!(
                    "tier inversion: `{}` (tier {}) depends on `{}` (tier {})",
                    manifest.name, own_tier, dep, dep_tier
                ),
            }),
            Some(_) => {}
            None => findings.push(Finding {
                rule: Rule::Layering,
                file: manifest_path.to_string(),
                line: 1,
                message: format!(
                    "dependency `{dep}` of `{}` has no tier in lake-lint's TIERS map",
                    manifest.name
                ),
            }),
        }
    }
    findings
}

/// Parse and check a manifest file on disk.
pub fn check_manifest_file(path: &Path, rel: &str) -> std::io::Result<Vec<Finding>> {
    let text = std::fs::read_to_string(path)?;
    Ok(check_manifest(&parse_manifest(&text), rel))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_workspace_style_manifest() {
        let m = parse_manifest(
            r#"
[package]
name = "lake-query"
version.workspace = true

[dependencies]
lake-core = { workspace = true }
lake-store = { workspace = true }
rand = { workspace = true }

[dev-dependencies]
proptest = { workspace = true }

[dependencies.lake-index]
workspace = true
"#,
        );
        assert_eq!(m.name, "lake-query");
        assert_eq!(m.dependencies, vec!["lake-core", "lake-store", "rand", "lake-index"]);
    }

    #[test]
    fn clean_edges_pass_and_same_tier_is_allowed() {
        let m = Manifest {
            name: "lake-store".into(),
            dependencies: vec!["lake-core".into(), "lake-formats".into()],
        };
        assert!(check_manifest(&m, "x").is_empty());
    }

    #[test]
    fn tier_inversion_is_flagged() {
        let m = Manifest {
            name: "lake-core".into(),
            dependencies: vec!["lake-query".into()],
        };
        let f = check_manifest(&m, "crates/lake-core/Cargo.toml");
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("tier inversion"), "{}", f[0].message);
    }

    #[test]
    fn unknown_lake_crates_fail_loudly() {
        let unknown_self = Manifest { name: "lake-new".into(), dependencies: vec![] };
        assert_eq!(check_manifest(&unknown_self, "x").len(), 1);
        let unknown_dep = Manifest {
            name: "lake".into(),
            dependencies: vec!["lake-mystery".into()],
        };
        assert_eq!(check_manifest(&unknown_dep, "x").len(), 1);
    }

    #[test]
    fn leaf_utility_is_importable_from_every_tier() {
        for importer in ["lake-store", "lake-house", "lake-query", "lake", "lake-bench"] {
            let m = Manifest {
                name: importer.into(),
                dependencies: vec!["lake-core".into(), "lake-obs".into()],
            };
            assert!(check_manifest(&m, "x").is_empty(), "{importer} may import lake-obs");
        }
    }

    #[test]
    fn leaf_utility_reach_is_capped_at_tier_zero() {
        let ok = Manifest {
            name: "lake-obs".into(),
            dependencies: vec!["lake-core".into(), "rand".into()],
        };
        assert!(check_manifest(&ok, "x").is_empty());
        let bad = Manifest {
            name: "lake-obs".into(),
            dependencies: vec!["lake-store".into()],
        };
        let f = check_manifest(&bad, "crates/lake-obs/Cargo.toml");
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("tier-0"), "{}", f[0].message);
    }

    #[test]
    fn dev_dependencies_may_cross_tiers() {
        let m = parse_manifest(
            "[package]\nname = \"lake-core\"\n[dev-dependencies]\nlake-query = { workspace = true }\n",
        );
        assert!(m.dependencies.is_empty());
        assert!(check_manifest(&m, "x").is_empty());
    }
}
