//! CLI entry point: `cargo run -p lake-lint -- <check|fix-baseline>`.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("check");
    let root = match workspace_root() {
        Some(r) => r,
        None => {
            eprintln!("lake-lint: could not locate the workspace root from the current directory");
            return ExitCode::FAILURE;
        }
    };
    match cmd {
        "check" => run_check(&root),
        "fix-baseline" | "--fix-baseline" => run_fix_baseline(&root),
        other => {
            eprintln!("lake-lint: unknown command `{other}`");
            eprintln!("usage: cargo run -p lake-lint -- <check|fix-baseline>");
            ExitCode::FAILURE
        }
    }
}

fn workspace_root() -> Option<PathBuf> {
    let cwd = std::env::current_dir().ok()?;
    lake_lint::find_workspace_root(&cwd)
}

fn run_check(root: &std::path::Path) -> ExitCode {
    let report = match lake_lint::check(root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("lake-lint: {e}");
            return ExitCode::FAILURE;
        }
    };
    for (rule, file, allowed, actual) in &report.comparison.stale {
        eprintln!(
            "warning: stale baseline entry [{rule}] \"{file}\" = {allowed} (now {actual}); \
             run `cargo run -p lake-lint -- fix-baseline` to shrink it"
        );
    }
    if report.is_clean() {
        let grandfathered = report.findings.len();
        println!(
            "lake-lint: clean ({grandfathered} grandfathered finding{} in baseline)",
            if grandfathered == 1 { "" } else { "s" }
        );
        return ExitCode::SUCCESS;
    }
    for f in &report.comparison.new_violations {
        eprintln!("error: {f}");
    }
    eprintln!(
        "lake-lint: {} new violation{} (not in lake-lint.baseline.toml)",
        report.comparison.new_violations.len(),
        if report.comparison.new_violations.len() == 1 { "" } else { "s" }
    );
    ExitCode::FAILURE
}

fn run_fix_baseline(root: &std::path::Path) -> ExitCode {
    let findings = match lake_lint::scan_workspace(root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("lake-lint: scan failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Layering and lock-order violations cannot be baselined away —
    // refuse to write a baseline that would still fail.
    let hard: Vec<_> = findings
        .iter()
        .filter(|f| lake_lint::baseline::never_baselinable(f.rule))
        .collect();
    if !hard.is_empty() {
        for f in &hard {
            eprintln!("error: {f}");
        }
        eprintln!("lake-lint: layering and lock-order violations must be fixed, not baselined");
        return ExitCode::FAILURE;
    }
    let base = lake_lint::baseline::Baseline::from_findings(&findings);
    let path = lake_lint::baseline_path(root);
    if let Err(e) = std::fs::write(&path, base.render()) {
        eprintln!("lake-lint: writing {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!(
        "lake-lint: wrote {} ({} grandfathered finding{})",
        path.display(),
        findings.len(),
        if findings.len() == 1 { "" } else { "s" }
    );
    ExitCode::SUCCESS
}
