//! CLI entry point: `cargo run -p lake-lint -- check`.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::disallowed_methods
)]

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str).unwrap_or("check") {
        "check" => run_check(),
        other => {
            eprintln!("lake-lint: unknown command `{other}`");
            eprintln!("usage: cargo run -p lake-lint -- check");
            ExitCode::FAILURE
        }
    }
}

fn run_check() -> ExitCode {
    let Some(root) = std::env::current_dir().ok().and_then(|cwd| lake_lint::find_workspace_root(&cwd))
    else {
        eprintln!("lake-lint: could not locate the workspace root from the current directory");
        return ExitCode::FAILURE;
    };
    let findings = match lake_lint::scan_workspace(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("lake-lint: scan failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if findings.is_empty() {
        println!("lake-lint: clean");
        return ExitCode::SUCCESS;
    }
    for f in &findings {
        eprintln!("error: {f}");
    }
    eprintln!(
        "lake-lint: {} violation{}",
        findings.len(),
        if findings.len() == 1 { "" } else { "s" }
    );
    ExitCode::FAILURE
}
