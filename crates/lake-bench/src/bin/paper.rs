//! Print the survey's artifacts: `paper <id>` prints one (`t1`–`t3`,
//! `f2`, `e1`–`e14`, `a1`), `paper all` prints every one. Every number
//! is deterministic, so two runs print the same bytes; the claims behind
//! them are `lake-bench`'s tests, and this bin only prints.

// No wall-clock read may enter a report.
#![deny(clippy::disallowed_methods)]

use lake_bench::{rendered, ARTIFACTS};
use std::process::ExitCode;

fn main() -> ExitCode {
    let arg = std::env::args().nth(1).unwrap_or_default();
    let ids: Vec<&str> = if arg == "all" { ARTIFACTS.iter().map(|a| a.0).collect() } else { vec![&arg] };
    for (i, id) in ids.into_iter().enumerate() {
        match rendered(id) {
            Some(Ok(text)) => print!("{}{text}", if i == 0 { "" } else { "\n" }),
            Some(Err(e)) => {
                eprintln!("paper {id}: {e}");
                return ExitCode::FAILURE;
            }
            None => {
                let ids: Vec<&str> = ARTIFACTS.iter().map(|a| a.0).collect();
                eprintln!("usage: paper <id>|all, where <id> is one of {}", ids.join(" "));
                return ExitCode::from(2);
            }
        }
    }
    ExitCode::SUCCESS
}
