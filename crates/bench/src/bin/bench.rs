//! The bench runner: `bench [SUITE...]` runs the named suites (every
//! suite when none is named), writes each `BENCH_<suite>.json` to the
//! working directory, prints a verdict line per gate, and exits
//! non-zero naming every failed gate, probe or panicked suite.

use std::path::Path;
use std::process::ExitCode;

use protolat_bench::{runner, suites};

fn main() -> ExitCode {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let selected = match runner::select(&suites::ALL, &names) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bench: {e}");
            return ExitCode::from(2);
        }
    };
    let failed = runner::run(&selected, Path::new("."));
    if failed.is_empty() {
        println!("\nbench: every gate passed");
        return ExitCode::SUCCESS;
    }
    eprintln!("\nbench: {} failed:", failed.len());
    for f in &failed {
        eprintln!("  {f}");
    }
    ExitCode::FAILURE
}
