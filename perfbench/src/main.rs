//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <paper_grid|serve_hot|serve_cold>
//!           --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! One run sets up, times iterations of one workload for `--seconds`,
//! checks the outputs and prints every metric with its unit and clock,
//! then, as its last line, one JSON object: the end-to-end metrics of
//! `BENCHMARK.json` for `--trace 0`, its per-layer metrics for
//! `--trace 1`.  A traced run spends half its time untraced and half
//! traced.  The exit code is 0 only when every output check passed.

mod digest;
mod grid;
mod host;
mod metrics;
mod pace;
mod run;
mod serve;
mod spans;

use std::process::ExitCode;
use std::time::Instant;

use metrics::{clock_of, per_layer, result_line, END_TO_END};
use run::Ctx;
use serve::Kind;

/// The seed runs use unless told otherwise, and the seed kept back
/// for confirming a claimed gain.
const DEFAULT_SEED: u64 = 1;
const HELD_OUT_SEED: u64 = 20_261_017;

const USAGE: &str = "usage: perfbench --workload <paper_grid|serve_hot|serve_cold> \
[--seed <n>] [--seconds <s>] [--trace <0|1>] [--smoke]";

struct Args {
    workload: String,
    ctx: Ctx,
}

fn parse(start: Instant) -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mut workload = None;
    let mut ctx = Ctx {
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        smoke: false,
        start,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => ctx.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                ctx.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(ctx.seconds >= 0.0 && ctx.seconds <= 3600.0) {
                    return Err("--seconds must lie in 0..=3600".into());
                }
            }
            "--trace" => {
                ctx.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => ctx.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, ctx })
}

fn main() -> ExitCode {
    let start = Instant::now();
    host::keep_heap();
    let nproc = host::nproc();
    let pinned = host::pin_to_one_cpu();
    let Args { workload, ctx } = match parse(start) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut out = match workload.as_str() {
        "paper_grid" => grid::run(&ctx),
        "serve_hot" => serve::run(&ctx, Kind::Hot),
        "serve_cold" => serve::run(&ctx, Kind::Cold),
        other => {
            eprintln!("perfbench: unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let fail_frac = out.failed as f64 / out.attempted.max(1) as f64;
    out.metrics
        .add("fail_frac", fail_frac, "ratio")
        .note(format!(
            "{} failed of {} attempted ops",
            out.failed, out.attempted
        ));

    println!(
        "perfbench workload={workload} seed={} (default {DEFAULT_SEED}, held out {HELD_OUT_SEED}) seconds={} trace={}{}",
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace),
        if ctx.smoke { " smoke" } else { "" }
    );
    println!(
        "{}",
        host::describe(nproc, pinned, out.threads, out.executors)
    );
    for line in &out.about {
        println!("{line}");
    }
    let declared: Vec<(String, &'static str)> = if ctx.trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    for m in &out.metrics.0 {
        println!(
            "metric {:<34} {:>16} {:<12} [{}] {}",
            m.name,
            m.value,
            m.unit,
            m.clock(),
            m.note
        );
    }
    for (name, unit) in &declared {
        if out.metrics.get(name).is_none() {
            println!(
                "metric {name:<34} {:>16} {unit:<12} [{}] not exercised by this workload",
                0,
                clock_of(unit)
            );
        }
    }
    for c in &out.checks {
        let verdict = if c.failed == 0 { "ok" } else { "FAILED" };
        println!(
            "check  {verdict:<6} {} ({} passed, {} failed)",
            c.name, c.passed, c.failed
        );
    }
    println!("model_digest {:016x}", out.digest);
    let correct = out.all_passed();
    println!(
        "{}",
        result_line(correct, out.attempted, out.failed, &out.metrics, &declared)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
