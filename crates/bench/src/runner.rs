//! The bench runner: every suite's report, its declared gates and its
//! reproducibility probe, evaluated in one place.
//!
//! A [`Suite`] is one entry point that measures, renders its
//! [`JsonReport`] and declares the [`Gate`]s its claims rest on.  The
//! runner writes each report to `BENCH_<suite>.json`, prints a verdict
//! line for every gate and keeps going past a failed one, so a red gate
//! in one suite never hides the verdicts of the suites after it.  A
//! suite with a smoke size is also probed: two smoke runs, each on a
//! fresh [`SweepEngine`] (its memo is the only process-global state),
//! must render byte-identical reports.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

use protolat_core::sweep::SweepEngine;

use crate::harness::JsonReport;

/// How much work a suite does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The workload the committed `BENCH_<suite>.json` records.
    Full,
    /// The reduced workload the reproducibility probe runs twice.  Its
    /// report carries no wall-clock field, so two runs render the same
    /// bytes.
    Smoke,
}

/// The comparison a gate makes between its value and its bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Cmp {
    /// `value >= bound`
    Ge,
    /// `value > bound`
    Gt,
    /// `value <= bound`
    Le,
    /// `value < bound`
    Lt,
    /// `value == bound`
    Eq,
}

impl Cmp {
    fn holds(self, value: f64, bound: f64) -> bool {
        match self {
            Cmp::Ge => value >= bound,
            Cmp::Gt => value > bound,
            Cmp::Le => value <= bound,
            Cmp::Lt => value < bound,
            Cmp::Eq => value == bound,
        }
    }

    fn symbol(self) -> &'static str {
        match self {
            Cmp::Ge => ">=",
            Cmp::Gt => ">",
            Cmp::Le => "<=",
            Cmp::Lt => "<",
            Cmp::Eq => "==",
        }
    }
}

/// One declared claim: `key`'s measured `value` must compare to
/// `bound` by `cmp`.  `key` is the report key the value is written
/// under, or a name for a check the report does not carry.
#[derive(Debug, Clone)]
pub struct Gate {
    pub key: String,
    pub value: f64,
    pub cmp: Cmp,
    pub bound: f64,
    /// What the gate protects, printed with its verdict.
    pub what: String,
}

impl Gate {
    pub fn new(
        key: impl Into<String>,
        value: f64,
        cmp: Cmp,
        bound: f64,
        what: impl Into<String>,
    ) -> Self {
        Gate { key: key.into(), value, cmp, bound, what: what.into() }
    }

    /// A gate on a yes/no check: passes when `ok` is true.
    pub fn holds(key: impl Into<String>, ok: bool, what: impl Into<String>) -> Self {
        Gate::new(key, f64::from(u8::from(ok)), Cmp::Eq, 1.0, what)
    }

    fn passes(&self) -> bool {
        self.cmp.holds(self.value, self.bound)
    }
}

/// What one suite run produces: its report and the gates it declares.
#[derive(Debug, Clone)]
pub struct SuiteOutput {
    pub report: JsonReport,
    pub gates: Vec<Gate>,
}

/// One bench suite.
#[derive(Debug, Clone, Copy)]
pub struct Suite {
    /// The name on the command line and in `BENCH_<name>.json`.
    pub name: &'static str,
    pub run: fn(&SweepEngine, Size) -> SuiteOutput,
    /// Whether the suite has a smoke size for the reproducibility probe.
    pub probed: bool,
}

/// Run `suites` in order: write each full report to
/// `out_dir/BENCH_<name>.json`, evaluate its gates, then probe it if it
/// has a smoke size.  Returns the name of every failed gate, probe and
/// panicked run; empty means everything passed.
pub fn run(suites: &[Suite], out_dir: &Path) -> Vec<String> {
    let mut failed = Vec::new();
    for suite in suites {
        println!("\n=== {} ===", suite.name);
        match attempt(suite, Size::Full) {
            Some(out) => {
                out.report.write(&out_dir.join(format!("BENCH_{}.json", suite.name)));
                failed.extend(verdicts(suite.name, &out.gates));
            }
            None => failed.push(format!("{}: panicked", suite.name)),
        }
        if suite.probed {
            failed.extend(probe(suite));
        }
    }
    failed
}

/// One run of `suite` on a fresh engine; `None` if it panicked (the
/// panic message is already on stderr).
fn attempt(suite: &Suite, size: Size) -> Option<SuiteOutput> {
    catch_unwind(AssertUnwindSafe(|| (suite.run)(&SweepEngine::new(), size))).ok()
}

/// Print one verdict line per gate; returns the failed gates' names as
/// `label.key`.
pub fn verdicts(label: &str, gates: &[Gate]) -> Vec<String> {
    let mut failed = Vec::new();
    for g in gates {
        let ok = g.passes();
        println!(
            "  {} {label}.{} = {} {} {} ({})",
            if ok { "ok  " } else { "FAIL" },
            g.key,
            number(g.value),
            g.cmp.symbol(),
            number(g.bound),
            g.what
        );
        if !ok {
            failed.push(format!("{label}.{}", g.key));
        }
    }
    failed
}

/// The reproducibility probe: two smoke runs on fresh engines must pass
/// their gates and render byte-identical reports.
fn probe(suite: &Suite) -> Vec<String> {
    let label = format!("{}[smoke]", suite.name);
    println!("\n--- {label}: two runs, fresh engines ---");
    let (Some(a), Some(b)) = (attempt(suite, Size::Smoke), attempt(suite, Size::Smoke)) else {
        return vec![format!("{label}: panicked")];
    };
    let mut failed = verdicts(&label, &a.gates);
    failed.extend(verdicts(&label, &b.gates));
    let same = a.report.render() == b.report.render();
    println!(
        "  {} {label}: two runs {}",
        if same { "ok  " } else { "FAIL" },
        if same { "rendered identical bytes" } else { "rendered different bytes" }
    );
    if !same {
        failed.push(format!("{label}.bit_reproducible"));
    }
    failed
}

/// The suites named in `names`, in the order given; every suite when
/// `names` is empty.
pub fn select(all: &[Suite], names: &[String]) -> Result<Vec<Suite>, String> {
    if names.is_empty() {
        return Ok(all.to_vec());
    }
    names
        .iter()
        .map(|n| {
            all.iter().find(|s| s.name == n).copied().ok_or_else(|| {
                let known: Vec<_> = all.iter().map(|s| s.name).collect();
                format!("unknown suite {n:?}; suites: {}", known.join(" "))
            })
        })
        .collect()
}

/// Counts as integers, everything else to four decimal places.
fn number(x: f64) -> String {
    if x.fract() == 0.0 && x.abs() < 1e15 {
        format!("{x:.0}")
    } else {
        format!("{x:.4}")
    }
}
