//! The runner on synthetic suites: no measurement, just the gate
//! evaluator, the keep-going rule and the reproducibility probe.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use protolat_bench::harness::JsonReport;
use protolat_bench::runner::{self, Cmp, Gate, Size, Suite, SuiteOutput};
use protolat_core::sweep::SweepEngine;

/// A fresh output directory for one test.
fn out_dir(test: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test output dir");
    dir
}

fn report(name: &str, value: u64) -> JsonReport {
    let mut r = JsonReport::new(name);
    r.field("value", value);
    r
}

/// Two red gates and one green.
fn red(_: &SweepEngine, _: Size) -> SuiteOutput {
    SuiteOutput {
        report: report("red", 1),
        gates: vec![
            Gate::new("speedup", 1.5, Cmp::Ge, 2.0, "too slow"),
            Gate::holds("bit_identical", false, "diverged"),
            Gate::new("overhead_pct", 4.0, Cmp::Le, 10.0, "cheap enough"),
        ],
    }
}

/// Every gate green.
fn green(_: &SweepEngine, _: Size) -> SuiteOutput {
    SuiteOutput {
        report: report("green", 2),
        gates: vec![
            Gate::new("p99_us", 3.0, Cmp::Lt, 4.0, "beats BAD"),
            Gate::new("grows", 0.0, Cmp::Eq, 0.0, "no allocation"),
            Gate::new("rate", 0.995, Cmp::Gt, 0.99, "recycles"),
        ],
    }
}

/// A report that differs between calls, as a wall-clock field would.
fn drifting(_: &SweepEngine, _: Size) -> SuiteOutput {
    static CALLS: AtomicU64 = AtomicU64::new(0);
    SuiteOutput { report: report("drifting", CALLS.fetch_add(1, Ordering::Relaxed)), gates: vec![] }
}

/// The same bytes every call, with its smoke size reporting less.
fn steady(_: &SweepEngine, size: Size) -> SuiteOutput {
    let value = if size == Size::Smoke { 1 } else { 10 };
    SuiteOutput { report: report("steady", value), gates: vec![] }
}

fn panics(_: &SweepEngine, _: Size) -> SuiteOutput {
    panic!("a suite that cannot finish");
}

fn suite(name: &'static str, run: fn(&SweepEngine, Size) -> SuiteOutput, probed: bool) -> Suite {
    Suite { name, run, probed }
}

#[test]
fn a_failed_gate_does_not_stop_later_suites_and_every_failure_is_named() {
    let dir = out_dir("keep_going");
    let suites = [
        suite("red", red, false),
        suite("broken", panics, false),
        suite("green", green, false),
    ];
    let failed = runner::run(&suites, &dir);
    assert_eq!(failed, ["red.speedup", "red.bit_identical", "broken: panicked"]);
    // The suites after the red one and the panicking one still ran and
    // wrote their reports; the red suite's report is written too.
    for name in ["red", "green"] {
        let json = std::fs::read_to_string(dir.join(format!("BENCH_{name}.json")))
            .expect("report written");
        assert!(json.starts_with(&format!("{{\n  \"bench\": \"{name}\",\n")), "{json}");
    }
    assert!(!dir.join("BENCH_broken.json").exists());
}

#[test]
fn a_probe_whose_two_renderings_differ_fails() {
    let dir = out_dir("probe");
    let failed = runner::run(
        &[suite("drifting", drifting, true), suite("steady", steady, true)],
        &dir,
    );
    assert_eq!(failed, ["drifting[smoke].bit_reproducible"]);
    // The full-size report is the one written.
    let steady = std::fs::read_to_string(dir.join("BENCH_steady.json")).expect("written");
    assert!(steady.contains("\"value\": 10\n"), "{steady}");
}

#[test]
fn gates_compare_with_their_declared_bound() {
    assert!(runner::verdicts("green", &green(&SweepEngine::new(), Size::Full).gates).is_empty());
    let edge = [
        Gate::new("at_floor", 2.0, Cmp::Ge, 2.0, "inclusive"),
        Gate::new("at_ceiling", 10.0, Cmp::Le, 10.0, "inclusive"),
        Gate::new("strict_lt", 4.0, Cmp::Lt, 4.0, "exclusive"),
        Gate::new("strict_gt", 0.99, Cmp::Gt, 0.99, "exclusive"),
        Gate::new("missing", f64::NAN, Cmp::Ge, 1.0, "a NaN never passes"),
    ];
    let failed = runner::verdicts("edge", &edge);
    assert_eq!(failed, ["edge.strict_lt", "edge.strict_gt", "edge.missing"]);
}

#[test]
fn suites_are_selected_by_name_in_the_order_given() {
    let all = [suite("red", red, false), suite("green", green, false)];
    let names = |v: &[Suite]| v.iter().map(|s| s.name).collect::<Vec<_>>();
    assert_eq!(names(&runner::select(&all, &[]).unwrap()), ["red", "green"]);
    let picked = runner::select(&all, &["green".into(), "red".into()]).unwrap();
    assert_eq!(names(&picked), ["green", "red"]);
    let err = runner::select(&all, &["nope".into()]).unwrap_err();
    assert!(err.contains("nope") && err.contains("red green"), "{err}");
}
