//! Load-ramp capacity benchmark: throughput-vs-p99 curves and the
//! saturation knee of every (stack, layout) cell.
//!
//! `traffic_bench` measures every cell at one fixed offered rate — the
//! seed's 4×2000 msg/s, far below saturation, where every cell trivially
//! serves the offered load and layout quality shows up only as latency.
//! This bench climbs a geometric offered-rate ladder per cell and finds
//! the *knee*: the first rate where p99 exceeds the latency SLO (1 ms)
//! or achieved throughput falls below 97% of offered.  The rungs below
//! the knee define the cell's max sustainable rate — layout quality
//! expressed as *capacity*.
//!
//! Probes asserted here:
//! * per-cell: a knee is detected and the curve's offered rates are
//!   strictly increasing;
//! * the bisection-refined knee lies strictly inside each cell's
//!   bracketing ladder rungs (last good rung, ladder knee];
//! * the dispatch plane reproduces `runloop::reference` bit-for-bit at
//!   the seed offered rate (the acceptance gate for the lock-free
//!   hand-off plane);
//! * a fresh (memo-cold) engine reproduces a memoized curve exactly;
//! * the best cell sustains ≥ 2× the seed 7953 msg/s plateau.
//!
//! Writes `BENCH_capacity.json` (override the path with
//! `BENCH_CAPACITY_PATH`; set `CAPACITY_SMOKE=1` for the reduced-size
//! smoke sweep `scripts/bench_smoke.sh` drives twice for its
//! cross-process bit-repro check).

use protolat_bench::harness::JsonReport;
use protolat_core::config::{StackKind, Version};
use protolat_core::sweep::{CapacityCurve, CapacityRamp, SweepEngine};
use protocols::StackOptions;
use traffic::{Plane, Run, TrafficConfig};

/// The serving scenario (identical to `traffic_bench`'s cell scenario).
const WORKERS: u32 = 4;
const SESSIONS_PER_WORKER: u32 = 512;
/// The seed offered rate per worker — rung 0 of the ladder.
const SEED_RATE_MPS: u64 = 2_000;
/// The seed sweep's aggregate throughput plateau (all 12 cells pinned
/// at the offered rate); the dispatch-plane acceptance floor is 2×.
const SEED_PLATEAU_MPS: f64 = 7_953.0;

fn stack_key(stack: StackKind) -> &'static str {
    match stack {
        StackKind::TcpIp => "tcpip",
        StackKind::Rpc => "rpc",
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn main() {
    let smoke = std::env::var("CAPACITY_SMOKE").is_ok_and(|v| v == "1");
    let out_path =
        std::env::var("BENCH_CAPACITY_PATH").unwrap_or_else(|_| "BENCH_capacity.json".into());
    let messages_per_worker: u32 = if smoke { 4_000 } else { 20_000 };

    let base = TrafficConfig::open_loop(SEED_RATE_MPS, messages_per_worker, SESSIONS_PER_WORKER)
        .with_workers(WORKERS)
        .with_shards(8, 24)
        .with_theta(900)
        .with_seed(0x7EA5)
        .with_faults(3_000, 1_500, 3_000, 1_500);
    let ramp = CapacityRamp::new(base, SEED_RATE_MPS);

    let eng = SweepEngine::global();
    let opts = StackOptions::improved();

    println!(
        "capacity ramp: {} workers x {} msgs, rungs x{}/{} from {} msg/s/worker, \
         SLO p99 <= {} µs, achieved >= {}.{}% of offered{}",
        WORKERS,
        messages_per_worker,
        ramp.growth_num,
        ramp.growth_den,
        ramp.start_rate_mps,
        ramp.slo_p99_ns / 1_000,
        ramp.min_achieved_ppt / 10,
        ramp.min_achieved_ppt % 10,
        if smoke { " [smoke]" } else { "" },
    );

    // --- the 12-cell capacity sweep (parallel prefetch, memoized) ------
    let rows = eng.capacity_sweep(opts, 2, ramp);

    println!(
        "{:<6} {:<5} {:>12} {:>14} {:>7} {:>10}",
        "stack", "ver", "knee mps", "max sust mps", "rungs", "p99@last µs"
    );
    for (stack, version, curve) in &rows {
        let last = curve.points.last().expect("curve has at least one rung");
        println!(
            "{:<6} {:<5} {:>12} {:>14.0} {:>7} {:>10.1}",
            stack_key(*stack),
            version.name(),
            curve.knee_offered_mps.map_or_else(|| "none".into(), |k| k.to_string()),
            curve.max_sustainable_mps,
            curve.points.len(),
            us(last.p99_ns),
        );
    }

    // --- per-cell contract: knee found, offered rates monotone ---------
    for (stack, version, curve) in &rows {
        let cell = format!("{}/{}", stack_key(*stack), version.name());
        assert!(
            curve.knee_offered_mps.is_some(),
            "{cell}: ladder topped out without finding a knee — raise max_rungs"
        );
        for w in curve.points.windows(2) {
            assert!(
                w[1].offered_mps > w[0].offered_mps,
                "{cell}: offered rate not strictly increasing along the curve"
            );
        }
        for p in &curve.points[..curve.points.len() - 1] {
            assert!(!p.violated, "{cell}: non-terminal rung marked as violating");
        }
    }
    println!("\nper-cell contract: knee detected, curves monotone in offered rate");

    // --- bisection refinement: refined knee within the bracketing rungs
    for (stack, version, curve) in &rows {
        let cell = format!("{}/{}", stack_key(*stack), version.name());
        let ladder_knee = curve.knee_offered_mps.expect("knee asserted above");
        let last_good = curve.points.iter().rev().find(|p| !p.violated).map(|p| p.offered_mps);
        match (last_good, curve.refined_knee_mps) {
            (Some(lo), Some(refined)) => {
                assert!(
                    lo < refined && refined <= ladder_knee,
                    "{cell}: refined knee {refined} outside bracket ({lo}, {ladder_knee}]"
                );
                for p in &curve.refined {
                    assert!(
                        p.offered_mps > lo && p.offered_mps < ladder_knee,
                        "{cell}: bisection probe {} outside the open bracket",
                        p.offered_mps
                    );
                }
            }
            (None, refined) => assert!(
                refined.is_none(),
                "{cell}: refined knee without a good rung to bracket from"
            ),
            (Some(_), None) => {
                panic!("{cell}: bracketed knee but no bisection refinement ran")
            }
        }
    }
    println!("bisection contract: refined knees lie within their bracketing rungs");

    // --- layout quality as capacity: ALL must not knee below BAD -------
    for stack in [StackKind::TcpIp, StackKind::Rpc] {
        let knee = |v: Version| {
            rows.iter()
                .find(|(s, ver, _)| *s == stack && *ver == v)
                .and_then(|(_, _, c)| c.knee_offered_mps)
                .expect("knee present")
        };
        let (bad, all) = (knee(Version::Bad), knee(Version::All));
        assert!(
            all >= bad,
            "{}: ALL kneed at {all} mps below BAD at {bad} mps",
            stack_key(stack)
        );
    }

    // --- dispatch plane vs seed FIFO at the seed rate ------------------
    let seed_cfg = ramp.rung_config(SEED_RATE_MPS);
    let memoized = eng.traffic(StackKind::TcpIp, opts, 2, Version::Std, seed_cfg);
    let fifo = eng
        .serve(StackKind::TcpIp, opts, 2, Version::Std, Run::new(&seed_cfg).plane(Plane::SeedFifo))
        .expect("reference run must drain")
        .report;
    let seed_rate_bit_identical = *memoized == fifo;
    assert!(
        seed_rate_bit_identical,
        "dispatch plane diverged from runloop::reference at the seed offered rate"
    );
    println!("dispatch-vs-reference probe: bit-identical at {SEED_RATE_MPS} msg/s/worker");

    // --- memo-cold bit-repro probe -------------------------------------
    let fresh = SweepEngine::new();
    let recomputed = fresh.capacity(StackKind::TcpIp, opts, 2, Version::All, ramp);
    let cached = rows
        .iter()
        .find(|(s, v, _)| *s == StackKind::TcpIp && *v == Version::All)
        .map(|(_, _, c)| c.clone())
        .expect("tcpip/ALL curve present");
    assert_eq!(
        *recomputed, *cached,
        "memo-cold recompute of the tcpip/ALL curve diverged"
    );
    println!("bit-repro probe: memo-cold recompute of tcpip/ALL reproduced the curve");

    // --- acceptance: best cell sustains >= 2x the seed plateau ---------
    let best: &(StackKind, Version, std::sync::Arc<CapacityCurve>) = rows
        .iter()
        .max_by(|a, b| a.2.max_sustainable_mps.total_cmp(&b.2.max_sustainable_mps))
        .expect("rows non-empty");
    let best_mps = best.2.max_sustainable_mps;
    println!(
        "best cell {}/{}: {:.0} msg/s sustained ({:.1}x the {SEED_PLATEAU_MPS:.0} msg/s seed plateau)",
        stack_key(best.0),
        best.1.name(),
        best_mps,
        best_mps / SEED_PLATEAU_MPS
    );
    assert!(
        best_mps >= 2.0 * SEED_PLATEAU_MPS,
        "no cell sustained 2x the seed plateau: best {best_mps:.0} msg/s"
    );

    // --- JSON ----------------------------------------------------------
    let mut report = JsonReport::new("capacity");
    report
        .field("workers", WORKERS)
        .field("messages_per_worker", messages_per_worker)
        .field("sessions_per_worker", SESSIONS_PER_WORKER)
        .field("start_rate_mps", ramp.start_rate_mps)
        .text("growth", format_args!("{}x/{}", ramp.growth_num, ramp.growth_den))
        .field("max_rungs", ramp.max_rungs)
        .field("slo_p99_us", format_args!("{:.1}", ramp.slo_p99_ns as f64 / 1e3))
        .field("min_achieved_ppt", ramp.min_achieved_ppt)
        .field("smoke", smoke);
    for (stack, version, curve) in &rows {
        let k = format!("{}_{}", stack_key(*stack), version.name().to_lowercase());
        report.field(
            format!("{k}_knee_mps"),
            curve.knee_offered_mps.expect("knee asserted above"),
        );
        report.field(
            format!("{k}_max_sustainable_mps"),
            format_args!("{:.1}", curve.max_sustainable_mps),
        );
        report.field(
            format!("{k}_refined_knee_mps"),
            curve.refined_knee_mps.unwrap_or_else(|| curve.knee_offered_mps.expect("knee")),
        );
        let mut arr = String::from("[\n");
        for (i, p) in curve.points.iter().enumerate() {
            arr.push_str(&format!(
                "    {{\"offered_mps\": {}, \"achieved_mps\": {:.1}, \"p50_us\": {:.3}, \
                 \"p99_us\": {:.3}, \"p999_us\": {:.3}, \"violated\": {}}}{}\n",
                p.offered_mps,
                p.achieved_mps,
                us(p.p50_ns),
                us(p.p99_ns),
                us(p.p999_ns),
                p.violated,
                if i + 1 == curve.points.len() { "" } else { "," }
            ));
        }
        arr.push_str("  ]");
        report.field(format!("{k}_curve"), arr);
    }
    report
        .text("best_cell", format_args!("{}_{}", stack_key(best.0), best.1.name().to_lowercase()))
        .field("best_max_sustainable_mps", format_args!("{best_mps:.1}"))
        .field("seed_plateau_mps", format_args!("{SEED_PLATEAU_MPS:.1}"))
        .field("seed_rate_bit_identical", seed_rate_bit_identical);
    report.write(&out_path);
}
