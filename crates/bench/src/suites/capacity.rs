//! Load-ramp capacity benchmark: throughput-vs-p99 curves and the
//! saturation knee of every (stack, layout) cell.
//!
//! The `traffic` suite measures every cell at one fixed offered rate — the
//! seed's 4×2000 msg/s, far below saturation, where every cell trivially
//! serves the offered load and layout quality shows up only as latency.
//! This bench climbs a geometric offered-rate ladder per cell and finds
//! the *knee*: the first rate where p99 exceeds the latency SLO (1 ms)
//! or achieved throughput falls below 97% of offered.  The rungs below
//! the knee define the cell's max sustainable rate — layout quality
//! expressed as *capacity*.
//!
//! Gates:
//! * per-cell: a knee is detected, the curve's offered rates are
//!   strictly increasing and only its last rung violates;
//! * the bisection-refined knee lies strictly inside each cell's
//!   bracketing ladder rungs (last good rung, ladder knee];
//! * ALL does not knee below BAD on either stack;
//! * the dispatch plane reproduces `runloop::reference` bit-for-bit at
//!   the seed offered rate (the acceptance gate for the lock-free
//!   hand-off plane);
//! * a fresh (memo-cold) engine reproduces a memoized curve exactly;
//! * the best cell sustains ≥ 2× the seed 7953 msg/s plateau.
//!
//! The smoke size climbs the same ladder with a fifth of the messages.

use super::{stack_key, us};
use crate::harness::JsonReport;
use crate::runner::{Cmp, Gate, Size, SuiteOutput};
use protolat_core::config::{StackKind, Version};
use protolat_core::sweep::{CapacityCurve, CapacityRamp, SweepEngine};
use protocols::StackOptions;
use traffic::{Plane, Run, TrafficConfig};

/// The serving scenario (identical to the `traffic` suite's cell scenario).
const WORKERS: u32 = 4;
const SESSIONS_PER_WORKER: u32 = 512;
/// The seed offered rate per worker — rung 0 of the ladder.
const SEED_RATE_MPS: u64 = 2_000;
/// The seed sweep's aggregate throughput plateau (all 12 cells pinned
/// at the offered rate); the dispatch-plane acceptance floor is 2×.
const SEED_PLATEAU_MPS: f64 = 7_953.0;

/// A knee as a JSON number, or `null` when the ladder found none.
fn knee_json(knee: Option<u64>) -> String {
    knee.map_or_else(|| "null".into(), |k| k.to_string())
}

/// The suite's entry point.
pub fn run(eng: &SweepEngine, size: Size) -> SuiteOutput {
    let smoke = size == Size::Smoke;
    let messages_per_worker: u32 = if smoke { 4_000 } else { 20_000 };

    let base = TrafficConfig::open_loop(SEED_RATE_MPS, messages_per_worker, SESSIONS_PER_WORKER)
        .with_workers(WORKERS)
        .with_shards(8, 24)
        .with_theta(900)
        .with_seed(0x7EA5)
        .with_faults(3_000, 1_500, 3_000, 1_500);
    let ramp = CapacityRamp::new(base, SEED_RATE_MPS);

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

    // --- per-cell contract: knee found, offered rates monotone, and the
    // bisection-refined knee within the bracketing rungs ---------------
    let mut gates = Vec::new();
    for (stack, version, curve) in &rows {
        let k = format!("{}_{}", stack_key(*stack), version.name().to_lowercase());
        let monotone = curve.points.windows(2).all(|w| w[1].offered_mps > w[0].offered_mps)
            && curve.points[..curve.points.len() - 1].iter().all(|p| !p.violated);
        let last_good = curve.points.iter().rev().find(|p| !p.violated).map(|p| p.offered_mps);
        let bracketed = match (last_good, curve.refined_knee_mps, curve.knee_offered_mps) {
            (Some(lo), Some(refined), Some(knee)) => {
                lo < refined
                    && refined <= knee
                    && curve.refined.iter().all(|p| p.offered_mps > lo && p.offered_mps < knee)
            }
            (None, refined, _) => refined.is_none(),
            _ => false,
        };
        let knee_detected = curve.knee_offered_mps.is_some();
        gates.extend([
            Gate::holds(format!("{k}_knee_detected"), knee_detected, "else raise max_rungs"),
            Gate::holds(format!("{k}_curve_monotone"), monotone, "only the last rung violates"),
            Gate::holds(format!("{k}_refined_knee_bracketed"), bracketed, "in (last good, knee]"),
        ]);
    }

    // --- layout quality as capacity: ALL must not knee below BAD -------
    for stack in [StackKind::TcpIp, StackKind::Rpc] {
        let knee = |v: Version| {
            rows.iter()
                .find(|(s, ver, _)| *s == stack && *ver == v)
                .and_then(|(_, _, c)| c.knee_offered_mps)
                .map_or(f64::NAN, |k| k as f64)
        };
        let key = format!("{}_all_knee_mps", stack_key(stack));
        gates.push(Gate::new(key, knee(Version::All), Cmp::Ge, knee(Version::Bad), "ALL vs BAD"));
    }

    // --- dispatch plane vs seed FIFO at the seed rate ------------------
    let seed_cfg = ramp.rung_config(SEED_RATE_MPS);
    let memoized = eng.traffic(StackKind::TcpIp, opts, 2, Version::Std, seed_cfg);
    let fifo = eng
        .serve(StackKind::TcpIp, opts, 2, Version::Std, Run::new(&seed_cfg).plane(Plane::SeedFifo))
        .expect("reference run must drain")
        .report;
    let seed_rate_bit_identical = *memoized == fifo;

    // --- memo-cold bit-repro probe -------------------------------------
    let fresh = SweepEngine::new();
    let recomputed = fresh.capacity(StackKind::TcpIp, opts, 2, Version::All, ramp);
    let cached = rows
        .iter()
        .find(|(s, v, _)| *s == StackKind::TcpIp && *v == Version::All)
        .map(|(_, _, c)| c.clone())
        .expect("tcpip/ALL curve present");
    let memo_cold_bit_identical = *recomputed == *cached;

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
        report.field(format!("{k}_knee_mps"), knee_json(curve.knee_offered_mps));
        report.field(
            format!("{k}_max_sustainable_mps"),
            format_args!("{:.1}", curve.max_sustainable_mps),
        );
        report.field(
            format!("{k}_refined_knee_mps"),
            knee_json(curve.refined_knee_mps.or(curve.knee_offered_mps)),
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

    gates.extend([
        Gate::holds("seed_rate_bit_identical", seed_rate_bit_identical, "dispatch = seed FIFO"),
        Gate::holds("tcpip_all_memo_cold_bit_identical", memo_cold_bit_identical, "fresh = memo"),
        Gate::new(
            "best_max_sustainable_mps",
            best_mps,
            Cmp::Ge,
            2.0 * SEED_PLATEAU_MPS,
            "the best cell sustains 2x the seed plateau",
        ),
    ]);
    SuiteOutput { report, gates }
}
