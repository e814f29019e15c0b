//! Online re-layout benchmark: the adaptive profile-guided loop
//! against static layouts under phase-shifting workloads.
//!
//! Every other bench measures a *fixed* layout; this one measures the
//! `traffic::adapt` loop end to end.  Two seeded phase schedules shift
//! the workload's locality structure mid-run:
//!
//! * **mix** — Zipf θ=0.9 → adversarial conflict cycle → Zipf θ=1.1;
//! * **theta** — Zipf skew rotation 0.9 → 0.0 (uniform) → 1.2.
//!
//! The ADAPTIVE run starts on the pessimal BAD layout with {BAD, STD,
//! ALL} in its candidate pool; per phase, its settle-excluded steady
//! p99 is compared against every static candidate run under the same
//! schedule.  Gates:
//!
//! * per phase, ADAPTIVE's steady p99 is within 5% of the best static
//!   candidate's (it re-converges after every shift);
//! * per phase, ADAPTIVE strictly beats static BAD (it never loses to
//!   the layout it started on);
//! * `stride = 0` (sampling off) reproduces the static run bit for bit;
//! * a single-candidate pool with sampling *on* also reproduces the
//!   static run bit for bit — the profiler adds zero simulated
//!   overhead, so its only cost is wall clock, which is measured and
//!   printed (the report carries exclusively deterministic modelled
//!   values, so two runs render the same bytes);
//! * every schedule leaves the BAD initial layout.
//!
//! A final jit-enabled run exercises the full re-synthesis path and
//! reports the worker's plan-store traffic; its plan flow must
//! conserve responses.

use super::us;
use crate::harness::{best_secs, JsonReport};
use crate::runner::{Cmp, Gate, Size, SuiteOutput};
use protolat_core::config::{StackKind, Version};
use protolat_core::sweep::{AdaptSpec, SweepEngine};
use protocols::StackOptions;
use traffic::{
    AdaptConfig, AdaptSetup, Candidate, LocalPlanCache, Phase, PhasePlan, ReplayService, Run,
    StreamKind, TrafficConfig,
};

const WORKERS: u32 = 4;
const SESSIONS_PER_WORKER: u32 = 512;
const RATE_MPS: u64 = 2_000;

/// The static candidate pool the adaptive loop draws from (and the
/// statics it is scored against).  BAD first: it is the initial layout.
const POOL: [Version; 3] = [Version::Bad, Version::Std, Version::All];

/// A three-phase schedule over the run: two fixed-length phases and a
/// trailing "rest of the run" phase, all sharing one settle window.
fn schedule(specs: [(StreamKind, u32); 3], phase_ns: u64, settle_ns: u64) -> PhasePlan {
    let phase = |i: usize| Phase {
        stream: specs[i].0,
        milli_theta: specs[i].1,
        duration_ns: if i == 2 { 0 } else { phase_ns },
        settle_ns,
    };
    PhasePlan::new(&[phase(0), phase(1), phase(2)])
}

/// The suite's entry point.
pub fn run(eng: &SweepEngine, size: Size) -> SuiteOutput {
    let smoke = size == Size::Smoke;
    let messages_per_worker: u32 = if smoke { 4_000 } else { 20_000 };

    // Total simulated time is messages/rate; phases split it in three,
    // with the settle window sized so every phase has re-profiled,
    // swapped (sample period + relayout latency ≪ settle) and drained
    // the transition before its steady histogram opens.
    let total_ns = messages_per_worker as u64 * 1_000_000_000 / RATE_MPS;
    let phase_ns = total_ns / 3;
    let settle_ns = phase_ns * 3 / 5;

    let adapt = AdaptConfig {
        stride: 8,
        window: 48,
        min_dwell_ns: 200_000_000,
        relayout_latency_ns: 50_000_000,
        jit: false,
    };

    let base = TrafficConfig::open_loop(RATE_MPS, messages_per_worker, SESSIONS_PER_WORKER)
        .with_workers(WORKERS)
        .with_shards(8, 24)
        .with_theta(900)
        .with_seed(0x7EA5)
        .with_faults(3_000, 1_500, 3_000, 1_500);

    let schedules: [(&str, PhasePlan); 2] = [
        (
            "mix",
            schedule(
                [
                    (StreamKind::Zipf, 900),
                    (StreamKind::Conflict { slots: 8, cycle: 6 }, 900),
                    (StreamKind::Zipf, 1_100),
                ],
                phase_ns,
                settle_ns,
            ),
        ),
        (
            "theta",
            schedule(
                [(StreamKind::Zipf, 900), (StreamKind::Zipf, 0), (StreamKind::Zipf, 1_200)],
                phase_ns,
                settle_ns,
            ),
        ),
    ];

    let opts = StackOptions::improved();
    let stack = StackKind::TcpIp;

    println!(
        "adaptive re-layout: tcpip, {} workers x {} msgs, {} sessions/worker, \
         3 phases x {:.1}s (settle {:.1}s), stride {} window {}, relayout {} ms{}",
        WORKERS,
        messages_per_worker,
        SESSIONS_PER_WORKER,
        phase_ns as f64 / 1e9,
        settle_ns as f64 / 1e9,
        adapt.stride,
        adapt.window,
        adapt.relayout_latency_ns / 1_000_000,
        if smoke { " [smoke]" } else { "" },
    );

    let mut report = JsonReport::new("adapt");
    report
        .field("workers", WORKERS)
        .field("messages_per_worker", messages_per_worker)
        .field("sessions_per_worker", SESSIONS_PER_WORKER)
        .field("rate_mps", RATE_MPS)
        .field("phases", 3)
        .field("phase_ms", phase_ns / 1_000_000)
        .field("settle_ms", settle_ns / 1_000_000)
        .field("stride", adapt.stride)
        .field("window", adapt.window)
        .field("min_dwell_ms", adapt.min_dwell_ns / 1_000_000)
        .field("relayout_latency_ms", adapt.relayout_latency_ns / 1_000_000)
        .field("smoke", smoke);

    let mut converged_within_5pct = true;
    let mut never_loses_to_bad = true;
    let mut gates = Vec::new();

    for (name, plan) in &schedules {
        let cfg = base.with_phases(*plan);
        let spec =
            AdaptSpec::new(cfg, adapt, Version::Bad).with_candidates(&POOL);
        let out = eng.adapt(stack, opts, 2, spec);
        let statics: Vec<_> =
            POOL.iter().map(|&v| (v, eng.traffic(stack, opts, 2, v, cfg))).collect();

        let applied = out.adapt.counters.swaps_applied as f64;
        let leaves_bad = out.adapt.swaps.iter().find(|s| !s.noop).is_some_and(|s| s.from == "BAD");
        gates.extend([
            Gate::new(format!("{name}_swaps_applied"), applied, Cmp::Ge, 1.0, "moves off BAD"),
            Gate::holds(format!("{name}_first_swap_from_bad"), leaves_bad, "first swap leaves BAD"),
        ]);

        println!("\nschedule {name}: {} swaps applied, {} noop, {} windows, {} samples",
            out.adapt.counters.swaps_applied,
            out.adapt.counters.swaps_noop,
            out.adapt.counters.windows,
            out.adapt.counters.samples,
        );
        for s in out.adapt.swaps.iter().filter(|s| !s.noop) {
            println!("  lane {} @ {:.2}s: {} -> {}", s.lane, s.at as f64 / 1e9, s.from, s.to);
        }
        println!(
            "  {:<7} {:>14} {:>16} {:>6} {:>14} {:>8}",
            "phase", "adaptive p99", "best static p99", "best", "BAD p99", "ratio"
        );

        report
            .field(format!("{name}_samples"), out.adapt.counters.samples)
            .field(format!("{name}_windows"), out.adapt.counters.windows)
            .field(format!("{name}_requests"), out.adapt.counters.requests)
            .field(format!("{name}_swaps_applied"), out.adapt.counters.swaps_applied)
            .field(format!("{name}_swaps_noop"), out.adapt.counters.swaps_noop)
            .field(format!("{name}_memo_invalidations"), out.report.service.invalidations);

        for p in 0..3 {
            let adaptive_p99 = out.report.phase_steady[p].p99();
            let (best_v, best_p99) = statics
                .iter()
                .map(|(v, r)| (*v, r.phase_steady[p].p99()))
                .min_by_key(|&(_, p99)| p99)
                .expect("static pool non-empty");
            let bad_p99 = statics
                .iter()
                .find(|(v, _)| *v == Version::Bad)
                .map(|(_, r)| r.phase_steady[p].p99())
                .expect("BAD in pool");
            let ratio = adaptive_p99 as f64 / best_p99 as f64;
            println!(
                "  {:<7} {:>11.1} µs {:>13.1} µs {:>6} {:>11.1} µs {:>8.4}",
                p,
                us(adaptive_p99),
                us(best_p99),
                best_v.name(),
                us(bad_p99),
                ratio,
            );
            converged_within_5pct &= ratio <= 1.05;
            never_loses_to_bad &= adaptive_p99 < bad_p99;
            gates.extend([
                Gate::new(format!("{name}_p{p}_ratio"), ratio, Cmp::Le, 1.05, "vs best static"),
                Gate::new(
                    format!("{name}_p{p}_adaptive_p99_us"),
                    us(adaptive_p99),
                    Cmp::Lt,
                    us(bad_p99),
                    "never loses to static BAD",
                ),
            ]);

            report.field(
                format!("{name}_p{p}_adaptive_p99_us"),
                format_args!("{:.3}", us(adaptive_p99)),
            );
            report.field(
                format!("{name}_p{p}_best_static_p99_us"),
                format_args!("{:.3}", us(best_p99)),
            );
            report.text(format!("{name}_p{p}_best_static"), best_v.name().to_lowercase());
            report.field(format!("{name}_p{p}_bad_p99_us"), format_args!("{:.3}", us(bad_p99)));
            report.field(format!("{name}_p{p}_ratio"), format_args!("{ratio:.4}"));
        }
    }

    // --- sampling-off passthrough: stride 0 must not change a bit -----
    let cfg = base.with_phases(schedules[0].1);
    let off =
        AdaptSpec::new(cfg, AdaptConfig { stride: 0, ..adapt }, Version::Std).with_candidates(&POOL);
    let off_out = eng.adapt(stack, opts, 2, off);
    let fixed = eng.traffic(stack, opts, 2, Version::Std, cfg);
    let stride_zero_bit_identical = off_out.report == *fixed;

    // --- sampling-on, single candidate: zero *simulated* overhead -----
    // The profiler samples and the worker scores, but every verdict
    // names the already-active layout, so serving is untouched.
    let solo = AdaptSpec::new(cfg, adapt, Version::Std).with_candidates(&[Version::Std]);
    let solo_out = eng.adapt(stack, opts, 2, solo);
    let single_candidate_bit_identical = solo_out.report == *fixed;

    // --- wall-clock overhead of the sampling path (stdout only: wall
    // clock is not deterministic, the JSON contract is) ----------------
    let img = eng.image(stack, opts, 2, Version::Std);
    let episode = eng.tcpip(opts, 2).run.episodes.server_turn.clone();
    let program = std::sync::Arc::clone(&eng.tcpip(opts, 2).run.world.program);
    let image_config = Version::Std.image_config();
    let static_secs = best_secs(3, || {
        Run::new(&cfg).serve(|_| ReplayService::new(&img, &episode)).expect("must drain");
    });
    let sampled_secs = best_secs(3, || {
        let candidates = [Candidate::new("STD", std::sync::Arc::clone(&img))];
        Run::new(&cfg)
            .adaptive(AdaptSetup {
                adapt,
                program: &program,
                episode: &episode,
                image_config: &image_config,
                candidates: &candidates,
                initial: 0,
                cache: LocalPlanCache::default(),
            })
            .expect("must drain");
    });
    let overhead_pct = (sampled_secs / static_secs - 1.0) * 100.0;
    println!(
        "sampling wall-clock overhead: static {:.1} ms, sampled {:.1} ms ({overhead_pct:+.1}%)",
        static_secs * 1e3,
        sampled_secs * 1e3,
    );

    // --- jit re-synthesis: the full loop with plan-store traffic ------
    let jit_spec = AdaptSpec::new(cfg, AdaptConfig { jit: true, ..adapt }, Version::Bad)
        .with_candidates(&POOL);
    let jit_out = eng.adapt(stack, opts, 2, jit_spec);
    let w = &jit_out.adapt.worker;
    println!(
        "jit loop: {} responses ({} fp-memo hits), {} plans built, {} plan-store hits, \
         verdicts {} jit / {} static",
        w.responses, w.fp_memo_hits, w.jit_builds, w.plan_cache_hits, w.jit_wins, w.static_wins,
    );
    report
        .field("jit_responses", w.responses)
        .field("jit_fp_memo_hits", w.fp_memo_hits)
        .field("jit_builds", w.jit_builds)
        .field("jit_plan_cache_hits", w.plan_cache_hits)
        .field("jit_wins", w.jit_wins)
        .field("static_wins", w.static_wins);

    report
        .field("converged_within_5pct", converged_within_5pct)
        .field("never_loses_to_bad", never_loses_to_bad)
        .field("stride_zero_bit_identical", stride_zero_bit_identical)
        .field("single_candidate_bit_identical", single_candidate_bit_identical);

    let (solo, conserved) = (&solo_out.adapt.counters, w.jit_builds + w.plan_cache_hits);
    gates.extend([
        Gate::holds("stride_zero_bit_identical", stride_zero_bit_identical, "= static STD"),
        Gate::holds("single_candidate_bit_identical", single_candidate_bit_identical, "= static"),
        Gate::new("solo_samples", solo.samples as f64, Cmp::Ge, 1.0, "the solo probe samples"),
        Gate::new("solo_swaps_applied", solo.swaps_applied as f64, Cmp::Eq, 0.0, "nothing to swap"),
        Gate::new(
            "jit_builds_plus_plan_cache_hits",
            conserved as f64,
            Cmp::Eq,
            w.responses.saturating_sub(w.fp_memo_hits) as f64,
            "every non-memoized response hit the plan store or synthesized",
        ),
    ]);
    SuiteOutput { report, gates }
}
