//! Event-scheduler benchmark: the hierarchical timing wheel
//! (`netsim::sched`, the default engine) against the reference binary
//! heap (`netsim::engine::reference`), microbenchmarked at 128k pending
//! events and end-to-end through the 12-cell traffic-serving sweep.
//!
//! Three measurements:
//!
//! * **fill+drain** — schedule 131 072 events at seeded random offsets,
//!   then pop them all.  The heap pays O(log n) sift-down per pop with
//!   tuple comparisons; the wheel files in O(1) and drains matured
//!   slots in batches.
//! * **churn** — steady state at 131 072 pending: pop one, schedule
//!   one, 256k times, with a cancellable timer armed and cancelled
//!   every fourth op (the RTO pattern the traffic loop runs).
//! * **traffic e2e** — the full 12-cell (stack × layout) serving sweep
//!   on each engine, both sides driving the *seed per-lane FIFO*
//!   (`runloop::reference`) so the scheduler is the only variable —
//!   the dispatch plane's own wall-clock story is the `capacity` suite's
//!   subject.  Reports must be bit-identical; the wheel run must also
//!   be faster in wall-clock.
//!
//! Gates: both engines deliver identical sequences and traffic reports,
//! the wheel is at least 2x the heap on fill+drain and at least 1.1x on
//! the end-to-end sweep.

use std::time::Instant;

use crate::harness::JsonReport;
use crate::runner::{Cmp, Gate, Size, SuiteOutput};
use netsim::engine::reference;
use netsim::rng::SplitMix64;
use netsim::{Engine, EventQueue};
use protolat_core::config::{StackKind, Version};
use protolat_core::sweep::{SweepEngine, SweepJob};
use protocols::StackOptions;
use traffic::{Plane, ReplayService, Run, TrafficConfig, TrafficReport};

/// Pending-event population for the microbenchmarks (the acceptance
/// floor is "≥ 2x at ≥ 64k pending").
const PENDING: usize = 131_072;
/// Steady-state operations in the churn microbenchmark.
const CHURN_OPS: usize = 262_144;
/// Timing rounds per measurement; the minimum is reported.
const ROUNDS: usize = 3;

/// The e2e serving scenario: steady state by design.  The session
/// population fits shard residency (128 sessions vs 8×24 slots), so
/// after first touch every message rides the service memo and the
/// per-message cost is demux + histogram + *scheduler* — the regime
/// where the event queue is actually on the critical path (the
/// eviction-churn regime is the `traffic` suite's subject, and there the
/// machine-model replays dominate whatever the scheduler does).
const WORKERS: u32 = 4;
const MESSAGES_PER_WORKER: u32 = 60_000;

fn serving_cfg() -> TrafficConfig {
    TrafficConfig::open_loop(2_000, MESSAGES_PER_WORKER, 128)
        .with_workers(WORKERS)
        .with_shards(8, 24)
        .with_theta(900)
        .with_seed(0x7EA5)
        .with_faults(3_000, 1_500, 3_000, 1_500)
}

/// Seeded delay offsets, drawn outside the timed region so the RNG's
/// cost doesn't dilute the engine comparison.
fn delays(seed: u64, n: usize, bits: u32) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed);
    (0..n).map(|_| 1 + rng.below(1 << bits)).collect()
}

/// Schedule `PENDING` seeded events, then drain them all.  Returns
/// (elapsed ms, fletcher-style digest of the delivery sequence) so the
/// two engines can be checked for identical behaviour.
fn fill_drain<Q: EventQueue<u64> + Default>(seed: u64) -> (f64, u64) {
    let mut q = Q::default();
    let ds = delays(seed, PENDING, 24);
    let start = Instant::now();
    for (i, d) in ds.iter().enumerate() {
        q.schedule(q.now() + d, i as u64);
    }
    let mut digest = 0u64;
    while let Some((t, v)) = q.pop() {
        digest = digest.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ t ^ (v << 1);
    }
    let ms = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(q.pending(), 0);
    (ms, digest)
}

/// Fill to `PENDING`, then run pop-one/schedule-one steady state with a
/// cancellable timer armed and cancelled every fourth operation.
fn churn<Q: EventQueue<u64> + Default>(seed: u64) -> (f64, u64) {
    let mut q = Q::default();
    for (i, d) in delays(seed, PENDING, 24).iter().enumerate() {
        q.schedule(*d, i as u64);
    }
    let ds = delays(seed ^ 0xC0FFEE, CHURN_OPS, 24);
    let rto = delays(seed ^ 0xBADDAD, CHURN_OPS, 20);
    let start = Instant::now();
    let mut digest = 0u64;
    for i in 0..CHURN_OPS {
        let (t, v) = q.pop().expect("population stays constant");
        digest = digest.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ t ^ (v << 1);
        q.schedule(q.now() + ds[i], (PENDING + i) as u64);
        if i % 4 == 0 {
            let tok = q.schedule_cancellable(q.now() + rto[i], u64::MAX);
            assert!(q.cancel(tok));
        }
    }
    let ms = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(q.pending(), PENDING);
    (ms, digest)
}

/// Best-of-`ROUNDS` for a timed closure; asserts every round produces
/// the same digest.
fn best_of(mut f: impl FnMut(u64) -> (f64, u64)) -> (f64, u64) {
    let mut best = f64::INFINITY;
    let mut digest = None;
    for round in 0..ROUNDS as u64 {
        let (ms, d) = f(0xE9E1_0000 + round);
        best = best.min(ms);
        digest = Some(d);
    }
    (best, digest.unwrap())
}

/// The suite's entry point; it has one size.
pub fn run(eng: &SweepEngine, _: Size) -> SuiteOutput {
    // --- microbenchmarks ----------------------------------------------
    // Same seed per round on both engines: digests must match exactly.
    let mut wheel_fd = Vec::new();
    let mut heap_fd = Vec::new();
    let mut fill_drain_digests_match = true;
    for round in 0..ROUNDS as u64 {
        let seed = 0xF111_0000 + round;
        let (wms, wd) = fill_drain::<Engine<u64>>(seed);
        let (hms, hd) = fill_drain::<reference::Engine<u64>>(seed);
        fill_drain_digests_match &= wd == hd;
        wheel_fd.push(wms);
        heap_fd.push(hms);
    }
    let fd_wheel = wheel_fd.iter().cloned().fold(f64::INFINITY, f64::min);
    let fd_heap = heap_fd.iter().cloned().fold(f64::INFINITY, f64::min);
    let fd_speedup = fd_heap / fd_wheel;
    println!(
        "fill+drain @ {PENDING} pending: wheel {fd_wheel:.2} ms, heap {fd_heap:.2} ms, {fd_speedup:.2}x"
    );

    let (churn_wheel, wd) = best_of(churn::<Engine<u64>>);
    let (churn_heap, hd) = best_of(churn::<reference::Engine<u64>>);
    let churn_digests_match = wd == hd;
    let churn_speedup = churn_heap / churn_wheel;
    println!(
        "churn @ {PENDING} pending, {CHURN_OPS} ops: wheel {churn_wheel:.2} ms, heap {churn_heap:.2} ms, {churn_speedup:.2}x"
    );

    // --- traffic end-to-end -------------------------------------------
    let opts = StackOptions::improved();
    let cfg = serving_cfg();

    // Prefetch every cell's layout/image so the timed region measures
    // the serving loop, not image construction.
    let mut jobs = Vec::new();
    let mut cells = Vec::new();
    for stack in [StackKind::TcpIp, StackKind::Rpc] {
        for version in Version::all() {
            jobs.push(SweepJob::Layout(stack, opts, 2, version));
            cells.push((stack, version));
        }
    }
    eng.prefetch(&jobs);
    let prepared: Vec<_> = cells
        .iter()
        .map(|&(stack, version)| {
            let img = eng.image(stack, opts, 2, version);
            let episode = match stack {
                StackKind::TcpIp => eng.tcpip(opts, 2).run.episodes.server_turn.clone(),
                StackKind::Rpc => eng.rpc(opts, 2).run.episodes.server_turn.clone(),
            };
            (stack, version, img, episode)
        })
        .collect();

    let run_cells = |use_heap: bool| -> (f64, Vec<TrafficReport>) {
        let start = Instant::now();
        let reports = prepared
            .iter()
            .map(|(_, _, img, episode)| {
                let plane = if use_heap { Plane::SeedHeap } else { Plane::SeedFifo };
                Run::new(&cfg)
                    .plane(plane)
                    .serve(|_| ReplayService::new(img, episode))
                    .expect("serving scenario must drain")
                    .report
            })
            .collect();
        (start.elapsed().as_secs_f64() * 1e3, reports)
    };

    let mut traffic_wheel = f64::INFINITY;
    let mut traffic_heap = f64::INFINITY;
    let mut wheel_reports = Vec::new();
    let mut heap_reports = Vec::new();
    for _ in 0..2 {
        let (wms, wr) = run_cells(false);
        let (hms, hr) = run_cells(true);
        traffic_wheel = traffic_wheel.min(wms);
        traffic_heap = traffic_heap.min(hms);
        wheel_reports = wr;
        heap_reports = hr;
    }
    let identical = wheel_reports == heap_reports;
    let traffic_speedup = traffic_heap / traffic_wheel;
    println!(
        "traffic e2e, {} cells x {} workers x {} msgs: wheel {traffic_wheel:.0} ms, heap {traffic_heap:.0} ms, {traffic_speedup:.2}x, bit-identical: {identical}",
        prepared.len(),
        WORKERS,
        MESSAGES_PER_WORKER
    );

    // --- JSON ----------------------------------------------------------
    let mut report = JsonReport::new("engine");
    report
        .field("pending_events", PENDING)
        .field("churn_ops", CHURN_OPS)
        .field("fill_drain_wheel_ms", format_args!("{fd_wheel:.3}"))
        .field("fill_drain_heap_ms", format_args!("{fd_heap:.3}"))
        .field("fill_drain_speedup", format_args!("{fd_speedup:.3}"))
        .field("churn_wheel_ms", format_args!("{churn_wheel:.3}"))
        .field("churn_heap_ms", format_args!("{churn_heap:.3}"))
        .field("churn_speedup", format_args!("{churn_speedup:.3}"))
        .field("traffic_cells", prepared.len())
        .field("traffic_wheel_ms", format_args!("{traffic_wheel:.1}"))
        .field("traffic_heap_ms", format_args!("{traffic_heap:.1}"))
        .field("traffic_speedup", format_args!("{traffic_speedup:.3}"))
        .field("traffic_bit_identical", identical);
    let gates = vec![
        Gate::holds("fill_drain_digests_match", fill_drain_digests_match, "same deliveries"),
        Gate::holds("churn_digests_match", churn_digests_match, "same deliveries"),
        Gate::holds("traffic_bit_identical", identical, "same 12-cell reports on both engines"),
        Gate::new("fill_drain_speedup", fd_speedup, Cmp::Ge, 2.0, "wheel vs heap"),
        Gate::new("traffic_speedup", traffic_speedup, Cmp::Ge, 1.1, "wheel vs heap, end to end"),
    ];
    SuiteOutput { report, gates }
}
