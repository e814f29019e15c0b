//! The sweep engine's traffic stage: memoization, memo-vs-simulation
//! equivalence of the replay service, the replay purity its memo rests
//! on, and the layout ordering the serving tail must preserve.
//!
//! Sizes are kept small — tier-1 runs these in debug mode.

use std::sync::Arc;

use alpha_machine::Machine;
use kcode::events::EventStream;
use kcode::{Image, ReplayPlan, Replayer};
use netsim::rng::SplitMix64;
use netsim::{cycles_to_ns, Ns};
use protocols::StackOptions;
use protolat_core::{StackKind, SweepEngine, Version};
use traffic::{
    run_traffic, Plane, ReplayService, Run, Scenario, Service, ServiceStats, TraceStream,
    TrafficConfig, TrafficReport, WirePath,
};
use xkernel::map::LookupKind;

/// Cycle cost of one replay of `episode` from the machine's current
/// state.
fn replay_cycles(image: &Image, plan: &ReplayPlan, episode: &EventStream, m: &mut Machine) -> u64 {
    let before = m.cpu.cycles() + m.mem.stall_cycles();
    Replayer::with_plan(image, plan)
        .replay_into_lean(episode, m)
        .expect("episode must replay cleanly");
    m.cpu.cycles() + m.mem.stall_cycles() - before
}

/// The server-turn episode of `stack` (warm-up 2, as the cells here).
fn server_turn(eng: &SweepEngine, stack: StackKind, opts: StackOptions) -> EventStream {
    match stack {
        StackKind::TcpIp => eng.tcpip(opts, 2).run.episodes.server_turn.clone(),
        StackKind::Rpc => eng.rpc(opts, 2).run.episodes.server_turn.clone(),
    }
}

/// The unmemoized reference the replay service is checked against:
/// reset the machine on every session miss and simulate every serve.
struct SimulatedService<'a> {
    image: &'a Image,
    plan: ReplayPlan,
    episode: &'a EventStream,
    machine: Machine,
    stats: ServiceStats,
}

impl<'a> SimulatedService<'a> {
    fn new(image: &'a Image, episode: &'a EventStream) -> Self {
        SimulatedService {
            image,
            plan: ReplayPlan::new(image),
            episode,
            machine: Machine::dec3000_600(),
            stats: ServiceStats::default(),
        }
    }
}

impl Service for SimulatedService<'_> {
    fn serve(&mut self, kind: LookupKind, _now: Ns) -> Ns {
        if kind == LookupKind::Miss {
            self.machine.reset();
        }
        let cycles = replay_cycles(self.image, &self.plan, self.episode, &mut self.machine);
        self.stats.simulated_replays += 1;
        cycles_to_ns(cycles, self.machine.config.cpu.clock_mhz)
    }

    fn stats(&self) -> ServiceStats {
        self.stats
    }
}

fn small_cfg() -> TrafficConfig {
    TrafficConfig::open_loop(2_000, 400, 48)
        .with_workers(2)
        .with_shards(4, 16)
        .with_seed(0x7A)
        .with_faults(3_000, 1_500, 3_000, 1_500)
}

#[test]
fn traffic_stage_is_memoized() {
    let eng = SweepEngine::new();
    let opts = StackOptions::improved();
    let cfg = small_cfg();
    let a = eng.traffic(StackKind::TcpIp, opts, 2, Version::Std, cfg);
    let b = eng.traffic(StackKind::TcpIp, opts, 2, Version::Std, cfg);
    assert!(Arc::ptr_eq(&a, &b), "second request must hit the cache");
    assert_eq!(eng.counters().traffics, 1);

    // A different scenario is a different cell.
    let c = eng.traffic(StackKind::TcpIp, opts, 2, Version::Std, cfg.with_seed(0x7B));
    assert!(!Arc::ptr_eq(&a, &c));
    assert_eq!(eng.counters().traffics, 2);
}

#[test]
fn memoized_service_matches_pure_simulation() {
    // The replay service's steady-state memo must not change a single
    // recorded latency: a run whose workers always simulate and a run
    // whose workers use the memo fast path must agree on everything
    // except the service counters that record how results were obtained.
    // STD's warm cost goes flat (period-1 fixed point); PIN's oscillates
    // between two values forever, exercising the limit-cycle detector.
    let eng = SweepEngine::global();
    let opts = StackOptions::improved();
    let cfg = TrafficConfig::open_loop(2_000, 250, 32)
        .with_workers(2)
        .with_shards(4, 12)
        .with_seed(5)
        .with_faults(4_000, 2_000, 4_000, 2_000);
    let episode = eng.tcpip(opts, 2).run.episodes.server_turn.clone();
    for version in [Version::Std, Version::Pin] {
        let img = eng.image(StackKind::TcpIp, opts, 2, version);

        let memoized = run_traffic(&cfg, |_| ReplayService::new(&img, &episode)).unwrap();
        let simulated = run_traffic(&cfg, |_| SimulatedService::new(&img, &episode)).unwrap();

        assert_eq!(memoized.hist, simulated.hist, "{version:?}: latencies must be identical");
        assert_eq!(memoized.completed, simulated.completed);
        assert_eq!(memoized.sim_ns, simulated.sim_ns);
        assert_eq!(memoized.retransmits, simulated.retransmits);
        assert_eq!(memoized.duplicates_served, simulated.duplicates_served);
        assert_eq!(memoized.faults, simulated.faults);
        assert_eq!(memoized.table, simulated.table);

        // And the memo must actually have kicked in: far fewer replays
        // simulated than messages served.
        assert_eq!(simulated.service.fast_path_serves, 0);
        assert!(
            memoized.service.simulated_replays * 4 < simulated.service.simulated_replays,
            "{version:?}: memo must eliminate most simulation: {} vs {}",
            memoized.service.simulated_replays,
            simulated.service.simulated_replays
        );
        assert!(memoized.service.fast_path_serves > 0);
    }
}

#[test]
fn memoized_service_matches_pure_simulation_under_churn() {
    // Connection churn: uniform sessions far beyond the table's
    // capacity, so nearly every lookup misses and depth keeps falling
    // back to 0.  The frontier memo must answer those cold serves from
    // the table and still agree with the always-simulating reference on
    // everything except the service counters.
    let eng = SweepEngine::global();
    let opts = StackOptions::improved();
    let open = TrafficConfig::open_loop(2_000, 600, 8_192)
        .with_workers(2)
        .with_shards(4, 12)
        .with_theta(0)
        .with_seed(0xC01D)
        .with_faults(3_000, 1_500, 3_000, 1_500)
        .with_wire(WirePath::ZeroCopy)
        .with_wire_faults(800, 500, 700);
    let closed = TrafficConfig {
        scenario: Scenario::ClosedLoop { clients: 8, think_ns: 4_000_000 },
        ..open
    };
    for cfg in [open, closed] {
        for stack in [StackKind::TcpIp, StackKind::Rpc] {
            let episode = server_turn(eng, stack, opts);
            for version in [Version::Bad, Version::All] {
                let cell = format!("{:?}/{stack:?}/{version:?}", cfg.scenario);
                let img = eng.image(stack, opts, 2, version);

                let memoized = run_traffic(&cfg, |_| ReplayService::new(&img, &episode)).unwrap();
                let simulated =
                    run_traffic(&cfg, |_| SimulatedService::new(&img, &episode)).unwrap();

                assert!(
                    simulated.table.misses * 100 >= simulated.table.lookups * 95,
                    "{cell}: churn must miss the table: {:?}",
                    simulated.table
                );
                assert_eq!(memoized.hist, simulated.hist, "{cell}: latencies must be identical");
                assert_eq!(memoized.completed, simulated.completed);
                assert_eq!(memoized.sim_ns, simulated.sim_ns);
                assert_eq!(memoized.retransmits, simulated.retransmits);
                assert_eq!(memoized.duplicates_served, simulated.duplicates_served);
                assert_eq!(memoized.faults, simulated.faults);
                assert_eq!(memoized.table, simulated.table);
                let blank = |r: &TrafficReport| TrafficReport {
                    service: ServiceStats::default(),
                    ..r.clone()
                };
                assert_eq!(blank(&memoized), blank(&simulated), "{cell}: reports diverged");

                assert_eq!(simulated.service.fast_path_serves, 0);
                assert!(
                    memoized.service.simulated_replays * 100 < simulated.service.simulated_replays,
                    "{cell}: cold serves must come from the memo: {} vs {}",
                    memoized.service.simulated_replays,
                    simulated.service.simulated_replays
                );
                assert!(memoized.service.fast_path_serves > 0);
            }
        }
    }
}

#[test]
fn invalidated_service_restarts_cold() {
    // A hot layout swap invalidates the service: whatever the next
    // lookup kind says, it must serve exactly as a brand-new service on
    // a cold machine would, and re-learn from there.
    let eng = SweepEngine::global();
    let opts = StackOptions::improved();
    let episode = server_turn(eng, StackKind::TcpIp, opts);
    let kinds = [
        LookupKind::CacheHit,
        LookupKind::ChainHit,
        LookupKind::CacheHit,
        LookupKind::Miss,
        LookupKind::CacheHit,
        LookupKind::CacheHit,
        LookupKind::CacheHit,
        LookupKind::CacheHit,
        LookupKind::CacheHit,
    ];
    for version in [Version::Std, Version::Pin] {
        let img = eng.image(StackKind::TcpIp, opts, 2, version);
        let mut svc = ReplayService::new(&img, &episode);
        for _ in 0..12 {
            svc.serve(LookupKind::CacheHit, 0);
        }
        svc.invalidate();
        let mut cold = SimulatedService::new(&img, &episode);
        for (i, &kind) in kinds.iter().enumerate() {
            assert_eq!(svc.serve(kind, 0), cold.serve(kind, 0), "{version:?}: serve {i}");
        }
        assert_eq!(svc.stats().invalidations, 1);
    }
}

#[test]
fn replay_cost_depends_only_on_replays_since_reset() {
    // The frontier memo rests on this: after `reset()`, the k-th replay
    // of an episode costs the same whatever the machine ran before —
    // other images, other episodes, any number of replays.
    let eng = SweepEngine::global();
    let opts = StackOptions::improved();
    struct Cell {
        name: String,
        img: Arc<Image>,
        plan: ReplayPlan,
        episode: EventStream,
    }
    let mut cells = Vec::new();
    for stack in [StackKind::TcpIp, StackKind::Rpc] {
        let episode = server_turn(eng, stack, opts);
        for version in [Version::Bad, Version::Pin, Version::All] {
            let img = eng.image(stack, opts, 2, version);
            let plan = ReplayPlan::new(&img);
            let name = format!("{stack:?}/{version:?}");
            cells.push(Cell { name, img, plan, episode: episode.clone() });
        }
    }
    let replay = |m: &mut Machine, c: &Cell| replay_cycles(&c.img, &c.plan, &c.episode, m);
    // Costs of replays k = 0..8 after the machine's last reset.
    let curve = |m: &mut Machine, c: &Cell| (0..8).map(|_| replay(m, c)).collect::<Vec<u64>>();

    let mut rng = SplitMix64::new(0x5EED_D3A7);
    for cell in &cells {
        let fresh = curve(&mut Machine::dec3000_600(), cell);
        for _ in 0..3 {
            let mut m = Machine::dec3000_600();
            for _ in 0..rng.next_u64() % 6 {
                replay(&mut m, &cells[(rng.next_u64() % cells.len() as u64) as usize]);
            }
            m.reset();
            let after_reset = curve(&mut m, cell);
            assert_eq!(after_reset, fresh, "{}: cost after reset depends on history", cell.name);
        }
    }
}

#[test]
fn traffic_stage_is_deterministic_across_engines() {
    // Same cell computed by two independent engines (cold caches both
    // times) must produce identical reports — the stage is a pure
    // function of its key.
    let opts = StackOptions::improved();
    let cfg = small_cfg();
    let a = SweepEngine::new().traffic(StackKind::TcpIp, opts, 2, Version::All, cfg);
    let b = SweepEngine::new().traffic(StackKind::TcpIp, opts, 2, Version::All, cfg);
    assert_eq!(*a, *b);
}

#[test]
fn traffic_stage_agrees_across_schedulers() {
    // The default timing-wheel engine and the reference binary heap
    // must produce bit-identical reports for every (stack, version)
    // traffic cell — here at test scale on both scenario kinds.
    let eng = SweepEngine::global();
    let opts = StackOptions::improved();
    let closed = TrafficConfig::closed_loop(6, 5_000, 300, 32)
        .with_workers(2)
        .with_shards(4, 16)
        .with_seed(0x51)
        .with_faults(3_000, 1_500, 3_000, 1_500);
    for cfg in [small_cfg(), closed] {
        for stack in [StackKind::TcpIp, StackKind::Rpc] {
            for version in [Version::Bad, Version::All] {
                let wheel = eng.traffic(stack, opts, 2, version, cfg);
                let heap = eng
                    .serve(stack, opts, 2, version, Run::new(&cfg).plane(Plane::SeedHeap))
                    .unwrap()
                    .report;
                assert_eq!(
                    *wheel, heap,
                    "{stack:?}/{version:?}: schedulers diverged"
                );
            }
        }
    }
}

#[test]
fn replay_stage_is_memoized_and_bit_identical() {
    // Record a cell with the capture tap on, then replay the trace
    // through the engine's replay stage: the replayed report must be
    // bit-identical to both the recording run and the memoized live
    // traffic stage, and re-replaying the same fingerprint — even
    // re-sliced to a different executor count — must hit the cache.
    let eng = SweepEngine::new();
    let opts = StackOptions::improved();
    let cfg = small_cfg();
    let (recorded, events) = eng
        .serve(StackKind::TcpIp, opts, 2, Version::All, Run::new(&cfg).record())
        .map(|s| (s.report, s.events))
        .unwrap();
    assert_eq!(eng.counters().replays, 0, "recording is not a replay");

    let stream = TraceStream::from_events(&events).expect("recorded log must validate");
    let a = eng.replay_trace(StackKind::TcpIp, opts, 2, Version::All, &stream);
    assert_eq!(*a, recorded, "replay must reproduce the recording run");
    assert_eq!(*a, *eng.traffic(StackKind::TcpIp, opts, 2, Version::All, cfg));

    let b = eng.replay_trace(StackKind::TcpIp, opts, 2, Version::All, &stream);
    assert!(Arc::ptr_eq(&a, &b), "second replay must hit the cache");

    // Replay is executor-invariant, so a re-sliced stream keeps its
    // fingerprint and shares the memo cell.
    let resliced = TraceStream::from_events(&events).unwrap().with_executors(3);
    let c = eng.replay_trace(StackKind::TcpIp, opts, 2, Version::All, &resliced);
    assert!(Arc::ptr_eq(&a, &c), "re-sliced replay must share the cell");
    assert_eq!(eng.counters().replays, 1);

    // A different cell (layout) replays the same trace independently —
    // arrivals and fates are layout-invariant, so it must not diverge.
    let bad = eng.replay_trace(StackKind::TcpIp, opts, 2, Version::Bad, &stream);
    assert_eq!(bad.faults, recorded.faults, "fate sequence rides the trace");
    assert_eq!(eng.counters().replays, 2);
}

#[test]
fn all_layout_beats_bad_in_the_serving_tail() {
    // The acceptance ordering, at test scale: the ALL layout's p99 must
    // beat BAD's on both stacks under identical traffic.
    let eng = SweepEngine::global();
    let opts = StackOptions::improved();
    let cfg = small_cfg();
    for stack in [StackKind::TcpIp, StackKind::Rpc] {
        let bad = eng.traffic(stack, opts, 2, Version::Bad, cfg);
        let all = eng.traffic(stack, opts, 2, Version::All, cfg);
        assert!(
            all.hist.p99() < bad.hist.p99(),
            "{stack:?}: ALL p99 {} must beat BAD p99 {}",
            all.hist.p99(),
            bad.hist.p99()
        );
        assert_eq!(all.completed, bad.completed, "same offered load");
        assert_eq!(
            all.faults, bad.faults,
            "{stack:?}: fate sequences must be layout-independent"
        );
    }
}
