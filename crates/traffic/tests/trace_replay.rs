//! Record/replay integration: a captured run replays bit-identically
//! (full and per-phase histograms, session-table stats, fault-fate
//! counters) through every execution plane and executor count, the
//! trace itself is plane- and executor-invariant, both codecs round-
//! trip through disk, tampered traces surface typed divergence, and
//! adaptive runs validate their recorded verdict timeline.

use std::sync::Arc;

use kcode::func::{FrameSpec, FuncKind};
use kcode::layout::{build_image, LayoutRequest};
use kcode::{
    Body, EventStream, Image, ImageConfig, LayoutStrategy, Program, ProgramBuilder, Recorder,
};
use netsim::Fate;
use trace::{read_events, write_events, TraceError, TraceEvent};
use traffic::{
    config_from_record, config_to_record, record_traffic, replay_traffic, run_traffic,
    AdaptConfig, AdaptSetup, Candidate, FixedService, LocalPlanCache, Phase, PhasePlan, Plane,
    PolicyKind, ReplayError, ReplayService, Run, StreamKind, TraceStream, TrafficConfig,
};

fn svc(_worker: u32) -> FixedService {
    FixedService { cache_hit_ns: 9_000, chain_hit_ns: 11_000, miss_ns: 40_000 }
}

/// Fault-heavy phased open-loop configuration: exercises every event
/// kind (arrivals, all four fates, RTO firings, phase switches).
fn hostile_cfg() -> TrafficConfig {
    TrafficConfig::open_loop(20_000, 2_000, 64)
        .with_workers(4)
        .with_seed(0x7EA5)
        .with_faults(3_000, 1_500, 3_000, 1_500)
        .with_policy(PolicyKind::TwoWayLru { sets: 4 })
        .with_phases(PhasePlan::new(&[
            Phase {
                stream: StreamKind::Zipf,
                milli_theta: 900,
                duration_ns: 50_000_000,
                settle_ns: 8_000_000,
            },
            Phase {
                stream: StreamKind::Train { milli_cont: 800 },
                milli_theta: 1_100,
                duration_ns: 0,
                settle_ns: 8_000_000,
            },
        ]))
}

#[test]
fn record_matches_live_and_replay_is_bit_identical_across_executors() {
    let cfg = hostile_cfg();
    let live = run_traffic(&cfg, svc).expect("live run must drain");
    let (recorded, events) = record_traffic(&cfg, svc).expect("recording run must drain");
    assert_eq!(recorded, live, "recording must not perturb the run");
    assert!(matches!(events[0], TraceEvent::Config(_)), "config leads the log");

    // The acceptance gate: replay through the trace-driven workload
    // source equals the live run bit for bit, for multiple executor
    // counts and on the reference plane.
    for executors in [1u32, 3] {
        let stream = TraceStream::from_events(&events).unwrap().with_executors(executors);
        let replayed = replay_traffic(&stream, svc).expect("replay must not diverge");
        assert_eq!(replayed, live, "replay with {executors} executors diverged");
    }
    let stream = TraceStream::from_events(&events).unwrap();
    let replayed =
        Run::replay(&stream).plane(Plane::SeedHeap).serve(svc).expect("reference replay").report;
    assert_eq!(replayed, live, "reference-plane replay diverged");
}

#[test]
fn trace_is_plane_and_executor_invariant() {
    let cfg = hostile_cfg();
    let (_, via_dispatch) = record_traffic(&cfg, svc).unwrap();
    let (_, via_one_exec) = record_traffic(&cfg.with_executors(1), svc).unwrap();
    let via_reference = Run::new(&cfg).plane(Plane::SeedHeap).record().serve(svc).unwrap().events;
    // Executor count is recorded as provenance, so logs from different
    // executor counts differ only in the config record.
    assert_eq!(via_dispatch[1..], via_one_exec[1..], "executor count leaked into the trace");
    assert_eq!(via_dispatch, via_reference, "execution plane leaked into the trace");
}

#[test]
fn closed_loop_record_replay_round_trips() {
    let cfg = TrafficConfig::closed_loop(16, 50_000, 1_500, 48)
        .with_workers(3)
        .with_seed(0xC10)
        .with_faults(4_000, 2_000, 4_000, 2_000);
    let live = run_traffic(&cfg, svc).unwrap();
    let (recorded, events) = record_traffic(&cfg, svc).unwrap();
    assert_eq!(recorded, live);
    for executors in [1u32, 2] {
        let stream = TraceStream::from_events(&events).unwrap().with_executors(executors);
        assert_eq!(replay_traffic(&stream, svc).unwrap(), live);
    }
    // Closed loop feeds arrivals through the request path; the trace
    // must still carry the full quota per lane.
    let arrivals = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Arrival { .. }))
        .count();
    assert_eq!(arrivals as u32, cfg.messages_per_worker * cfg.workers);
}

#[test]
fn trace_files_replay_through_both_codecs() {
    let cfg = hostile_cfg();
    let live = run_traffic(&cfg, svc).unwrap();
    let (_, events) = record_traffic(&cfg, svc).unwrap();
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    for name in [format!("protolat_replay_{pid}.trace"), format!("protolat_replay_{pid}.json")] {
        let path = dir.join(name);
        write_events(&path, &events).expect("trace file write");
        let stream = TraceStream::load(&path).expect("trace file load");
        assert_eq!(stream.config(), cfg, "config did not survive the file round trip");
        assert_eq!(
            stream.fingerprint(),
            trace::fingerprint(&events),
            "fingerprint changed across the file round trip"
        );
        assert_eq!(replay_traffic(&stream, svc).unwrap(), live);
        assert_eq!(read_events(&path).unwrap(), events);
        std::fs::remove_file(&path).unwrap();
    }
}

#[test]
fn config_record_round_trips() {
    let cfgs = [
        hostile_cfg(),
        TrafficConfig::closed_loop(8, 100_000, 500, 32)
            .with_workers(2)
            .with_shard_budget(16, 4_096)
            .with_policy(PolicyKind::Random { slots: 8 })
            .with_stream(StreamKind::Conflict { slots: 4, cycle: 3 }),
        TrafficConfig::open_loop(5_000, 100, 16),
    ];
    for cfg in cfgs {
        let rec = config_to_record(&cfg);
        let back = config_from_record(&rec).expect("well-formed record");
        assert_eq!(back, cfg, "config did not survive the wire record");
    }
}

#[test]
fn tampered_fate_is_typed_divergence() {
    let cfg = hostile_cfg();
    let (_, mut events) = record_traffic(&cfg, svc).unwrap();
    // Flip the first delivered fate to a drop: the replayed run then
    // takes the retransmission path, and its RTO firing has no
    // counterpart in the trace.
    let slot = events
        .iter_mut()
        .find(|e| matches!(e, TraceEvent::Fate { fate: Fate::Delivered, .. }))
        .expect("a delivered fate exists");
    if let TraceEvent::Fate { fate, .. } = slot {
        *fate = Fate::Dropped;
    }
    let stream = TraceStream::from_events(&events).expect("counts are still structurally valid");
    match replay_traffic(&stream, svc) {
        Err(ReplayError::Diverged(msg)) => {
            assert!(msg.starts_with("lane "), "divergence names the lane: {msg}");
        }
        other => panic!("tampered fate must diverge, got {other:?}", other = other.err()),
    }
}

#[test]
fn structurally_broken_traces_are_rejected() {
    let cfg = hostile_cfg();
    let (_, events) = record_traffic(&cfg, svc).unwrap();

    // No leading config.
    assert!(TraceStream::from_events(&events[1..]).is_err());
    // Empty log.
    assert!(TraceStream::from_events(&[]).is_err());
    // An event's lane beyond the worker count.
    let mut bad = events.clone();
    if let Some(TraceEvent::Fate { lane, .. }) =
        bad.iter_mut().find(|e| matches!(e, TraceEvent::Fate { .. }))
    {
        *lane = 99;
    }
    assert!(TraceStream::from_events(&bad).is_err());
    // A missing arrival breaks the per-lane quota.
    let mut short = events.clone();
    let idx = short.iter().position(|e| matches!(e, TraceEvent::Arrival { .. })).unwrap();
    short.remove(idx);
    assert!(TraceStream::from_events(&short).is_err());
    // A cache-policy parameter no demux cache can be built from: a
    // set-indexed count that is not a power of two (0 included), or a
    // fully-associative policy with no slots.
    for (kind, param) in [(1, 0), (1, 6), (2, 0), (2, 3), (3, 0), (4, 0)] {
        let mut rec = config_to_record(&TrafficConfig::open_loop(1_000, 0, 16));
        (rec.policy_kind, rec.policy_param) = (kind, param);
        match TraceStream::from_events(&decoded(rec)) {
            Err(TraceError::Invalid { what }) => assert!(what.contains("policy"), "{what}"),
            Err(e) => panic!("policy {kind}/{param}: expected Invalid, got {e}"),
            Ok(_) => panic!("policy {kind}/{param} must not validate"),
        }
    }
    // The original is, of course, fine.
    assert!(TraceStream::from_events(&events).is_ok());
}

/// A binary trace whose only event is a config record declaring
/// `workers` lanes of `messages` each, decoded the way a file would be.
fn config_only_trace(messages: u32, workers: u32) -> Vec<TraceEvent> {
    let mut rec = config_to_record(&TrafficConfig::open_loop(1_000, messages, 16));
    rec.workers = workers;
    decoded(rec)
}

/// `rec` as the sole event of a binary trace, decoded the way a file
/// would be.
fn decoded(rec: trace::ConfigRecord) -> Vec<TraceEvent> {
    let bytes = trace::encode(&[TraceEvent::Config(Box::new(rec))], trace::Format::Binary);
    trace::decode(&bytes, trace::Format::Binary).expect("a well-formed binary trace")
}

#[test]
fn lane_count_the_log_cannot_fill_is_rejected_before_allocating() {
    // Quota > 0: the lane count is bounded by the arrivals present.
    for (messages, workers) in [(4, u32::MAX), (0, u32::MAX)] {
        match TraceStream::from_events(&config_only_trace(messages, workers)) {
            Err(TraceError::Invalid { what }) => assert!(what.contains("workers"), "{what}"),
            Err(e) => panic!("quota {messages}: expected Invalid, got {e}"),
            Ok(_) => panic!("quota {messages}: {workers} empty lanes must not validate"),
        }
    }
    // A genuinely empty run of a few lanes still validates.
    let cfg = TrafficConfig::open_loop(10_000, 0, 16).with_workers(2);
    let (_, events) = record_traffic(&cfg, svc).unwrap();
    assert!(TraceStream::from_events(&events).is_ok());
}

/// Every combination `Run` composes — each execution plane ×
/// {live, record, replay of the recording} × {static, adaptive} —
/// yields the identical report, the identical recorded log and the
/// identical swap verdicts.
#[test]
fn every_plane_source_and_service_combination_agrees() {
    let (program, episode) = fixture();
    let good = fixture_image(&program, &episode, LayoutStrategy::MicroPosition);
    let bad = fixture_image(&program, &episode, LayoutStrategy::Linear);
    let candidates =
        [Candidate::new("BAD", Arc::clone(&bad)), Candidate::new("GOOD", Arc::clone(&good))];
    let image_config = ImageConfig::plain("t");
    let cfg = adaptive_cfg().with_faults(3_000, 1_500, 3_000, 1_500);
    for adaptive in [false, true] {
        let serve = |run: Run| {
            if adaptive {
                run.adaptive(AdaptSetup {
                    adapt: engaged_adapt(),
                    program: &program,
                    episode: &episode,
                    image_config: &image_config,
                    candidates: &candidates,
                    initial: 0,
                    cache: LocalPlanCache::default(),
                })
            } else {
                run.serve(|_| ReplayService::new(&good, &episode))
            }
        };
        let recorded = serve(Run::new(&cfg).record()).expect("recording must drain");
        let stream = TraceStream::from_events(&recorded.events).unwrap();
        let swaps = recorded.adapt.as_ref().map(|a| a.swaps.clone());
        assert_eq!(swaps.as_ref().is_some_and(|s| !s.is_empty()), adaptive, "fixture must swap");
        for plane in [Plane::Dispatch, Plane::SeedFifo, Plane::SeedHeap] {
            let cells = [
                ("live", serve(Run::new(&cfg).plane(plane))),
                ("record", serve(Run::new(&cfg).record().plane(plane))),
                ("replay", serve(Run::replay(&stream).plane(plane))),
            ];
            for (source, served) in cells {
                let cell = format!("{plane:?}/{source}/adaptive={adaptive}");
                let served = served.unwrap_or_else(|e| panic!("{cell}: {e}"));
                assert_eq!(served.report, recorded.report, "{cell}: report diverged");
                let log = if source == "record" { &recorded.events[..] } else { &[] };
                assert_eq!(served.events, log, "{cell}: event log diverged");
                assert_eq!(served.adapt.map(|a| a.swaps), swaps, "{cell}: verdicts diverged");
            }
        }
    }
}

#[test]
fn plain_replay_rejects_adaptive_traces() {
    let (program, episode) = fixture();
    let img = fixture_image(&program, &episode, LayoutStrategy::MicroPosition);
    let bad = fixture_image(&program, &episode, LayoutStrategy::Linear);
    let cfg = adaptive_cfg();
    let adapt = engaged_adapt();
    let candidates =
        [Candidate::new("BAD", Arc::clone(&bad)), Candidate::new("GOOD", Arc::clone(&img))];
    let (_, areport, events) = Run::new(&cfg)
        .record()
        .adaptive(AdaptSetup {
            adapt,
            program: &program,
            episode: &episode,
            image_config: &ImageConfig::plain("t"),
            candidates: &candidates,
            initial: 0,
            cache: LocalPlanCache::default(),
        })
        .map(|s| (s.report, s.adapt.unwrap(), s.events))
        .expect("adaptive recording must drain");
    assert!(!areport.swaps.is_empty(), "fixture must actually swap");
    let stream = TraceStream::from_events(&events).unwrap();
    assert!(stream.has_verdicts());
    assert_eq!(stream.verdicts().len(), areport.swaps.len());
    match replay_traffic(&stream, |_| ReplayService::new(&img, &episode)) {
        Err(ReplayError::Trace(_)) => {}
        other => panic!("verdict-carrying trace must be rejected, got {:?}", other.err()),
    }
}

#[test]
fn adaptive_record_replay_validates_verdicts() {
    let (program, episode) = fixture();
    let good = fixture_image(&program, &episode, LayoutStrategy::MicroPosition);
    let bad = fixture_image(&program, &episode, LayoutStrategy::Linear);
    let cfg = adaptive_cfg();
    let adapt = engaged_adapt();
    let run = |initial: usize| {
        let candidates =
            [Candidate::new("BAD", Arc::clone(&bad)), Candidate::new("GOOD", Arc::clone(&good))];
        (candidates, initial)
    };
    let (candidates, initial) = run(0);
    let (report, areport, events) = Run::new(&cfg)
        .record()
        .adaptive(AdaptSetup {
            adapt,
            program: &program,
            episode: &episode,
            image_config: &ImageConfig::plain("t"),
            candidates: &candidates,
            initial,
            cache: LocalPlanCache::default(),
        })
        .map(|s| (s.report, s.adapt.unwrap(), s.events))
        .expect("adaptive recording must drain");
    assert!(!areport.swaps.is_empty(), "fixture must engage the adapt loop");

    for executors in [1u32, 3] {
        let stream = TraceStream::from_events(&events).unwrap().with_executors(executors);
        let (candidates, initial) = run(0);
        let (replayed, replay_adapt) = Run::replay(&stream)
            .adaptive(AdaptSetup {
                adapt,
                program: &program,
                episode: &episode,
                image_config: &ImageConfig::plain("t"),
                candidates: &candidates,
                initial,
                cache: LocalPlanCache::default(),
            })
            .map(|s| (s.report, s.adapt.unwrap()))
            .expect("adaptive replay must match the recorded verdicts");
        assert_eq!(replayed, report, "adaptive replay report diverged ({executors} executors)");
        assert_eq!(replay_adapt.swaps, areport.swaps);
        assert_eq!(replay_adapt.counters, areport.counters);
    }

    // A different initial candidate produces a different swap timeline:
    // the verdict validation must catch it as divergence.
    let stream = TraceStream::from_events(&events).unwrap();
    let (candidates, _) = run(0);
    match Run::replay(&stream).adaptive(AdaptSetup {
        adapt,
        program: &program,
        episode: &episode,
        image_config: &ImageConfig::plain("t"),
        candidates: &candidates,
        initial: 1,
        cache: LocalPlanCache::default(),
    }) {
        Err(ReplayError::Diverged(_)) => {}
        Ok(_) => panic!("verdicts from a different initial candidate must not validate"),
        Err(e) => panic!("expected verdict divergence, got {e}"),
    }
}

// ------------------------------------------------------ adaptive fixture

/// Two-function replay fixture (same shape as `tests/adapt.rs`).
fn fixture() -> (Arc<Program>, EventStream) {
    let mut pb = ProgramBuilder::new();
    let (inner, s_inner) = pb.function("leaf", FuncKind::Library, FrameSpec::leaf(), |fb| {
        fb.straight("w", Body::ops(10))
    });
    let (outer, (s_head, s_call)) =
        pb.function("root", FuncKind::Path, FrameSpec::standard(), |fb| {
            (fb.straight("head", Body::ops(12)), fb.call("c", inner, Body::ops(2)))
        });
    let program = pb.build();
    let mut r = Recorder::new();
    r.enter(outer);
    r.seg(s_head);
    r.call(s_call, inner);
    r.seg(s_inner);
    r.leave();
    r.leave();
    (program, r.take())
}

fn fixture_image(program: &Arc<Program>, ev: &EventStream, strategy: LayoutStrategy) -> Arc<Image> {
    Arc::new(build_image(
        program,
        LayoutRequest::new(strategy, ImageConfig::plain("t")).with_canonical(ev),
    ))
}

/// Phased configuration at a scale where the adapt loop demonstrably
/// swaps (mirrors `tests/adapt.rs`).
fn adaptive_cfg() -> TrafficConfig {
    TrafficConfig::open_loop(20_000, 2_000, 64)
        .with_workers(2)
        .with_seed(0x11)
        .with_phases(PhasePlan::new(&[
            Phase {
                stream: StreamKind::Zipf,
                milli_theta: 900,
                duration_ns: 33_000_000,
                settle_ns: 8_000_000,
            },
            Phase {
                stream: StreamKind::Conflict { slots: 4, cycle: 3 },
                milli_theta: 900,
                duration_ns: 33_000_000,
                settle_ns: 8_000_000,
            },
            Phase {
                stream: StreamKind::Zipf,
                milli_theta: 1_100,
                duration_ns: 0,
                settle_ns: 8_000_000,
            },
        ]))
}

fn engaged_adapt() -> AdaptConfig {
    AdaptConfig {
        stride: 4,
        window: 8,
        min_dwell_ns: 10_000_000,
        relayout_latency_ns: 5_000_000,
        jit: true,
    }
}
