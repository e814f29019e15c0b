//! The serving workloads: `serve_hot` and `serve_cold`.
//!
//! Each serves traffic on two lanes against the TCP/IP ALL image, with
//! drop, corrupt, reorder and duplicate fates and the zero-copy wire
//! path with its wire-shape fates.  Latency is born → served in
//! simulated time, so a host stall cannot hide queueing.
//!
//! Each input exists in two forms.  The modelled metrics come from the
//! open-loop form, Poisson at 2 000 msg/s per lane, run once per input
//! and untimed.  The host times the closed-loop form of the same input
//! (same sessions, fates and wire; 8 clients per lane thinking 4 ms):
//! the open-loop plane adds a generator thread that busy-waits beside
//! the executor, so its time depends on getting two CPUs at once, while
//! the closed loop runs the whole dispatch path on one executor thread.
//! The host side is a closed loop with one caller.
//!
//! Iteration `i` serves input `i mod K`, one of K traffic
//! configurations drawn from `--seed`.  K is 1 unless one run is too
//! short for p99.9: equal inputs keep every iteration's allocation sizes
//! equal, so heap fragmentation does not make peak memory drift between
//! runs.
//!
//! After the timed iterations, input 0 goes once through the capture
//! path — `record_traffic`, `trace::encode`, `trace::decode`,
//! `TraceStream::from_events`, `replay_traffic` — as an output check
//! whose stage times are the `traffic.capture` and `trace` layers.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use kcode::events::EventStream;
use kcode::Image;
use netsim::buf::BufPool;
use netsim::rng::SplitMix64;
use protocols::wire::codec::{self, PktSpec};
use protocols::StackOptions;
use protolat_core::sweep::{CapacityRamp, SweepEngine};
use protolat_core::{StackKind, Version};
use trace::{Format, TraceEvent};
use traffic::{
    buckets_for_capacity, record_traffic, replay_traffic, run_traffic, DemuxKey, RefStream,
    ReplayService, Scenario, SessionTable, StreamKind, TraceStream, TrafficConfig, TrafficReport,
    WirePath, WireStats, Zipf,
};

use crate::digest::{self, Fnv};
use crate::metrics::{median, Metrics};
use crate::run::{
    closed_loop, overhead_pct, repeated_setup, write_spans, Ctx, Outcome, Sample, Stamp,
};
use crate::spans::{Span, TracedService, Tracer, ROOT};

const LANES: u32 = 2;
const RATE_MPS: u64 = 2_000;
/// The timed closed-loop form: clients per lane and their think time,
/// 8 clients thinking 4 ms offer about `RATE_MPS` per lane.
const CLIENTS: u32 = 8;
const THINK_NS: u64 = 4_000_000;
const WARMUP: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Hot,
    Cold,
}

/// Sizing of one workload.
struct Shape {
    msgs_per_lane: u32,
    sessions: u32,
    milli_theta: u32,
    /// Distinct inputs iterations cycle through (K).
    inputs: usize,
    /// Messages per lane of each capacity-ramp rung.
    knee_msgs: u32,
    /// Keys for the standalone session-table and codec timings.
    micro_keys: usize,
}

fn shape(kind: Kind, smoke: bool) -> Shape {
    let (msgs_per_lane, inputs, knee_msgs, micro_keys) = match (kind, smoke) {
        (Kind::Hot, false) => (300_000, 1, 20_000, 200_000),
        (Kind::Cold, false) => (2_000, 4, 10_000, 200_000),
        (Kind::Hot, true) => (3_000, 2, 2_000, 5_000),
        (Kind::Cold, true) => (200, 2, 200, 5_000),
    };
    let (sessions, milli_theta) = match kind {
        Kind::Hot => (512, 900),
        Kind::Cold => (65_536, 0),
    };
    Shape {
        msgs_per_lane,
        sessions,
        milli_theta,
        inputs,
        knee_msgs,
        micro_keys,
    }
}

fn base_config(s: &Shape) -> TrafficConfig {
    TrafficConfig::open_loop(RATE_MPS, s.msgs_per_lane, s.sessions)
        .with_workers(LANES)
        .with_executors(1)
        .with_shards(8, 24)
        .with_theta(s.milli_theta)
        .with_faults(3_000, 1_500, 3_000, 1_500)
        .with_wire(WirePath::ZeroCopy)
        .with_wire_faults(800, 500, 700)
}

/// Input `i` of a run: the base scenario with a seed drawn from
/// `(seed, i)`.  The program under test sees only this configuration.
fn input(base: TrafficConfig, seed: u64, i: u64) -> TrafficConfig {
    let mut rng = SplitMix64::new(seed ^ (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    base.with_seed(rng.next_u64())
}

/// The closed-loop form of an input, the one the host times: the same
/// sessions, fates and wire, but requests come from [`CLIENTS`] clients
/// per lane instead of the open-loop generator thread, so one executor
/// thread does all the work and its CPU time is the serving cost.
fn closed(cfg: TrafficConfig) -> TrafficConfig {
    TrafficConfig {
        scenario: Scenario::ClosedLoop {
            clients: CLIENTS,
            think_ns: THINK_NS,
        },
        ..cfg
    }
}

/// The served cell: TCP/IP ALL's image and server-turn episode, built
/// by a fresh engine (which the capacity ramp reuses).
struct Cell {
    eng: SweepEngine,
    img: Arc<Image>,
    episode: EventStream,
}

fn cell() -> Cell {
    let eng = SweepEngine::new();
    let opts = StackOptions::improved();
    let episode = eng.tcpip(opts, WARMUP).run.episodes.server_turn.clone();
    let img = eng.image(StackKind::TcpIp, opts, WARMUP, Version::All);
    Cell { eng, img, episode }
}

impl Cell {
    fn service(&self) -> ReplayService<'_> {
        ReplayService::new(&self.img, &self.episode)
    }
}

/// One iteration: `run_traffic` of one input.  With a tracer it records
/// one span per `serve` call under the run's span, and the returned
/// times are the run span's.
fn serve(
    cell: &Cell,
    cfg: &TrafficConfig,
    tr: Option<(&mut Tracer, &[Mutex<Vec<Span>>])>,
) -> (Sample, Option<TrafficReport>) {
    let Some((t, logs)) = tr else {
        let t0 = Stamp::now();
        let report = run_traffic(cfg, |_| cell.service()).ok();
        return (t0.elapsed(), report);
    };
    t.clear();
    let t0 = Stamp::now();
    let root = t.open("traffic.run", ROOT, 0);
    let epoch = t.epoch();
    let report = run_traffic(cfg, |lane| {
        TracedService::new(cell.service(), &logs[lane as usize], epoch, root, lane)
    })
    .ok();
    t.close(root);
    let dt = t0.elapsed();
    for log in logs {
        let mut log = log.lock().expect("span log lock poisoned");
        t.spans.extend_from_slice(&log);
        log.clear();
    }
    (dt, report)
}

/// The inputs and the first report of each, which later iterations of
/// the same input must equal.
struct Inputs {
    configs: Vec<TrafficConfig>,
    reports: Vec<Option<TrafficReport>>,
}

impl Inputs {
    fn ops(&self) -> u64 {
        u64::from(LANES) * u64::from(self.configs[0].messages_per_worker)
    }
}

/// Output checks on one iteration; accounts its messages.
fn check(out: &mut Outcome, inputs: &mut Inputs, slot: usize, report: Option<TrafficReport>) {
    let ops = inputs.ops();
    let Some(report) = report else {
        out.check("run completes (no Overrun or ReplayError)", false);
        out.ops(ops, false);
        return;
    };
    let mut ok = out.check(
        "completed messages equal lanes x msgs/lane",
        report.completed == ops,
    );
    match &inputs.reports[slot] {
        Some(first) => ok &= out.check("report repeats for the same input", *first == report),
        None => inputs.reports[slot] = Some(report),
    }
    out.ops(ops, ok);
}

/// The aggregate rate the generator actually offered: recorded
/// arrivals over the span of their birth instants.  A finite Poisson
/// sample strays from the configured rate by about 1/sqrt(n).
fn offered_mps(events: &[TraceEvent]) -> f64 {
    let (n, last) = events.iter().fold((0u64, 0u64), |(n, last), e| match e {
        TraceEvent::Arrival { at, .. } => (n + 1, last.max(*at)),
        _ => (n, last),
    });
    if last == 0 {
        0.0
    } else {
        n as f64 * 1e9 / last as f64
    }
}

const CAPTURE_STAGES: [&str; 5] = [
    "traffic.capture.record",
    "trace.encode",
    "trace.decode",
    "traffic.capture.validate",
    "traffic.capture.replay",
];

/// What one pass over the capture path measured.
struct Capture {
    /// Host ms per stage, in [`CAPTURE_STAGES`] order.
    stage_ms: [f64; 5],
    events: usize,
    bytes: usize,
    fingerprint: u64,
}

/// One pass of `cfg` through the capture path, one span per stage,
/// with its output checks: the recorded and the replayed report equal
/// the live one, the achieved rate keeps up with the offered one, and
/// the trace fingerprint survives encode and decode.
fn capture(
    out: &mut Outcome,
    cell: &Cell,
    cfg: &TrafficConfig,
    live: &TrafficReport,
) -> Option<Capture> {
    let mut tr = Tracer::new(Instant::now(), 8);
    let root = tr.open("bench.capture", ROOT, 0);
    let recorded = tr.span(CAPTURE_STAGES[0], root, 0, || {
        record_traffic(cfg, |_| cell.service()).ok()
    });
    let (report, events) = recorded?;
    let bytes = tr.span(CAPTURE_STAGES[1], root, 0, || {
        trace::encode(&events, Format::Binary)
    });
    let decoded = tr.span(CAPTURE_STAGES[2], root, 0, || {
        trace::decode(&bytes, Format::Binary).ok()
    })?;
    let stream = tr.span(CAPTURE_STAGES[3], root, 0, || {
        TraceStream::from_events(&decoded).ok()
    })?;
    let replayed = tr.span(CAPTURE_STAGES[4], root, 0, || {
        replay_traffic(&stream, |_| cell.service()).ok()
    });
    tr.close(root);

    let offered = offered_mps(&events);
    let achieved = report.msgs_per_sec();
    let fingerprint = trace::fingerprint(&events);
    let mut ok = out.check("recorded report equals the live report", report == *live);
    ok &= out.check(
        "achieved rate is at least 97% of offered",
        achieved >= 0.97 * offered,
    );
    ok &= out.check(
        "trace fingerprint equal before encode and after decode",
        fingerprint == trace::fingerprint(&decoded),
    );
    ok &= out.check(
        "replayed report equals the live report",
        replayed.as_ref() == Some(live),
    );
    out.ops(
        2 * u64::from(LANES) * u64::from(cfg.messages_per_worker),
        ok,
    );
    out.about.push(format!(
        "input 0 achieved {achieved:.1} msg/s of {offered:.1} offered by its arrivals (configured {})",
        RATE_MPS * u64::from(LANES)
    ));
    Some(Capture {
        stage_ms: CAPTURE_STAGES.map(|s| tr.total(s) as f64 / 1e6),
        events: events.len(),
        bytes: bytes.len(),
        fingerprint,
    })
}

/// Per-iteration splits of the traced serving phase.
#[derive(Default)]
struct ServeSplit {
    run_ms: Vec<f64>,
    busy_ms: Vec<f64>,
    ns_per_serve: Vec<f64>,
    self_ms: Vec<f64>,
    ns_per_msg: Vec<f64>,
    share_pct: Vec<f64>,
    calls: Vec<f64>,
}

pub fn run(ctx: &Ctx, kind: Kind) -> Outcome {
    let s = shape(kind, ctx.smoke);
    let base = base_config(&s);
    let mut out = Outcome {
        threads: 1,
        executors: 1,
        ..Outcome::default()
    };
    let name = match kind {
        Kind::Hot => "serve_hot",
        Kind::Cold => "serve_cold",
    };
    out.about.push(format!(
        "{name}: TCP/IP ALL, {LANES} lanes, {} sessions/lane, theta {:.1}, shards 8x24, \
         faults 3000/1500/3000/1500 ppm, zero-copy wire with fates 800/500/700 ppm",
        s.sessions,
        f64::from(s.milli_theta) / 1000.0,
    ));
    out.about.push(format!(
        "inputs: {} traffic configurations drawn from seed {}; iteration i serves input i mod {}",
        s.inputs, ctx.seed, s.inputs
    ));
    out.about.push(format!(
        "timed: closed loop, {CLIENTS} clients/lane thinking {} ms, 1 executor thread; \
         modelled: open loop {RATE_MPS} msg/s/lane, each input once, untimed",
        THINK_NS / 1_000_000
    ));

    let open_configs: Vec<TrafficConfig> = (0..s.inputs)
        .map(|i| input(base, ctx.seed, i as u64))
        .collect();
    let mut inputs = Inputs {
        configs: open_configs.iter().map(|&c| closed(c)).collect(),
        reports: vec![None; s.inputs],
    };
    let mut open = Inputs {
        configs: open_configs,
        reports: vec![None; s.inputs],
    };

    // Set-up: the cell and one warm-up iteration, several times over.
    let (setups, (cell, warm), mut pace) = repeated_setup(ctx, || {
        let cell = cell();
        let (_, warm) = serve(&cell, &inputs.configs[0], None);
        (cell, warm)
    });
    out.setup_metric(&setups);
    check(&mut out, &mut inputs, 0, warm);

    let unit = format!("run_traffic of {LANES} lanes x {} msgs", s.msgs_per_lane);
    let mut completed = 0u64;
    let min = if ctx.smoke { 2 } else { 20 };
    let times = closed_loop(&mut pace, ctx.phase_seconds(), min, |i| {
        let slot = i % s.inputs;
        let (dt, report) = serve(&cell, &inputs.configs[slot], None);
        completed += report.as_ref().map_or(0, |r| r.completed);
        check(&mut out, &mut inputs, slot, report);
        dt
    });
    out.iteration_metrics(&times, &unit);
    out.memory_metric();
    let timed_s = times.wall_s();

    // Every timed input runs at least once, so the traced phase has an
    // untraced report to compare with.
    for slot in 0..s.inputs {
        if inputs.reports[slot].is_none() {
            let (_, report) = serve(&cell, &inputs.configs[slot], None);
            check(&mut out, &mut inputs, slot, report);
        }
    }

    // The traced phase (untraced runs trace one iteration, as a check).
    let span_cap = s.msgs_per_lane as usize + s.msgs_per_lane as usize / 8 + 1_024;
    let logs: Vec<Mutex<Vec<Span>>> = (0..LANES)
        .map(|_| Mutex::new(Vec::with_capacity(span_cap)))
        .collect();
    let mut tr = Tracer::new(Instant::now(), span_cap * LANES as usize + 16);
    let mut split = ServeSplit::default();
    let traced_seconds = if ctx.trace { ctx.phase_seconds() } else { 0.0 };
    let traced = closed_loop(&mut pace, traced_seconds, 1, |i| {
        let slot = i % s.inputs;
        let (dt, report) = serve(&cell, &inputs.configs[slot], Some((&mut tr, &logs)));
        let msgs = report.as_ref().map_or(0, |r| r.completed) as f64;
        out.check(
            "traced report equals the untraced report",
            report.is_some() && inputs.reports[slot] == report,
        );
        check(&mut out, &mut inputs, slot, report);
        let run = tr.spans[0].dur() as f64;
        let busy = tr.covered(0) as f64;
        let own = tr.self_time(0) as f64;
        split.run_ms.push(run / 1e6);
        split.busy_ms.push(busy / 1e6);
        split
            .ns_per_serve
            .push(busy / tr.count("traffic.service.serve").max(1) as f64);
        split.self_ms.push(own / 1e6);
        split.ns_per_msg.push(own / msgs.max(1.0));
        split.share_pct.push(100.0 * busy / run.max(1.0));
        split.calls.push(tr.count("traffic") as f64);
        dt
    });

    // The open-loop runs, each input once for the modelled sample, then
    // input 0 on the descriptor path and through the capture path.
    crate::host::unpin();
    for slot in 0..s.inputs {
        let (_, report) = serve(&cell, &open.configs[slot], None);
        check(&mut out, &mut open, slot, report);
    }
    let live = open.reports[0].clone();
    let descriptor = run_traffic(&open.configs[0].with_wire(WirePath::Descriptor), |_| {
        cell.service()
    })
    .ok();
    let without_wire = live.clone().map(|mut r| {
        r.wire = WireStats::default();
        r
    });
    let ok = out.check(
        "zero-copy report equals the WirePath::Descriptor report",
        descriptor.is_some() && descriptor == without_wire,
    );
    out.ops(open.ops(), ok);
    let cap = live
        .as_ref()
        .and_then(|live| capture(&mut out, &cell, &open.configs[0], live));
    if !out.check("capture path completes", cap.is_some()) {
        out.ops(2 * open.ops(), false);
    }

    // The modelled sample: the K open-loop inputs' reports merged.  The
    // digest covers the closed-loop reports too.
    let mut d = Fnv::default();
    for r in inputs.reports.iter().flatten() {
        digest::traffic_report(&mut d, r);
    }
    let mut sum: Option<TrafficReport> = None;
    for r in open.reports.iter().flatten() {
        digest::traffic_report(&mut d, r);
        match &mut sum {
            None => sum = Some(r.clone()),
            Some(acc) => {
                acc.hist.merge(&r.hist);
                acc.retransmits += r.retransmits;
                acc.faults.merge(&r.faults);
                acc.table.merge(&r.table);
                acc.service.merge(&r.service);
                acc.wire.merge(&r.wire);
            }
        }
    }
    d.u64(cap.as_ref().map_or(0, |c| c.fingerprint));
    out.digest = d.finish();
    let Some(sum) = sum else { return out };

    let sample = format!(
        "{} samples: {} inputs x {LANES} lanes x {} msgs",
        sum.hist.count(),
        s.inputs,
        s.msgs_per_lane
    );
    let m = &mut out.metrics;
    m.add(
        "host_msgs_per_s",
        completed as f64 / timed_s.max(1e-9),
        "msg/s",
    )
    .note(format!(
        "{completed} simulated messages over {timed_s:.3} s of timed iterations"
    ));
    for (name, q) in [
        ("model_p50_us", 0.5),
        ("model_p99_us", 0.99),
        ("model_p999_us", 0.999),
    ] {
        m.add(name, sum.hist.quantile(q) as f64 / 1e3, "us.model")
            .note(format!("born -> served, HDR bucket lower bound; {sample}"));
    }
    if !ctx.trace {
        return out;
    }

    counters(m, &sum, &sample);
    let note = format!("median over {} traced iterations", traced.ms.len());
    m.add("traffic.calls", median(&split.calls), "count")
        .note("spans in the traffic module per iteration");
    m.add("traffic.run_ms", median(&split.run_ms), "ms")
        .note(note.clone());
    m.add("traffic.service.busy_ms", median(&split.busy_ms), "ms")
        .note(format!("union of serve spans; {note}"));
    m.add("traffic.service.share_pct", median(&split.share_pct), "%")
        .note("share of the run inside Service::serve");
    m.add(
        "traffic.service.ns_per_serve",
        median(&split.ns_per_serve),
        "ns",
    )
    .note(note.clone());
    m.add("traffic.runloop.self_ms", median(&split.self_ms), "ms")
        .note(format!("run minus serve spans; {note}"));
    m.add(
        "traffic.runloop.ns_per_msg",
        median(&split.ns_per_msg),
        "ns",
    )
    .note(note);
    if let Some(c) = &cap {
        let per_event = |ms: f64| ms * 1e6 / c.events.max(1) as f64;
        let pass = "one pass over input 0";
        m.add("traffic.capture.record_ms", c.stage_ms[0], "ms")
            .note(pass);
        m.add("trace.encode_ns_per_event", per_event(c.stage_ms[1]), "ns")
            .note(pass);
        m.add("trace.decode_ns_per_event", per_event(c.stage_ms[2]), "ns")
            .note(pass);
        m.add("traffic.capture.validate_ms", c.stage_ms[3], "ms")
            .note(pass);
        m.add("traffic.capture.replay_ms", c.stage_ms[4], "ms")
            .note(pass);
        m.add(
            "trace.bytes_per_event",
            c.bytes as f64 / c.events.max(1) as f64,
            "B.model",
        )
        .note("binary codec");
        m.add("trace.events", c.events as f64, "count.model")
            .note("input 0");
    }
    let bad = micro(m, &s, &base, ctx.seed);
    // The ramp's traffic is input K, one past the timed inputs.
    let ramp_base = TrafficConfig {
        messages_per_worker: s.knee_msgs,
        ..input(base, ctx.seed, s.inputs as u64)
    };
    let (knee, rungs) = knee(&cell, ramp_base);
    m.add("model_knee_mps", knee, "msg/s.model").note(format!(
        "highest offered rate with p99 <= 1 ms and achieved >= 97%; {rungs} rungs of {LANES} x {} msgs",
        s.knee_msgs
    ));
    m.add(
        "bench.trace_overhead_pct",
        overhead_pct(median(&times.wall_ms), median(&traced.wall_ms)),
        "%",
    );
    out.check("codec round-trips its own frames", bad == 0);
    write_spans(&mut out, &tr, name);
    out
}

/// Counters of the merged modelled sample.
fn counters(m: &mut Metrics, r: &TrafficReport, sample: &str) {
    let list: [(&str, f64, &'static str); 17] = [
        (
            "traffic.service.memo_hit_rate",
            r.service.memo_hit_rate(),
            "ratio.model",
        ),
        (
            "traffic.service.simulated_replays",
            r.service.simulated_replays as f64,
            "count.model",
        ),
        (
            "traffic.session.hit_rate",
            r.table.hit_rate(),
            "ratio.model",
        ),
        (
            "traffic.session.cache_hit_rate",
            r.table.cache_hit_rate(),
            "ratio.model",
        ),
        (
            "traffic.session.insertions",
            r.table.insertions as f64,
            "count.model",
        ),
        (
            "traffic.session.evictions",
            r.table.evictions as f64,
            "count.model",
        ),
        ("netsim.pool.grows", r.wire.pool.grows as f64, "count.model"),
        (
            "netsim.pool.high_water",
            r.wire.pool.high_water as f64,
            "count.model",
        ),
        ("netsim.fault.drops", r.faults.dropped as f64, "count.model"),
        (
            "netsim.fault.corruptions",
            r.faults.corrupted as f64,
            "count.model",
        ),
        (
            "netsim.fault.reorders",
            r.faults.reordered as f64,
            "count.model",
        ),
        (
            "netsim.fault.duplicates",
            r.faults.duplicated as f64,
            "count.model",
        ),
        ("traffic.retransmits", r.retransmits as f64, "count.model"),
        ("traffic.wire.bad_fcs", r.wire.bad_fcs as f64, "count.model"),
        (
            "traffic.wire.truncated",
            r.wire.truncated as f64,
            "count.model",
        ),
        (
            "traffic.wire.malformed",
            r.wire.malformed as f64,
            "count.model",
        ),
        (
            "traffic.wire.fragmented",
            r.wire.fragmented as f64,
            "count.model",
        ),
    ];
    for (name, v, unit) in list {
        m.add(name, v, unit)
            .note(format!("over the modelled sample ({sample})"));
    }
}

/// Standalone timings on the workload's own keys: a session table of
/// the lanes' shape driven by lane 0's reference stream (lookup, and
/// insert on a miss, as the run loop does), and the wire codec
/// encoding those sessions' frames into pooled buffers and demuxing
/// them back.  Each is the median of five passes.  Returns the number
/// of frames that failed to demux back to their own session.
fn micro(m: &mut Metrics, s: &Shape, cfg: &TrafficConfig, seed: u64) -> u64 {
    let mut rng = SplitMix64::new(seed);
    let zipf = Arc::new(Zipf::new(s.sessions as usize, s.milli_theta));
    let mut stream = RefStream::new(StreamKind::Zipf, zipf, Vec::new());
    let keys: Vec<DemuxKey> = (0..s.micro_keys)
        .map(|_| DemuxKey::for_session(u64::from(stream.next(&mut rng)) * u64::from(LANES)))
        .collect();

    let cap = cfg.effective_shard_capacity();
    let mut lookup_ns = Vec::new();
    let mut hits = 0;
    for _ in 0..5 {
        let mut table = SessionTable::with_policy(
            cfg.shards as usize,
            cap,
            buckets_for_capacity(cap),
            cfg.policy,
            seed,
        );
        let t0 = Instant::now();
        for (i, k) in keys.iter().enumerate() {
            if table.lookup(k).0.is_none() {
                table.insert(*k, i as u32);
            }
        }
        lookup_ns.push(t0.elapsed().as_nanos() as f64 / keys.len() as f64);
        hits = table.stats().lookups - table.stats().misses;
    }
    m.add("traffic.session.ns_per_lookup", median(&lookup_ns), "ns")
        .note(format!(
            "standalone table, {} keys from the workload's stream, hit rate {:.3}",
            keys.len(),
            hits as f64 / keys.len() as f64
        ));

    const BATCH: usize = 256;
    let mut pool = BufPool::new(BATCH);
    let mut handles = Vec::with_capacity(BATCH);
    let (mut enc, mut dem) = (Vec::new(), Vec::new());
    let mut bad = 0u64;
    for _ in 0..5 {
        let (mut enc_ns, mut dem_ns) = (0u128, 0u128);
        for (c, chunk) in keys.chunks(BATCH).enumerate() {
            let t0 = Instant::now();
            for (j, k) in chunk.iter().enumerate() {
                let spec = PktSpec {
                    src_ip: k.src_ip,
                    dst_ip: k.dst_ip,
                    src_port: k.src_port,
                    dst_port: k.dst_port,
                    seq: (c * BATCH + j) as u32,
                    ..PktSpec::default()
                };
                let payload = (c * BATCH + j).to_le_bytes();
                let h = pool.alloc();
                let len =
                    codec::encode_frame(pool.bytes_mut(h).expect("fresh handle"), &spec, &payload);
                handles.push((h, len));
            }
            let t1 = Instant::now();
            for ((h, len), k) in handles.iter().zip(chunk) {
                let frame = &pool.bytes(*h).expect("live handle")[..*len];
                match codec::demux_frame(frame) {
                    Ok(d) if d.src_ip == k.src_ip && d.src_port == k.src_port => {}
                    _ => bad += 1,
                }
            }
            let t2 = Instant::now();
            enc_ns += (t1 - t0).as_nanos();
            dem_ns += (t2 - t1).as_nanos();
            for (h, _) in handles.drain(..) {
                pool.free(h).expect("single free");
            }
        }
        enc.push(enc_ns as f64 / keys.len() as f64);
        dem.push(dem_ns as f64 / keys.len() as f64);
    }
    m.add("protocols.wire.encode_ns", median(&enc), "ns")
        .note("per frame, pool alloc + encode_frame");
    m.add("protocols.wire.demux_ns", median(&dem), "ns")
        .note("per frame, demux_frame of a pooled frame");
    bad
}

/// The capacity knee by `SweepEngine::capacity`: the ladder from the
/// workload rate, doubling, then bisection.  Returns the highest
/// offered aggregate rate that met the objective and the rungs run.
fn knee(cell: &Cell, base: TrafficConfig) -> (f64, usize) {
    let ramp = CapacityRamp::new(base, RATE_MPS);
    let curve = cell.eng.capacity(
        StackKind::TcpIp,
        StackOptions::improved(),
        WARMUP,
        Version::All,
        ramp,
    );
    let best = curve
        .points
        .iter()
        .chain(&curve.refined)
        .filter(|p| !p.violated)
        .map(|p| p.offered_mps)
        .max()
        .unwrap_or(0);
    (best as f64, curve.points.len() + curve.refined.len())
}
