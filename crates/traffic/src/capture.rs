//! Record/replay capture semantics for the traffic plane.
//!
//! The `trace` crate owns the wire format; this module owns the
//! *meaning* of a trace: which run-loop decisions are captured, in
//! what order, and what replay consumes versus validates.  A
//! [`Run`](crate::Run) picks the [`Mode`] (`.record()`,
//! `Run::replay`); the taps here do the rest on every plane.
//!
//! # The capture contract
//!
//! A recorded log is `Config` followed by the per-lane event sequences
//! concatenated in lane-index order.  Within a lane, events are
//! grouped by kind — arrivals, then RTO firings, then fates — each
//! group in the lane's processing order, which is a pure function of
//! `(config, lane index)` — the dispatch plane's bit-identity
//! invariant.  A trace is therefore identical whichever
//! [`Plane`](crate::Plane) produced it and whatever the executor count.
//!
//! * **Consumed on replay** — `Arrival` (the workload draw: instant +
//!   session rank) and `Fate` (the fault-injector verdict).  Replay
//!   never touches the workload or injector RNG, so a trace replays
//!   bit-identically even on a build whose RNG or samplers changed.
//! * **Validated on replay** — `Rto` (timer firings) and `Verdict`
//!   (adapt-worker re-layout decisions).  These are derived from the
//!   consumed events; replay recomputes them live and any mismatch is
//!   a typed [`ReplayError::Diverged`], never a panic.
//!
//! [`TraceStream`] is the third workload source next to the open-loop
//! generator and the closed-loop clients: it validates a log's
//! structural invariants up front (config present, lanes in range,
//! per-lane arrival counts and monotone times, fate counts) and then
//! drives any plane through `Run::replay(&stream)`.
use std::path::Path;
use std::sync::Arc;

use netsim::{Fate, Ns, Overrun};
use trace::{read_events, ConfigRecord, PhaseRec, StreamRec, TraceError, TraceEvent};

use crate::adapt::SwapEvent;
use crate::policy::PolicyKind;
use crate::runloop::{TrafficConfig, TrafficReport, WorkerOut};
use crate::wire::WirePath;
use crate::workload::{Phase, PhasePlan, Scenario, StreamKind};

// ------------------------------------------------------------ lane taps

/// One lane's recorded decisions, split by stream so replay cursors
/// are O(1) — and so the recording tap's hot path pushes 1–20 byte
/// tuples instead of [`TraceEvent`]-sized enum values (the enum is
/// config-record sized; appending it per message costs real time).
/// Arrival/fate/RTO orders are each the lane's processing order.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub(crate) struct LaneLog {
    /// `(instant, session rank)` per fresh arrival.
    pub(crate) arrivals: Vec<(Ns, u32)>,
    pub(crate) fates: Vec<Fate>,
    /// `(fired at, session, born)` per retransmission-timer firing.
    pub(crate) rtos: Vec<(Ns, u32, Ns)>,
}

impl LaneLog {
    fn len(&self) -> usize {
        self.arrivals.len() + self.fates.len() + self.rtos.len()
    }

    /// Materialize the lane's event sequence (arrivals, then RTO
    /// firings, then fates — the grouping [`TraceStream::from_events`]
    /// splits back apart losslessly).
    fn emit(&self, lane: u32, out: &mut Vec<TraceEvent>) {
        out.extend(self.arrivals.iter().map(|&(at, session)| TraceEvent::Arrival {
            lane,
            at,
            session,
        }));
        out.extend(self.rtos.iter().map(|&(at, session, born)| TraceEvent::Rto {
            lane,
            at,
            session,
            born,
        }));
        out.extend(self.fates.iter().map(|&fate| TraceEvent::Fate { lane, fate }));
    }
}

/// How a run interacts with the trace subsystem.  Built once by
/// [`Run`](crate::Run) and threaded through the plane it drives; `Live`
/// is free (one enum discriminant per decision).
#[derive(Clone)]
pub(crate) enum Mode {
    Live,
    Record,
    Replay(Arc<Vec<LaneLog>>),
}

impl Mode {
    /// The per-lane tap this mode installs in `Worker`.
    pub(crate) fn tap(&self, lane: u32) -> Tap {
        match self {
            Mode::Live => Tap::Off,
            Mode::Record => Tap::Record(LaneLog::default()),
            // Open-loop arrivals are injected by the source (the
            // generator or the reference pre-schedule) straight from
            // the log; the worker-side cursor then re-walks them as
            // they are handled, validating instant and session.
            // Closed-loop lanes *consume* them from the cursor.
            Mode::Replay(log) => Tap::Replay(LaneReplay {
                log: Arc::clone(log),
                lane: lane as usize,
                arr_at: 0,
                fate_at: 0,
                rto_at: 0,
                divergence: None,
            }),
        }
    }

    /// The recorded arrival schedule for `lane`, when replaying.
    pub(crate) fn replay_log(&self) -> Option<&Arc<Vec<LaneLog>>> {
        match self {
            Mode::Replay(log) => Some(log),
            _ => None,
        }
    }
}

/// A worker's trace endpoint: off, recording its decisions into a
/// compact [`LaneLog`], or a replay cursor substituting for its RNG
/// draws.
pub(crate) enum Tap {
    Off,
    Record(LaneLog),
    Replay(LaneReplay),
}

/// Replay cursors over one lane's log.  Divergence (cursor
/// exhaustion, instant/session mismatch) is latched — first message
/// wins — and surfaced after the run; the replay substitutes safe
/// values and keeps going so the report stays well-formed.
pub(crate) struct LaneReplay {
    log: Arc<Vec<LaneLog>>,
    lane: usize,
    arr_at: usize,
    fate_at: usize,
    rto_at: usize,
    divergence: Option<String>,
}

impl LaneReplay {
    fn diverge(&mut self, msg: String) {
        if self.divergence.is_none() {
            self.divergence = Some(format!("lane {}: {msg}", self.lane));
        }
    }

    /// Pop the next recorded arrival (closed loop: the workload draw).
    pub(crate) fn next_arrival(&mut self, t: Ns) -> u32 {
        let rec = self.log[self.lane].arrivals.get(self.arr_at).copied();
        self.arr_at += 1;
        match rec {
            Some((at, session)) => {
                if at != t {
                    self.diverge(format!(
                        "arrival {} issued at {t} ns, trace says {at} ns",
                        self.arr_at - 1
                    ));
                }
                session
            }
            None => {
                self.diverge(format!("arrival {} beyond end of trace", self.arr_at - 1));
                0
            }
        }
    }

    /// Validate an arrival injected by the open-loop source against
    /// the cursor (the source already read it from the log).
    pub(crate) fn check_arrival(&mut self, t: Ns, session: u32) {
        let rec = self.log[self.lane].arrivals.get(self.arr_at).copied();
        self.arr_at += 1;
        match rec {
            Some((at, s)) if at == t && s == session => {}
            Some((at, s)) => self.diverge(format!(
                "arrival {} is ({t} ns, session {session}), trace says ({at} ns, session {s})",
                self.arr_at - 1
            )),
            None => self.diverge(format!("arrival {} beyond end of trace", self.arr_at - 1)),
        }
    }

    /// Pop the next recorded fault-injector fate.
    pub(crate) fn next_fate(&mut self) -> Fate {
        let rec = self.log[self.lane].fates.get(self.fate_at).copied();
        self.fate_at += 1;
        match rec {
            Some(f) => f,
            None => {
                self.diverge(format!("fate {} beyond end of trace", self.fate_at - 1));
                Fate::Delivered
            }
        }
    }

    /// Validate a retransmission-timer firing against the log.
    pub(crate) fn check_rto(&mut self, t: Ns, session: u32, born: Ns) {
        let rec = self.log[self.lane].rtos.get(self.rto_at).copied();
        self.rto_at += 1;
        match rec {
            Some(r) if r == (t, session, born) => {}
            Some((at, s, b)) => self.diverge(format!(
                "rto {} fired as ({t} ns, session {session}, born {born}), \
                 trace says ({at} ns, session {s}, born {b})",
                self.rto_at - 1
            )),
            None => self.diverge(format!("rto firing {} not in trace", self.rto_at - 1)),
        }
    }

    /// End-of-run check: every recorded decision must have been
    /// consumed or validated.
    pub(crate) fn finish(mut self) -> Option<String> {
        let log = &self.log[self.lane];
        let (a, f, r) = (
            log.arrivals.len().saturating_sub(self.arr_at),
            log.fates.len().saturating_sub(self.fate_at),
            log.rtos.len().saturating_sub(self.rto_at),
        );
        if a + f + r > 0 {
            self.diverge(format!(
                "run ended with {a} arrivals, {f} fates, {r} rto firings unconsumed"
            ));
        }
        self.divergence
    }
}

// ------------------------------------------------------------- run output

/// A mode-aware run's full output: the merged report plus whatever the
/// taps produced (lane-ordered events when recording, the first
/// divergence when replaying).
pub(crate) struct RunOut {
    pub(crate) report: TrafficReport,
    pub(crate) events: Vec<TraceEvent>,
    pub(crate) diverged: Option<String>,
}

/// Merge per-lane outputs (already in lane-index order) into a
/// [`RunOut`]: lane logs materialize into one concatenated event
/// sequence (prefixed with the `Config` record when recording, so the
/// log never has to be re-copied to front-load it), the first
/// divergence wins.
pub(crate) fn collect(mut outs: Vec<WorkerOut>, cfg: &TrafficConfig, mode: &Mode) -> RunOut {
    let recording = matches!(mode, Mode::Record);
    let total: usize = outs.iter().map(|o| o.log.len()).sum();
    let mut events = Vec::with_capacity(total + usize::from(recording));
    if recording {
        events.push(TraceEvent::Config(Box::new(config_to_record(cfg))));
    }
    let mut diverged = None;
    for (lane, o) in outs.iter_mut().enumerate() {
        std::mem::take(&mut o.log).emit(lane as u32, &mut events);
        if diverged.is_none() {
            diverged = o.diverged.take();
        }
    }
    RunOut { report: TrafficReport::from_workers(outs, cfg.workers), events, diverged }
}

// ----------------------------------------------------- config conversion

fn stream_to_rec(kind: StreamKind) -> StreamRec {
    match kind {
        StreamKind::Zipf => StreamRec { kind: 0, a: 0, b: 0 },
        StreamKind::StackDepth { milli_p } => StreamRec { kind: 1, a: milli_p, b: 0 },
        StreamKind::Train { milli_cont } => StreamRec { kind: 2, a: milli_cont, b: 0 },
        StreamKind::Conflict { slots, cycle } => StreamRec { kind: 3, a: slots, b: cycle },
    }
}

fn stream_from_rec(rec: &StreamRec) -> Result<StreamKind, TraceError> {
    Ok(match rec.kind {
        0 => StreamKind::Zipf,
        1 => StreamKind::StackDepth { milli_p: rec.a },
        2 => StreamKind::Train { milli_cont: rec.a },
        3 => StreamKind::Conflict { slots: rec.a, cycle: rec.b },
        k => return Err(invalid(format!("unknown stream kind code {k}"))),
    })
}

pub(crate) fn invalid(what: String) -> TraceError {
    TraceError::Invalid { what }
}

/// Flatten a [`TrafficConfig`] into the wire-stable [`ConfigRecord`].
pub fn config_to_record(cfg: &TrafficConfig) -> ConfigRecord {
    let (scenario_kind, scenario_a, scenario_b) = match cfg.scenario {
        Scenario::OpenLoop { rate_mps } => (0u8, rate_mps, 0),
        Scenario::ClosedLoop { clients, think_ns } => (1, clients as u64, think_ns),
    };
    let (policy_kind, policy_param) = match cfg.policy {
        PolicyKind::OneEntry => (0u8, 0u32),
        PolicyKind::DirectMapped { slots } => (1, slots),
        PolicyKind::TwoWayLru { sets } => (2, sets),
        PolicyKind::Fifo { slots } => (3, slots),
        PolicyKind::Random { slots } => (4, slots),
    };
    let mut phases = [PhaseRec::default(); trace::MAX_PHASES];
    let mut n_phases = 0u32;
    for (slot, p) in phases.iter_mut().zip(cfg.phases.iter()) {
        *slot = PhaseRec {
            stream: stream_to_rec(p.stream),
            milli_theta: p.milli_theta,
            duration_ns: p.duration_ns,
            settle_ns: p.settle_ns,
        };
        n_phases += 1;
    }
    ConfigRecord {
        scenario_kind,
        scenario_a,
        scenario_b,
        messages_per_worker: cfg.messages_per_worker,
        sessions: cfg.sessions,
        shards: cfg.shards,
        shard_capacity: cfg.shard_capacity,
        shard_budget_bytes: cfg.shard_budget_bytes,
        milli_theta: cfg.milli_theta,
        workers: cfg.workers,
        executors: cfg.executors,
        seed: cfg.seed,
        drop_ppm: cfg.drop_ppm,
        corrupt_ppm: cfg.corrupt_ppm,
        reorder_ppm: cfg.reorder_ppm,
        duplicate_ppm: cfg.duplicate_ppm,
        wire_kind: cfg.wire.code(),
        truncate_ppm: cfg.truncate_ppm,
        malform_ppm: cfg.malform_ppm,
        fragment_ppm: cfg.fragment_ppm,
        policy_kind,
        policy_param,
        stream: stream_to_rec(cfg.stream),
        n_phases,
        phases,
    }
}

/// Rebuild a [`TrafficConfig`] from a wire record, validating every
/// constraint the in-memory constructors would assert, so a hostile
/// trace yields a typed error rather than a panic.
pub fn config_from_record(rec: &ConfigRecord) -> Result<TrafficConfig, TraceError> {
    let scenario = match rec.scenario_kind {
        0 => {
            if rec.scenario_a == 0 {
                return Err(invalid("open-loop rate must be positive".into()));
            }
            Scenario::OpenLoop { rate_mps: rec.scenario_a }
        }
        1 => {
            let clients = u32::try_from(rec.scenario_a)
                .map_err(|_| invalid("closed-loop client count exceeds u32".into()))?;
            Scenario::ClosedLoop { clients, think_ns: rec.scenario_b }
        }
        k => return Err(invalid(format!("unknown scenario kind code {k}"))),
    };
    let policy = match rec.policy_kind {
        0 => PolicyKind::OneEntry,
        1 => PolicyKind::DirectMapped { slots: rec.policy_param },
        2 => PolicyKind::TwoWayLru { sets: rec.policy_param },
        3 => PolicyKind::Fifo { slots: rec.policy_param },
        4 => PolicyKind::Random { slots: rec.policy_param },
        k => return Err(invalid(format!("unknown policy kind code {k}"))),
    };
    policy.check().map_err(invalid)?;
    if rec.workers == 0 {
        return Err(invalid("worker count must be at least 1".into()));
    }
    if !rec.shards.is_power_of_two() {
        return Err(invalid(format!("shard count {} is not a power of two", rec.shards)));
    }
    let recs = rec.phases();
    let mut phases = Vec::with_capacity(recs.len());
    for (i, p) in recs.iter().enumerate() {
        if p.duration_ns == 0 && i + 1 != recs.len() {
            return Err(invalid(format!("phase {i} has zero duration but is not last")));
        }
        phases.push(Phase {
            stream: stream_from_rec(&p.stream)?,
            milli_theta: p.milli_theta,
            duration_ns: p.duration_ns,
            settle_ns: p.settle_ns,
        });
    }
    Ok(TrafficConfig {
        scenario,
        messages_per_worker: rec.messages_per_worker,
        sessions: rec.sessions,
        shards: rec.shards,
        shard_capacity: rec.shard_capacity,
        shard_budget_bytes: rec.shard_budget_bytes,
        milli_theta: rec.milli_theta,
        workers: rec.workers,
        executors: rec.executors,
        seed: rec.seed,
        drop_ppm: rec.drop_ppm,
        corrupt_ppm: rec.corrupt_ppm,
        reorder_ppm: rec.reorder_ppm,
        duplicate_ppm: rec.duplicate_ppm,
        wire: WirePath::from_code(rec.wire_kind)
            .ok_or_else(|| invalid(format!("unknown wire path code {}", rec.wire_kind)))?,
        truncate_ppm: rec.truncate_ppm,
        malform_ppm: rec.malform_ppm,
        fragment_ppm: rec.fragment_ppm,
        policy,
        stream: stream_from_rec(&rec.stream)?,
        phases: if phases.is_empty() { PhasePlan::none() } else { PhasePlan::new(&phases) },
    })
}

// ------------------------------------------------------------ TraceStream

/// Most lanes a trace with a zero per-lane quota may declare: such a
/// log carries no arrivals to bound its lane count by.
const MAX_IDLE_LANES: u32 = 1024;

/// A validated, replayable trace: the third workload source.
///
/// Construction checks the structural invariants a well-formed capture
/// guarantees — a single leading `Config`, every lane index in range,
/// per-lane arrival counts equal to the configured quota with
/// non-decreasing instants, and one fate per injector consultation
/// (`fates == arrivals + rto firings`) — so the runners can index the
/// log without further bounds concerns.
pub struct TraceStream {
    cfg: TrafficConfig,
    lanes: Arc<Vec<LaneLog>>,
    verdicts: Vec<SwapEvent>,
    fp: u64,
}

impl TraceStream {
    /// Validate a decoded event log into a replayable stream.
    pub fn from_events(events: &[TraceEvent]) -> Result<Self, TraceError> {
        let rec = match events.first() {
            Some(TraceEvent::Config(c)) => c,
            Some(_) => return Err(invalid("trace must begin with its config record".into())),
            None => return Err(invalid("trace is empty".into())),
        };
        let cfg = config_from_record(rec)?;
        // Bound the lane count by what the log can fill before
        // allocating a log per lane: the config record is untrusted.
        if cfg.messages_per_worker > 0 {
            let arrivals =
                events.iter().filter(|e| matches!(e, TraceEvent::Arrival { .. })).count() as u64;
            let quota = u64::from(cfg.workers) * u64::from(cfg.messages_per_worker);
            if arrivals != quota {
                return Err(invalid(format!(
                    "trace has {arrivals} arrivals, config says {} workers x {}",
                    cfg.workers, cfg.messages_per_worker
                )));
            }
        } else if cfg.workers > MAX_IDLE_LANES {
            return Err(invalid(format!(
                "{} workers with no messages exceeds the {MAX_IDLE_LANES}-lane bound",
                cfg.workers
            )));
        }
        let workers = cfg.workers as usize;
        let mut lanes = vec![LaneLog::default(); workers];
        let mut verdicts = Vec::new();
        for ev in &events[1..] {
            let lane = match ev {
                TraceEvent::Config(_) => {
                    return Err(invalid("trace carries more than one config record".into()))
                }
                TraceEvent::Arrival { lane, .. }
                | TraceEvent::Fate { lane, .. }
                | TraceEvent::Rto { lane, .. } => *lane,
                TraceEvent::Verdict(v) => v.lane,
            };
            if lane as usize >= workers {
                return Err(invalid(format!(
                    "event lane {lane} out of range for {workers} workers"
                )));
            }
            let log = &mut lanes[lane as usize];
            match ev {
                TraceEvent::Arrival { at, session, .. } => log.arrivals.push((*at, *session)),
                TraceEvent::Fate { fate, .. } => log.fates.push(*fate),
                TraceEvent::Rto { at, session, born, .. } => {
                    log.rtos.push((*at, *session, *born))
                }
                TraceEvent::Verdict(v) => verdicts.push(SwapEvent {
                    lane: v.lane,
                    at: v.at,
                    from: v.from.clone(),
                    to: v.to.clone(),
                    trigger_fp: v.trigger_fp,
                    noop: v.noop,
                }),
                TraceEvent::Config(_) => unreachable!("rejected above"),
            }
        }
        for (i, log) in lanes.iter().enumerate() {
            if log.arrivals.len() != cfg.messages_per_worker as usize {
                return Err(invalid(format!(
                    "lane {i} has {} arrivals, config says {}",
                    log.arrivals.len(),
                    cfg.messages_per_worker
                )));
            }
            if log.arrivals.windows(2).any(|w| w[0].0 > w[1].0) {
                return Err(invalid(format!("lane {i} arrival instants decrease")));
            }
            let expect = log.arrivals.len() + log.rtos.len();
            if log.fates.len() != expect {
                return Err(invalid(format!(
                    "lane {i} has {} fates for {} sends (arrivals + rto firings)",
                    log.fates.len(),
                    expect
                )));
            }
        }
        let fp = trace::fingerprint(events);
        Ok(TraceStream { cfg, lanes: Arc::new(lanes), verdicts, fp })
    }

    /// Load and validate a trace file (codec by extension).
    pub fn load(path: &Path) -> Result<Self, TraceError> {
        Self::from_events(&read_events(path)?)
    }

    /// The run configuration the trace was captured under.
    pub fn config(&self) -> TrafficConfig {
        self.cfg
    }

    /// Override the executor count for replay.  Results must not
    /// change — the point of the probe in `trace_bench`.
    pub fn with_executors(mut self, executors: u32) -> Self {
        self.cfg.executors = executors;
        self
    }

    /// Content fingerprint of the underlying event log (FNV-1a over
    /// its binary encoding); keys replay memo tables.
    pub fn fingerprint(&self) -> u64 {
        self.fp
    }

    /// Recorded adapt-worker verdicts, lane-then-time ordered.
    pub fn verdicts(&self) -> &[SwapEvent] {
        &self.verdicts
    }

    /// Whether the trace was captured from an adaptive run.
    pub fn has_verdicts(&self) -> bool {
        !self.verdicts.is_empty()
    }

    pub(crate) fn mode(&self) -> Mode {
        Mode::Replay(Arc::clone(&self.lanes))
    }
}

// ---------------------------------------------------------------- errors

/// Why a [`Run`](crate::Run) failed.
#[derive(Debug)]
pub enum ReplayError {
    /// The underlying run blew its event budget.
    Engine(Overrun),
    /// The trace was structurally unusable for this operation.
    Trace(TraceError),
    /// The run executed but its decisions did not match the trace.
    Diverged(String),
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Engine(e) => write!(f, "replay overran: {e:?}"),
            ReplayError::Trace(e) => write!(f, "replay rejected trace: {e}"),
            ReplayError::Diverged(d) => write!(f, "replay diverged from trace: {d}"),
        }
    }
}

impl std::error::Error for ReplayError {}

/// A swap timeline as `Verdict` records, which a recording appends
/// after the lane sequences.
pub(crate) fn verdict_events(swaps: &[SwapEvent]) -> impl Iterator<Item = TraceEvent> + '_ {
    swaps.iter().map(|s| {
        TraceEvent::Verdict(Box::new(trace::VerdictRec {
            lane: s.lane,
            at: s.at,
            trigger_fp: s.trigger_fp,
            from: s.from.clone(),
            to: s.to.clone(),
            noop: s.noop,
        }))
    })
}
