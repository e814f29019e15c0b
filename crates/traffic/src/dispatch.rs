//! The lock-free dispatch plane — [`Plane::Dispatch`](crate::Plane),
//! the default execution of a [`Run`](crate::Run).
//!
//! The seed loop (`runloop::reference`)
//! pre-schedules every open-loop arrival into each lane's event engine
//! and drains it on one thread per lane.  That couples workload
//! generation to serving, caps parallelism at one thread per lane, and
//! makes the arrival schedule resident in the engine all run long.
//! This module decouples the three:
//!
//! * a **generator** thread draws each lane's seeded arrival schedule
//!   and feeds it through a bounded lock-free SPSC ring
//!   ([`netsim::ring::spsc`]) — batch pushes, cache-line-padded
//!   indices, backpressure by ring capacity;
//! * **executor** threads claim runnable lanes from per-executor MPSC
//!   injector rings ([`netsim::ring::MpscRing`]) and run each lane's
//!   serving pipeline, merging ring arrivals against the lane engine's
//!   dynamic events (retransmissions, redeliveries);
//! * an executor whose own injector runs dry **steals** queued lanes
//!   from its peers' injectors — safe because the injector's dequeue is
//!   CAS-claimed.
//!
//! # Why this is bit-identical to the seed FIFO
//!
//! The unit of stealing is a whole *lane*: all of a lane's mutable
//! state (worker, engine, ring consumer) moves together, and the state
//! protocol below guarantees exactly one executor owns it at a time.
//! A lane's simulation is a pure function of `(config, lane index)`;
//! executors only decide *where* it runs.  Within a lane, the merge
//! rule reproduces the seed's processing order exactly: the seed
//! pre-schedules arrivals before any dynamic event exists, so at equal
//! timestamps an arrival always dispatches first — the plane therefore
//! processes an engine event only when it is strictly earlier than the
//! next arrival.  When the ring is dry but the generator is still
//! live, only engine events strictly earlier than the latest arrival
//! seen (the *frontier*) are safe: any future arrival lands at or past
//! the frontier and ties must go to the arrival.  Identical processing
//! order means identical `schedule()` call order, hence identical
//! relative tie-break sequence numbers — bit-identity follows by
//! induction, for any executor count.  `traffic/tests/
//! dispatch_equivalence.rs` pins this against both seed planes.
//!
//! # Lane ownership and parking
//!
//! ```text
//!            pop from injector (CAS)            ring dry, gen live
//!   QUEUED ────────────────────────▶ RUNNING ───────────────────▶ IDLE
//!      ▲                               │  ▲                         │
//!      │ wake: CAS(IDLE→QUEUED) + push │  └── reclaim: CAS(IDLE→    │
//!      └───────────────────────────────┘      RUNNING) after probe ─┘
//! ```
//!
//! A lane id lives in at most one injector entry at any moment: the
//! only QUEUED-producing transitions are the wake CAS (IDLE→QUEUED,
//! one winner) and the owner's own yield hand-back.  The park/push
//! race is closed twice over: the parking executor re-probes the ring
//! *after* publishing IDLE (reclaiming via CAS on success), and the
//! generator keeps re-waking undone lanes until they retire — a parked
//! lane with deliverable input never stays parked.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;

use netsim::ring::{spsc, MpscRing, SpscConsumer, SpscProbe, SpscProducer};
use netsim::rng::SplitMix64;
use netsim::{Engine, Ns, Overrun};

use crate::capture::{collect, LaneLog, Mode, RunOut, Tap};
use crate::runloop::{lane_stream, lane_streams, make_zipfs, Ev, TrafficConfig, Worker};
use crate::service::Service;
use crate::workload::{exp_gap_ns, PhasedStream, Scenario, Zipf};

/// Arrival ring depth per lane (power of two).
const LANE_RING_CAP: usize = 1024;
/// Arrivals the generator stages per lane per round.
const GEN_BATCH: usize = 256;
/// Arrivals a lane pulls from its ring per batch pop.
const ARRIVAL_BATCH: usize = 128;
/// Units a lane may process before handing back to its injector, so
/// executors stay fair when lanes outnumber them.
const YIELD_UNITS: u64 = 8192;

/// Lane states (see module docs for the transition diagram).
const QUEUED: u32 = 0;
const RUNNING: u32 = 1;
const IDLE: u32 = 2;
const DONE: u32 = 3;

/// One generated message hand-off: arrival instant plus the lane-local
/// Zipf session rank.
#[derive(Clone, Copy)]
struct Arrival {
    at: Ns,
    session: u32,
}

/// A lane's complete mutable pipeline.  Exactly one thread touches it
/// at a time (the state protocol); it crosses executors only through
/// the slot's atomics.
struct LaneCore<S> {
    w: Worker<S>,
    eng: Engine<Ev>,
    rx: Option<SpscConsumer<Arrival>>,
    /// Batch-popped arrivals not yet processed.
    pending: Vec<Arrival>,
    pend_at: usize,
    /// Latest arrival instant received; engine events strictly earlier
    /// are safe to run even while the ring is dry.
    frontier: Ns,
    /// Snapshot of `gen_done` taken *before* the last ring pop — if it
    /// read true, the ring contents were complete.
    gen_done_seen: bool,
    dispatched: u64,
    budget: u64,
}

/// A lane's shared face: the ownership state, the generator-completion
/// flag, a ring probe usable without owning the consumer, and the core
/// itself.
struct LaneSlot<S> {
    state: AtomicU32,
    gen_done: AtomicBool,
    probe: Option<SpscProbe<Arrival>>,
    core: UnsafeCell<LaneCore<S>>,
}

// Safety: `core` is only dereferenced by the thread that owns the lane
// per the QUEUED/RUNNING/IDLE protocol — ownership transfers carry a
// release/acquire (or RMW-chained) edge through `state` and the
// injector rings.
unsafe impl<S: Send> Sync for LaneSlot<S> {}

/// Shared references every plane thread works from.
struct Shared<'a, S> {
    slots: &'a [LaneSlot<S>],
    queues: &'a [MpscRing<u32>],
    abort: &'a AtomicBool,
    done: &'a AtomicUsize,
    error: &'a Mutex<Option<Overrun>>,
}

impl<S> Clone for Shared<'_, S> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<S> Copy for Shared<'_, S> {}

/// What a lane did with its turn on an executor.
enum Step {
    /// All input consumed and the generator is finished.
    Complete,
    /// Ring dry, generator live, no safe engine event: wait for input.
    Parked,
    /// Used up the fairness quantum; hand back to the injector.
    Yield,
    /// Blew the event budget.
    Overrun(Overrun),
}

/// Process units on a claimed lane until it completes, parks, yields,
/// or errors.  This is the merge loop the bit-identity argument rests
/// on: arrivals win ties, engine events run early only when provably
/// safe.
fn step_lane<S: Service>(slot: &LaneSlot<S>, core: &mut LaneCore<S>) -> Step {
    enum Unit {
        Arrival,
        Event,
    }
    let mut units = 0u64;
    loop {
        if units >= YIELD_UNITS {
            return Step::Yield;
        }
        if core.pend_at == core.pending.len() {
            // Flag first, then pop: if `gen_done` read true, every
            // arrival the generator will ever push is already visible
            // to this pop.
            core.gen_done_seen = slot.gen_done.load(Ordering::Acquire);
            core.pending.clear();
            core.pend_at = 0;
            if let Some(rx) = core.rx.as_mut() {
                rx.pop_batch(&mut core.pending, ARRIVAL_BATCH);
            }
            if let Some(a) = core.pending.last() {
                core.frontier = a.at;
            }
        }
        let next_arr = core.pending.get(core.pend_at).map(|a| a.at);
        let unit = match (next_arr, core.eng.peek_time()) {
            (Some(ta), Some(te)) if te < ta => Unit::Event,
            (Some(_), _) => Unit::Arrival,
            (None, Some(te)) => {
                if core.gen_done_seen || te < core.frontier {
                    Unit::Event
                } else {
                    return Step::Parked;
                }
            }
            (None, None) => {
                if core.gen_done_seen {
                    return Step::Complete;
                }
                return Step::Parked;
            }
        };
        if core.dispatched >= core.budget {
            return Step::Overrun(Overrun::EventBudget {
                budget: core.budget,
                now: core.eng.now(),
                pending: core.eng.pending(),
            });
        }
        core.dispatched += 1;
        units += 1;
        match unit {
            Unit::Arrival => {
                let a = core.pending[core.pend_at];
                core.pend_at += 1;
                core.w.handle(&mut core.eng, a.at, Ev::Arrive { session: a.session, born: a.at });
            }
            Unit::Event => {
                let (t, ev) = core.eng.pop().expect("peeked engine event must pop");
                core.w.handle(&mut core.eng, t, ev);
            }
        }
    }
}

/// Re-enqueue `lane` on its home injector.  Each injector is sized to
/// hold every lane, and a lane id has at most one live entry, so the
/// push cannot fail; the retry loop is belt-and-braces.
fn push_lane<S>(plane: &Shared<'_, S>, lane: u32) {
    let q = &plane.queues[lane as usize % plane.queues.len()];
    let mut v = lane;
    while let Err(back) = q.push(v) {
        debug_assert!(false, "injector overflow for lane {back}");
        v = back;
        thread::yield_now();
    }
}

/// Wake a parked lane: single-winner CAS, then hand it to its home
/// injector.  A no-op (by design) for QUEUED/RUNNING/DONE lanes.
fn wake<S>(plane: &Shared<'_, S>, lane: u32) {
    let slot = &plane.slots[lane as usize];
    if slot
        .state
        .compare_exchange(IDLE, QUEUED, Ordering::AcqRel, Ordering::Relaxed)
        .is_ok()
    {
        push_lane(plane, lane);
    }
}

fn retire<S>(plane: &Shared<'_, S>, slot: &LaneSlot<S>) {
    slot.state.store(DONE, Ordering::Release);
    plane.done.fetch_add(1, Ordering::AcqRel);
}

/// Claim a QUEUED lane and drive it until it gives the executor a
/// reason to move on.
fn run_lane<S: Service>(plane: Shared<'_, S>, lane: u32) {
    let slot = &plane.slots[lane as usize];
    if slot
        .state
        .compare_exchange(QUEUED, RUNNING, Ordering::Acquire, Ordering::Relaxed)
        .is_err()
    {
        debug_assert!(false, "lane {lane} popped while not QUEUED");
        return;
    }
    // Safety: the CAS above made this thread the lane's sole owner.
    let core = unsafe { &mut *slot.core.get() };
    loop {
        match step_lane(slot, core) {
            Step::Complete => {
                retire(&plane, slot);
                return;
            }
            Step::Overrun(e) => {
                let mut g = plane.error.lock().unwrap();
                if g.is_none() {
                    *g = Some(e);
                }
                drop(g);
                plane.abort.store(true, Ordering::Release);
                retire(&plane, slot);
                return;
            }
            Step::Yield => {
                if plane.abort.load(Ordering::Relaxed) {
                    slot.state.store(IDLE, Ordering::Release);
                    return;
                }
                // Fairness hand-back; the executor (or a thief) picks
                // it up again from the injector.
                slot.state.store(QUEUED, Ordering::Release);
                push_lane(&plane, lane);
                return;
            }
            Step::Parked => {
                slot.state.store(IDLE, Ordering::Release);
                // Re-probe *after* publishing IDLE: if input raced in
                // while we were deciding to park, reclaim ourselves —
                // whoever wins the CAS owns the lane.
                if (slot.gen_done.load(Ordering::Acquire)
                    || slot.probe.as_ref().is_some_and(|p| !p.is_empty()))
                    && slot
                        .state
                        .compare_exchange(IDLE, RUNNING, Ordering::Acquire, Ordering::Relaxed)
                        .is_ok()
                {
                    continue;
                }
                return;
            }
        }
    }
}

/// An executor: pop runnable lanes from its own injector, steal from
/// peers' injectors when dry, spin-then-yield when everything is dry.
fn executor<S: Service>(plane: Shared<'_, S>, idx: usize) {
    let lanes = plane.slots.len();
    let nq = plane.queues.len();
    let mut spins = 0u32;
    while !plane.abort.load(Ordering::Relaxed) && plane.done.load(Ordering::Acquire) < lanes {
        // Own injector first; then the steal sweep over peers.
        let claimed = (0..nq).find_map(|k| plane.queues[(idx + k) % nq].pop());
        match claimed {
            Some(lane) => {
                spins = 0;
                run_lane(plane, lane);
            }
            None => {
                spins += 1;
                if spins < 64 {
                    std::hint::spin_loop();
                } else {
                    thread::yield_now();
                }
            }
        }
    }
}

/// Where the generator gets a lane's arrival schedule from.
enum GenSource {
    /// Live/record: the seeded RNG stream — the identical stateful
    /// stream the reference loop draws its pre-schedule from.
    Draw { rng: SplitMix64, stream: PhasedStream, t: Ns },
    /// Replay: the recorded schedule, read straight from the trace.
    Log { log: Arc<Vec<LaneLog>>, at: usize },
}

/// The generator's per-lane stream state.
struct GenLane {
    lane: u32,
    source: GenSource,
    remaining: u32,
    tx: SpscProducer<Arrival>,
    staged: Vec<Arrival>,
    staged_at: usize,
    done_sent: bool,
}

/// The open-loop workload generator: round-robin over lanes, staging
/// [`GEN_BATCH`] arrivals at a time and batch-pushing them into each
/// lane's ring; sets the lane's `gen_done` flag after its last push
/// and then keeps nudging undone lanes (the liveness net).
fn generator<S>(plane: Shared<'_, S>, mut gens: Vec<GenLane>, rate_mps: u64) {
    while !plane.abort.load(Ordering::Relaxed) {
        let mut live = false;
        for gl in &mut gens {
            if gl.done_sent {
                continue;
            }
            if gl.staged_at == gl.staged.len() && gl.remaining > 0 {
                gl.staged.clear();
                gl.staged_at = 0;
                let n = (gl.remaining as usize).min(GEN_BATCH);
                match &mut gl.source {
                    GenSource::Draw { rng, stream, t } => {
                        for _ in 0..n {
                            // Exact reference draw order: gap, then
                            // session.
                            *t += exp_gap_ns(rng, rate_mps);
                            let session = stream.next(*t, rng);
                            gl.staged.push(Arrival { at: *t, session });
                        }
                    }
                    GenSource::Log { log, at } => {
                        // Bounds are pre-validated by `TraceStream`:
                        // each lane's log holds exactly the configured
                        // quota.
                        let lane = &log[gl.lane as usize];
                        for &(at_ns, session) in &lane.arrivals[*at..*at + n] {
                            gl.staged.push(Arrival { at: at_ns, session });
                        }
                        *at += n;
                    }
                }
                gl.remaining -= n as u32;
            }
            gl.staged_at += gl.tx.push_slice(&gl.staged[gl.staged_at..]);
            if gl.remaining == 0 && gl.staged_at == gl.staged.len() {
                plane.slots[gl.lane as usize].gen_done.store(true, Ordering::Release);
                gl.done_sent = true;
            } else {
                live = true;
            }
            // Unconditional wake attempt: covers both fresh pushes and
            // a ring left full while the lane sat parked.
            wake(&plane, gl.lane);
        }
        if !live {
            break;
        }
    }
    // Liveness net: no lane with input may stay parked, whatever wake
    // was lost to a park race — keep nudging until every lane retires.
    while !plane.abort.load(Ordering::Relaxed) && plane.done.load(Ordering::Acquire) < plane.slots.len() {
        for (i, slot) in plane.slots.iter().enumerate() {
            if slot.state.load(Ordering::Acquire) != DONE {
                wake(&plane, i as u32);
            }
        }
        thread::yield_now();
    }
}

/// Executor threads to drive `cfg` with: the explicit knob, or one per
/// lane capped by the machine's parallelism (minus one for the
/// generator), never more than the lane count.
fn effective_executors(cfg: &TrafficConfig) -> usize {
    let req = if cfg.executors > 0 {
        cfg.executors as usize
    } else {
        thread::available_parallelism().map(|n| n.get()).unwrap_or(2).saturating_sub(1).max(1)
    };
    req.clamp(1, cfg.workers as usize)
}

fn build_core<S: Service>(
    cfg: &TrafficConfig,
    idx: u32,
    svc: S,
    zipfs: &[Arc<Zipf>],
    rx: Option<SpscConsumer<Arrival>>,
    tap: Tap,
) -> LaneCore<S> {
    let mut w = Worker::new(cfg, idx, svc, zipfs, tap);
    let mut eng = Engine::default();
    match cfg.scenario {
        Scenario::OpenLoop { .. } => w.mark_open_loop_issued(),
        Scenario::ClosedLoop { clients, .. } => {
            for _ in 0..clients.max(1) {
                eng.schedule(0, Ev::Request);
            }
        }
    }
    LaneCore {
        w,
        eng,
        rx,
        pending: Vec::with_capacity(ARRIVAL_BATCH),
        pend_at: 0,
        frontier: 0,
        gen_done_seen: false,
        dispatched: 0,
        budget: cfg.event_budget(),
    }
}

/// Run `cfg` on the dispatch plane (see the module docs) under `mode`:
/// `Record` taps every lane, `Replay` feeds the generator from the
/// recorded schedule and the lanes from the recorded fates.  The
/// report is bit-identical to both seed planes for every configuration
/// and executor count.
pub(crate) fn run_dispatch_mode<S, F>(
    cfg: &TrafficConfig,
    make: F,
    mode: Mode,
) -> Result<RunOut, Overrun>
where
    S: Service + Send,
    F: Fn(u32) -> S + Sync,
{
    assert!(cfg.workers >= 1, "need at least one worker");
    let lanes = cfg.workers as usize;
    let zipfs = make_zipfs(cfg);
    let open_rate = match cfg.scenario {
        Scenario::OpenLoop { rate_mps } => Some(rate_mps),
        Scenario::ClosedLoop { .. } => None,
    };

    // One SPSC ring per lane in the open loop; closed-loop lanes are
    // self-driving.
    let mut gens: Vec<GenLane> = Vec::new();
    let mut rxs: Vec<Option<SpscConsumer<Arrival>>> = Vec::with_capacity(lanes);
    if let Some(_rate) = open_rate {
        for i in 0..lanes {
            let (tx, rx) = spsc::<Arrival>(LANE_RING_CAP);
            gens.push(GenLane {
                lane: i as u32,
                source: match mode.replay_log() {
                    Some(log) => GenSource::Log { log: Arc::clone(log), at: 0 },
                    None => GenSource::Draw {
                        rng: lane_streams(cfg.seed, i as u32).0,
                        stream: lane_stream(cfg, i as u32, &zipfs),
                        t: 0,
                    },
                },
                remaining: cfg.messages_per_worker,
                tx,
                staged: Vec::with_capacity(GEN_BATCH),
                staged_at: 0,
                done_sent: false,
            });
            rxs.push(Some(rx));
        }
    } else {
        rxs.resize_with(lanes, || None);
    }

    // Build lane pipelines — service construction can be expensive
    // (episode replay), so parallelize it exactly like the reference's
    // per-worker threads.
    let cores: Vec<LaneCore<S>> = if lanes == 1 {
        vec![build_core(cfg, 0, make(0), &zipfs, rxs.pop().flatten(), mode.tap(0))]
    } else {
        let make = &make;
        let zipfs_ref = &zipfs;
        let mode_ref = &mode;
        thread::scope(|s| {
            let handles: Vec<_> = rxs
                .into_iter()
                .enumerate()
                .map(|(i, rx)| {
                    s.spawn(move || {
                        build_core(cfg, i as u32, make(i as u32), zipfs_ref, rx, mode_ref.tap(i as u32))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("lane setup panicked")).collect()
        })
    };

    let slots: Vec<LaneSlot<S>> = cores
        .into_iter()
        .map(|core| LaneSlot {
            state: AtomicU32::new(QUEUED),
            gen_done: AtomicBool::new(open_rate.is_none()),
            probe: core.rx.as_ref().map(|rx| rx.probe()),
            core: UnsafeCell::new(core),
        })
        .collect();

    let n_exec = effective_executors(cfg);
    let queues: Vec<MpscRing<u32>> =
        (0..n_exec).map(|_| MpscRing::new(lanes.next_power_of_two().max(2))).collect();
    let abort = AtomicBool::new(false);
    let done = AtomicUsize::new(0);
    let error = Mutex::new(None);
    let plane = Shared { slots: &slots, queues: &queues, abort: &abort, done: &done, error: &error };

    // Every lane starts QUEUED on its home injector.
    for i in 0..lanes {
        push_lane(&plane, i as u32);
    }

    thread::scope(|s| {
        for idx in 0..n_exec {
            s.spawn(move || executor(plane, idx));
        }
        if let Some(rate) = open_rate {
            s.spawn(move || generator(plane, gens, rate));
        }
    });

    if let Some(e) = error.into_inner().expect("error mutex poisoned") {
        return Err(e);
    }
    let outs = slots.into_iter().map(|slot| slot.core.into_inner().w.finish()).collect();
    Ok(collect(outs, cfg, &mode))
}
