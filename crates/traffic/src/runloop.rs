//! The multi-worker serving loop.
//!
//! A run partitions sessions across *lanes* (logical workers); each
//! lane owns its full serving pipeline — a [`netsim::Engine`] event
//! queue, a seeded [`FaultInjector`], a sharded [`SessionTable`] and a
//! [`Service`] (normally the machine-model [`ReplayService`]) — and
//! replays its share of the workload independently.  Lanes share
//! *nothing* mutable, and every lane's randomness is derived from
//! `(seed, lane index)`, so a run is bit-reproducible for a fixed seed
//! and lane count regardless of thread scheduling; per-lane histograms
//! and counters merge in lane-index order at the end.
//!
//! [`Run`](crate::Run) executes the identical lane code on one of
//! three [`Plane`](crate::Plane)s:
//!
//! * the **dispatch plane** ([`crate::dispatch`], the default) — a
//!   workload-generator thread feeds each lane through a bounded
//!   lock-free SPSC ring, executor threads claim runnable lanes from
//!   MPSC injector rings and *steal* from peers' injectors when their
//!   own runs dry;
//! * the **seed FIFO** ([`reference`]) — one thread per lane
//!   pre-schedules the whole arrival schedule into the lane's engine
//!   and drains it single-threadedly, on the timing wheel or on the
//!   seed binary heap.
//!
//! All three must produce bit-identical [`TrafficReport`]s; the suite
//! in `traffic/tests/dispatch_equivalence.rs` pins that down across
//! executor counts (the same twin pattern as the engine/layout/machine
//! reference models).
//!
//! Message lifecycle inside a lane:
//!
//! ```text
//! arrival ──▶ injector ──▶ demux (session table) ──▶ service ──▶ done
//!               │ drop/corrupt: retransmit at +RTO (latency accrues)
//!               │ reorder:      redelivery at +150 µs
//!               └ duplicate:    extra serve at +30 µs (not recorded)
//! ```
//!
//! The server is a single queue per lane: a message begins service at
//! `max(arrival, server idle)`, which is what turns offered load into
//! queueing delay and queueing delay into the latency tail the
//! histogram captures.  Runs are guarded by an event budget, so a
//! pathological configuration (e.g. 100% drop, which retransmits
//! forever) terminates with an [`Overrun`] diagnostic.
//!
//! Retransmission is timer-driven: every send arms a cancellable RTO
//! timer ([`EventQueue::schedule_cancellable`]); a successful delivery
//! (or reorder/duplicate redirection) supersedes the timer with an O(1)
//! [`EventQueue::cancel`], while a drop or FCS-discarded corruption
//! leaves it armed — the timer firing *is* the retransmission.  The
//! lane code is generic over [`EventQueue`], so the timing wheel and
//! the seed binary heap run identically.

use std::sync::Arc;
use std::thread;

use netsim::rng::SplitMix64;
use netsim::{EventQueue, Fate, FaultInjector, FaultStats, Ns, Overrun};
use xkernel::map::LookupKind;

use crate::capture::{collect, LaneLog, Mode, RunOut, Tap};
use crate::hist::LatencyHistogram;
use crate::policy::PolicyKind;
use crate::service::{Service, ServiceStats};
use crate::session::{buckets_for_capacity, conflict_cycle, DemuxKey, SessionTable, TableStats};
use crate::wire::{WireLane, WirePath, WireStats};
use crate::workload::{exp_gap_ns, PhasePlan, PhasedStream, RefStream, Scenario, StreamKind, Zipf};

/// Demux cost of a one-entry-cache hit (the paper's inlined fast-path
/// compare: a handful of instructions).
pub const DEMUX_CACHE_HIT_NS: Ns = 60;
/// Demux cost of a hash-chain hit (full `mapResolve`).
pub const DEMUX_CHAIN_HIT_NS: Ns = 380;
/// Extra cost of a table miss: session state must be faulted in and
/// bound before processing (connection-setup path).
pub const SESSION_SETUP_NS: Ns = 11_000;
/// Retransmission timeout after a drop or FCS-detected corruption.
pub const RTO_NS: Ns = 2_000_000;
/// Redelivery delay for a reordered message.
pub const REORDER_DELAY_NS: Ns = 150_000;
/// Arrival lag of a duplicated copy.
pub const DUPLICATE_DELAY_NS: Ns = 30_000;

/// A complete traffic run configuration.  All-integer fields
/// (probabilities in parts-per-million, Zipf skew in milli-units) so a
/// configuration is `Copy + Eq + Hash` and can key memo caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TrafficConfig {
    pub scenario: Scenario,
    /// Messages each worker must complete.
    pub messages_per_worker: u32,
    /// Session population per worker (workers own disjoint global ids).
    pub sessions: u32,
    /// Session-table shards per worker (power of two).
    pub shards: u32,
    /// Resident sessions per shard before eviction (ignored when
    /// `shard_budget_bytes` is set).
    pub shard_capacity: u32,
    /// Per-shard session-table *memory* budget in bytes; 0 means use
    /// `shard_capacity` directly.  When set, residency capacity is
    /// `SessionTable::capacity_for_budget` and the bucket count scales
    /// with it.
    pub shard_budget_bytes: u32,
    /// Zipf skew θ × 1000 for session selection.
    pub milli_theta: u32,
    pub workers: u32,
    /// Executor threads driving the dispatch plane; 0 = one per lane
    /// capped by available parallelism.  Does not affect results — only
    /// where lanes execute.
    pub executors: u32,
    pub seed: u64,
    /// Fault probabilities, parts per million.
    pub drop_ppm: u32,
    pub corrupt_ppm: u32,
    pub reorder_ppm: u32,
    pub duplicate_ppm: u32,
    /// Wire data-plane representation: descriptor-only (seed
    /// behaviour), zero-copy pooled bytes, or the copy-heavy reference
    /// codec.  Must not change a bit of the latency report — only the
    /// `wire` counters and the real (wall-clock) per-message cost.
    pub wire: WirePath,
    /// Wire-shape fault probabilities, parts per million: frames cut
    /// short, headers mangled, unexpected IP fragments.  The fates are
    /// drawn in every mode (so paths stay bit-comparable); wire modes
    /// additionally re-encode the broken variant and push it through
    /// the real parser.
    pub truncate_ppm: u32,
    pub malform_ppm: u32,
    pub fragment_ppm: u32,
    /// Per-shard demux address-cache policy.
    pub policy: PolicyKind,
    /// Locality structure of the per-lane reference stream.
    pub stream: StreamKind,
    /// Optional phase-shifting schedule.  When non-empty it overrides
    /// `stream`/`milli_theta` per simulated-time phase; when empty the
    /// run is bit-identical to a build without phasing.
    pub phases: PhasePlan,
}

impl TrafficConfig {
    /// Open-loop (Poisson) workload at `rate_mps` messages/second per
    /// worker.
    pub fn open_loop(rate_mps: u64, messages_per_worker: u32, sessions: u32) -> Self {
        TrafficConfig {
            scenario: Scenario::OpenLoop { rate_mps },
            messages_per_worker,
            sessions,
            shards: 8,
            shard_capacity: 24,
            shard_budget_bytes: 0,
            milli_theta: 900,
            workers: 1,
            executors: 0,
            seed: 1,
            drop_ppm: 0,
            corrupt_ppm: 0,
            reorder_ppm: 0,
            duplicate_ppm: 0,
            wire: WirePath::Descriptor,
            truncate_ppm: 0,
            malform_ppm: 0,
            fragment_ppm: 0,
            policy: PolicyKind::OneEntry,
            stream: StreamKind::Zipf,
            phases: PhasePlan::none(),
        }
    }

    /// Closed-loop workload: `clients` clients per worker, each with one
    /// request in flight and `think_ns` between response and next
    /// request.
    pub fn closed_loop(clients: u32, think_ns: u64, messages_per_worker: u32, sessions: u32) -> Self {
        TrafficConfig {
            scenario: Scenario::ClosedLoop { clients, think_ns },
            ..Self::open_loop(1, messages_per_worker, sessions)
        }
    }

    pub fn with_workers(mut self, workers: u32) -> Self {
        assert!(workers >= 1);
        self.workers = workers;
        self
    }

    /// Pin the dispatch plane's executor-thread count (0 = auto).  Any
    /// value must yield bit-identical reports; only wall-clock changes.
    pub fn with_executors(mut self, executors: u32) -> Self {
        self.executors = executors;
        self
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub fn with_shards(mut self, shards: u32, shard_capacity: u32) -> Self {
        assert!(shards.is_power_of_two());
        self.shards = shards;
        self.shard_capacity = shard_capacity;
        self
    }

    /// Bound each session-table shard by memory instead of entry count.
    pub fn with_shard_budget(mut self, shards: u32, bytes_per_shard: u32) -> Self {
        assert!(shards.is_power_of_two());
        assert!(bytes_per_shard > 0);
        self.shards = shards;
        self.shard_budget_bytes = bytes_per_shard;
        self
    }

    pub fn with_theta(mut self, milli_theta: u32) -> Self {
        self.milli_theta = milli_theta;
        self
    }

    /// Select the per-shard demux address-cache policy.
    pub fn with_policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// Select the reference-stream locality structure.
    pub fn with_stream(mut self, stream: StreamKind) -> Self {
        self.stream = stream;
        self
    }

    /// Install a phase-shifting schedule (see [`PhasePlan`]).
    pub fn with_phases(mut self, phases: PhasePlan) -> Self {
        self.phases = phases;
        self
    }

    /// Set all four fault probabilities, parts per million.
    pub fn with_faults(mut self, drop: u32, corrupt: u32, reorder: u32, duplicate: u32) -> Self {
        self.drop_ppm = drop;
        self.corrupt_ppm = corrupt;
        self.reorder_ppm = reorder;
        self.duplicate_ppm = duplicate;
        self
    }

    /// Select the wire data-plane representation.
    pub fn with_wire(mut self, wire: WirePath) -> Self {
        self.wire = wire;
        self
    }

    /// Set the three wire-shape fault probabilities, parts per million.
    pub fn with_wire_faults(mut self, truncate: u32, malform: u32, fragment: u32) -> Self {
        self.truncate_ppm = truncate;
        self.malform_ppm = malform;
        self.fragment_ppm = fragment;
        self
    }

    /// Sessions resident per shard under this configuration.
    pub fn effective_shard_capacity(&self) -> usize {
        if self.shard_budget_bytes > 0 {
            SessionTable::<u32>::capacity_for_budget(self.shard_budget_bytes as usize)
        } else {
            self.shard_capacity as usize
        }
    }

    /// The per-lane event budget: a healthy run needs a small constant
    /// number of events per message; 64× is far beyond any
    /// non-pathological fault mix.
    pub(crate) fn event_budget(&self) -> u64 {
        (self.messages_per_worker as u64).saturating_mul(64).max(1 << 16)
    }
}

/// Merged result of a traffic run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrafficReport {
    /// End-to-end message latency (born → served), nanoseconds.
    pub hist: LatencyHistogram,
    /// Messages completed and recorded.
    pub completed: u64,
    /// Simulated duration: the latest completion across workers.
    pub sim_ns: Ns,
    pub workers: u32,
    /// Retransmissions triggered by drops/corruptions.
    pub retransmits: u64,
    /// Duplicate copies that consumed service time.
    pub duplicates_served: u64,
    pub faults: FaultStats,
    pub table: TableStats,
    pub service: ServiceStats,
    /// Byte-path counters (all zero in descriptor mode).
    pub wire: WireStats,
    /// Per-phase latency histograms (all recorded completions, keyed by
    /// the arrival's *born* instant).  Empty unless the configuration
    /// carries a [`PhasePlan`].
    pub phase_hists: Vec<LatencyHistogram>,
    /// Per-phase steady-state histograms: completions born at least the
    /// phase's `settle_ns` past its start.  Empty without a plan.
    pub phase_steady: Vec<LatencyHistogram>,
}

impl TrafficReport {
    /// Serving throughput in simulated messages per second.
    pub fn msgs_per_sec(&self) -> f64 {
        if self.sim_ns == 0 {
            0.0
        } else {
            self.completed as f64 * 1e9 / self.sim_ns as f64
        }
    }

    pub(crate) fn from_workers(outs: Vec<WorkerOut>, workers: u32) -> Self {
        let mut r = TrafficReport {
            hist: LatencyHistogram::new(),
            completed: 0,
            sim_ns: 0,
            workers,
            retransmits: 0,
            duplicates_served: 0,
            faults: FaultStats::default(),
            table: TableStats::default(),
            service: ServiceStats::default(),
            wire: WireStats::default(),
            phase_hists: Vec::new(),
            phase_steady: Vec::new(),
        };
        for o in &outs {
            r.hist.merge(&o.hist);
            r.completed += o.completed;
            r.sim_ns = r.sim_ns.max(o.end_ns);
            r.retransmits += o.retransmits;
            r.duplicates_served += o.duplicates_served;
            r.faults.merge(&o.faults);
            r.table.merge(&o.table);
            r.service.merge(&o.service);
            r.wire.merge(&o.wire);
            merge_phase_hists(&mut r.phase_hists, &o.phase_full);
            merge_phase_hists(&mut r.phase_steady, &o.phase_steady);
        }
        r
    }
}

/// Element-wise merge of per-lane phase histogram vectors (all lanes of
/// one run share the plan, so lengths agree; lanes without phases
/// contribute nothing).
fn merge_phase_hists(into: &mut Vec<LatencyHistogram>, from: &[LatencyHistogram]) {
    if into.len() < from.len() {
        into.resize_with(from.len(), LatencyHistogram::new);
    }
    for (dst, src) in into.iter_mut().zip(from) {
        dst.merge(src);
    }
}

/// One lane's mergeable output (plain data — crosses thread joins).
pub(crate) struct WorkerOut {
    pub(crate) hist: LatencyHistogram,
    pub(crate) completed: u64,
    pub(crate) end_ns: Ns,
    pub(crate) retransmits: u64,
    pub(crate) duplicates_served: u64,
    pub(crate) faults: FaultStats,
    pub(crate) table: TableStats,
    pub(crate) service: ServiceStats,
    pub(crate) wire: WireStats,
    pub(crate) phase_full: Vec<LatencyHistogram>,
    pub(crate) phase_steady: Vec<LatencyHistogram>,
    /// The lane's recorded decisions (empty unless recording).
    pub(crate) log: LaneLog,
    /// First replay divergence, if any (always `None` outside replay).
    pub(crate) diverged: Option<String>,
}

/// Lane-local events.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Ev {
    /// A closed-loop client slot issues its next message.
    Request,
    /// A fresh message reaches the injector.
    Arrive { session: u32, born: Ns },
    /// The retransmission timer fires: the message re-enters the
    /// injector.  Distinct from [`Ev::Arrive`] so the trace tap can
    /// tell fresh workload arrivals from derived retransmissions; the
    /// handler path is identical.
    Rto { session: u32, born: Ns },
    /// A message reaches the server directly (reordered redelivery or
    /// duplicate copy), bypassing the injector.
    Deliver { session: u32, born: Ns, record: bool },
}

/// The two seeded per-lane streams, both pure functions of
/// `(seed, lane index)`: the workload RNG and the fault-injector seed.
/// The dispatch plane's generator thread reconstructs the identical
/// workload stream from here, which is what keeps it bit-identical to
/// the seed FIFO.
pub(crate) fn lane_streams(seed: u64, worker_idx: u32) -> (SplitMix64, u64) {
    let mut seeder = SplitMix64::new(seed ^ ((worker_idx as u64 + 1) << 32));
    let rng = SplitMix64::new(seeder.next_u64());
    let inj_seed = seeder.next_u64();
    (rng, inj_seed)
}

/// One phase's reference stream over its Zipf population.  For the
/// adversarial conflict kind this precomputes the rank cycle that
/// collides in this worker's shard/cache-slot space.
fn phase_ref_stream(
    cfg: &TrafficConfig,
    worker_idx: u32,
    kind: StreamKind,
    zipf: Arc<Zipf>,
) -> RefStream {
    let cycle_ranks = match kind {
        StreamKind::Conflict { slots, cycle } => {
            conflict_cycle(cfg.sessions, cfg.workers, worker_idx, cfg.shards, slots, cycle)
        }
        _ => Vec::new(),
    };
    RefStream::new(kind, zipf, cycle_ranks)
}

/// The lane's (possibly phase-shifting) reference stream.  `zipfs` is
/// [`make_zipfs`]' per-phase sampler vector; without a plan this is the
/// degenerate single stream, bit-identical to the unphased build.
pub(crate) fn lane_stream(cfg: &TrafficConfig, worker_idx: u32, zipfs: &[Arc<Zipf>]) -> PhasedStream {
    if cfg.phases.is_empty() {
        PhasedStream::single(phase_ref_stream(cfg, worker_idx, cfg.stream, Arc::clone(&zipfs[0])))
    } else {
        let streams = cfg
            .phases
            .iter()
            .zip(zipfs)
            .map(|(p, z)| phase_ref_stream(cfg, worker_idx, p.stream, Arc::clone(z)))
            .collect();
        PhasedStream::new(streams, cfg.phases.starts())
    }
}

pub(crate) struct Worker<S> {
    svc: S,
    table: SessionTable<u32>,
    pub(crate) stream: PhasedStream,
    pub(crate) rng: SplitMix64,
    inj: FaultInjector,
    /// Wire data-plane state (inert in descriptor mode).
    wire: WireLane,
    hist: LatencyHistogram,
    /// Phase bookkeeping — all empty without a [`PhasePlan`], so the
    /// unphased hot path pays one `is_empty` branch per completion.
    phase_starts: Vec<Ns>,
    /// Absolute settle threshold per phase (start + settle window).
    phase_settled: Vec<Ns>,
    phase_full: Vec<LatencyHistogram>,
    phase_steady: Vec<LatencyHistogram>,
    /// When the (single-queue) server frees up.
    idle_at: Ns,
    end_ns: Ns,
    completed: u64,
    issued: u32,
    quota: u32,
    retransmits: u64,
    duplicates_served: u64,
    worker_idx: u32,
    workers: u32,
    closed_loop: bool,
    think_ns: Ns,
    /// Trace endpoint: off, recording decisions, or replaying them.
    tap: Tap,
}

impl<S: Service> Worker<S> {
    pub(crate) fn new(
        cfg: &TrafficConfig,
        worker_idx: u32,
        svc: S,
        zipfs: &[Arc<Zipf>],
        tap: Tap,
    ) -> Self {
        let (rng, inj_seed) = lane_streams(cfg.seed, worker_idx);
        let inj = FaultInjector::new(
            cfg.drop_ppm as f64 / 1e6,
            cfg.corrupt_ppm as f64 / 1e6,
            inj_seed,
        )
        .with_reorder(cfg.reorder_ppm as f64 / 1e6)
        .with_duplicate(cfg.duplicate_ppm as f64 / 1e6)
        .with_truncate(cfg.truncate_ppm as f64 / 1e6)
        .with_malform(cfg.malform_ppm as f64 / 1e6)
        .with_fragment(cfg.fragment_ppm as f64 / 1e6);
        let (closed_loop, think_ns) = match cfg.scenario {
            Scenario::ClosedLoop { think_ns, .. } => (true, think_ns),
            Scenario::OpenLoop { .. } => (false, 0),
        };
        let capacity = cfg.effective_shard_capacity();
        // The table seed only feeds random-replacement caches; any
        // per-worker-distinct derivation works (it is mixed per shard).
        let table_seed = cfg.seed ^ ((worker_idx as u64 + 1) << 16);
        let phase_starts = if cfg.phases.is_empty() { Vec::new() } else { cfg.phases.starts() };
        let phase_settled: Vec<Ns> = phase_starts
            .iter()
            .zip(cfg.phases.iter())
            .map(|(&s, p)| s.saturating_add(p.settle_ns))
            .collect();
        let n_phases = phase_starts.len();
        Worker {
            svc,
            table: SessionTable::with_policy(
                cfg.shards as usize,
                capacity,
                buckets_for_capacity(capacity),
                cfg.policy,
                table_seed,
            ),
            stream: lane_stream(cfg, worker_idx, zipfs),
            rng,
            inj,
            wire: WireLane::new(cfg.wire, worker_idx, cfg.workers),
            hist: LatencyHistogram::new(),
            phase_starts,
            phase_settled,
            phase_full: (0..n_phases).map(|_| LatencyHistogram::new()).collect(),
            phase_steady: (0..n_phases).map(|_| LatencyHistogram::new()).collect(),
            idle_at: 0,
            end_ns: 0,
            completed: 0,
            issued: 0,
            quota: cfg.messages_per_worker,
            retransmits: 0,
            duplicates_served: 0,
            worker_idx,
            workers: cfg.workers,
            closed_loop,
            think_ns,
            tap,
        }
    }

    /// Open-loop lanes receive their whole quota from the generator;
    /// mark it issued so stray `Ev::Request`s are inert, exactly as the
    /// seed FIFO does after pre-scheduling.
    pub(crate) fn mark_open_loop_issued(&mut self) {
        self.issued = self.quota;
    }

    /// Globally unique session id for this worker's Zipf rank (workers
    /// own disjoint session populations).
    fn global_session(&self, rank: u32) -> u64 {
        rank as u64 * self.workers as u64 + self.worker_idx as u64
    }

    pub(crate) fn handle<Q: EventQueue<Ev>>(&mut self, eng: &mut Q, t: Ns, ev: Ev) {
        match ev {
            Ev::Request => {
                if self.issued < self.quota {
                    self.issued += 1;
                    // Replay substitutes the recorded draw for the
                    // workload stream; the RNG is never consulted.
                    let session = match &mut self.tap {
                        Tap::Replay(r) => r.next_arrival(t),
                        _ => self.stream.next(t, &mut self.rng),
                    };
                    if let Tap::Record(rec) = &mut self.tap {
                        rec.arrivals.push((t, session));
                    }
                    self.arrive(eng, t, session, t);
                }
            }
            Ev::Arrive { session, born } => {
                match &mut self.tap {
                    Tap::Record(rec) => rec.arrivals.push((t, session)),
                    // The open-loop source injected this arrival from
                    // the log; the cursor re-validates it in handling
                    // order.
                    Tap::Replay(r) => r.check_arrival(t, session),
                    Tap::Off => {}
                }
                self.arrive(eng, t, session, born)
            }
            Ev::Rto { session, born } => {
                match &mut self.tap {
                    Tap::Record(rec) => rec.rtos.push((t, session, born)),
                    Tap::Replay(r) => r.check_rto(t, session, born),
                    Tap::Off => {}
                }
                self.arrive(eng, t, session, born)
            }
            Ev::Deliver { session, born, record } => self.deliver(eng, t, session, born, record),
        }
    }

    fn arrive<Q: EventQueue<Ev>>(&mut self, eng: &mut Q, t: Ns, session: u32, born: Ns) {
        // The client arms its retransmission timer the moment it sends;
        // whatever reaches the server in time supersedes it.
        let rto = eng.schedule_cancellable(t + RTO_NS, Ev::Rto { session, born });
        // Wire mode: the message exists as real TCP/IP bytes in a
        // pooled buffer before it meets the injector (no-op otherwise).
        let gs = self.global_session(session);
        self.wire.encode(gs, session, born);
        let fate = match &mut self.tap {
            // Replay substitutes the recorded fate and updates the
            // injector's counters without consuming its RNG.
            Tap::Replay(r) => {
                let f = r.next_fate();
                self.inj.apply(f);
                f
            }
            tap => {
                let f = match self.wire.frame_mut() {
                    // Wire mode: the injector scribbles on the real
                    // frame.  The draw sequence is identical either way
                    // (one draw per enabled fate; the corrupt index is
                    // a single length-independent draw).
                    Some(frame) => self.inj.process(frame),
                    // The injector only needs frame bytes for
                    // corruption; a minimum Ethernet frame stands in
                    // for the request.
                    None => self.inj.process(&mut [0u8; 64]),
                };
                if let Tap::Record(rec) = tap {
                    rec.fates.push(f);
                }
                f
            }
        };
        // Wire mode: what arrives is whatever the byte-level demux
        // parses back out of the frame — the session rank is re-derived
        // from the wire 4-tuple, not trusted from the generator.
        let session = self.wire.resolve(fate).unwrap_or(session);
        match fate {
            Fate::Delivered => {
                eng.cancel(rto);
                self.deliver(eng, t, session, born, true);
            }
            Fate::Dropped | Fate::Corrupted => {
                // Lost on the wire (corruption is caught by the FCS and
                // discarded): the armed timer fires at t + RTO and *is*
                // the retransmission — the full wait shows up in the
                // recorded latency.
                self.retransmits += 1;
            }
            Fate::Truncated | Fate::Malformed | Fate::Fragmented => {
                // The frame arrives undecodable — cut short, mangled
                // header, or a fragment this plane cannot reassemble.
                // The receiver discards it exactly like an FCS failure
                // (the wire path has already counted the typed decode
                // error); the armed timer is the retransmission.
                self.retransmits += 1;
            }
            Fate::Reordered => {
                eng.cancel(rto);
                eng.schedule(t + REORDER_DELAY_NS, Ev::Deliver { session, born, record: true });
            }
            Fate::Duplicated => {
                eng.cancel(rto);
                self.deliver(eng, t, session, born, true);
                // The copy burns server capacity but its completion is
                // not a response anyone is waiting on.
                eng.schedule(t + DUPLICATE_DELAY_NS, Ev::Deliver { session, born, record: false });
            }
        }
    }

    fn deliver<Q: EventQueue<Ev>>(&mut self, eng: &mut Q, t: Ns, session: u32, born: Ns, record: bool) {
        let key = DemuxKey::for_session(self.global_session(session));
        let (state, kind) = self.table.lookup(&key);
        let demux_ns = match kind {
            LookupKind::CacheHit => DEMUX_CACHE_HIT_NS,
            LookupKind::ChainHit => DEMUX_CHAIN_HIT_NS,
            LookupKind::Miss => DEMUX_CHAIN_HIT_NS + SESSION_SETUP_NS,
        };
        if state.is_none() {
            self.table.insert(key, session);
        }
        // Service begins once the (single-queue) server drains to this
        // message; that instant — not the arrival — anchors adaptive
        // epoch transitions, so compute it before serving.
        let start = t.max(self.idle_at);
        let service_ns = self.svc.serve(kind, start);
        let done = start + demux_ns + service_ns;
        self.idle_at = done;
        self.end_ns = self.end_ns.max(done);
        if record {
            self.hist.record(done - born);
            if !self.phase_starts.is_empty() {
                // Attribute by *born* instant: a completion belongs to
                // the phase that generated its arrival, even when
                // queueing delays push `done` past the boundary.
                let i = self.phase_starts.partition_point(|&s| s <= born) - 1;
                self.phase_full[i].record(done - born);
                if born >= self.phase_settled[i] {
                    self.phase_steady[i].record(done - born);
                }
            }
            self.completed += 1;
            if self.closed_loop {
                // The response releases the client, which thinks and
                // then issues its next request.
                eng.schedule(done + self.think_ns, Ev::Request);
            }
        } else {
            self.duplicates_served += 1;
        }
    }

    pub(crate) fn finish(self) -> WorkerOut {
        let (log, diverged) = match self.tap {
            Tap::Off => (LaneLog::default(), None),
            Tap::Record(log) => (log, None),
            Tap::Replay(r) => (LaneLog::default(), r.finish()),
        };
        WorkerOut {
            table: self.table.stats(),
            service: self.svc.stats(),
            wire: self.wire.finish(),
            hist: self.hist,
            completed: self.completed,
            end_ns: self.end_ns,
            retransmits: self.retransmits,
            duplicates_served: self.duplicates_served,
            faults: self.inj.stats,
            phase_full: self.phase_full,
            phase_steady: self.phase_steady,
            log,
            diverged,
        }
    }
}

/// The shared per-phase Zipf samplers every lane of `cfg` uses
/// (identical for all lanes: same population size, per-phase skew).
/// Without a [`PhasePlan`] this is the single base sampler.
pub(crate) fn make_zipfs(cfg: &TrafficConfig) -> Vec<Arc<Zipf>> {
    let n = cfg.sessions.max(1) as usize;
    if cfg.phases.is_empty() {
        vec![Arc::new(Zipf::new(n, cfg.milli_theta))]
    } else {
        cfg.phases.iter().map(|p| Arc::new(Zipf::new(n, p.milli_theta))).collect()
    }
}

/// The seed execution: one thread per lane, the whole arrival schedule
/// pre-scheduled into the lane's engine, drained single-threadedly.
/// This is the behavioural reference the dispatch plane must match
/// bit-for-bit ([`Plane::SeedFifo`](crate::Plane) on the timing wheel,
/// [`Plane::SeedHeap`](crate::Plane) on the seed binary heap).
pub(crate) mod reference {
    use super::*;

    pub(crate) fn run_worker<S, Q>(
        cfg: &TrafficConfig,
        worker_idx: u32,
        svc: S,
        zipfs: &[Arc<Zipf>],
        mode: &Mode,
    ) -> Result<WorkerOut, Overrun>
    where
        S: Service,
        Q: EventQueue<Ev> + Default,
    {
        let mut w = Worker::new(cfg, worker_idx, svc, zipfs, mode.tap(worker_idx));
        let mut eng = Q::default();
        match cfg.scenario {
            Scenario::OpenLoop { rate_mps } => {
                // Open loop: all arrivals are drawn up front — the
                // offered schedule does not react to service progress,
                // which is the discipline that exposes queueing tails.
                if let Some(log) = mode.replay_log() {
                    // Replay: the recorded schedule *is* the workload;
                    // the RNG draws below are never made.
                    for &(at, session) in &log[worker_idx as usize].arrivals {
                        eng.schedule(at, Ev::Arrive { session, born: at });
                    }
                } else {
                    let mut t: Ns = 0;
                    for _ in 0..cfg.messages_per_worker {
                        t += exp_gap_ns(&mut w.rng, rate_mps);
                        let session = w.stream.next(t, &mut w.rng);
                        eng.schedule(t, Ev::Arrive { session, born: t });
                    }
                }
                w.mark_open_loop_issued();
            }
            Scenario::ClosedLoop { clients, .. } => {
                for _ in 0..clients.max(1) {
                    eng.schedule(0, Ev::Request);
                }
            }
        }
        let budget = cfg.event_budget();
        eng.run_until(Ns::MAX, budget, |eng, t, ev| w.handle(eng, t, ev))?;
        Ok(w.finish())
    }

    /// The scenario runner, generic over the event queue so the wheel
    /// and the reference heap execute the identical lane code.
    pub(crate) fn run_traffic_sched<S, F, Q>(
        cfg: &TrafficConfig,
        make: F,
        mode: Mode,
    ) -> Result<RunOut, Overrun>
    where
        S: Service,
        F: Fn(u32) -> S + Sync,
        Q: EventQueue<Ev> + Default,
    {
        assert!(cfg.workers >= 1, "need at least one worker");
        let outs = thread::scope(|s| {
            let handles: Vec<_> = (0..cfg.workers)
                .map(|i| {
                    let (make, mode) = (&make, &mode);
                    s.spawn(move || run_worker::<S, Q>(cfg, i, make(i), &make_zipfs(cfg), mode))
                })
                .collect();
            // Lane order, so the first lane to overrun is the one reported.
            handles
                .into_iter()
                .map(|h| h.join().expect("traffic worker panicked"))
                .collect::<Result<Vec<WorkerOut>, Overrun>>()
        })?;
        Ok(collect(outs, cfg, &mode))
    }
}
