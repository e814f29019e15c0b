//! Online profile-guided re-layout: the closed loop between the
//! serving plane and the layout synthesizer.
//!
//! The static pipeline picks one code layout up front and serves an
//! entire run with it.  Real traffic shifts — destination skew rotates,
//! locality structure changes — and the layout that was optimal for the
//! first regime can be mediocre for the next.  This module grows the
//! serving loop into an adaptive system with three cooperating parts:
//!
//! 1. **A low-overhead sampling profiler** inside each lane's serve
//!    path.  Every `stride`-th message contributes one `(lookup kind,
//!    warm depth)` sample to a fixed-size window; nothing allocates on
//!    the unsampled path and *no simulated time is charged* — sampling
//!    cost is wall-clock only, so a sampling-on run with a single
//!    candidate is bit-identical to the static run (asserted in
//!    `traffic/tests/adapt.rs`, reported by `adapt_bench`).
//! 2. **A background re-layout worker thread.**  A full window is
//!    quantized into a layout-independent [`Profile`] and
//!    fingerprinted; when the fingerprint departs from the baseline the
//!    layout was chosen for, the lane posts the profile to the worker.
//!    The worker re-synthesizes a micro-positioned candidate from the
//!    episode weighted by the observed warm depth
//!    ([`kcode::layout::resynthesize_micro`]), scores it against the
//!    static candidate pool with per-depth cost models
//!    (limit-cycle-extrapolated, the same arithmetic as the
//!    [`ReplayService`] memo), and answers with the argmin.  Responses
//!    are memoized by fingerprint — and synthesized plans by a
//!    [`PlanCache`] the caller may back with `protolat-core`'s
//!    SweepEngine memo — so every lane, in any arrival order, gets the
//!    identical answer for the identical profile.
//! 3. **Epoch-based hot swap.**  A posted request carries a simulated
//!    `relayout_latency_ns`; the swap applies at the first serve at or
//!    past that instant (deterministic simulation time, not wall
//!    clock).  Swapping to the active candidate is a no-op; swapping to
//!    a different one invalidates the incoming [`ReplayService`] — its
//!    steady-state memo clears and the machine restarts cold, exactly
//!    what a code-image change does to a real i-cache.  The memo then
//!    re-learns and re-stabilizes under the new layout
//!    ([`ServiceStats::invalidations`], `period_detections`).
//!
//! Determinism: the loop's *simulated* behaviour is a pure function of
//! the configuration.  Profiles are quantized before they cross the
//! channel, responses are pure functions of the profile fingerprint,
//! and swap instants are computed from simulated time — thread
//! scheduling and worker wall-clock latency cannot change a bit of the
//! report, for any executor count.

use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread;

use alpha_machine::Machine;
use kcode::events::EventStream;
use kcode::layout::{assemble_resynthesized, resynthesize_micro};
use kcode::{Image, ImageConfig, LayoutPlan, Program, ReplayPlan, Replayer, TraceFingerprint};
use netsim::sample::StrideSampler;
use netsim::{Ns, Overrun};
use xkernel::map::LookupKind;

use crate::capture::{Mode, RunOut};
use crate::run::{drive, Plane};
use crate::runloop::TrafficConfig;
use crate::service::{detect_cycle, ReplayService, Service, ServiceStats};

/// Log₂ depth buckets in a quantized profile (depth 0 .. ~4k).
const DEPTH_BUCKETS: usize = 12;

/// Tuning of the adaptive loop.  All-integer so adaptive configurations
/// stay `Copy + Eq + Hash`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AdaptConfig {
    /// Sampling stride: every `stride`-th serve contributes a profile
    /// sample.  0 disables the whole loop (bit-identical passthrough to
    /// the static service).
    pub stride: u32,
    /// Samples per profile window.
    pub window: u32,
    /// Minimum simulated time between applied swaps (hysteresis).  The
    /// first adaptation of a run is exempt.
    pub min_dwell_ns: u64,
    /// Simulated latency from posting a profile to the swap taking
    /// effect (models synthesis + code installation).
    pub relayout_latency_ns: u64,
    /// Whether the worker synthesizes a fresh micro-positioned
    /// candidate per new profile (otherwise it only re-scores the
    /// static pool).
    pub jit: bool,
}

impl Default for AdaptConfig {
    fn default() -> Self {
        AdaptConfig {
            stride: 16,
            window: 64,
            min_dwell_ns: 500_000_000,
            relayout_latency_ns: 50_000_000,
            jit: true,
        }
    }
}

/// A named layout candidate in the adaptive pool.
#[derive(Clone)]
pub struct Candidate {
    pub name: String,
    pub image: Arc<Image>,
}

impl Candidate {
    pub fn new(name: impl Into<String>, image: Arc<Image>) -> Self {
        Candidate { name: name.into(), image }
    }
}

/// Cross-run store for synthesized layout plans, keyed by profile
/// fingerprint.  `protolat-core` backs this with the SweepEngine's
/// layout memo so adaptive runs reuse plans across sweep cells; the
/// in-process default is [`LocalPlanCache`].
pub trait PlanCache: Send {
    fn get(&mut self, key: u64) -> Option<LayoutPlan>;
    fn put(&mut self, key: u64, plan: &LayoutPlan);
}

/// The default single-run plan cache.
#[derive(Default)]
pub struct LocalPlanCache {
    plans: HashMap<u64, LayoutPlan>,
}

impl PlanCache for LocalPlanCache {
    fn get(&mut self, key: u64) -> Option<LayoutPlan> {
        self.plans.get(&key).cloned()
    }
    fn put(&mut self, key: u64, plan: &LayoutPlan) {
        self.plans.insert(key, plan.clone());
    }
}

/// A layout-independent, quantized summary of one profile window.
/// Counts are octiles of the window (0..=8) so near-identical windows
/// collapse onto one fingerprint instead of re-triggering synthesis;
/// everything the worker needs is *in* the profile, making its answer a
/// pure function of the fingerprint regardless of which lane's request
/// arrives first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Profile {
    /// Octile counts by lookup kind: `[cache hit, chain hit, miss]`.
    kinds: [u8; 3],
    /// Octile counts by log₂ warm-depth bucket.
    depths: [u8; DEPTH_BUCKETS],
    /// Log₂ bucket of the window's mean warm depth.
    mean_depth_bucket: u8,
}

fn depth_bucket(depth: u32) -> usize {
    let v = depth as u64 + 1; // 1..=2^32, so the log is total
    ((63 - v.leading_zeros()) as usize).min(DEPTH_BUCKETS - 1)
}

/// Representative depth for a bucket (midpoint of its range).
fn bucket_rep(bucket: usize) -> usize {
    let lower = (1usize << bucket) - 1;
    let upper = (1usize << (bucket + 1)) - 2;
    (lower + upper) / 2
}

impl Profile {
    /// Quantize one full window of `(kind tag, depth)` samples.
    fn from_window(samples: &[(u8, u32)]) -> Self {
        let n = samples.len() as u32;
        debug_assert!(n > 0);
        let octile = |count: u32| ((8 * count + n / 2) / n) as u8;
        let mut kinds = [0u32; 3];
        let mut depths = [0u32; DEPTH_BUCKETS];
        let mut sum = 0u64;
        for &(k, d) in samples {
            kinds[k as usize] += 1;
            depths[depth_bucket(d)] += 1;
            sum += d as u64;
        }
        let mean = (sum / samples.len() as u64) as u32;
        Profile {
            kinds: kinds.map(octile),
            depths: depths.map(octile),
            mean_depth_bucket: depth_bucket(mean) as u8,
        }
    }

    /// The fingerprint layouts and responses are keyed by.
    pub fn fingerprint(&self) -> u64 {
        let mut fp = TraceFingerprint::new();
        for k in self.kinds {
            fp.push(k as u64);
        }
        for d in self.depths {
            fp.push(d as u64);
        }
        fp.push(self.mean_depth_bucket as u64);
        fp.finish()
    }

    /// Episode repetitions for JIT synthesis: the observed warmth, at
    /// least one pass, capped where further warming stops changing the
    /// activity mix.
    fn jit_repeats(&self) -> usize {
        (1usize << self.mean_depth_bucket.min(3)).clamp(1, 8)
    }
}

/// One lane's posted re-profile request (opaque: constructed only by
/// [`AdaptiveService`], consumed only by the worker loop).
pub struct RelayoutRequest {
    fp: u64,
    profile: Profile,
    reply: Sender<RelayoutResponse>,
}

/// The worker's verdict for a fingerprint: which candidate to run.
#[derive(Clone)]
struct RelayoutResponse {
    /// Stable candidate identity: static pool index, or the profile
    /// fingerprint with the top bit set for JIT candidates.
    id: u64,
    name: String,
    image: Arc<Image>,
}

const JIT_ID_BIT: u64 = 1 << 63;

/// Background-worker counters, aggregated into [`AdaptReport`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RelayoutStats {
    /// Requests answered (including memoized ones).
    pub responses: u64,
    /// Requests answered straight from the fingerprint memo.
    pub fp_memo_hits: u64,
    /// Micro-positioned candidates synthesized.
    pub jit_builds: u64,
    /// Plans served by the [`PlanCache`] instead of re-synthesis.
    pub plan_cache_hits: u64,
    /// Scoring verdicts that picked the JIT candidate.
    pub jit_wins: u64,
    /// Scoring verdicts that picked a static candidate.
    pub static_wins: u64,
}

/// Per-depth replay cost model for one candidate image: the same
/// learn-until-limit-cycle arithmetic as the [`ReplayService`] memo,
/// queried at arbitrary depth with table extrapolation.
struct DepthCostModel {
    image: Arc<Image>,
    plan: ReplayPlan,
    machine: Machine,
    memo: Vec<u64>,
    stable: Option<(usize, usize)>,
}

impl DepthCostModel {
    fn new(image: Arc<Image>) -> Self {
        let plan = ReplayPlan::new(&image);
        DepthCostModel {
            image,
            plan,
            machine: Machine::dec3000_600(),
            memo: Vec::new(),
            stable: None,
        }
    }

    /// Cycle cost of a replay at `depth` replays past a cold start.
    fn cost(&mut self, episode: &EventStream, depth: usize) -> u64 {
        loop {
            if depth < self.memo.len() {
                return self.memo[depth];
            }
            if let Some((base, period)) = self.stable {
                return self.memo[base + (depth - base) % period];
            }
            if self.memo.is_empty() {
                self.machine.reset();
            }
            let before = self.machine.cpu.cycles() + self.machine.mem.stall_cycles();
            Replayer::with_plan(&self.image, &self.plan)
                .replay_into_lean(episode, &mut self.machine)
                .expect("episode must replay cleanly");
            let after = self.machine.cpu.cycles() + self.machine.mem.stall_cycles();
            self.memo.push(after - before);
            self.stable = detect_cycle(&self.memo);
        }
    }

    /// Expected cost of serving the profile's depth mix on this
    /// candidate: Σ over depth buckets of octile weight × cost at the
    /// bucket's representative depth.
    fn score(&mut self, episode: &EventStream, profile: &Profile) -> u64 {
        profile
            .depths
            .iter()
            .enumerate()
            .filter(|(_, &w)| w > 0)
            .map(|(b, &w)| w as u64 * self.cost(episode, bucket_rep(b)))
            .sum()
    }
}

/// The background re-layout worker loop: drain requests until every
/// request sender is gone, answering each fingerprint exactly once.
fn relayout_worker(
    rx: Receiver<RelayoutRequest>,
    program: &Arc<Program>,
    episode: &EventStream,
    image_config: &ImageConfig,
    candidates: &[Candidate],
    adapt: &AdaptConfig,
    mut cache: impl PlanCache,
) -> RelayoutStats {
    let mut stats = RelayoutStats::default();
    let mut fp_memo: HashMap<u64, RelayoutResponse> = HashMap::new();
    let mut static_models: Vec<DepthCostModel> =
        candidates.iter().map(|c| DepthCostModel::new(Arc::clone(&c.image))).collect();

    while let Ok(req) = rx.recv() {
        stats.responses += 1;
        if let Some(resp) = fp_memo.get(&req.fp) {
            stats.fp_memo_hits += 1;
            let _ = req.reply.send(resp.clone());
            continue;
        }

        // The JIT candidate: micro-position against the episode warmed
        // to the observed depth.  Scored first, so it wins ties.
        let mut best: Option<(u64, RelayoutResponse)> = None;
        if adapt.jit {
            let plan = match cache.get(req.fp) {
                Some(plan) => {
                    stats.plan_cache_hits += 1;
                    plan
                }
                None => {
                    stats.jit_builds += 1;
                    let mut warmed = EventStream::default();
                    for _ in 0..req.profile.jit_repeats() {
                        warmed.events.extend(episode.events.iter().cloned());
                    }
                    let plan = resynthesize_micro(program, &warmed, image_config);
                    cache.put(req.fp, &plan);
                    plan
                }
            };
            let image = Arc::new(assemble_resynthesized(program, image_config, &plan));
            let mut model = DepthCostModel::new(Arc::clone(&image));
            let score = model.score(episode, &req.profile);
            best = Some((
                score,
                RelayoutResponse {
                    id: req.fp | JIT_ID_BIT,
                    name: format!("jit_{:016x}", req.fp),
                    image,
                },
            ));
        }
        for (i, (cand, model)) in candidates.iter().zip(&mut static_models).enumerate() {
            let score = model.score(episode, &req.profile);
            if best.as_ref().is_none_or(|(b, _)| score < *b) {
                best = Some((
                    score,
                    RelayoutResponse {
                        id: i as u64,
                        name: cand.name.clone(),
                        image: Arc::clone(&cand.image),
                    },
                ));
            }
        }
        let (_, resp) = best.expect("candidate pool must not be empty");
        if resp.id & JIT_ID_BIT != 0 {
            stats.jit_wins += 1;
        } else {
            stats.static_wins += 1;
        }
        // The lane may already have retired; a dead reply channel is
        // not an error.
        let _ = req.reply.send(resp.clone());
        fp_memo.insert(req.fp, resp);
    }
    stats
}

/// One applied (or no-op) layout swap, for the adaptation timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwapEvent {
    pub lane: u32,
    /// Simulated instant the swap took effect.
    pub at: Ns,
    pub from: String,
    pub to: String,
    /// Fingerprint of the profile that triggered it.
    pub trigger_fp: u64,
    /// The verdict named the already-active candidate: nothing swapped,
    /// no invalidation, the memo and machine state survive.
    pub noop: bool,
}

/// Per-lane adaptive-loop counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdaptCounters {
    pub samples: u64,
    pub windows: u64,
    pub requests: u64,
    pub swaps_applied: u64,
    pub swaps_noop: u64,
}

impl AdaptCounters {
    fn merge(&mut self, o: &AdaptCounters) {
        self.samples += o.samples;
        self.windows += o.windows;
        self.requests += o.requests;
        self.swaps_applied += o.swaps_applied;
        self.swaps_noop += o.swaps_noop;
    }
}

/// One lane's flushed adaptation record.
#[derive(Debug, Clone)]
pub struct LaneAdapt {
    pub lane: u32,
    pub counters: AdaptCounters,
    pub swaps: Vec<SwapEvent>,
}

/// The adaptive side of a [`Run::adaptive`](crate::Run::adaptive)
/// result (the serving side is the ordinary
/// [`TrafficReport`](crate::TrafficReport)).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AdaptReport {
    /// Aggregated lane counters.
    pub counters: AdaptCounters,
    /// Every swap event, ordered by lane then time.
    pub swaps: Vec<SwapEvent>,
    pub worker: RelayoutStats,
}

/// A pending epoch transition: the request was posted at some serve;
/// the swap applies at the first serve at or past `ready_at`.
enum PendingSwap {
    /// Awaiting the worker's verdict (blocks on the reply channel when
    /// due — the instant stays deterministic, only wall clock waits).
    Awaiting { ready_at: Ns, trigger_fp: u64 },
    /// Verdict pre-staged (test hook for forced swaps).
    Staged { ready_at: Ns, trigger_fp: u64, resp: RelayoutResponse },
}

/// The adaptive service: wraps a pool of [`ReplayService`] candidates,
/// profiles the workload, and hot-swaps the active candidate at epoch
/// boundaries.  With `stride = 0` it is a bit-identical passthrough to
/// the initial candidate.
pub struct AdaptiveService<'a> {
    lane: u32,
    episode: &'a EventStream,
    cfg: AdaptConfig,
    /// Candidate id → its (lazily created) replay service.  Services
    /// persist across swaps; re-entering a candidate still invalidates
    /// it (the i-cache went cold while other code ran).
    pool: HashMap<u64, ReplayService<'a, Arc<Image>>>,
    names: HashMap<u64, String>,
    active: u64,
    /// Layout-independent warm-depth tracker for profiling.
    depth: u32,
    sampler: StrideSampler,
    window: Vec<(u8, u32)>,
    baseline_fp: u64,
    pending: Option<PendingSwap>,
    last_swap_at: Option<Ns>,
    req_tx: Option<Sender<RelayoutRequest>>,
    resp_tx: Sender<RelayoutResponse>,
    resp_rx: Receiver<RelayoutResponse>,
    counters: AdaptCounters,
    swaps: Vec<SwapEvent>,
    /// Where the lane's adaptation record lands on drop (lanes finish
    /// on executor threads; the harness collects and orders by lane).
    sink: Option<Arc<Mutex<Vec<LaneAdapt>>>>,
}

fn kind_tag(kind: LookupKind) -> u8 {
    match kind {
        LookupKind::CacheHit => 0,
        LookupKind::ChainHit => 1,
        LookupKind::Miss => 2,
    }
}

impl<'a> AdaptiveService<'a> {
    /// A lane service starting on `initial`, posting profiles to
    /// `req_tx` (pass `None` to keep the loop local — sampling still
    /// runs, nothing ever triggers).
    pub fn new(
        lane: u32,
        initial: &Candidate,
        initial_id: u64,
        episode: &'a EventStream,
        cfg: AdaptConfig,
        req_tx: Option<Sender<RelayoutRequest>>,
        sink: Option<Arc<Mutex<Vec<LaneAdapt>>>>,
    ) -> Self {
        let (resp_tx, resp_rx) = channel();
        let mut pool = HashMap::new();
        pool.insert(initial_id, ReplayService::shared(Arc::clone(&initial.image), episode));
        let mut names = HashMap::new();
        names.insert(initial_id, initial.name.clone());
        AdaptiveService {
            lane,
            episode,
            cfg,
            pool,
            names,
            active: initial_id,
            depth: 0,
            sampler: StrideSampler::new(cfg.stride),
            window: Vec::with_capacity(cfg.window.max(1) as usize),
            baseline_fp: 0,
            pending: None,
            last_swap_at: None,
            req_tx,
            resp_tx,
            resp_rx,
            counters: AdaptCounters::default(),
            swaps: Vec::new(),
            sink,
        }
    }

    /// Name of the candidate currently serving.
    pub fn active_name(&self) -> &str {
        &self.names[&self.active]
    }

    /// Applied swap events so far (test observability).
    pub fn swap_log(&self) -> &[SwapEvent] {
        &self.swaps
    }

    /// Test hook: stage a swap back onto the *active* candidate, taking
    /// effect at the first serve at or past `ready_at`.  Exercises the
    /// full epoch-transition path; by the no-op rule it must leave the
    /// run bit-identical to one that never swapped.
    pub fn force_self_swap_at(&mut self, ready_at: Ns) {
        let image = Arc::clone(self.pool[&self.active].image_arc());
        self.pending = Some(PendingSwap::Staged {
            ready_at,
            trigger_fp: self.baseline_fp,
            resp: RelayoutResponse {
                id: self.active,
                name: self.names[&self.active].clone(),
                image,
            },
        });
    }

    fn apply_swap(&mut self, now: Ns, trigger_fp: u64, resp: RelayoutResponse) {
        self.baseline_fp = trigger_fp;
        self.last_swap_at = Some(now);
        let from = self.names[&self.active].clone();
        if resp.id == self.active {
            self.counters.swaps_noop += 1;
            self.swaps.push(SwapEvent {
                lane: self.lane,
                at: now,
                to: from.clone(),
                from,
                trigger_fp,
                noop: true,
            });
            return;
        }
        self.names.entry(resp.id).or_insert_with(|| resp.name.clone());
        let episode = self.episode;
        let svc = self
            .pool
            .entry(resp.id)
            .or_insert_with(|| ReplayService::shared(resp.image, episode));
        // The incoming candidate's caches went cold while other code
        // ran: restart its memo and machine from scratch.
        svc.invalidate();
        self.swaps.push(SwapEvent {
            lane: self.lane,
            at: now,
            from,
            to: resp.name,
            trigger_fp,
            noop: false,
        });
        self.active = resp.id;
        self.counters.swaps_applied += 1;
    }

    /// Close a full profile window: fingerprint it and, when it departs
    /// from the baseline (respecting dwell hysteresis and the
    /// one-outstanding-request rule), post it to the worker.
    fn finish_window(&mut self, now: Ns) {
        self.counters.windows += 1;
        let profile = Profile::from_window(&self.window);
        self.window.clear();
        let fp = profile.fingerprint();
        if fp == self.baseline_fp || self.pending.is_some() {
            return;
        }
        if let Some(t) = self.last_swap_at {
            if now.saturating_sub(t) < self.cfg.min_dwell_ns {
                return;
            }
        }
        let Some(tx) = &self.req_tx else { return };
        if tx.send(RelayoutRequest { fp, profile, reply: self.resp_tx.clone() }).is_ok() {
            self.counters.requests += 1;
            self.pending = Some(PendingSwap::Awaiting {
                ready_at: now.saturating_add(self.cfg.relayout_latency_ns),
                trigger_fp: fp,
            });
        }
    }
}

impl Service for AdaptiveService<'_> {
    fn serve(&mut self, kind: LookupKind, now: Ns) -> Ns {
        if kind == LookupKind::Miss {
            self.depth = 0;
        } else {
            self.depth = self.depth.saturating_add(1);
        }

        let due = match &self.pending {
            Some(PendingSwap::Awaiting { ready_at, .. })
            | Some(PendingSwap::Staged { ready_at, .. }) => now >= *ready_at,
            None => false,
        };
        if due {
            match self.pending.take().expect("checked above") {
                PendingSwap::Awaiting { trigger_fp, .. } => {
                    // The worker answers every request; waiting here
                    // costs wall clock, never simulated time.
                    let resp = self.resp_rx.recv().expect("re-layout worker hung up");
                    self.apply_swap(now, trigger_fp, resp);
                }
                PendingSwap::Staged { trigger_fp, resp, .. } => {
                    self.apply_swap(now, trigger_fp, resp);
                }
            }
        }

        if self.sampler.tick() {
            self.counters.samples += 1;
            self.window.push((kind_tag(kind), self.depth));
            if self.window.len() >= self.cfg.window.max(1) as usize {
                self.finish_window(now);
            }
        }

        self.pool.get_mut(&self.active).expect("active candidate in pool").serve(kind, now)
    }

    fn stats(&self) -> ServiceStats {
        let mut s = ServiceStats::default();
        for svc in self.pool.values() {
            s.merge(&svc.stats());
        }
        s
    }
}

impl Drop for AdaptiveService<'_> {
    fn drop(&mut self) {
        if let Some(sink) = &self.sink {
            sink.lock().expect("adapt sink poisoned").push(LaneAdapt {
                lane: self.lane,
                counters: self.counters,
                swaps: std::mem::take(&mut self.swaps),
            });
        }
    }
}

/// Everything an adaptive run needs besides its traffic configuration:
/// the loop tuning, the program and server-turn episode JIT candidates
/// are synthesized from (under `image_config`), the static candidate
/// pool with the lanes' starting index, and the store for synthesized
/// plans.
pub struct AdaptSetup<'a, C> {
    pub adapt: AdaptConfig,
    pub program: &'a Arc<Program>,
    pub episode: &'a EventStream,
    pub image_config: &'a ImageConfig,
    pub candidates: &'a [Candidate],
    pub initial: usize,
    pub cache: C,
}

/// Drive `cfg` on `plane` with per-lane [`AdaptiveService`]s and one
/// shared background re-layout worker, returning the lanes' adaptation
/// records merged in lane order.  Under `Replay` the adaptation
/// machinery still runs live — its verdicts are deterministic
/// functions of the (replayed) arrivals and fates, so [`Run`](crate::Run)
/// validates them after the run.
pub(crate) fn serve_adaptive<C: PlanCache>(
    cfg: &TrafficConfig,
    plane: Plane,
    setup: AdaptSetup<'_, C>,
    mode: Mode,
) -> Result<(RunOut, AdaptReport), Overrun> {
    let AdaptSetup { adapt, program, episode, image_config, candidates, initial, cache } = setup;
    assert!(initial < candidates.len(), "initial candidate out of range");
    let (req_tx, req_rx) = channel::<RelayoutRequest>();
    let sink: Arc<Mutex<Vec<LaneAdapt>>> = Arc::new(Mutex::new(Vec::new()));

    let (run, worker_stats) = thread::scope(|s| {
        let worker = s.spawn(|| {
            relayout_worker(req_rx, program, episode, image_config, candidates, &adapt, cache)
        });
        let sink_ref = &sink;
        let init = &candidates[initial];
        let req_tx_ref = &req_tx;
        let run = drive(
            cfg,
            plane,
            move |lane| {
                AdaptiveService::new(
                    lane,
                    init,
                    initial as u64,
                    episode,
                    adapt,
                    Some(req_tx_ref.clone()),
                    Some(Arc::clone(sink_ref)),
                )
            },
            mode,
        );
        // All lane-held senders are gone once the run returns; dropping
        // the original lets the worker drain and exit.
        drop(req_tx);
        let stats = worker.join().expect("re-layout worker panicked");
        (run, stats)
    });
    let run = run?;

    let mut lanes = std::mem::take(&mut *sink.lock().expect("adapt sink poisoned"));
    lanes.sort_by_key(|l| l.lane);
    let mut out = AdaptReport { worker: worker_stats, ..AdaptReport::default() };
    for lane in &lanes {
        out.counters.merge(&lane.counters);
        out.swaps.extend(lane.swaps.iter().cloned());
    }
    Ok((run, out))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_buckets_are_log2_and_clamped() {
        assert_eq!(depth_bucket(0), 0);
        assert_eq!(depth_bucket(1), 1);
        assert_eq!(depth_bucket(2), 1);
        assert_eq!(depth_bucket(3), 2);
        assert_eq!(depth_bucket(6), 2);
        assert_eq!(depth_bucket(7), 3);
        assert_eq!(depth_bucket(u32::MAX), DEPTH_BUCKETS - 1);
        // Representatives sit inside their bucket.
        for b in 0..DEPTH_BUCKETS - 1 {
            assert_eq!(depth_bucket(bucket_rep(b) as u32), b, "bucket {b}");
        }
    }

    #[test]
    fn near_identical_windows_share_a_fingerprint() {
        // Quantization is the anti-churn mechanism: one sample of
        // difference in a 64-sample window must not change the key.
        let mut a: Vec<(u8, u32)> = (0..64).map(|_| (0, 5)).collect();
        let b = a.clone();
        a[10].1 = 6; // tiny perturbation, same octiles and mean bucket
        assert_eq!(
            Profile::from_window(&a).fingerprint(),
            Profile::from_window(&b).fingerprint()
        );
    }

    #[test]
    fn different_regimes_get_different_fingerprints() {
        let cold: Vec<(u8, u32)> = (0..64).map(|_| (2, 0)).collect(); // all misses
        let warm: Vec<(u8, u32)> = (0..64).map(|i| (0, 20 + i)).collect(); // deep hits
        let pa = Profile::from_window(&cold);
        let pb = Profile::from_window(&warm);
        assert_ne!(pa.fingerprint(), pb.fingerprint());
        assert_eq!(pa.jit_repeats(), 1);
        assert!(pb.jit_repeats() > 1 && pb.jit_repeats() <= 8);
    }

    #[test]
    fn profile_is_a_pure_function_of_the_window() {
        let w: Vec<(u8, u32)> = (0..48).map(|i| ((i % 3) as u8, (i * 7) % 40)).collect();
        assert_eq!(Profile::from_window(&w), Profile::from_window(&w.clone()));
        assert_eq!(
            Profile::from_window(&w).fingerprint(),
            Profile::from_window(&w).fingerprint()
        );
    }
}
