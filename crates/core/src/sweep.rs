//! The sweep engine: memoized, shareable experiment artifacts and the
//! parallel 6-configuration × 2-stack sweep.
//!
//! Every experiment driver needs some subset of the same pipeline:
//!
//! ```text
//! functional run ─→ layout plan ─→ image ─→ warm roundtrip timing
//!        │           per Version      │         cold cache stats
//!        └─ canonical                 └───────→ replay statistics
//! ```
//!
//! Before this module, each table re-ran the whole pipeline from
//! scratch — Table 4 alone performs five functional runs per stack and
//! thirty timed roundtrips, most of which Tables 2, 3, 7 and 8 then
//! recompute.  The engine memoizes each stage behind a process-global
//! cache keyed by `(stack, StackOptions, warmup, Version)`, so every
//! distinct artifact is computed **at most once per process**, and runs
//! independent keys on worker threads (`std::thread::scope` — no
//! external thread pool).
//!
//! Memoized values are behind `Arc`s: callers share the stored object,
//! and results are bit-identical to fresh computation because every
//! pipeline stage is deterministic (asserted by `tests/sweep.rs`).

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use alpha_machine::RunReport;
use kcode::events::EventStream;
use kcode::layout::LayoutStrategy;
use kcode::{Image, LayoutPlan, NullSink, ReplayStats, Replayer};
use protocols::StackOptions;
use traffic::workload::Scenario;
use traffic::{
    AdaptConfig, AdaptReport, AdaptSetup, Candidate, PlanCache, PolicyKind, ReplayError,
    ReplayService, Run, Served, StreamKind, TraceStream, TrafficConfig, TrafficReport,
    DEMUX_CACHE_HIT_NS, DEMUX_CHAIN_HIT_NS, SESSION_SETUP_NS,
};

use crate::config::{StackKind, Version};
use crate::harness::{run_rpc, run_tcpip, RpcRun, TcpIpRun};
use crate::timing::{
    cold_client_stats, time_roundtrip_with, RoundtripTiming, RPC_UNTRACED_PER_HOP_US,
    UNTRACED_PER_HOP_US,
};
use crate::world::{RpcWorld, TcpIpWorld};

/// One memoized stage: a keyed map of lazily-computed cells.
///
/// The map mutex is held only to look up / insert the cell, never while
/// computing; concurrent requests for the *same* key block on the
/// cell's `OnceLock` so the value is computed exactly once, while
/// requests for different keys proceed in parallel.
struct Memo<K, V> {
    map: Mutex<HashMap<K, Arc<OnceLock<V>>>>,
    computed: AtomicU64,
    requests: AtomicU64,
}

impl<K: Eq + Hash, V: Clone> Memo<K, V> {
    fn new() -> Self {
        Memo {
            map: Mutex::new(HashMap::new()),
            computed: AtomicU64::new(0),
            requests: AtomicU64::new(0),
        }
    }

    fn get_or_compute(&self, key: K, f: impl FnOnce() -> V) -> V {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let cell = {
            let mut map = self.map.lock().expect("memo map poisoned");
            Arc::clone(map.entry(key).or_default())
        };
        cell.get_or_init(|| {
            self.computed.fetch_add(1, Ordering::Relaxed);
            f()
        })
        .clone()
    }

    fn computed(&self) -> u64 {
        self.computed.load(Ordering::Relaxed)
    }

    fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }
}

/// A functional TCP/IP run plus its canonical layout trace (the
/// concatenated client episodes every image build needs).
pub struct TcpRunShared {
    pub run: TcpIpRun,
    pub canonical: EventStream,
}

/// A functional RPC run plus its canonical layout trace.
pub struct RpcRunShared {
    pub run: RpcRun,
    pub canonical: EventStream,
}

/// How many of each artifact the engine has actually computed (cache
/// misses).  Used by the equivalence tests and the pipeline bench to
/// prove each key is computed at most once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepCounters {
    pub runs: u64,
    pub layouts: u64,
    pub images: u64,
    pub timings: u64,
    pub cold_stats: u64,
    pub replay_stats: u64,
    pub traffics: u64,
    pub capacities: u64,
    pub demuxes: u64,
    pub adapts: u64,
    pub replays: u64,
}

/// A load-ramp specification for the capacity stage: sweep offered
/// open-loop rate up a geometric ladder until the cell violates its
/// service objective.  All-integer so it is `Copy + Eq + Hash` and can
/// key the memo cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CapacityRamp {
    /// Scenario template; the open-loop rate is overridden per rung.
    pub base: TrafficConfig,
    /// First offered rate, messages/second *per worker*.
    pub start_rate_mps: u64,
    /// Geometric growth per rung: next = rate × num / den.
    pub growth_num: u32,
    pub growth_den: u32,
    /// Ladder length cap.
    pub max_rungs: u32,
    /// The latency SLO: p99 at or below this many nanoseconds.
    pub slo_p99_ns: u64,
    /// Throughput floor: achieved must stay at or above this many
    /// parts-per-thousand of the aggregate offered rate.
    pub min_achieved_ppt: u32,
    /// Bisection iterations refining the knee between the last good
    /// rung and the first violating rung (0 = ladder only).
    pub bisect_iters: u32,
}

impl CapacityRamp {
    /// The default ramp used by the `capacity` bench suite: start at the seed
    /// per-worker rate, ×2 per rung, a 1 ms p99 SLO and a 97%
    /// achieved-rate floor.
    pub fn new(base: TrafficConfig, start_rate_mps: u64) -> Self {
        CapacityRamp {
            base,
            start_rate_mps,
            growth_num: 2,
            growth_den: 1,
            max_rungs: 12,
            slo_p99_ns: 1_000_000,
            min_achieved_ppt: 970,
            bisect_iters: 5,
        }
    }

    /// Offered per-worker rates of the ladder, in rung order.
    pub fn rates(&self) -> Vec<u64> {
        assert!(self.growth_den > 0 && self.growth_num > self.growth_den, "ramp must grow");
        let mut rates = Vec::with_capacity(self.max_rungs as usize);
        let mut rate = self.start_rate_mps.max(1);
        for _ in 0..self.max_rungs {
            rates.push(rate);
            rate = rate.saturating_mul(self.growth_num as u64) / self.growth_den as u64;
        }
        rates
    }

    /// The traffic configuration of one rung.
    pub fn rung_config(&self, rate_mps: u64) -> TrafficConfig {
        let mut cfg = self.base;
        cfg.scenario = Scenario::OpenLoop { rate_mps };
        cfg
    }
}

/// One measured rung of a capacity ramp.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapacityPoint {
    /// Aggregate offered rate (per-worker rate × workers), mps.
    pub offered_mps: u64,
    /// Aggregate achieved serving rate, simulated mps.
    pub achieved_mps: f64,
    pub p50_ns: u64,
    pub p99_ns: u64,
    pub p999_ns: u64,
    /// Whether this rung violated the SLO (knee rung).
    pub violated: bool,
}

/// The throughput-vs-p99 curve of one (cell, ramp): rungs in offered-
/// rate order, stopping at the first violating rung (inclusive).
#[derive(Debug, Clone, PartialEq)]
pub struct CapacityCurve {
    pub points: Vec<CapacityPoint>,
    /// Aggregate offered rate of the first rung that violated the SLO —
    /// the knee; `None` if the ladder ended without a violation.
    pub knee_offered_mps: Option<u64>,
    /// Highest achieved rate among non-violating rungs (0 if the very
    /// first rung violated).  Includes refined bisection rungs.
    pub max_sustainable_mps: f64,
    /// Bisection probes between the last good rung and the ladder knee,
    /// in probe order (empty when the ladder found no knee, the knee
    /// was the first rung, or `bisect_iters` is 0).
    pub refined: Vec<CapacityPoint>,
    /// Tightest violating aggregate offered rate after bisection: lies
    /// strictly above the last good ladder rung and at or below
    /// `knee_offered_mps`.  `None` when the ladder found no knee or the
    /// knee was the very first rung (no bracket to bisect).
    pub refined_knee_mps: Option<u64>,
}

/// One cell of the demux-locality study: a base serving scenario
/// crossed with an address-cache policy and a reference-stream
/// locality structure.  All-integer, so `Copy + Eq + Hash` keys the
/// memo cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DemuxSpec {
    /// Scenario template; `policy` and `stream` are overlaid per cell.
    pub base: TrafficConfig,
    pub policy: PolicyKind,
    pub stream: StreamKind,
}

impl DemuxSpec {
    /// The traffic configuration this cell actually runs.
    pub fn config(&self) -> TrafficConfig {
        self.base.with_policy(self.policy).with_stream(self.stream)
    }

    /// The policy × stream cross product over one base scenario, in
    /// row-major (policy, stream) order — the canonical matrix shape.
    pub fn cross(base: TrafficConfig, policies: &[PolicyKind], streams: &[StreamKind]) -> Vec<DemuxSpec> {
        let mut specs = Vec::with_capacity(policies.len() * streams.len());
        for &policy in policies {
            for &stream in streams {
                specs.push(DemuxSpec { base, policy, stream });
            }
        }
        specs
    }
}

/// Measured outcome of one (policy × stream) demux cell.  The latency
/// quantiles are end-to-end (demux cost included); `lookup_ns` is the
/// *modelled* mean demux cost per lookup under the paper's cost
/// taxonomy — a pure function of the hit counters, so it is exactly
/// reproducible across runs and machines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DemuxCell {
    pub lookups: u64,
    pub cache_hits: u64,
    pub chain_hits: u64,
    pub misses: u64,
    pub evictions: u64,
    /// Address-cache hits / lookups — the policy's figure of merit.
    pub cache_hit_rate: f64,
    /// (cache + chain hits) / lookups — policy-invariant for a fixed
    /// workload (the fill-on-chain-hit contract).
    pub hit_rate: f64,
    /// Modelled mean demux nanoseconds per lookup.
    pub lookup_ns: f64,
    pub p50_ns: u64,
    pub p99_ns: u64,
    pub p999_ns: u64,
}

impl DemuxCell {
    fn from_report(report: &TrafficReport) -> Self {
        let t = &report.table;
        let demux_total = t.cache_hits as u128 * DEMUX_CACHE_HIT_NS as u128
            + t.chain_hits as u128 * DEMUX_CHAIN_HIT_NS as u128
            + t.misses as u128 * (DEMUX_CHAIN_HIT_NS + SESSION_SETUP_NS) as u128;
        DemuxCell {
            lookups: t.lookups,
            cache_hits: t.cache_hits,
            chain_hits: t.chain_hits,
            misses: t.misses,
            evictions: t.evictions,
            cache_hit_rate: t.cache_hit_rate(),
            hit_rate: t.hit_rate(),
            lookup_ns: if t.lookups == 0 { 0.0 } else { demux_total as f64 / t.lookups as f64 },
            p50_ns: report.hist.p50(),
            p99_ns: report.hist.p99(),
            p999_ns: report.hist.p999(),
        }
    }
}

/// The static candidate pool of an adaptive cell, as a set of
/// [`Version`]s — a bitmask over the canonical Table-4 order, so the
/// spec stays `Copy + Eq + Hash`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VersionSet(u8);

impl VersionSet {
    fn bit(v: Version) -> u8 {
        let idx = Version::all().iter().position(|&x| x == v).expect("canonical version");
        1 << idx
    }

    /// The set holding exactly `versions`.
    pub fn of(versions: &[Version]) -> Self {
        VersionSet(versions.iter().fold(0, |mask, &v| mask | Self::bit(v)))
    }

    /// All six versions.
    pub fn all() -> Self {
        Self::of(&Version::all())
    }

    pub fn contains(&self, v: Version) -> bool {
        self.0 & Self::bit(v) != 0
    }

    /// Members in canonical Table-4 order — the candidate-pool order,
    /// which fixes the pool indices the adaptive loop uses as ids.
    pub fn members(&self) -> Vec<Version> {
        Version::all().into_iter().filter(|&v| self.contains(v)).collect()
    }

    pub fn len(&self) -> usize {
        self.0.count_ones() as usize
    }

    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }
}

/// One cell of the adaptive re-layout stage: a serving scenario (phase
/// schedule included — [`TrafficConfig`] carries its `PhasePlan`), the
/// adaptive loop's tuning, the static candidate pool, and the layout
/// the run starts on.  All-integer, so `Copy + Eq + Hash` keys the
/// memo cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AdaptSpec {
    /// The serving scenario the adaptive loop runs under.
    pub base: TrafficConfig,
    /// Profiler / re-layout / hot-swap tuning.
    pub adapt: AdaptConfig,
    /// Static candidates the background worker scores; must contain
    /// `initial`.
    pub candidates: VersionSet,
    /// The layout every lane starts on.
    pub initial: Version,
}

impl AdaptSpec {
    /// A spec over the full six-version candidate pool.
    pub fn new(base: TrafficConfig, adapt: AdaptConfig, initial: Version) -> Self {
        AdaptSpec { base, adapt, candidates: VersionSet::all(), initial }
    }

    /// Restrict the candidate pool.
    pub fn with_candidates(mut self, versions: &[Version]) -> Self {
        self.candidates = VersionSet::of(versions);
        self
    }
}

/// Result of one adaptive cell: the ordinary serving report plus the
/// adaptation timeline.
#[derive(Debug, PartialEq)]
pub struct AdaptOutcome {
    pub report: TrafficReport,
    pub adapt: AdaptReport,
}

type RunKey = (StackOptions, usize);
type VersionKey = (StackKind, StackOptions, usize, Version);
/// Layout-plan cache key.  Strategy and outline are derived from the
/// version, but naming them keeps the key self-describing: two versions
/// that happened to share `(strategy, outline)` would still synthesize
/// identical plans only if the trace matches, which `(opts, warmup)`
/// pins down.
type LayoutKey = (StackKind, StackOptions, usize, LayoutStrategy, bool, Version);
/// Traffic-stage key: the full serving scenario rides along, so two
/// drivers asking for the same (cell, scenario) share one run.
type TrafficKey = (StackKind, StackOptions, usize, Version, TrafficConfig);
/// Capacity-stage key: the whole ramp (base scenario, ladder, SLO).
type CapacityKey = (StackKind, StackOptions, usize, Version, CapacityRamp);
/// Demux-stage key: the (policy × stream) cell over a base scenario.
type DemuxStageKey = (StackKind, StackOptions, usize, Version, DemuxSpec);
/// Adapt-stage key: the full adaptive spec over one functional cell.
type AdaptKey = (StackKind, StackOptions, usize, AdaptSpec);
/// Replay-stage key: the functional cell plus the trace fingerprint.
/// The fingerprint covers every event (config record included), so two
/// loads of the same artifact — or the same artifact re-sliced to a
/// different executor count, replay being executor-invariant — share
/// one computation.
type ReplayKey = (StackKind, StackOptions, usize, Version, u64);
/// Synthesized-plan key: the functional cell, the image config the JIT
/// candidate is assembled under (named by its version), and the profile
/// fingerprint the plan answers.
type JitPlanKey = (StackKind, StackOptions, usize, Version, u64);

/// The engine's cross-run store of JIT-synthesized layout plans.  Not a
/// [`Memo`]: the adaptive worker probes before deciding whether to
/// synthesize, so the store must distinguish "absent" from "computing".
struct PlanStore {
    map: Mutex<HashMap<JitPlanKey, LayoutPlan>>,
    requests: AtomicU64,
    hits: AtomicU64,
}

impl PlanStore {
    fn new() -> Self {
        PlanStore { map: Mutex::new(HashMap::new()), requests: AtomicU64::new(0), hits: AtomicU64::new(0) }
    }
}

/// A [`PlanCache`] rooted at one cell prefix of the engine's plan
/// store: adaptive runs inject this into [`traffic::Run::adaptive`] so
/// micro-positioned plans for recurring profile fingerprints are reused
/// across runs and specs instead of re-synthesized.
pub struct EnginePlanCache<'e> {
    engine: &'e SweepEngine,
    stack: StackKind,
    opts: StackOptions,
    warmup: usize,
    version: Version,
}

impl EnginePlanCache<'_> {
    fn key(&self, fp: u64) -> JitPlanKey {
        (self.stack, self.opts, self.warmup, self.version, fp)
    }
}

impl PlanCache for EnginePlanCache<'_> {
    fn get(&mut self, key: u64) -> Option<LayoutPlan> {
        let store = &self.engine.jit_plans;
        store.requests.fetch_add(1, Ordering::Relaxed);
        let got = store.map.lock().expect("plan store poisoned").get(&self.key(key)).cloned();
        if got.is_some() {
            store.hits.fetch_add(1, Ordering::Relaxed);
        }
        got
    }

    fn put(&mut self, key: u64, plan: &LayoutPlan) {
        self.engine
            .jit_plans
            .map
            .lock()
            .expect("plan store poisoned")
            .insert(self.key(key), plan.clone());
    }
}

/// One unit of prefetchable sweep work.
#[derive(Debug, Clone, Copy)]
pub enum SweepJob {
    /// Layout-plan synthesis for `(stack, opts, warmup, version)`.
    Layout(StackKind, StackOptions, usize, Version),
    /// Warm roundtrip timing for `(stack, opts, warmup, version)`.
    Timing(StackKind, StackOptions, usize, Version),
    /// Cold client cache statistics (Table 6 methodology).
    ColdStats(StackKind, StackOptions, usize, Version),
    /// Client replay statistics (fetch-utilization, trace length).
    ReplayStats(StackKind, StackOptions, usize, Version),
    /// A full traffic-serving run against the cell's laid-out image.
    Traffic(StackKind, StackOptions, usize, Version, TrafficConfig),
    /// A load-ramp capacity probe (knee + throughput-vs-p99 curve).
    Capacity(StackKind, StackOptions, usize, Version, CapacityRamp),
    /// One (policy × stream) cell of the demux-locality matrix.
    Demux(StackKind, StackOptions, usize, Version, DemuxSpec),
    /// A full adaptive re-layout run (profiler + worker + hot swap).
    Adapt(StackKind, StackOptions, usize, AdaptSpec),
}

/// One row of the canonical sweep result.
pub struct SweepRow {
    pub stack: StackKind,
    pub version: Version,
    pub timing: Arc<RoundtripTiming>,
    pub cold: Arc<RunReport>,
}

/// The memoizing sweep engine.  See the module docs.
pub struct SweepEngine {
    tcp_runs: Memo<RunKey, Arc<TcpRunShared>>,
    rpc_runs: Memo<RunKey, Arc<RpcRunShared>>,
    layouts: Memo<LayoutKey, Arc<LayoutPlan>>,
    images: Memo<VersionKey, Arc<Image>>,
    timings: Memo<VersionKey, Arc<RoundtripTiming>>,
    cold_stats: Memo<VersionKey, Arc<RunReport>>,
    replay_stats: Memo<VersionKey, Arc<ReplayStats>>,
    traffics: Memo<TrafficKey, Arc<TrafficReport>>,
    capacities: Memo<CapacityKey, Arc<CapacityCurve>>,
    demuxes: Memo<DemuxStageKey, DemuxCell>,
    adapts: Memo<AdaptKey, Arc<AdaptOutcome>>,
    replays: Memo<ReplayKey, Arc<TrafficReport>>,
    jit_plans: PlanStore,
}

impl Default for SweepEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl SweepEngine {
    /// A fresh engine with empty caches (tests compare this against the
    /// global one to prove memoization changes nothing).
    pub fn new() -> Self {
        SweepEngine {
            tcp_runs: Memo::new(),
            rpc_runs: Memo::new(),
            layouts: Memo::new(),
            images: Memo::new(),
            timings: Memo::new(),
            cold_stats: Memo::new(),
            replay_stats: Memo::new(),
            traffics: Memo::new(),
            capacities: Memo::new(),
            demuxes: Memo::new(),
            adapts: Memo::new(),
            replays: Memo::new(),
            jit_plans: PlanStore::new(),
        }
    }

    /// The process-wide engine all experiment drivers share.
    pub fn global() -> &'static SweepEngine {
        static GLOBAL: OnceLock<SweepEngine> = OnceLock::new();
        GLOBAL.get_or_init(SweepEngine::new)
    }

    /// The memoized TCP/IP functional run for `(opts, warmup)`.
    pub fn tcpip(&self, opts: StackOptions, warmup: usize) -> Arc<TcpRunShared> {
        self.tcp_runs.get_or_compute((opts, warmup), || {
            let run = run_tcpip(TcpIpWorld::build(opts), warmup);
            let canonical = run.episodes.client_trace();
            Arc::new(TcpRunShared { run, canonical })
        })
    }

    /// The memoized RPC functional run for `(opts, warmup)`.
    pub fn rpc(&self, opts: StackOptions, warmup: usize) -> Arc<RpcRunShared> {
        self.rpc_runs.get_or_compute((opts, warmup), || {
            let run = run_rpc(RpcWorld::build(opts), warmup);
            let canonical = run.episodes.client_trace();
            Arc::new(RpcRunShared { run, canonical })
        })
    }

    /// The memoized layout plan — the expensive trace-driven half of
    /// image construction (inline-group resolution, interleaving
    /// weights, partition sizing).  Shared by every driver that needs
    /// the same `(stack, strategy, outline, version)` placement.
    pub fn layout(
        &self,
        stack: StackKind,
        opts: StackOptions,
        warmup: usize,
        version: Version,
    ) -> Arc<LayoutPlan> {
        let key = (stack, opts, warmup, version.strategy(), version.outline(), version);
        self.layouts.get_or_compute(key, || match stack {
            StackKind::TcpIp => {
                let sh = self.tcpip(opts, warmup);
                Arc::new(version.synthesize_tcpip(&sh.run.world, &sh.canonical))
            }
            StackKind::Rpc => {
                let sh = self.rpc(opts, warmup);
                Arc::new(version.synthesize_rpc(&sh.run.world, &sh.canonical))
            }
        })
    }

    /// Layout memo traffic: `(requests, computed)`.  The difference is
    /// the number of cache hits — reported by the `layout` bench suite as the
    /// memoization hit rate of the 12-cell sweep.
    pub fn layout_stats(&self) -> (u64, u64) {
        (self.layouts.requests(), self.layouts.computed())
    }

    /// The memoized laid-out image for one version of one stack,
    /// assembled from the memoized layout plan.
    pub fn image(
        &self,
        stack: StackKind,
        opts: StackOptions,
        warmup: usize,
        version: Version,
    ) -> Arc<Image> {
        self.images.get_or_compute((stack, opts, warmup, version), || {
            let plan = self.layout(stack, opts, warmup, version);
            let program = match stack {
                StackKind::TcpIp => Arc::clone(&self.tcpip(opts, warmup).run.world.program),
                StackKind::Rpc => Arc::clone(&self.rpc(opts, warmup).run.world.program),
            };
            Arc::new(version.assemble(&program, &plan))
        })
    }

    /// The memoized warm roundtrip timing.  TCP/IP times client and
    /// server on the same version; RPC follows the paper's methodology
    /// (server fixed at ALL) and charges the RPC untraced constant.
    pub fn timing(
        &self,
        stack: StackKind,
        opts: StackOptions,
        warmup: usize,
        version: Version,
    ) -> Arc<RoundtripTiming> {
        self.timings.get_or_compute((stack, opts, warmup, version), || match stack {
            StackKind::TcpIp => {
                let sh = self.tcpip(opts, warmup);
                let img = self.image(stack, opts, warmup, version);
                Arc::new(time_roundtrip_with(
                    &sh.run.episodes,
                    &img,
                    &img,
                    sh.run.world.lance_model.f_tx,
                    UNTRACED_PER_HOP_US,
                ))
            }
            StackKind::Rpc => {
                let sh = self.rpc(opts, warmup);
                let client = self.image(stack, opts, warmup, version);
                let server = self.image(stack, opts, warmup, Version::All);
                Arc::new(time_roundtrip_with(
                    &sh.run.episodes,
                    &client,
                    &server,
                    sh.run.world.lance_model.f_tx,
                    RPC_UNTRACED_PER_HOP_US,
                ))
            }
        })
    }

    /// The memoized cold client cache statistics (Table 6).
    pub fn cold_stats(
        &self,
        stack: StackKind,
        opts: StackOptions,
        warmup: usize,
        version: Version,
    ) -> Arc<RunReport> {
        self.cold_stats.get_or_compute((stack, opts, warmup, version), || {
            let img = self.image(stack, opts, warmup, version);
            let report = match stack {
                StackKind::TcpIp => {
                    cold_client_stats(&self.tcpip(opts, warmup).run.episodes, &img)
                }
                StackKind::Rpc => cold_client_stats(&self.rpc(opts, warmup).run.episodes, &img),
            };
            Arc::new(report)
        })
    }

    /// The memoized client replay statistics: the out- and in-path of
    /// one roundtrip replayed (no machine) and merged — trace length,
    /// call/taken counts and the fetch-utilization sets of Table 9.
    pub fn client_replay_stats(
        &self,
        stack: StackKind,
        opts: StackOptions,
        warmup: usize,
        version: Version,
    ) -> Arc<ReplayStats> {
        self.replay_stats.get_or_compute((stack, opts, warmup, version), || {
            let img = self.image(stack, opts, warmup, version);
            let rep = Replayer::new(&img);
            let episodes = match stack {
                StackKind::TcpIp => self.tcpip(opts, warmup).run.episodes.clone(),
                StackKind::Rpc => self.rpc(opts, warmup).run.episodes.clone(),
            };
            let mut stats = rep
                .replay_into(&episodes.client_out, &mut NullSink)
                .expect("episode must replay cleanly");
            let inn = rep
                .replay_into(&episodes.client_in, &mut NullSink)
                .expect("episode must replay cleanly");
            stats.merge(&inn);
            Arc::new(stats)
        })
    }

    /// The server-turn episode for a stack — the per-message work unit
    /// the traffic stage replays.
    fn server_episode(&self, stack: StackKind, opts: StackOptions, warmup: usize) -> EventStream {
        match stack {
            StackKind::TcpIp => self.tcpip(opts, warmup).run.episodes.server_turn.clone(),
            StackKind::Rpc => self.rpc(opts, warmup).run.episodes.server_turn.clone(),
        }
    }

    /// The memoized traffic-serving report for one (cell, scenario):
    /// the full multi-worker run loop with each worker's machine-model
    /// [`ReplayService`] replaying the cell's server-turn episode under
    /// the version's layout.  Deterministic, so safe to share.
    pub fn traffic(
        &self,
        stack: StackKind,
        opts: StackOptions,
        warmup: usize,
        version: Version,
        cfg: TrafficConfig,
    ) -> Arc<TrafficReport> {
        self.traffics.get_or_compute((stack, opts, warmup, version, cfg), || {
            let served = self
                .serve(stack, opts, warmup, version, Run::new(&cfg))
                .expect("traffic scenario must drain within its event budget");
            Arc::new(served.report)
        })
    }

    /// Serve `run` with each lane's [`ReplayService`] replaying the
    /// cell's server-turn episode under the version's layout.
    /// Deliberately *not* memoized — it exists for runs that must
    /// really recompute (a seed plane proving equivalence, a recording
    /// whose trace is the artifact); it still shares the memoized image
    /// and episode with [`SweepEngine::traffic`].
    pub fn serve(
        &self,
        stack: StackKind,
        opts: StackOptions,
        warmup: usize,
        version: Version,
        run: Run<'_>,
    ) -> Result<Served, ReplayError> {
        let img = self.image(stack, opts, warmup, version);
        let episode = self.server_episode(stack, opts, warmup);
        run.serve(|_worker| ReplayService::new(&img, &episode))
    }

    /// The memoized replay of a recorded trace against one cell's
    /// service, keyed by the trace fingerprint: replaying the same
    /// artifact twice — even after re-slicing it to a different
    /// executor count, replay being executor-invariant — computes the
    /// report once.  Panics if the trace diverges from the cell: a
    /// trace is only meaningful against the service it recorded.
    pub fn replay_trace(
        &self,
        stack: StackKind,
        opts: StackOptions,
        warmup: usize,
        version: Version,
        stream: &TraceStream,
    ) -> Arc<TrafficReport> {
        let key = (stack, opts, warmup, version, stream.fingerprint());
        self.replays.get_or_compute(key, || {
            let served = self
                .serve(stack, opts, warmup, version, Run::replay(stream))
                .expect("recorded trace must replay without divergence");
            Arc::new(served.report)
        })
    }

    /// The memoized capacity curve for one (cell, ramp): climb the
    /// offered-rate ladder, measuring each rung through the (equally
    /// memoized) traffic stage, and stop at the first rung whose p99
    /// breaks the SLO or whose achieved rate falls below the floor —
    /// that rung is the *knee*.  Rungs below the knee define the cell's
    /// max sustainable rate.
    pub fn capacity(
        &self,
        stack: StackKind,
        opts: StackOptions,
        warmup: usize,
        version: Version,
        ramp: CapacityRamp,
    ) -> Arc<CapacityCurve> {
        self.capacities.get_or_compute((stack, opts, warmup, version, ramp), || {
            let workers = ramp.base.workers.max(1) as u64;
            let probe = |rate: u64| -> CapacityPoint {
                let report = self.traffic(stack, opts, warmup, version, ramp.rung_config(rate));
                let offered = rate * workers;
                let achieved = report.msgs_per_sec();
                let p99 = report.hist.p99();
                let violated = p99 > ramp.slo_p99_ns
                    || achieved * 1000.0 < offered as f64 * ramp.min_achieved_ppt as f64;
                CapacityPoint {
                    offered_mps: offered,
                    achieved_mps: achieved,
                    p50_ns: report.hist.p50(),
                    p99_ns: p99,
                    p999_ns: report.hist.p999(),
                    violated,
                }
            };
            let mut points = Vec::new();
            let mut knee = None;
            let mut max_sustainable = 0.0f64;
            // A geometric ladder brackets the knee within one growth
            // factor; the per-worker rates of the bracketing rungs seed
            // the bisection below.
            let mut lo_rate = None; // last good per-worker rate
            let mut hi_rate = None; // first violating per-worker rate
            for rate in ramp.rates() {
                let p = probe(rate);
                let violated = p.violated;
                max_sustainable = if violated { max_sustainable } else { max_sustainable.max(p.achieved_mps) };
                points.push(p);
                if violated {
                    knee = Some(rate * workers);
                    hi_rate = Some(rate);
                    break;
                }
                lo_rate = Some(rate);
            }
            // Knee refinement: bisect the per-worker rate between the
            // bracketing rungs.  Every probe is a memoized traffic run,
            // so re-deriving the curve replays from cache.
            let mut refined = Vec::new();
            let mut refined_knee = None;
            if let (Some(mut lo), Some(mut hi)) = (lo_rate, hi_rate) {
                for _ in 0..ramp.bisect_iters {
                    let mid = lo + (hi - lo) / 2;
                    if mid == lo || mid == hi {
                        break;
                    }
                    let p = probe(mid);
                    if p.violated {
                        hi = mid;
                    } else {
                        lo = mid;
                        max_sustainable = max_sustainable.max(p.achieved_mps);
                    }
                    refined.push(p);
                }
                refined_knee = Some(hi * workers);
            }
            Arc::new(CapacityCurve {
                points,
                knee_offered_mps: knee,
                max_sustainable_mps: max_sustainable,
                refined,
                refined_knee_mps: refined_knee,
            })
        })
    }

    /// The 6-version × 2-stack capacity sweep under one ramp,
    /// prefetched in parallel, in deterministic (stack, version) order.
    pub fn capacity_sweep(
        &self,
        opts: StackOptions,
        warmup: usize,
        ramp: CapacityRamp,
    ) -> Vec<(StackKind, Version, Arc<CapacityCurve>)> {
        let mut jobs = Vec::new();
        for stack in [StackKind::TcpIp, StackKind::Rpc] {
            for v in Version::all() {
                jobs.push(SweepJob::Capacity(stack, opts, warmup, v, ramp));
            }
        }
        self.prefetch(&jobs);
        let mut rows = Vec::new();
        for stack in [StackKind::TcpIp, StackKind::Rpc] {
            for version in Version::all() {
                rows.push((stack, version, self.capacity(stack, opts, warmup, version, ramp)));
            }
        }
        rows
    }

    /// The memoized demux-locality cell for one (cell, spec): the
    /// full traffic run with the spec's address-cache policy and
    /// reference stream overlaid, reduced to the demux figures of
    /// merit.  Rides the memoized traffic stage, so the same
    /// configuration asked for as a plain traffic run shares one
    /// computation.
    pub fn demux(
        &self,
        stack: StackKind,
        opts: StackOptions,
        warmup: usize,
        version: Version,
        spec: DemuxSpec,
    ) -> DemuxCell {
        self.demuxes.get_or_compute((stack, opts, warmup, version, spec), || {
            let report = self.traffic(stack, opts, warmup, version, spec.config());
            DemuxCell::from_report(&report)
        })
    }

    /// The demux matrix for one cell: every spec prefetched in
    /// parallel, rows returned in the given spec order (callers build
    /// the policy × stream cross product, see [`DemuxSpec::cross`]).
    pub fn demux_matrix(
        &self,
        stack: StackKind,
        opts: StackOptions,
        warmup: usize,
        version: Version,
        specs: &[DemuxSpec],
    ) -> Vec<(DemuxSpec, DemuxCell)> {
        let jobs: Vec<SweepJob> = specs
            .iter()
            .map(|&spec| SweepJob::Demux(stack, opts, warmup, version, spec))
            .collect();
        self.prefetch(&jobs);
        specs
            .iter()
            .map(|&spec| (spec, self.demux(stack, opts, warmup, version, spec)))
            .collect()
    }

    /// A [`PlanCache`] rooted at this engine for one cell: inject into
    /// [`traffic::Run::adaptive`] to share JIT-synthesized plans across
    /// runs (what [`SweepEngine::adapt`] does internally).
    pub fn plan_cache(
        &self,
        stack: StackKind,
        opts: StackOptions,
        warmup: usize,
        version: Version,
    ) -> EnginePlanCache<'_> {
        EnginePlanCache { engine: self, stack, opts, warmup, version }
    }

    /// Plan-store traffic: `(requests, hits)`.  The difference is the
    /// number of micro-positioned syntheses the store saved.
    pub fn jit_plan_stats(&self) -> (u64, u64) {
        (self.jit_plans.requests.load(Ordering::Relaxed), self.jit_plans.hits.load(Ordering::Relaxed))
    }

    /// The memoized adaptive re-layout run for one (cell, spec): the
    /// full serving loop with per-lane sampling profilers, the shared
    /// background re-layout worker scoring the spec's candidate images
    /// (every one pulled from the engine's image memo), and epoch-based
    /// hot swaps.  Synthesized plans land in the engine-wide plan
    /// store, so later specs over the same cell reuse them.
    ///
    /// The *simulated* outcome — serving report, swap timeline, lane
    /// counters — is a pure function of the key.  The worker's cache
    /// counters (`jit_builds` vs `plan_cache_hits`) additionally
    /// reflect how warm the shared plan store already was when the cell
    /// was first computed, so drivers that print them should compute
    /// their cells in a deterministic order (as the `adapt` bench suite does).
    pub fn adapt(
        &self,
        stack: StackKind,
        opts: StackOptions,
        warmup: usize,
        spec: AdaptSpec,
    ) -> Arc<AdaptOutcome> {
        self.adapts.get_or_compute((stack, opts, warmup, spec), || {
            let versions = spec.candidates.members();
            let initial = versions
                .iter()
                .position(|&v| v == spec.initial)
                .expect("initial version must be in the candidate set");
            let candidates: Vec<Candidate> = versions
                .iter()
                .map(|&v| Candidate::new(v.name(), self.image(stack, opts, warmup, v)))
                .collect();
            let program = match stack {
                StackKind::TcpIp => Arc::clone(&self.tcpip(opts, warmup).run.world.program),
                StackKind::Rpc => Arc::clone(&self.rpc(opts, warmup).run.world.program),
            };
            let episode = self.server_episode(stack, opts, warmup);
            let image_config = spec.initial.image_config();
            let cache = self.plan_cache(stack, opts, warmup, spec.initial);
            let served = Run::new(&spec.base)
                .adaptive(AdaptSetup {
                    adapt: spec.adapt,
                    program: &program,
                    episode: &episode,
                    image_config: &image_config,
                    candidates: &candidates,
                    initial,
                    cache,
                })
                .expect("adaptive scenario must drain within its event budget");
            let adapt = served.adapt.expect("an adaptive run reports its timeline");
            Arc::new(AdaptOutcome { report: served.report, adapt })
        })
    }

    /// The canonical 6-version × 2-stack traffic sweep under one
    /// serving scenario, prefetched in parallel and returned in
    /// deterministic (stack, version) order.
    pub fn traffic_sweep(
        &self,
        opts: StackOptions,
        warmup: usize,
        cfg: TrafficConfig,
    ) -> Vec<(StackKind, Version, Arc<TrafficReport>)> {
        let mut jobs = Vec::new();
        for stack in [StackKind::TcpIp, StackKind::Rpc] {
            for v in Version::all() {
                jobs.push(SweepJob::Traffic(stack, opts, warmup, v, cfg));
            }
        }
        self.prefetch(&jobs);
        let mut rows = Vec::new();
        for stack in [StackKind::TcpIp, StackKind::Rpc] {
            for version in Version::all() {
                rows.push((stack, version, self.traffic(stack, opts, warmup, version, cfg)));
            }
        }
        rows
    }

    /// Cache-miss counters per stage.
    pub fn counters(&self) -> SweepCounters {
        SweepCounters {
            runs: self.tcp_runs.computed() + self.rpc_runs.computed(),
            layouts: self.layouts.computed(),
            images: self.images.computed(),
            timings: self.timings.computed(),
            cold_stats: self.cold_stats.computed(),
            replay_stats: self.replay_stats.computed(),
            traffics: self.traffics.computed(),
            capacities: self.capacities.computed(),
            demuxes: self.demuxes.computed(),
            adapts: self.adapts.computed(),
            replays: self.replays.computed(),
        }
    }

    /// Fill the caches for `jobs` using every available core: a shared
    /// work queue drained by scoped worker threads.  Requests for the
    /// same underlying artifact (e.g. two versions needing one
    /// functional run) deduplicate through the memo cells, so nothing
    /// is computed twice no matter how jobs overlap.
    pub fn prefetch(&self, jobs: &[SweepJob]) {
        if jobs.is_empty() {
            return;
        }
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .min(jobs.len());
        if workers <= 1 {
            for job in jobs {
                self.run_job(*job);
            }
            return;
        }
        let next = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    match jobs.get(i) {
                        Some(job) => self.run_job(*job),
                        None => break,
                    }
                });
            }
        });
    }

    fn run_job(&self, job: SweepJob) {
        match job {
            SweepJob::Layout(stack, opts, warmup, v) => {
                self.layout(stack, opts, warmup, v);
            }
            SweepJob::Timing(stack, opts, warmup, v) => {
                self.timing(stack, opts, warmup, v);
            }
            SweepJob::ColdStats(stack, opts, warmup, v) => {
                self.cold_stats(stack, opts, warmup, v);
            }
            SweepJob::ReplayStats(stack, opts, warmup, v) => {
                self.client_replay_stats(stack, opts, warmup, v);
            }
            SweepJob::Traffic(stack, opts, warmup, v, cfg) => {
                self.traffic(stack, opts, warmup, v, cfg);
            }
            SweepJob::Capacity(stack, opts, warmup, v, ramp) => {
                self.capacity(stack, opts, warmup, v, ramp);
            }
            SweepJob::Demux(stack, opts, warmup, v, spec) => {
                self.demux(stack, opts, warmup, v, spec);
            }
            SweepJob::Adapt(stack, opts, warmup, spec) => {
                self.adapt(stack, opts, warmup, spec);
            }
        }
    }

    /// The canonical sweep: warm timings and cold statistics for all
    /// six versions of both stacks, computed in parallel, returned in
    /// deterministic (stack, version) order.
    pub fn sweep(&self, opts: StackOptions, warmup: usize) -> Vec<SweepRow> {
        let mut jobs = Vec::new();
        for stack in [StackKind::TcpIp, StackKind::Rpc] {
            for v in Version::all() {
                jobs.push(SweepJob::Layout(stack, opts, warmup, v));
                jobs.push(SweepJob::Timing(stack, opts, warmup, v));
                jobs.push(SweepJob::ColdStats(stack, opts, warmup, v));
            }
        }
        self.prefetch(&jobs);
        let mut rows = Vec::new();
        for stack in [StackKind::TcpIp, StackKind::Rpc] {
            for version in Version::all() {
                rows.push(SweepRow {
                    stack,
                    version,
                    timing: self.timing(stack, opts, warmup, version),
                    cold: self.cold_stats(stack, opts, warmup, version),
                });
            }
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memo_computes_once_under_contention() {
        let memo: Memo<u32, u64> = Memo::new();
        let hits = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for k in 0..16u32 {
                        let v = memo.get_or_compute(k, || {
                            hits.fetch_add(1, Ordering::Relaxed);
                            u64::from(k) * 3
                        });
                        assert_eq!(v, u64::from(k) * 3);
                    }
                });
            }
        });
        assert_eq!(hits.load(Ordering::Relaxed), 16, "one compute per key");
        assert_eq!(memo.computed(), 16);
    }

    #[test]
    fn engine_memoizes_runs_and_images() {
        let eng = SweepEngine::new();
        let opts = StackOptions::improved();
        let a = eng.tcpip(opts, 2);
        let b = eng.tcpip(opts, 2);
        assert!(Arc::ptr_eq(&a, &b), "second lookup must hit the cache");
        let i1 = eng.image(StackKind::TcpIp, opts, 2, Version::Std);
        let i2 = eng.image(StackKind::TcpIp, opts, 2, Version::Std);
        assert!(Arc::ptr_eq(&i1, &i2));
        assert_eq!(eng.counters().runs, 1);
        assert_eq!(eng.counters().images, 1);
    }
}
