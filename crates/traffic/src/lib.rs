//! # traffic — sharded traffic serving over the replay pipeline
//!
//! The paper measures one request/response pair in isolation; this
//! crate asks the production-scale question the roadmap poses: what do
//! the latency techniques buy under *sustained, concurrent* traffic,
//! where queueing turns per-message processing cost into a tail?
//!
//! Pieces, bottom up:
//!
//! * [`hist`] — an allocation-free HDR-style log-bucketed latency
//!   histogram; per-worker instances merge exactly, so multi-worker
//!   quantiles equal those of one concatenated run.
//! * [`workload`] — seeded scenario generators: open-loop Poisson
//!   arrivals (the tail-exposing discipline) and closed-loop N-client
//!   request/response (the capacity probe), with locality-controlled
//!   reference streams (Zipf, LRU-stack-depth, packet trains,
//!   adversarial conflict cycles) modelling destination-address
//!   locality.
//! * [`policy`] — the pluggable per-shard demux address-cache policies
//!   (one-entry, direct-mapped, 2-way LRU, FIFO, seeded random):
//!   Jain's destination-cache policy space, monomorphized (no dyn
//!   dispatch on the lookup path).
//! * [`session`] — a sharded session table keyed by the classifier
//!   demux key, generalizing `xkernel`'s one-entry-cache + non-empty-
//!   bucket map to many shards with bounded residency, eviction and a
//!   pluggable address cache per shard (seed retained as
//!   `session::reference`).
//! * [`service`] — per-message service models; [`ReplayService`]
//!   replays the server-turn kcode episode through the machine model
//!   per message (cold on session miss, warm on hit) with a
//!   self-validating steady-state memo.
//! * [`runloop`] — the lane (logical worker) serving pipeline and the
//!   seed per-lane FIFO execution; deterministic for a fixed seed and
//!   lane count.
//! * [`wire`] — the wire data plane: in wire mode every send is
//!   encoded to real Ethernet/IPv4/TCP bytes in a recycled pooled
//!   buffer (`protocols::wire` + `netsim::buf`), the fault injector
//!   operates on those bytes, and survivors are demuxed back *from the
//!   bytes* — bit-identical latency reports to descriptor mode, real
//!   encode/parse cost on the wall clock.
//! * [`dispatch`] — the default execution: a lock-free dispatch plane
//!   (generator→lane SPSC rings, MPSC injectors, lane work stealing)
//!   that runs the identical lane code bit-identically to the seed
//!   FIFO for any executor count.
//! * [`adapt`] — online profile-guided re-layout: per-lane sampling
//!   profilers, a background re-layout worker and epoch-based hot swaps.
//! * [`capture`] — record/replay semantics over the `trace` crate's
//!   wire format, with [`TraceStream`] as a replayable workload source.
//! * [`run`] — the single way to run traffic: [`Run`] composes a
//!   source, an optional recording tap, a [`Plane`] and a service, and
//!   returns one [`Served`].

pub mod adapt;
pub mod capture;
pub mod dispatch;
pub mod hist;
pub mod policy;
pub mod run;
pub mod runloop;
pub mod service;
pub mod session;
pub mod wire;
pub mod workload;

pub use adapt::{
    AdaptConfig, AdaptCounters, AdaptReport, AdaptSetup, AdaptiveService, Candidate,
    LocalPlanCache, PlanCache, Profile, RelayoutStats, SwapEvent,
};
pub use capture::{config_from_record, config_to_record, ReplayError, TraceStream};
pub use hist::{
    bucket_index, bucket_lower, bucket_upper, LatencyHistogram, WindowedHistogram, BUCKET_COUNT,
    SUB_BUCKET_BITS,
};
pub use run::{record_traffic, replay_traffic, run_traffic, Plane, Run, Served};
pub use runloop::{
    TrafficConfig, TrafficReport, DEMUX_CACHE_HIT_NS, DEMUX_CHAIN_HIT_NS, DUPLICATE_DELAY_NS,
    REORDER_DELAY_NS, RTO_NS, SESSION_SETUP_NS,
};
pub use policy::{cache_slot, DemuxCache, PolicyKind};
pub use service::{detect_cycle, FixedService, ReplayService, Service, ServiceStats, MAX_PERIOD};
pub use session::{buckets_for_capacity, conflict_cycle, DemuxKey, SessionTable, TableStats};
pub use wire::{WirePath, WireStats};
pub use workload::{
    exp_gap_ns, Phase, PhasePlan, PhasedStream, RefStream, Scenario, StreamKind, Zipf, MAX_PHASES,
};
