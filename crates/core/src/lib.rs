//! # protolat-core — the experiment harness
//!
//! Ties the substrates together and regenerates every table and figure
//! of the paper:
//!
//! * [`world`] — builds a *world*: the KIR program (library + stack
//!   models), data layout, and the two hosts of the testbed.
//! * [`config`] — the paper's six configurations (BAD, STD, OUT, CLO,
//!   PIN, ALL) as image-building recipes.
//! * [`harness`] — functional ping-pong runs over the simulated wire,
//!   capturing per-side execution episodes.
//! * [`timing`] — replays episodes against laid-out images on warm
//!   machines, splits out the overlap with network I/O, and composes
//!   end-to-end roundtrip latency exactly as the testbed does:
//!   `client-out + controller + server-turn + controller + client-in`.
//! * [`sweep`] — the memoizing sweep engine: every functional run,
//!   image, timing, statistic and traffic-serving report computed at
//!   most once per process, with the canonical 6-version × 2-stack
//!   sweep fanned out across scoped threads.
//! * [`experiments`] — one driver per table/figure.
//! * [`fixtures`] — deterministic artifacts generated from the stacks
//!   (the checked-in pcap capture).
//! * [`report`] — plain-text table rendering.

pub mod config;
pub mod experiments;
pub mod fixtures;
pub mod harness;
pub mod report;
pub mod sweep;
pub mod timing;
pub mod world;

pub use config::{StackKind, Version};
pub use harness::{RoundtripEpisodes, RpcRun, TcpIpRun};
pub use sweep::{
    AdaptOutcome, AdaptSpec, CapacityCurve, CapacityPoint, CapacityRamp, DemuxCell, DemuxSpec,
    EnginePlanCache, SweepCounters, SweepEngine, SweepJob, SweepRow, VersionSet,
};
pub use world::{RpcWorld, TcpIpWorld};
