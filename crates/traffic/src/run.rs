//! The single entry point for running traffic.
//!
//! A run is four independent choices, and [`Run`] takes each once:
//!
//! ```text
//! source   Run::new(&cfg)            the seeded workload generator
//!          Run::replay(&stream)      a recorded TraceStream
//! tap      .record()                 capture every RNG-driven decision
//! plane    .plane(Plane::SeedFifo)   where lanes execute (default Dispatch)
//! service  .serve(make)              a static per-lane Service
//!          .adaptive(setup)          the online re-layout loop
//! ```
//!
//! Every combination goes through [`drive`], one `match` over the
//! execution planes, and comes back as one [`Served`].  Reports,
//! recorded traces and swap verdicts are identical on every plane.

use netsim::engine::reference as heap;
use netsim::{Engine, Overrun};
use trace::TraceEvent;

use crate::adapt::{serve_adaptive, AdaptReport, AdaptSetup, PlanCache};
use crate::capture::{invalid, verdict_events, Mode, ReplayError, RunOut, TraceStream};
use crate::dispatch::run_dispatch_mode;
use crate::runloop::{reference, Ev, TrafficConfig, TrafficReport};
use crate::service::Service;

/// Where a run's lanes execute.  All three produce bit-identical
/// reports and traces; the seed planes are kept as oracles for the
/// default one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plane {
    /// The lock-free dispatch plane ([`crate::dispatch`]) on the
    /// timing-wheel scheduler; the default.
    Dispatch,
    /// The seed per-lane FIFO (`runloop::reference`) on the timing
    /// wheel.
    SeedFifo,
    /// The seed per-lane FIFO on the seed binary-heap scheduler
    /// (`netsim::engine::reference`).
    SeedHeap,
}

/// Everything a run produced.
#[derive(Debug)]
pub struct Served {
    pub report: TrafficReport,
    /// The complete trace when recording — leading `Config`, the lane
    /// sequences, then any `Verdict`s, ready for
    /// [`trace::write_events`]; empty otherwise.
    pub events: Vec<TraceEvent>,
    /// The adaptation timeline of an adaptive run.
    pub adapt: Option<AdaptReport>,
}

/// A traffic run under construction (see the module docs).
pub struct Run<'a> {
    cfg: TrafficConfig,
    replay: Option<&'a TraceStream>,
    record: bool,
    plane: Plane,
}

impl<'a> Run<'a> {
    /// Serve `cfg`'s seeded workload.
    pub fn new(cfg: &TrafficConfig) -> Self {
        Run { cfg: *cfg, replay: None, record: false, plane: Plane::Dispatch }
    }

    /// Serve a recorded trace: arrivals and fates come from the log,
    /// RTO firings (and, for an adaptive service, swap verdicts) are
    /// validated against it.
    pub fn replay(stream: &'a TraceStream) -> Self {
        Run { replay: Some(stream), ..Run::new(&stream.config()) }
    }

    /// Capture the run into [`Served::events`].  A replayed run cannot
    /// also record.
    pub fn record(mut self) -> Self {
        self.record = true;
        self
    }

    pub fn plane(mut self, plane: Plane) -> Self {
        self.plane = plane;
        self
    }

    /// Run with `make(lane)` as each lane's service, built on a
    /// per-lane setup thread.  The merged report is a pure function of
    /// the configuration: plane, executor count and thread scheduling
    /// cannot change a bit of it.  A trace carrying adapt verdicts is
    /// refused: only [`Run::adaptive`] can validate them.
    pub fn serve<S, F>(self, make: F) -> Result<Served, ReplayError>
    where
        S: Service + Send,
        F: Fn(u32) -> S + Sync,
    {
        if self.replay.is_some_and(TraceStream::has_verdicts) {
            return Err(ReplayError::Trace(invalid(
                "trace carries adapt verdicts; replay it with an adaptive service".into(),
            )));
        }
        let mode = self.mode()?;
        let out = drive(&self.cfg, self.plane, make, mode).map_err(ReplayError::Engine)?;
        self.finish(out, None)
    }

    /// Run with the full adaptive loop: per-lane
    /// [`AdaptiveService`](crate::AdaptiveService)s starting on
    /// `setup.candidates[setup.initial]` and one shared background
    /// re-layout worker.  The result is a pure function of the
    /// arguments — plane, executor count and thread scheduling cannot
    /// change it.
    pub fn adaptive<C: PlanCache>(self, setup: AdaptSetup<'_, C>) -> Result<Served, ReplayError> {
        let mode = self.mode()?;
        let (out, adapt) =
            serve_adaptive(&self.cfg, self.plane, setup, mode).map_err(ReplayError::Engine)?;
        self.finish(out, Some(adapt))
    }

    fn mode(&self) -> Result<Mode, ReplayError> {
        match (self.replay, self.record) {
            (None, false) => Ok(Mode::Live),
            (None, true) => Ok(Mode::Record),
            (Some(stream), false) => Ok(stream.mode()),
            (Some(_), true) => {
                Err(ReplayError::Trace(invalid("a replayed run cannot also record".into())))
            }
        }
    }

    /// Surface a replay divergence, validate replayed verdicts, and
    /// append recorded ones after the lane sequences.
    fn finish(&self, out: RunOut, adapt: Option<AdaptReport>) -> Result<Served, ReplayError> {
        if let Some(d) = out.diverged {
            return Err(ReplayError::Diverged(d));
        }
        let mut events = out.events;
        if let Some(a) = &adapt {
            if let Some(stream) = self.replay.filter(|s| a.swaps != s.verdicts()) {
                return Err(ReplayError::Diverged(format!(
                    "adapt verdicts diverged: run produced {} swaps, trace records {}",
                    a.swaps.len(),
                    stream.verdicts().len()
                )));
            }
            if self.record {
                events.extend(verdict_events(&a.swaps));
            }
        }
        Ok(Served { report: out.report, events, adapt })
    }
}

/// Run `cfg` on `plane` under `mode`: the only place a plane is chosen.
pub(crate) fn drive<S, F>(
    cfg: &TrafficConfig,
    plane: Plane,
    make: F,
    mode: Mode,
) -> Result<RunOut, Overrun>
where
    S: Service + Send,
    F: Fn(u32) -> S + Sync,
{
    match plane {
        Plane::Dispatch => run_dispatch_mode(cfg, make, mode),
        Plane::SeedFifo => reference::run_traffic_sched::<S, F, Engine<Ev>>(cfg, make, mode),
        Plane::SeedHeap => {
            reference::run_traffic_sched::<S, F, heap::Engine<Ev>>(cfg, make, mode)
        }
    }
}

/// A run that reads no trace fails only by overrunning its budget.
fn overrun(e: ReplayError) -> Overrun {
    match e {
        ReplayError::Engine(o) => o,
        e => unreachable!("a run without a trace cannot fail with: {e}"),
    }
}

/// `Run::new(cfg).serve(make)`'s report.  Kept because the standalone
/// `perfbench` package links it.
pub fn run_traffic<S, F>(cfg: &TrafficConfig, make: F) -> Result<TrafficReport, Overrun>
where
    S: Service + Send,
    F: Fn(u32) -> S + Sync,
{
    Run::new(cfg).serve(make).map(|s| s.report).map_err(overrun)
}

/// `Run::new(cfg).record().serve(make)`'s report and trace.  Kept
/// because the standalone `perfbench` package links it.
pub fn record_traffic<S, F>(
    cfg: &TrafficConfig,
    make: F,
) -> Result<(TrafficReport, Vec<TraceEvent>), Overrun>
where
    S: Service + Send,
    F: Fn(u32) -> S + Sync,
{
    Run::new(cfg).record().serve(make).map(|s| (s.report, s.events)).map_err(overrun)
}

/// `Run::replay(stream).serve(make)`'s report.  Kept because the
/// standalone `perfbench` package links it.
pub fn replay_traffic<S, F>(stream: &TraceStream, make: F) -> Result<TrafficReport, ReplayError>
where
    S: Service + Send,
    F: Fn(u32) -> S + Sync,
{
    Run::replay(stream).serve(make).map(|s| s.report)
}
