//! What every workload shares: the run context, the two clocks, the
//! closed timing loop, the repeated set-up, and the outcome a workload
//! hands back.
//!
//! The end-to-end times are process CPU time rescaled by the pace
//! kernel ([`crate::pace`]) to the reference host; the wall time of
//! each iteration is kept beside it for the per-layer numbers.

use std::ops::AddAssign;
use std::time::{Duration, Instant};

use crate::host::cpu_time;
use crate::metrics::{median, tail, Metrics};
use crate::pace::{rescale, Pace};
use crate::spans::Tracer;

/// How many times a run sets up; `setup_s` is their median.
pub const SETUPS: usize = 5;

pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// Process start, as near as the program can take it.
    pub start: Instant,
}

impl Ctx {
    /// Seconds of timed iterations per phase: a traced run splits its
    /// time between an untraced and a traced phase.
    pub fn phase_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

/// One named output check and how often it passed and failed.
pub struct Check {
    pub name: &'static str,
    pub passed: u64,
    pub failed: u64,
}

/// Everything a workload reports.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    pub digest: u64,
    /// Description lines printed before the metrics.
    pub about: Vec<String>,
    pub threads: u32,
    pub executors: u32,
}

impl Outcome {
    /// Record one evaluation of check `name`; returns `ok`.
    pub fn check(&mut self, name: &'static str, ok: bool) -> bool {
        let i = match self.checks.iter().position(|c| c.name == name) {
            Some(i) => i,
            None => {
                self.checks.push(Check {
                    name,
                    passed: 0,
                    failed: 0,
                });
                self.checks.len() - 1
            }
        };
        if ok {
            self.checks[i].passed += 1;
        } else {
            self.checks[i].failed += 1;
        }
        ok
    }

    /// Account one unit of work of `ops` operations: all of them fail
    /// when any of its checks failed.
    pub fn ops(&mut self, ops: u64, ok: bool) {
        self.attempted += ops;
        if !ok {
            self.failed += ops;
        }
    }

    pub fn all_passed(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.failed == 0)
    }

    /// `setup_s` from the set-up times.
    pub fn setup_metric(&mut self, setups: &Setups) {
        self.metrics
            .add("setup_s", median(&setups.s), "s")
            .note(format!(
                "median of {} set-ups, the first timed from process start; CPU s at reference pace \
                 (wall median {:.4} s)",
                setups.s.len(),
                median(&setups.wall_s)
            ));
    }

    /// `peak_rss_mib`, taken when the timed iterations end: the untimed
    /// checks after them (traced and reference runs) are the
    /// benchmark's own work, not the workload's.
    pub fn memory_metric(&mut self) {
        self.metrics
            .add("peak_rss_mib", crate::host::peak_rss_mib(), "MiB")
            .note("VmHWM when the timed iterations end");
    }

    /// `iter_cpu_ms_p50` and `iter_cpu_ms_tail` from timed iterations.
    pub fn iteration_metrics(&mut self, t: &Timed, unit_of_work: &str) {
        let n = t.ms.len();
        self.metrics
            .add("iter_cpu_ms_p50", median(&t.ms), "ms")
            .note(format!(
            "median of {n} iterations; one iteration = {unit_of_work}; CPU ms at reference pace \
                 (measured CPU median {:.3} ms, wall median {:.3} ms, pace chunk median {:.3} ms)",
            median(&t.cpu_ms),
            median(&t.wall_ms),
            median(&t.pace_ms),
        ));
        let (v, pct) = tail(&t.ms);
        self.metrics
            .add("iter_cpu_ms_tail", v, "ms")
            .note(format!("p{pct:.1} of {n} iterations"));
    }
}

/// Wall and process CPU time of one timed section.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sample {
    pub wall: Duration,
    pub cpu: Duration,
}

impl AddAssign for Sample {
    fn add_assign(&mut self, rhs: Sample) {
        self.wall += rhs.wall;
        self.cpu += rhs.cpu;
    }
}

/// The start of a timed section on both clocks.
pub struct Stamp {
    wall: Instant,
    cpu: Duration,
}

impl Stamp {
    pub fn now() -> Self {
        Stamp {
            wall: Instant::now(),
            cpu: cpu_time(),
        }
    }

    pub fn elapsed(&self) -> Sample {
        let cpu = cpu_time();
        Sample {
            wall: self.wall.elapsed(),
            cpu: cpu - self.cpu,
        }
    }
}

/// The iterations of one closed loop, in ms, in the order they ran.
#[derive(Debug, Default)]
pub struct Timed {
    pub wall_ms: Vec<f64>,
    pub cpu_ms: Vec<f64>,
    /// CPU ms rescaled to the reference host's pace.
    pub ms: Vec<f64>,
    /// The pace chunks: one before the first iteration and one after
    /// each.
    pub pace_ms: Vec<f64>,
}

impl Timed {
    pub fn wall_s(&self) -> f64 {
        self.wall_ms.iter().sum::<f64>() / 1e3
    }
}

/// The closed loop with one caller: `iter(i)` runs back to back, each
/// call starting when the previous returns, until `seconds` have
/// passed and at least `min` calls ran.  Each call returns the times of
/// its timed section; checks it runs after that are untimed.  A pace
/// chunk runs before the first call and after each, and each call's CPU
/// time is rescaled by the chunks around it.
pub fn closed_loop(
    pace: &mut Pace,
    seconds: f64,
    min: usize,
    mut iter: impl FnMut(usize) -> Sample,
) -> Timed {
    let start = Instant::now();
    let mut t = Timed::default();
    t.pace_ms.push(pace.chunk());
    while t.cpu_ms.len() < min || start.elapsed().as_secs_f64() < seconds {
        let s = iter(t.cpu_ms.len());
        t.pace_ms.push(pace.chunk());
        t.wall_ms.push(s.wall.as_secs_f64() * 1e3);
        t.cpu_ms.push(s.cpu.as_secs_f64() * 1e3);
    }
    t.ms = rescale(&t.cpu_ms, &t.pace_ms);
    t
}

/// Set-up times in seconds.
pub struct Setups {
    /// CPU s rescaled to the reference host's pace.
    pub s: Vec<f64>,
    pub wall_s: Vec<f64>,
}

/// Run `setup` [`SETUPS`] times on fresh state and return the set-up
/// times (the first measured from process start), the last set-up's
/// result, and the pace kernel, made after the first set-up so that it
/// adds nothing to it.  A pace chunk follows every set-up, and the
/// set-ups are rescaled by the chunks around them.
pub fn repeated_setup<T>(ctx: &Ctx, mut setup: impl FnMut() -> T) -> (Setups, T, Pace) {
    let mut last = setup();
    let mut cpu_s = vec![cpu_time().as_secs_f64()];
    let mut wall_s = vec![ctx.start.elapsed().as_secs_f64()];
    let mut pace = Pace::new();
    let mut chunks = vec![pace.chunk()];
    for _ in 1..SETUPS {
        let t0 = Stamp::now();
        last = setup();
        let s = t0.elapsed();
        chunks.push(pace.chunk());
        cpu_s.push(s.cpu.as_secs_f64());
        wall_s.push(s.wall.as_secs_f64());
    }
    // The first set-up ran before any chunk; the one after it stands in.
    chunks.insert(0, chunks[0]);
    let s = rescale(&cpu_s, &chunks);
    (Setups { s, wall_s }, last, pace)
}

/// Write the last traced iteration's spans and say where.
pub fn write_spans(out: &mut Outcome, tr: &Tracer, workload: &str) {
    match tr.write_csv(workload) {
        Ok(path) => out.about.push(format!(
            "spans of the last traced iteration: {}",
            path.display()
        )),
        Err(e) => eprintln!("perfbench: cannot write spans: {e}"),
    }
}

/// Percent by which the traced median exceeds the untraced one.
pub fn overhead_pct(untraced_ms: f64, traced_ms: f64) -> f64 {
    if untraced_ms > 0.0 {
        (traced_ms / untraced_ms - 1.0) * 100.0
    } else {
        0.0
    }
}
