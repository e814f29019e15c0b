//! `paper_grid`: the paper's own experiment.  One sweep is a fresh
//! `SweepEngine::new().sweep(StackOptions::improved(), 2)`: functional
//! runs of both stacks, then layout, image, warm roundtrip timing and
//! cold cache statistics for all 12 (stack × version) cells.  One
//! iteration is [`SWEEPS`] such sweeps, about as long as a serving
//! iteration, so host hiccups of a few milliseconds average out and the
//! tail percentile sits where the other workloads' does.  It has no
//! random input, so `--seed` does not change it.

use std::time::Instant;

use protocols::StackOptions;
use protolat_core::sweep::{SweepEngine, SweepRow};
use protolat_core::{StackKind, Version};

use crate::digest::{self, Fnv};
use crate::metrics::{median, CELLS};
use crate::run::{
    closed_loop, overhead_pct, repeated_setup, write_spans, Ctx, Outcome, Sample, Stamp,
};
use crate::spans::{Tracer, ROOT};

const WARMUP: usize = 2;
const CELL_COUNT: u64 = 12;
/// Fresh sweeps per iteration.
const SWEEPS: usize = 32;

fn cells() -> impl Iterator<Item = (StackKind, Version)> {
    [StackKind::TcpIp, StackKind::Rpc]
        .into_iter()
        .flat_map(|s| Version::all().map(|v| (s, v)))
}

fn rows_digest(rows: &[SweepRow]) -> u64 {
    let mut d = Fnv::default();
    for r in rows {
        digest::row(&mut d, r);
    }
    d.finish()
}

fn sweep() -> Vec<SweepRow> {
    SweepEngine::new().sweep(StackOptions::improved(), WARMUP)
}

/// The same sweep with every stage called serially on a fresh engine,
/// one span per call, so each stage's host time can be read apart.
fn traced_sweep(tr: &mut Tracer) -> Vec<SweepRow> {
    let eng = SweepEngine::new();
    let opts = StackOptions::improved();
    tr.clear();
    let root = tr.open("bench.iteration", ROOT, 0);
    tr.span("core.functional_run", root, 0, || eng.tcpip(opts, WARMUP));
    tr.span("core.functional_run", root, 1, || eng.rpc(opts, WARMUP));
    for (i, (s, v)) in cells().enumerate() {
        tr.span("kcode.layout", root, i as u64, || {
            eng.layout(s, opts, WARMUP, v)
        });
    }
    for (i, (s, v)) in cells().enumerate() {
        tr.span("kcode.image", root, i as u64, || {
            eng.image(s, opts, WARMUP, v)
        });
    }
    for (i, (s, v)) in cells().enumerate() {
        tr.span("machine.warm_timing", root, i as u64, || {
            eng.timing(s, opts, WARMUP, v)
        });
    }
    for (i, (s, v)) in cells().enumerate() {
        tr.span("machine.cold_stats", root, i as u64, || {
            eng.cold_stats(s, opts, WARMUP, v)
        });
    }
    tr.close(root);
    cells()
        .map(|(stack, version)| SweepRow {
            stack,
            version,
            timing: eng.timing(stack, opts, WARMUP, version),
            cold: eng.cold_stats(stack, opts, WARMUP, version),
        })
        .collect()
}

/// Output checks on one iteration's rows; returns whether all passed.
fn check_rows(out: &mut Outcome, rows: &[SweepRow], reference: u64) -> bool {
    let same = out.check(
        "rows equal the first set-up's rows",
        rows_digest(rows) == reference,
    );
    let e2e = |v: Version| {
        rows.iter()
            .find(|r| r.stack == StackKind::TcpIp && r.version == v)
            .map_or(0.0, |r| r.timing.e2e_us)
    };
    let ordered = out.check(
        "TCP/IP BAD roundtrip exceeds ALL",
        e2e(Version::Bad) > e2e(Version::All),
    );
    same && ordered
}

/// Simulated instructions behind one iteration's machine stages: the
/// warm timing replays each episode twice (warm-up pass, measured
/// pass), the cold statistics replay the client episodes once.
fn sim_inst(rows: &[SweepRow]) -> u64 {
    rows.iter()
        .map(|r| {
            2 * (r.timing.client.instructions + r.timing.server_turn.instructions)
                + r.cold.instructions
        })
        .sum()
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome {
        threads: crate::host::nproc().min(CELL_COUNT as usize) as u32,
        executors: 0,
        ..Outcome::default()
    };
    out.about
        .push("paper_grid: 12 (stack x version) cells of Table 4 on a fresh sweep engine".into());
    out.about
        .push("seed: unused, the paper experiment has no random input".into());

    let sweeps = if ctx.smoke { 1 } else { SWEEPS };
    let (setups, rows, mut pace) = repeated_setup(ctx, || {
        let rows = sweep();
        for _ in 1..sweeps {
            sweep();
        }
        rows
    });
    out.setup_metric(&setups);
    let reference = rows_digest(&rows);
    out.digest = reference;
    let ok = check_rows(&mut out, &rows, reference);
    out.ops(CELL_COUNT, ok);

    let unit = format!("{sweeps} fresh 12-cell sweeps");
    let min = if ctx.smoke { 2 } else { 20 };
    let times = closed_loop(&mut pace, ctx.phase_seconds(), min, |_| {
        let t0 = Stamp::now();
        let batch: Vec<Vec<SweepRow>> = (0..sweeps).map(|_| sweep()).collect();
        let dt = t0.elapsed();
        for rows in &batch {
            let ok = check_rows(&mut out, rows, reference);
            out.ops(CELL_COUNT, ok);
        }
        dt
    });
    out.iteration_metrics(&times, &unit);
    out.memory_metric();

    // The traced phase (or, untraced, one traced iteration as a check).
    let mut tr = Tracer::new(Instant::now(), 128);
    let stages = [
        "core.functional_run",
        "kcode.layout",
        "kcode.image",
        "machine.warm_timing",
        "machine.cold_stats",
    ];
    let mut stage_ms: Vec<Vec<f64>> = vec![Vec::new(); stages.len()];
    let traced_seconds = if ctx.trace { ctx.phase_seconds() } else { 0.0 };
    let traced = closed_loop(&mut pace, traced_seconds, 1, |_| {
        let mut dt = Sample::default();
        for _ in 0..sweeps {
            let t0 = Stamp::now();
            let rows = traced_sweep(&mut tr);
            dt += t0.elapsed();
            let same = out.check(
                "traced rows equal untraced rows",
                rows_digest(&rows) == reference,
            );
            out.ops(CELL_COUNT, same);
            for (ms, name) in stage_ms.iter_mut().zip(stages) {
                ms.push(tr.total(name) as f64 / 1e6);
            }
        }
        dt
    });

    let global = SweepEngine::global().sweep(StackOptions::improved(), WARMUP);
    let same = out.check(
        "fresh-engine rows equal SweepEngine::global() rows",
        rows_digest(&global) == reference,
    );
    out.ops(CELL_COUNT, same);

    // Modelled outputs (identical on every iteration, by the checks).
    let lowest = |stack: StackKind| {
        rows.iter()
            .filter(|r| r.stack == stack)
            .map(|r| r.timing.e2e_us)
            .fold(f64::INFINITY, f64::min)
    };
    let m = &mut out.metrics;
    m.add(
        "model_rtt_us",
        (lowest(StackKind::TcpIp) + lowest(StackKind::Rpc)) / 2.0,
        "us.model",
    )
    .note("mean over TCP/IP and RPC of each stack's lowest Table-4 roundtrip");
    if ctx.trace {
        let inst = sim_inst(&rows);
        let names = [
            "core.functional_run_ms",
            "kcode.layout_ms",
            "kcode.image_ms",
            "machine.warm_timing_ms",
            "machine.cold_stats_ms",
        ];
        for (name, ms) in names.iter().zip(&stage_ms) {
            m.add(*name, median(ms), "ms")
                .note(format!("per sweep, median over {} traced sweeps", ms.len()));
        }
        let machine_ms = median(&stage_ms[3]) + median(&stage_ms[4]);
        m.add("machine.sim_inst", inst as f64, "count.model")
            .note("per sweep");
        m.add(
            "machine.host_ns_per_inst",
            machine_ms * 1e6 / inst as f64,
            "ns",
        )
        .note("(warm timing + cold stats) host time per simulated instruction");
        for (cell, r) in CELLS.iter().zip(&rows) {
            m.add(format!("kcode.rtt_us.{cell}"), r.timing.e2e_us, "us.model");
        }
        for (cell, r) in CELLS.iter().zip(&rows) {
            m.add(
                format!("machine.mcpi.{cell}"),
                r.timing.client.mcpi(),
                "cpi.model",
            );
        }
        m.add("traffic.calls", tr.count("traffic") as f64, "count")
            .note("spans in the traffic module per sweep");
        m.add(
            "bench.trace_overhead_pct",
            overhead_pct(median(&times.wall_ms), median(&traced.wall_ms)),
            "%",
        )
        .note("wall medians; on one CPU the engine calls the stages serially, traced or not");
        write_spans(&mut out, &tr, "paper_grid");
    }
    out
}
