//! Replay→simulate throughput benchmark: the data-oriented hot loop
//! (lean streaming replay fused into the flat-taxonomy machine model)
//! against the seed pipeline (materialized trace with full fetch-set
//! statistics, simulated on the scalar `reference` model kept in-tree).
//!
//! Measures instructions per second over one full roundtrip (client-out,
//! client-in, server-turn) for STD and ALL images of both stacks:
//!
//! * **fresh** — each iteration builds its replayer and a cold machine,
//!   the sweep engine's per-cell cost;
//! * **warm** — replayer and machine persist, counters reset per pass,
//!   the roundtrip timer's steady-state cost.
//!
//! Gate: the optimized fresh path is at least 2x the reference
//! throughput on every cell.

use alpha_machine::{reference, Machine};
use kcode::{Image, Replayer};
use crate::harness::{best_secs, JsonReport};
use crate::runner::{Cmp, Gate, Size, SuiteOutput};
use protolat_core::config::Version;
use protolat_core::harness::{run_rpc, run_tcpip, RoundtripEpisodes};
use protolat_core::sweep::SweepEngine;
use protolat_core::world::{RpcWorld, TcpIpWorld};
use protocols::StackOptions;

/// Dynamic instructions in one roundtrip of `image`.
fn roundtrip_insts(episodes: &RoundtripEpisodes, image: &Image) -> u64 {
    let rep = Replayer::new(image);
    let mut total = 0;
    for ep in [&episodes.client_out, &episodes.client_in, &episodes.server_turn] {
        total += rep
            .replay_into_lean(ep, &mut kcode::NullSink)
            .expect("episode must replay cleanly");
    }
    total
}

struct Cell {
    label: String,
    fused_fresh_ips: f64,
    fused_warm_ips: f64,
    materialized_fresh_ips: f64,
    materialized_warm_ips: f64,
}

fn measure_cell(label: &str, episodes: &RoundtripEpisodes, image: &Image) -> Cell {
    let insts = roundtrip_insts(episodes, image) as f64;
    let eps = [&episodes.client_out, &episodes.client_in, &episodes.server_turn];

    // Optimized stack, fresh: plans + cold machine built per iteration.
    let fused_fresh = best_secs(15, || {
        let rep = Replayer::new(image);
        let mut m = Machine::dec3000_600();
        for ep in eps {
            rep.replay_into_lean(ep, &mut m).expect("episode must replay cleanly");
        }
        m.mem.stall_cycles()
    });

    // Optimized stack, warm: persistent replayer and machine.
    let rep = Replayer::new(image);
    let mut m = Machine::dec3000_600();
    let fused_warm = best_secs(30, || {
        m.reset_stats();
        for ep in eps {
            rep.replay_into_lean(ep, &mut m).expect("episode must replay cleanly");
        }
        m.mem.stall_cycles()
    });

    // Seed pipeline, fresh: materialized trace with full fetch-set
    // statistics, simulated on the scalar reference model.
    let materialized_fresh = best_secs(15, || {
        let rep = Replayer::new(image);
        let mut m = reference::Machine::dec3000_600();
        for ep in eps {
            let out = rep.replay(ep).expect("episode must replay cleanly");
            m.run_accumulate(&out.trace);
        }
        m.mem.stall_cycles()
    });

    // Seed pipeline, warm.
    let rep_ref = Replayer::new(image);
    let mut m_ref = reference::Machine::dec3000_600();
    let materialized_warm = best_secs(30, || {
        m_ref.reset_stats();
        for ep in eps {
            let out = rep_ref.replay(ep).expect("episode must replay cleanly");
            m_ref.run_accumulate(&out.trace);
        }
        m_ref.mem.stall_cycles()
    });

    Cell {
        label: label.to_string(),
        fused_fresh_ips: insts / fused_fresh,
        fused_warm_ips: insts / fused_warm,
        materialized_fresh_ips: insts / materialized_fresh,
        materialized_warm_ips: insts / materialized_warm,
    }
}

/// The suite's entry point; it has one size.
pub fn run(_: &SweepEngine, _: Size) -> SuiteOutput {
    let opts = StackOptions::improved();
    let mut cells = Vec::new();

    let run = run_tcpip(TcpIpWorld::build(opts), 2);
    let canonical = run.episodes.client_trace();
    for v in [Version::Std, Version::All] {
        let img = v.build_tcpip(&run.world, &canonical);
        let label = format!("tcpip_{}", v.name().to_lowercase());
        cells.push(measure_cell(&label, &run.episodes, &img));
    }

    let run = run_rpc(RpcWorld::build(opts), 2);
    let canonical = run.episodes.client_trace();
    for v in [Version::Std, Version::All] {
        let img = v.build_rpc(&run.world, &canonical);
        let label = format!("rpc_{}", v.name().to_lowercase());
        cells.push(measure_cell(&label, &run.episodes, &img));
    }

    let min_fresh_speedup = cells
        .iter()
        .map(|c| c.fused_fresh_ips / c.materialized_fresh_ips)
        .fold(f64::INFINITY, f64::min);
    let min_warm_speedup = cells
        .iter()
        .map(|c| c.fused_warm_ips / c.materialized_warm_ips)
        .fold(f64::INFINITY, f64::min);

    println!("replay->simulate throughput (M insts/sec, best-of):");
    println!(
        "  {:<12} {:>12} {:>12} {:>12} {:>12}",
        "cell", "fused fresh", "fused warm", "ref fresh", "ref warm"
    );
    for c in &cells {
        println!(
            "  {:<12} {:>12.2} {:>12.2} {:>12.2} {:>12.2}",
            c.label,
            c.fused_fresh_ips / 1e6,
            c.fused_warm_ips / 1e6,
            c.materialized_fresh_ips / 1e6,
            c.materialized_warm_ips / 1e6,
        );
    }
    println!("  min fresh speedup vs reference: {min_fresh_speedup:.2}x");
    println!("  min warm  speedup vs reference: {min_warm_speedup:.2}x");

    let mut report = JsonReport::new("replay");
    for c in &cells {
        report.field(
            format!("{}_fused_fresh_ips", c.label),
            format_args!("{:.0}", c.fused_fresh_ips),
        );
        report.field(
            format!("{}_fused_warm_ips", c.label),
            format_args!("{:.0}", c.fused_warm_ips),
        );
        report.field(
            format!("{}_materialized_fresh_ips", c.label),
            format_args!("{:.0}", c.materialized_fresh_ips),
        );
        report.field(
            format!("{}_materialized_warm_ips", c.label),
            format_args!("{:.0}", c.materialized_warm_ips),
        );
    }
    report
        .field("min_fresh_speedup", format_args!("{min_fresh_speedup:.3}"))
        .field("min_warm_speedup", format_args!("{min_warm_speedup:.3}"));
    let gates =
        vec![Gate::new("min_fresh_speedup", min_fresh_speedup, Cmp::Ge, 2.0, "fused vs reference")];
    SuiteOutput { report, gates }
}
