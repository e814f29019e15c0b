//! Acceptance tests for the sweep engine: memoized results must be
//! byte-for-byte identical to fresh computation, and the parallel
//! sweep must equal a serial one.

use protolat_core::config::{StackKind, Version};
use protolat_core::harness::run_tcpip;
use protolat_core::sweep::{SweepEngine, SweepJob};
use protolat_core::timing::{
    cold_client_stats_materialized, time_roundtrip_materialized, time_roundtrip_with,
    RoundtripTiming, RPC_UNTRACED_PER_HOP_US, UNTRACED_PER_HOP_US,
};
use protolat_core::world::TcpIpWorld;
use protocols::StackOptions;

fn assert_timing_eq(a: &RoundtripTiming, b: &RoundtripTiming, what: &str) {
    assert_eq!(a.client_out, b.client_out, "{what}: client_out");
    assert_eq!(a.client_in, b.client_in, "{what}: client_in");
    assert_eq!(a.server_turn, b.server_turn, "{what}: server_turn");
    assert_eq!(a.client, b.client, "{what}: merged client");
    assert_eq!(
        a.client_out_pre_us.to_bits(),
        b.client_out_pre_us.to_bits(),
        "{what}: out pre-us"
    );
    assert_eq!(a.server_pre_us.to_bits(), b.server_pre_us.to_bits(), "{what}: server pre-us");
    assert_eq!(a.e2e_us.to_bits(), b.e2e_us.to_bits(), "{what}: e2e");
}

#[test]
fn memoized_equals_fresh_computation() {
    let eng = SweepEngine::new();
    let opts = StackOptions::improved();

    // Fresh, engine-free pipeline.
    let fresh_run = run_tcpip(TcpIpWorld::build(opts), 2);
    let canonical = fresh_run.episodes.client_trace();
    let fresh_img = Version::Std.build_tcpip(&fresh_run.world, &canonical);
    let fresh_t = time_roundtrip_with(
        &fresh_run.episodes,
        &fresh_img,
        &fresh_img,
        fresh_run.world.lance_model.f_tx,
        UNTRACED_PER_HOP_US,
    );

    // Engine, twice: the second call must hit the cache.
    let t1 = eng.timing(StackKind::TcpIp, opts, 2, Version::Std);
    let counters_after_first = eng.counters();
    let t2 = eng.timing(StackKind::TcpIp, opts, 2, Version::Std);
    assert_eq!(eng.counters(), counters_after_first, "second lookup computes nothing");
    assert!(std::sync::Arc::ptr_eq(&t1, &t2), "memoized Arc shared");

    assert_timing_eq(&t1, &fresh_t, "engine vs fresh");

    // Trace lengths match too.
    let stats = eng.client_replay_stats(StackKind::TcpIp, opts, 2, Version::Std);
    assert_eq!(stats.instructions, fresh_t.client.instructions, "trace length");
}

#[test]
fn parallel_sweep_equals_serial() {
    let opts = StackOptions::improved();

    // Parallel: the canonical sweep fans out across worker threads.
    let par = SweepEngine::new();
    let rows = par.sweep(opts, 2);
    assert_eq!(rows.len(), 12, "6 versions x 2 stacks");

    // Serial: a fresh engine, one artifact at a time on this thread.
    let ser = SweepEngine::new();
    for row in &rows {
        let t = ser.timing(row.stack, opts, 2, row.version);
        let c = ser.cold_stats(row.stack, opts, 2, row.version);
        let what = format!("{:?}/{}", row.stack, row.version.name());
        assert_timing_eq(&row.timing, &t, &what);
        assert_eq!(*row.cold, *c, "{what}: cold stats");
    }

    // Both engines computed each artifact exactly once: 2 runs,
    // 12 timings, 12 cold stats.  The RPC server image (ALL) is shared,
    // so 12 images per engine (6 TCP + 6 RPC), each assembled from one
    // of the 12 synthesized layout plans.
    for eng in [&par, &ser] {
        let c = eng.counters();
        assert_eq!(c.runs, 2, "one functional run per stack");
        assert_eq!(c.layouts, 12, "one layout plan per (stack, version)");
        assert_eq!(c.images, 12);
        assert_eq!(c.timings, 12);
        assert_eq!(c.cold_stats, 12);
    }
    // The parallel sweep prefetches layouts explicitly and then
    // assembles 12 images from them: more requests than computes.
    let (requests, computed) = par.layout_stats();
    assert_eq!(computed, 12);
    assert!(requests > computed, "image assembly re-hits the layout memo");
}

#[test]
fn prefetch_deduplicates_overlapping_jobs() {
    let eng = SweepEngine::new();
    let opts = StackOptions::improved();
    // The same job many times over, plus overlapping stages that all
    // need the one functional run: still exactly one run, one image.
    let jobs: Vec<SweepJob> = (0..16)
        .flat_map(|_| {
            [
                SweepJob::Timing(StackKind::TcpIp, opts, 2, Version::Std),
                SweepJob::ColdStats(StackKind::TcpIp, opts, 2, Version::Std),
                SweepJob::ReplayStats(StackKind::TcpIp, opts, 2, Version::Std),
            ]
        })
        .collect();
    eng.prefetch(&jobs);
    let c = eng.counters();
    assert_eq!(c.runs, 1);
    assert_eq!(c.layouts, 1);
    assert_eq!(c.images, 1);
    assert_eq!(c.timings, 1);
    assert_eq!(c.cold_stats, 1);
    assert_eq!(c.replay_stats, 1);
}

#[test]
fn sweep_cells_match_materialized_oracle() {
    // Every cell of the canonical sweep — RPC's split client/server
    // images included — against the materialized pipeline: warm timing
    // from `time_roundtrip_materialized`, cold statistics from
    // `cold_client_stats_materialized`.
    let eng = SweepEngine::new();
    let opts = StackOptions::improved();
    let rows = eng.sweep(opts, 2);
    assert_eq!(rows.len(), 12);
    for row in &rows {
        let (episodes, f_tx) = match row.stack {
            StackKind::TcpIp => {
                let sh = eng.tcpip(opts, 2);
                (sh.run.episodes.clone(), sh.run.world.lance_model.f_tx)
            }
            StackKind::Rpc => {
                let sh = eng.rpc(opts, 2);
                (sh.run.episodes.clone(), sh.run.world.lance_model.f_tx)
            }
        };
        let (server_version, untraced_us) = match row.stack {
            StackKind::TcpIp => (row.version, UNTRACED_PER_HOP_US),
            StackKind::Rpc => (Version::All, RPC_UNTRACED_PER_HOP_US),
        };
        let client = eng.image(row.stack, opts, 2, row.version);
        let server = eng.image(row.stack, opts, 2, server_version);
        let what = format!("{:?}/{}", row.stack, row.version.name());
        let oracle = time_roundtrip_materialized(&episodes, &client, &server, f_tx, untraced_us);
        assert_timing_eq(&row.timing, &oracle, &what);
        let cold = cold_client_stats_materialized(&episodes, &client);
        assert_eq!(*row.cold, cold, "{what}: cold stats");
    }
}

#[test]
fn server_halves_are_shared_across_rpc_versions() {
    let eng = SweepEngine::new();
    let opts = StackOptions::improved();
    eng.sweep(opts, 2);
    let c = eng.counters();
    assert_eq!(c.timings, 12);
    assert_eq!(c.cold_stats, 12);
    assert_eq!(c.server_halves, 7, "6 TCP/IP servers + RPC's one ALL server");
    eng.sweep(opts, 2);
    assert_eq!(eng.counters(), c, "a second sweep computes nothing");
}
