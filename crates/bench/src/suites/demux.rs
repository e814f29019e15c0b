//! Demux-locality benchmark: the address-cache policy × reference-
//! stream matrix of the Jain destination-cache study, measured end to
//! end through the serving pipeline.
//!
//! The paper's x-kernel demultiplexer fixes a one-entry cache in front
//! of the hash walk; DEC-TR-592 shows the right policy depends on the
//! reference stream's locality structure.  This bench runs the
//! tcpip/ALL cell under every (policy, stream) pair and reports each
//! cell's address-cache hit rate, modelled mean demux cost and
//! end-to-end latency quantiles.  Faults are disabled so the matrix
//! isolates demux behaviour.
//!
//! Gates:
//! * the fill-on-chain-hit contract makes `misses` (and total hit
//!   rate) policy-invariant per stream — only the cache/chain split
//!   moves;
//! * the best policy on the adversarial conflict stream strictly beats
//!   the seed one-entry cache there, and is no slower than the seed on
//!   the Zipf stream;
//! * the dispatch plane reproduces `runloop::reference` bit-for-bit on
//!   a conflict-stream cell (stateful streams cross planes exactly);
//! * a fresh (memo-cold) engine reproduces a memoized cell exactly.
//!
//! A raw table microbench (wall-clock ns/lookup per policy on a hot
//! Zipf loop) prints to stdout only — the JSON carries exclusively
//! deterministic modelled values, so two runs produce byte-identical
//! reports (the smoke size is a fifth of the messages).

use std::time::Instant;

use crate::harness::JsonReport;
use crate::runner::{Cmp, Gate, Size, SuiteOutput};
use netsim::rng::SplitMix64;
use protolat_core::config::{StackKind, Version};
use protolat_core::sweep::{DemuxCell, DemuxSpec, SweepEngine};
use protocols::StackOptions;
use traffic::{
    buckets_for_capacity, DemuxKey, Plane, PolicyKind, Run, SessionTable, StreamKind,
    TrafficConfig, Zipf,
};

const WORKERS: u32 = 4;
const SESSIONS_PER_WORKER: u32 = 512;
const RATE_MPS: u64 = 2_000;
/// Shards per worker table (power of two, matches the `traffic` suite).
const SHARDS: u32 = 8;
/// Address-cache capacity of the multi-entry policies.
const SLOTS: u32 = 8;
/// Conflict-cycle length: defeats every set-indexed policy of ≤ SLOTS
/// slots and the one-entry cache, while fitting FIFO/random.
const CYCLE: u32 = 6;

const POLICIES: [PolicyKind; 5] = [
    PolicyKind::OneEntry,
    PolicyKind::DirectMapped { slots: SLOTS },
    PolicyKind::TwoWayLru { sets: SLOTS / 2 },
    PolicyKind::Fifo { slots: SLOTS },
    PolicyKind::Random { slots: SLOTS },
];

const STREAMS: [StreamKind; 4] = [
    StreamKind::Zipf,
    StreamKind::StackDepth { milli_p: 800 },
    StreamKind::Train { milli_cont: 950 },
    StreamKind::Conflict { slots: SLOTS, cycle: CYCLE },
];

/// The suite's entry point.
pub fn run(eng: &SweepEngine, size: Size) -> SuiteOutput {
    let smoke = size == Size::Smoke;
    let messages_per_worker: u32 = if smoke { 4_000 } else { 20_000 };

    // Faults off: retransmissions would re-reference sessions on the
    // fault RNG's schedule and blur the stream's locality structure.
    let base = TrafficConfig::open_loop(RATE_MPS, messages_per_worker, SESSIONS_PER_WORKER)
        .with_workers(WORKERS)
        .with_shards(SHARDS, 24)
        .with_theta(900)
        .with_seed(0x7EA5);

    let opts = StackOptions::improved();
    let (stack, version) = (StackKind::TcpIp, Version::All);

    println!(
        "demux matrix: tcpip/ALL, {} workers x {} msgs, {} sessions/worker, \
         {} policies x {} streams{}",
        WORKERS,
        messages_per_worker,
        SESSIONS_PER_WORKER,
        POLICIES.len(),
        STREAMS.len(),
        if smoke { " [smoke]" } else { "" },
    );

    let specs = DemuxSpec::cross(base, &POLICIES, &STREAMS);
    let rows = eng.demux_matrix(stack, opts, 2, version, &specs);

    println!(
        "{:<14} {:<12} {:>7} {:>7} {:>10} {:>9} {:>9}",
        "policy", "stream", "cache%", "hit%", "lookup ns", "p99 µs", "evict"
    );
    for (spec, c) in &rows {
        println!(
            "{:<14} {:<12} {:>6.1}% {:>6.1}% {:>10.1} {:>9.1} {:>9}",
            spec.policy.name(),
            spec.stream.name(),
            c.cache_hit_rate * 100.0,
            c.hit_rate * 100.0,
            c.lookup_ns,
            c.p99_ns as f64 / 1e3,
            c.evictions,
        );
    }

    let cell = |policy: PolicyKind, stream: StreamKind| -> &DemuxCell {
        rows.iter()
            .find(|(spec, _)| spec.policy == policy && spec.stream == stream)
            .map(|(_, c)| c)
            .expect("matrix cell present")
    };

    // --- contract: misses and total hits are policy-invariant ----------
    // The address cache is only filled from chain hits and invalidated
    // on eviction, so which bindings are resident — hence every miss —
    // is identical across policies; a policy can only move hits between
    // the cache and the chain.
    let mut gates = Vec::new();
    for &stream in &STREAMS {
        let seed = cell(PolicyKind::OneEntry, stream);
        for &policy in &POLICIES[1..] {
            let c = cell(policy, stream);
            gates.push(Gate::holds(
                format!("{}_{}_trajectory_matches_seed", policy.name(), stream.name()),
                (c.lookups, c.misses, c.evictions) == (seed.lookups, seed.misses, seed.evictions),
                "same lookups, misses and evictions",
            ));
        }
    }

    // --- acceptance: best policy beats seed on the adversarial stream --
    let adversarial = STREAMS[3];
    let (winner_spec, winner_conflict) = rows
        .iter()
        .filter(|(spec, _)| spec.stream == adversarial)
        .max_by(|a, b| a.1.cache_hit_rate.total_cmp(&b.1.cache_hit_rate))
        .expect("conflict column present");
    let winner = &winner_spec.policy;
    let seed_conflict = cell(PolicyKind::OneEntry, adversarial);
    let winner_beats_seed_adversarial = winner_conflict.cache_hit_rate
        >= seed_conflict.cache_hit_rate + 0.30
        && winner_conflict.lookup_ns < seed_conflict.lookup_ns;
    println!(
        "adversarial stream: {} cache hit {:.1}% vs seed one-entry {:.1}% \
         (lookup {:.1} ns vs {:.1} ns)",
        winner.name(),
        winner_conflict.cache_hit_rate * 100.0,
        seed_conflict.cache_hit_rate * 100.0,
        winner_conflict.lookup_ns,
        seed_conflict.lookup_ns,
    );

    let winner_zipf = cell(*winner, StreamKind::Zipf);
    let seed_zipf = cell(PolicyKind::OneEntry, StreamKind::Zipf);
    let zipf_not_slower = winner_zipf.lookup_ns <= seed_zipf.lookup_ns;
    println!(
        "zipf stream: {} lookup {:.1} ns vs seed one-entry {:.1} ns",
        winner.name(),
        winner_zipf.lookup_ns,
        seed_zipf.lookup_ns,
    );

    // --- dispatch plane vs seed FIFO on a stateful stream ---------------
    let conflict_cfg = DemuxSpec { base, policy: *winner, stream: adversarial }.config();
    let memoized = eng.traffic(stack, opts, 2, version, conflict_cfg);
    let fifo = eng
        .serve(stack, opts, 2, version, Run::new(&conflict_cfg).plane(Plane::SeedFifo))
        .expect("reference run must drain")
        .report;
    let conflict_dispatch_bit_identical = *memoized == fifo;

    // --- memo-cold bit-repro probe --------------------------------------
    let probe_spec = DemuxSpec { base, policy: *winner, stream: adversarial };
    let recomputed = SweepEngine::new().demux(stack, opts, 2, version, probe_spec);
    let bit_repro = recomputed == *winner_conflict;

    // --- raw-table microbench (stdout only; not in the JSON) ------------
    // Wall-clock cost of the lookup fast path itself, policy by policy,
    // on a hot Zipf loop over a fully resident shard set — the
    // zero-cost-abstraction check for the monomorphized dispatch.
    let zipf = Zipf::new(SESSIONS_PER_WORKER as usize, 900);
    let laps: u64 = if smoke { 200_000 } else { 1_000_000 };
    println!("\nraw table microbench ({laps} hot lookups):");
    for &policy in &POLICIES {
        let capacity = SESSIONS_PER_WORKER as usize; // fully resident
        let mut table: SessionTable<u32> = SessionTable::with_policy(
            SHARDS as usize,
            capacity,
            buckets_for_capacity(capacity),
            policy,
            0x7EA5,
        );
        let mut rng = SplitMix64::new(0xD1CE);
        for id in 0..SESSIONS_PER_WORKER {
            table.insert(DemuxKey::for_session(id as u64), id);
        }
        let keys: Vec<DemuxKey> = (0..laps)
            .map(|_| DemuxKey::for_session(zipf.sample(&mut rng) as u64))
            .collect();
        let start = Instant::now();
        let mut sink = 0u64;
        for k in &keys {
            if let (Some(v), _) = table.lookup(k) {
                sink = sink.wrapping_add(v as u64);
            }
        }
        let elapsed = start.elapsed();
        println!(
            "  {:<14} {:>7.1} ns/lookup (cache hit {:>5.1}%, sink {sink})",
            policy.name(),
            elapsed.as_nanos() as f64 / laps as f64,
            table.stats().cache_hit_rate() * 100.0,
        );
    }

    // --- JSON ------------------------------------------------------------
    let mut report = JsonReport::new("demux");
    report
        .field("workers", WORKERS)
        .field("messages_per_worker", messages_per_worker)
        .field("sessions_per_worker", SESSIONS_PER_WORKER)
        .field("rate_mps", RATE_MPS)
        .field("policies", POLICIES.len())
        .field("streams", STREAMS.len())
        .field("slots", SLOTS)
        .field("conflict_cycle", CYCLE)
        .field("smoke", smoke);
    for (spec, c) in &rows {
        let k = format!("{}_{}", spec.policy.name(), spec.stream.name());
        report.field(format!("{k}_cache_hit_rate"), format_args!("{:.6}", c.cache_hit_rate));
        report.field(format!("{k}_lookup_ns"), format_args!("{:.3}", c.lookup_ns));
        report.field(format!("{k}_p99_us"), format_args!("{:.3}", c.p99_ns as f64 / 1e3));
    }
    report
        .text("winner_policy", winner.name())
        .field(
            "winner_conflict_cache_hit_rate",
            format_args!("{:.6}", winner_conflict.cache_hit_rate),
        )
        .field(
            "seed_conflict_cache_hit_rate",
            format_args!("{:.6}", seed_conflict.cache_hit_rate),
        )
        .field("winner_beats_seed_adversarial", winner_beats_seed_adversarial)
        .field("zipf_not_slower", zipf_not_slower)
        .field("bit_repro", bit_repro);

    gates.extend([
        Gate::new(
            "winner_conflict_cache_hit_rate",
            winner_conflict.cache_hit_rate,
            Cmp::Ge,
            seed_conflict.cache_hit_rate + 0.30,
            "seed one-entry hit rate + 0.30 on the conflict stream",
        ),
        Gate::holds("winner_beats_seed_adversarial", winner_beats_seed_adversarial, "and cheaper"),
        Gate::holds("zipf_not_slower", zipf_not_slower, "winner's Zipf demux cost vs the seed's"),
        Gate::holds("conflict_dispatch_bit_identical", conflict_dispatch_bit_identical, "= FIFO"),
        Gate::holds("bit_repro", bit_repro, "memo-cold recompute of the winner/conflict cell"),
    ]);
    SuiteOutput { report, gates }
}
