//! Wire data-plane benchmark: the zero-copy pooled codec against the
//! copy-and-materialize reference, plus the byte plane's three
//! contracts.
//!
//! 1. **Zero-copy pays.**  Encode + demux of seeded TCP/IP frames
//!    through pooled buffers and in-place header views must be at
//!    least 2x faster than the reference codec's materialize-every-
//!    layer path (min-of-3, gated in full mode) — the paper's
//!    avoid-data-touching argument measured at the byte level.
//! 2. **The pool is allocation-free at steady state.**  A serving run
//!    in zero-copy mode must recycle every buffer: `grows == 0`, one
//!    alloc per encoded frame, recycle rate ~1.
//! 3. **Bytes change nothing.**  The serving report in zero-copy and
//!    reference wire modes must equal the descriptor-mode report
//!    bit-for-bit on the dispatch plane at every probed executor
//!    count, and the two wire paths must agree on every decode
//!    counter.  The checked-in `tcpip_roundtrip.pcap` must ingest,
//!    demux on both codecs, and re-emit byte-identically.
//!
//! The smoke size omits the wall-clock fields and their gate so two
//! runs emit identical bytes.

use crate::harness::{best_secs, JsonReport};
use crate::runner::{Cmp, Gate, Size, SuiteOutput};
use netsim::buf::BufPool;
use netsim::rng::SplitMix64;
use protolat_core::sweep::SweepEngine;
use protocols::wire::codec::{self, PktSpec};
use protocols::wire::reference;
use trace::pcap::{PcapSink, PcapSource};
use traffic::{FixedService, Plane, Run, TrafficConfig, TrafficReport, WirePath, WireStats};

const WORKERS: u32 = 3;
const SESSIONS_PER_WORKER: u32 = 192;
const RATE_MPS: u64 = 60_000;
/// Executor counts the bit-identity probe pins the dispatch plane to.
const EXECUTORS: [u32; 2] = [1, 3];

fn svc(_worker: u32) -> FixedService {
    FixedService { cache_hit_ns: 9_000, chain_hit_ns: 11_000, miss_ns: 40_000 }
}

/// Seeded micro-bench corpus: specs + payload lengths covering the
/// padding boundary (tiny payloads) up to a few cache lines.
fn corpus(n: usize) -> Vec<(PktSpec, Vec<u8>)> {
    let mut rng = SplitMix64::new(0xB17E_57A7);
    (0..n)
        .map(|_| {
            let spec = PktSpec {
                src_ip: rng.next_u64() as u32,
                dst_ip: rng.next_u64() as u32,
                src_port: rng.next_u64() as u16,
                dst_port: rng.next_u64() as u16,
                seq: rng.next_u64() as u32,
                ack: rng.next_u64() as u32,
                ident: rng.next_u64() as u16,
                ..PktSpec::default()
            };
            let len = rng.below(193) as usize;
            let payload: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            (spec, payload)
        })
        .collect()
}

/// Fold a demux result into a running fingerprint so the two codec
/// passes are forced to do the work and provably agree.
fn fold(acc: u64, d: &codec::Demux) -> u64 {
    acc.rotate_left(7)
        ^ u64::from(d.src_ip)
        ^ (u64::from(d.src_port) << 32)
        ^ (d.payload_len as u64) << 48
        ^ u64::from(d.seq)
}

/// The suite's entry point; the engine is unused (the wire plane
/// serves a fixed-cost service, not a replayed image).
pub fn run(_: &SweepEngine, size: Size) -> SuiteOutput {
    let smoke = size == Size::Smoke;
    let packets = if smoke { 256 } else { 2_048 };
    let rounds = if smoke { 20 } else { 200 };
    let messages_per_worker: u32 = if smoke { 2_000 } else { 10_000 };

    println!(
        "wire data plane: {packets} seeded frames x {rounds} rounds, serving probe {} workers x {} msgs{}",
        WORKERS,
        messages_per_worker,
        if smoke { " [smoke]" } else { "" },
    );

    // --- codec micro-bench: pooled zero-copy vs materializing copies ---
    let pkts = corpus(packets);
    let mut pool = BufPool::new(1);

    let (mut zc_fp, mut ref_fp) = (0, 0);
    let zc_s = best_secs(3, || {
        let mut acc = 0u64;
        for _ in 0..rounds {
            for (spec, payload) in &pkts {
                let h = pool.alloc();
                let buf = pool.bytes_mut(h).expect("fresh handle");
                let len = codec::encode_frame(buf, spec, payload);
                let bytes = pool.bytes(h).expect("live handle");
                let d = codec::demux_frame(&bytes[..len]).expect("own frame demuxes");
                acc = fold(acc, &d);
                pool.free(h).expect("single free");
            }
        }
        zc_fp = acc;
    });
    let ref_s = best_secs(3, || {
        let mut acc = 0u64;
        for _ in 0..rounds {
            for (spec, payload) in &pkts {
                let frame = reference::encode_frame(spec, payload);
                let d = reference::demux_frame(&frame).expect("own frame demuxes");
                acc = fold(acc, &d);
            }
        }
        ref_fp = acc;
    });
    let micro_pool_grows = pool.stats().grows;

    let total = (packets * rounds) as f64;
    let zc_ns = zc_s * 1e9 / total;
    let ref_ns = ref_s * 1e9 / total;
    let codec_speedup = ref_ns / zc_ns;
    println!(
        "codec encode+demux: zero-copy {zc_ns:.1} ns/pkt, reference {ref_ns:.1} ns/pkt, {codec_speedup:.2}x"
    );

    // --- serving probe: bytes must change nothing -----------------------
    let base = TrafficConfig::open_loop(RATE_MPS, messages_per_worker, SESSIONS_PER_WORKER)
        .with_workers(WORKERS)
        .with_shards(8, 24)
        .with_theta(900)
        .with_seed(0x77_1BE)
        .with_faults(4_000, 3_000, 2_500, 2_000)
        .with_wire_faults(3_000, 2_000, 2_500);
    let sans_wire = |mut r: TrafficReport| -> TrafficReport {
        r.wire = WireStats::default();
        r
    };
    let descriptor =
        Run::new(&base).plane(Plane::SeedFifo).serve(svc).expect("descriptor run").report;
    let mut wire_bit_identical = true;
    let mut reports = Vec::new();
    for path in [WirePath::ZeroCopy, WirePath::Reference] {
        let cfg = base.with_wire(path);
        let fifo =
            Run::new(&cfg).plane(Plane::SeedFifo).serve(svc).expect("reference-plane run").report;
        if sans_wire(fifo.clone()) != descriptor {
            wire_bit_identical = false;
            println!("DIVERGED: {path:?} reference plane vs descriptor");
        }
        for executors in EXECUTORS {
            let got =
                Run::new(&cfg.with_executors(executors)).serve(svc).expect("dispatch run").report;
            if got != fifo {
                wire_bit_identical = false;
                println!("DIVERGED: {path:?} dispatch plane at {executors} executors");
            }
        }
        reports.push(fifo);
    }
    let (zc_report, ref_report) = (&reports[0], &reports[1]);
    if zc_report.wire.decode_counters() != ref_report.wire.decode_counters() {
        wire_bit_identical = false;
        println!("DIVERGED: zero-copy and reference decode counters");
    }
    let w = &zc_report.wire;
    println!(
        "serving probe: {} frames encoded, {} demuxed, anomalies fcs={} trunc={} malformed={} frag={}",
        w.encoded, w.demuxed, w.bad_fcs, w.truncated, w.malformed, w.fragmented
    );

    // --- pool steady state ----------------------------------------------
    println!(
        "buffer pool: {} allocs, {} recycled ({:.4} rate), {} grows, high water {}",
        w.pool.allocs,
        w.pool.recycled,
        w.pool.recycle_rate(),
        w.pool.grows,
        w.pool.high_water
    );

    // --- pcap round trip -------------------------------------------------
    let pcap_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tcpip_roundtrip.pcap");
    let original = std::fs::read(pcap_path).expect("checked-in tcpip_roundtrip.pcap");
    let mut src = PcapSource::new(&original[..]).expect("valid capture");
    let mut sink = PcapSink::new(Vec::new()).expect("sink header");
    let mut pcap_frames = 0u64;
    let mut pcap_codecs_agree = true;
    while let Some(pkt) = src.next_packet().expect("clean record stream") {
        let d = codec::demux_frame(&pkt.data).expect("captured frame demuxes");
        pcap_codecs_agree &= reference::demux_frame(&pkt.data) == Ok(d);
        sink.emit(&pkt).expect("re-emit");
        pcap_frames += 1;
    }
    let pcap_roundtrip_ok = sink.finish().expect("finish") == original;
    println!("pcap: {pcap_frames} frames ingested, round trip {}", if pcap_roundtrip_ok { "bit-identical" } else { "DIVERGED" });

    // --- JSON ------------------------------------------------------------
    let mut report = JsonReport::new("wire");
    report
        .field("smoke", u8::from(smoke))
        .field("packets", packets)
        .field("rounds", rounds)
        .field("workers", WORKERS)
        .field("messages_per_worker", messages_per_worker)
        .field("frames_encoded", w.encoded)
        .field("frames_demuxed", w.demuxed)
        .field("payload_bytes", w.payload_bytes)
        .field("bad_fcs", w.bad_fcs)
        .field("truncated", w.truncated)
        .field("malformed", w.malformed)
        .field("fragmented", w.fragmented)
        .field("pool_allocs", w.pool.allocs)
        .field("pool_recycled", w.pool.recycled)
        .field("pool_grows", w.pool.grows)
        .field("pool_high_water", w.pool.high_water)
        .field("pool_recycle_rate", format_args!("{:.6}", w.pool.recycle_rate()))
        .field("wire_bit_identical", wire_bit_identical)
        .field("pcap_frames", pcap_frames)
        .field("pcap_roundtrip_ok", u8::from(pcap_roundtrip_ok));
    if !smoke {
        // Wall-clock fields only in full mode, so two smoke runs emit
        // byte-identical artifacts.
        report
            .field("zero_copy_ns_per_pkt", format_args!("{zc_ns:.2}"))
            .field("reference_ns_per_pkt", format_args!("{ref_ns:.2}"))
            .field("codec_speedup", format_args!("{codec_speedup:.3}"));
    }

    let pool = &w.pool;
    let mut gates = vec![
        Gate::holds("codec_fingerprints_match", zc_fp == ref_fp, "both codecs parse the same"),
        Gate::new("micro_pool_grows", micro_pool_grows as f64, Cmp::Eq, 0.0, "one buffer"),
        Gate::holds("wire_bit_identical", wire_bit_identical, "bytes = descriptors, both planes"),
        Gate::new("pool_grows", pool.grows as f64, Cmp::Eq, 0.0, "no steady-state allocation"),
        Gate::new("pool_allocs", pool.allocs as f64, Cmp::Eq, w.encoded as f64, "one per frame"),
        Gate::new("pool_frees", pool.frees as f64, Cmp::Eq, pool.allocs as f64, "all returned"),
        Gate::new("pool_recycle_rate", pool.recycle_rate(), Cmp::Gt, 0.99, "the pool recycles"),
        Gate::holds("pcap_codecs_agree", pcap_codecs_agree, "both codecs demux the capture alike"),
        Gate::holds("pcap_roundtrip_ok", pcap_roundtrip_ok, "re-emit is byte-identical"),
    ];
    for (key, count) in [
        ("bad_fcs", w.bad_fcs),
        ("truncated", w.truncated),
        ("malformed", w.malformed),
        ("fragmented", w.fragmented),
    ] {
        gates.push(Gate::new(key, count as f64, Cmp::Ge, 1.0, "the fault mix exercises it"));
    }
    if !smoke {
        gates.push(Gate::new("codec_speedup", codec_speedup, Cmp::Ge, 2.0, "zero-copy vs copy"));
    }
    SuiteOutput { report, gates }
}
