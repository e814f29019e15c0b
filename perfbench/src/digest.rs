//! `model_digest`: a stable 64-bit FNV-1a hash of every modelled
//! output a workload produced.  Two builds that print the same digest
//! for the same workload and seed simulated the same thing bit for
//! bit; a digest that moves names the workloads a change touched.

use alpha_machine::RunReport;
use protolat_core::sweep::SweepRow;
use protolat_core::timing::RoundtripTiming;
use traffic::{LatencyHistogram, TrafficReport};

pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

pub fn run_report(d: &mut Fnv, r: &RunReport) {
    for v in [r.instructions, r.issue_cycles, r.stall_cycles, r.clock_mhz] {
        d.u64(v);
    }
    for c in [r.icache, r.dcache, r.bcache] {
        d.u64(c.accesses);
        d.u64(c.misses);
        d.u64(c.replacement_misses);
    }
    d.u64(r.itlb.accesses);
    d.u64(r.itlb.misses);
}

pub fn timing(d: &mut Fnv, t: &RoundtripTiming) {
    for r in [&t.client_out, &t.server_turn, &t.client_in, &t.client] {
        run_report(d, r);
    }
    d.f64(t.client_out_pre_us);
    d.f64(t.server_pre_us);
    d.f64(t.e2e_us);
}

/// One paper-grid row: its timing and cold report.
pub fn row(d: &mut Fnv, r: &SweepRow) {
    d.u64(r.stack as u64);
    d.u64(r.version as u64);
    timing(d, &r.timing);
    run_report(d, &r.cold);
}

/// The histogram's summary and every non-empty bucket with its count.
/// The bucket array is private, so the buckets are recovered through
/// `quantile`: the value at rank `r` is the lower bound of the bucket
/// holding the `r`-th sample, and a binary search finds the last rank
/// of each bucket.
pub fn histogram(d: &mut Fnv, h: &LatencyHistogram) {
    let n = h.count();
    d.u64(n);
    d.u64(h.min());
    d.u64(h.max());
    d.f64(h.mean());
    // q = (r - 0.5) / n makes `ceil(q * n)` land exactly on rank r.
    let at = |r: u64| h.quantile((r as f64 - 0.5) / n as f64);
    let mut r = 1;
    while r <= n {
        let v = at(r);
        let (mut lo, mut hi) = (r, n); // last rank with value v lies in lo..=hi
        while lo < hi {
            let mid = lo + (hi - lo).div_ceil(2);
            if at(mid) == v {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        d.u64(v);
        d.u64(lo - r + 1);
        r = lo + 1;
    }
}

/// The whole report: histograms and every counter.
pub fn traffic_report(d: &mut Fnv, r: &TrafficReport) {
    histogram(d, &r.hist);
    for v in [
        r.completed,
        r.sim_ns,
        u64::from(r.workers),
        r.retransmits,
        r.duplicates_served,
    ] {
        d.u64(v);
    }
    let f = &r.faults;
    for v in [
        f.seen,
        f.dropped,
        f.corrupted,
        f.reordered,
        f.duplicated,
        f.truncated,
        f.malformed,
        f.fragmented,
    ] {
        d.u64(v);
    }
    let t = &r.table;
    for v in [
        t.lookups,
        t.cache_hits,
        t.chain_hits,
        t.misses,
        t.insertions,
        t.evictions,
        t.resident,
        t.peak_resident,
    ] {
        d.u64(v);
    }
    let s = &r.service;
    for v in [s.simulated_replays, s.fast_path_serves, s.invalidations] {
        d.u64(v);
    }
    for v in s.period_detections {
        d.u64(v);
    }
    for v in r.wire.decode_counters() {
        d.u64(v);
    }
    let p = &r.wire.pool;
    for v in [p.allocs, p.frees, p.recycled, p.grows, p.high_water] {
        d.u64(v);
    }
    for h in r.phase_hists.iter().chain(&r.phase_steady) {
        histogram(d, h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(h: &LatencyHistogram) -> u64 {
        let mut d = Fnv::default();
        histogram(&mut d, h);
        d.finish()
    }

    #[test]
    fn histogram_digest_sees_bucket_moves() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        for v in [10u64, 5_000, 5_000, 90_000] {
            a.record(v);
        }
        // Same count, min, max and sum; one sample moved between buckets.
        for v in [10u64, 4_000, 6_000, 90_000] {
            b.record(v);
        }
        assert_ne!(digest(&a), digest(&b));
        assert_eq!(digest(&a), digest(&a.clone()));
    }
}
