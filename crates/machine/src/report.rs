//! Run reports: the CPI decomposition and cache statistics for one
//! measurement window.

use crate::cache::CacheStats;
use crate::tlb::TlbStats;

/// Everything measured for one replayed trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunReport {
    /// Dynamic instruction count (the paper's "trace length").
    pub instructions: u64,
    /// CPU issue cycles (perfect-memory cycles).
    pub issue_cycles: u64,
    /// Memory stall cycles.
    pub stall_cycles: u64,
    /// i-cache statistics.
    pub icache: CacheStats,
    /// Combined d-cache/write-buffer statistics (the paper's middle
    /// columns of Table 6).
    pub dcache: CacheStats,
    /// b-cache statistics.
    pub bcache: CacheStats,
    /// Instruction-TLB statistics.
    pub itlb: TlbStats,
    /// Clock in MHz, for time conversion.
    pub clock_mhz: u64,
}

impl RunReport {
    /// Total cycles for the window.
    pub fn cycles(&self) -> u64 {
        self.issue_cycles + self.stall_cycles
    }

    /// Instruction CPI: cycles the code would take on a perfect memory
    /// system, per instruction.
    pub fn icpi(&self) -> f64 {
        ratio(self.issue_cycles, self.instructions)
    }

    /// Memory CPI: average stall cycles per instruction — the paper's
    /// central metric.
    pub fn mcpi(&self) -> f64 {
        ratio(self.stall_cycles, self.instructions)
    }

    /// Total CPI = iCPI + mCPI.
    pub fn cpi(&self) -> f64 {
        self.icpi() + self.mcpi()
    }

    /// Processing time in microseconds at the configured clock.
    pub fn time_us(&self) -> f64 {
        self.cycles() as f64 / self.clock_mhz as f64
    }

    /// Merge another window into this one (e.g. client in-path plus
    /// out-path segments of one roundtrip).
    pub fn merge(&mut self, other: &RunReport) {
        self.instructions += other.instructions;
        self.issue_cycles += other.issue_cycles;
        self.stall_cycles += other.stall_cycles;
        self.icache.merge(&other.icache);
        self.dcache.merge(&other.dcache);
        self.bcache.merge(&other.bcache);
        self.itlb.accesses += other.itlb.accesses;
        self.itlb.misses += other.itlb.misses;
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(acc: u64, miss: u64, repl: u64) -> CacheStats {
        CacheStats { accesses: acc, misses: miss, replacement_misses: repl }
    }

    #[test]
    fn cpi_math() {
        let r = RunReport {
            instructions: 1000,
            issue_cycles: 1700,
            stall_cycles: 1600,
            icache: stats(1000, 100, 10),
            dcache: stats(400, 50, 5),
            bcache: stats(150, 150, 0),
            itlb: TlbStats::default(),
            clock_mhz: 175,
        };
        assert!((r.icpi() - 1.7).abs() < 1e-9);
        assert!((r.mcpi() - 1.6).abs() < 1e-9);
        assert!((r.cpi() - 3.3).abs() < 1e-9);
        assert!((r.time_us() - 3300.0 / 175.0).abs() < 1e-9);
    }

    #[test]
    fn merge_adds_fields() {
        let mut a = RunReport {
            instructions: 10,
            issue_cycles: 17,
            stall_cycles: 3,
            icache: stats(10, 1, 0),
            dcache: stats(4, 1, 0),
            bcache: stats(2, 2, 0),
            itlb: TlbStats::default(),
            clock_mhz: 175,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.instructions, 20);
        assert_eq!(a.cycles(), 40);
        assert_eq!(a.icache.accesses, 20);
    }

    #[test]
    fn empty_report_is_zero_not_nan() {
        let r = RunReport {
            instructions: 0,
            issue_cycles: 0,
            stall_cycles: 0,
            icache: CacheStats::default(),
            dcache: CacheStats::default(),
            bcache: CacheStats::default(),
            itlb: TlbStats::default(),
            clock_mhz: 175,
        };
        assert_eq!(r.cpi(), 0.0);
    }
}
