//! The seed scalar machine model, kept verbatim as a baseline.
//!
//! PR 2 rewrote the hot loop of [`crate::cache::Cache`],
//! [`crate::writebuf::WriteBuffer`] and [`crate::hierarchy::MemorySystem`]
//! in a data-oriented style (flat epoch-stamped block sets, a
//! direct-mapped probe fast path, batched write-buffer drains, and a
//! warm-window fetch fast path).  Those changes are required to be
//! *bit-identical* in stall cycles and Table 6/7 statistics — this module
//! preserves the original `HashSet`-based implementation so that:
//!
//! * the equivalence suite (`tests/reference_equivalence.rs` and
//!   `protolat-core/tests/model_equivalence.rs`) can replay identical
//!   traces through both models and assert exact equality, and
//! * the `replay` bench suite can measure the optimized model's fresh-replay
//!   throughput against the seed (`BENCH_replay.json` must show ≥ 2×).
//!
//! Nothing here should be edited for performance — it is the spec.  The
//! CPU issue model is shared (it was never part of the hot-loop rewrite),
//! as is the ITLB (whose optimization is a pure lookup memo with
//! identical observable behaviour).

use std::collections::HashSet;

use crate::cache::{CacheStats, Probe};
use crate::config::{CacheConfig, MachineConfig, MemConfig};
use crate::cpu::Cpu;
use crate::inst::{InstRecord, MemOp};
use crate::report::RunReport;
use crate::tlb::Tlb;
use crate::writebuf::StoreOutcome;

/// Seed set-associative cache: `Option` tags, LRU stamps, and two
/// `HashSet<u64>`s for the window/lifetime miss taxonomy.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    lines: Vec<Option<u64>>,
    lru: Vec<u64>,
    clock: u64,
    seen_this_window: HashSet<u64>,
    ever_seen: HashSet<u64>,
    pub stats: CacheStats,
}

impl Cache {
    pub fn new(config: CacheConfig) -> Self {
        Cache {
            config,
            lines: vec![None; config.num_blocks() as usize],
            lru: vec![0; config.num_blocks() as usize],
            clock: 0,
            seen_this_window: HashSet::new(),
            ever_seen: HashSet::new(),
            stats: CacheStats::default(),
        }
    }

    pub fn block_addr(&self, addr: u64) -> u64 {
        addr & !(self.config.block_bytes - 1)
    }

    pub fn index(&self, addr: u64) -> usize {
        ((addr / self.config.block_bytes) % self.config.num_sets()) as usize
    }

    fn set_range(&self, set: usize) -> std::ops::Range<usize> {
        let ways = self.config.ways as usize;
        set * ways..(set + 1) * ways
    }

    fn find_way(&self, set: usize, block: u64) -> Option<usize> {
        self.set_range(set).find(|w| self.lines[*w] == Some(block))
    }

    pub fn contains(&self, addr: u64) -> bool {
        let block = self.block_addr(addr);
        self.find_way(self.index(addr), block).is_some()
    }

    pub fn access(&mut self, addr: u64) -> Probe {
        self.access_tracked(addr).0
    }

    pub fn access_tracked(&mut self, addr: u64) -> (Probe, bool) {
        self.stats.accesses += 1;
        self.clock += 1;
        let block = self.block_addr(addr);
        let set = self.index(addr);
        if let Some(w) = self.find_way(set, block) {
            self.lru[w] = self.clock;
            return (Probe::Hit, true);
        }
        self.stats.misses += 1;
        let revisit = self.ever_seen.contains(&block);
        let probe = if self.seen_this_window.contains(&block) {
            self.stats.replacement_misses += 1;
            Probe::ReplacementMiss
        } else {
            Probe::ColdMiss
        };
        self.seen_this_window.insert(block);
        self.ever_seen.insert(block);
        self.fill(set, block);
        (probe, revisit)
    }

    fn fill(&mut self, set: usize, block: u64) {
        let victim = self
            .set_range(set)
            .min_by_key(|w| match self.lines[*w] {
                None => (0, 0),
                Some(_) => (1, self.lru[*w]),
            })
            .expect("non-empty set");
        self.lines[victim] = Some(block);
        self.lru[victim] = self.clock;
    }

    pub fn prefetch(&mut self, addr: u64) -> bool {
        let block = self.block_addr(addr);
        let set = self.index(addr);
        if self.find_way(set, block).is_some() {
            return false;
        }
        self.clock += 1;
        self.seen_this_window.insert(block);
        self.ever_seen.insert(block);
        self.fill(set, block);
        true
    }

    pub fn reset(&mut self) {
        self.lines.iter_mut().for_each(|l| *l = None);
        self.lru.iter_mut().for_each(|l| *l = 0);
        self.clock = 0;
        self.ever_seen.clear();
        self.reset_stats();
    }

    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
        self.seen_this_window.clear();
        for line in self.lines.iter().flatten() {
            self.seen_this_window.insert(*line);
        }
    }

    pub fn footprint_blocks(&self) -> usize {
        self.seen_this_window.len()
    }
}

/// Seed write buffer: allocating `drain_until` called on every
/// instruction by the seed hierarchy.
#[derive(Debug, Clone)]
pub struct WriteBuffer {
    entries: usize,
    block_bytes: u64,
    retire_cycles: u64,
    pending: Vec<u64>,
    next_retire_done: u64,
    pub retired_blocks: u64,
}

impl WriteBuffer {
    pub fn new(entries: usize, block_bytes: u64, retire_cycles: u64) -> Self {
        assert!(entries > 0);
        assert!(block_bytes.is_power_of_two());
        WriteBuffer {
            entries,
            block_bytes,
            retire_cycles,
            pending: Vec::with_capacity(entries),
            next_retire_done: 0,
            retired_blocks: 0,
        }
    }

    fn block_addr(&self, addr: u64) -> u64 {
        addr & !(self.block_bytes - 1)
    }

    pub fn contains(&self, addr: u64) -> bool {
        let block = self.block_addr(addr);
        self.pending.contains(&block)
    }

    pub fn drain_until(&mut self, now: u64) -> Vec<u64> {
        let mut retired = Vec::new();
        while !self.pending.is_empty() && self.next_retire_done <= now {
            retired.push(self.pending.remove(0));
            self.retired_blocks += 1;
            self.next_retire_done += self.retire_cycles;
        }
        if self.pending.is_empty() {
            self.next_retire_done = 0;
        }
        retired
    }

    pub fn store(&mut self, addr: u64, now: u64) -> StoreOutcome {
        let block = self.block_addr(addr);
        if self.pending.contains(&block) {
            return StoreOutcome { merged: true, stall: 0, retired: None };
        }
        let mut stall = 0;
        let mut retired = None;
        if self.pending.len() == self.entries {
            let done = self.next_retire_done.max(now + 1);
            stall = done - now;
            retired = Some(self.pending.remove(0));
            self.retired_blocks += 1;
            self.next_retire_done = done + self.retire_cycles;
        }
        if self.pending.is_empty() && self.next_retire_done == 0 {
            self.next_retire_done = now + self.retire_cycles;
        }
        self.pending.push(block);
        StoreOutcome { merged: false, stall, retired }
    }

    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    pub fn reset(&mut self) {
        self.pending.clear();
        self.next_retire_done = 0;
        self.retired_blocks = 0;
    }
}

/// Seed memory hierarchy: per-instruction `drain_until`, no fetch fast
/// path, `HashSet`-tracked caches.
#[derive(Debug, Clone)]
pub struct MemorySystem {
    config: MemConfig,
    pub icache: Cache,
    pub dcache: Cache,
    pub bcache: Cache,
    pub write_buffer: WriteBuffer,
    pub itlb: Option<Tlb>,
    store_accesses: u64,
    store_misses: u64,
    stream_buffer: Option<(u64, u64)>,
    stalls: u64,
    instructions: u64,
}

impl MemorySystem {
    pub fn new(config: MemConfig) -> Self {
        MemorySystem {
            config,
            icache: Cache::new(config.icache),
            dcache: Cache::new(config.dcache),
            bcache: Cache::new(config.bcache),
            write_buffer: WriteBuffer::new(
                config.write_buffer_entries,
                config.dcache.block_bytes,
                config.writebuf_retire_cycles,
            ),
            itlb: (config.itlb_entries > 0)
                .then(|| Tlb::new(config.itlb_entries, config.page_bytes)),
            store_accesses: 0,
            store_misses: 0,
            stream_buffer: None,
            stalls: 0,
            instructions: 0,
        }
    }

    pub fn stall_cycles(&self) -> u64 {
        self.stalls
    }

    fn now(&self) -> u64 {
        self.instructions + self.stalls
    }

    fn bcache_fill_latency(&mut self, addr: u64) -> u64 {
        let (probe, revisit) = self.bcache.access_tracked(addr);
        let mut latency = self.config.bcache_stall;
        match probe {
            Probe::Hit => {}
            Probe::ReplacementMiss => latency += self.config.memory_stall,
            Probe::ColdMiss => {
                if revisit || !self.config.bcache_cold_is_free {
                    latency += self.config.memory_stall;
                }
            }
        }
        latency
    }

    fn bcache_access(&mut self, addr: u64, charge: bool) -> u64 {
        let (probe, revisit) = self.bcache.access_tracked(addr);
        if !charge {
            return 0;
        }
        let mut stall = self.config.bcache_stall;
        match probe {
            Probe::Hit => {}
            Probe::ReplacementMiss => stall += self.config.memory_stall,
            Probe::ColdMiss => {
                if revisit || !self.config.bcache_cold_is_free {
                    stall += self.config.memory_stall;
                }
            }
        }
        stall
    }

    pub fn access(&mut self, rec: &InstRecord) {
        self.instructions += 1;

        let now = self.now();
        for block in self.write_buffer.drain_until(now) {
            self.bcache_access(block, false);
        }

        if let Some(itlb) = &mut self.itlb {
            if !itlb.access(rec.pc) {
                self.stalls += self.config.itlb_miss_stall;
            }
        }

        if self.icache.access(rec.pc).is_miss() {
            let block = self.icache.block_addr(rec.pc);
            match self.stream_buffer {
                Some((b, residual)) if self.config.icache_prefetch && b == block => {
                    self.stream_buffer = None;
                    self.stalls += residual.max(1);
                }
                _ => {
                    let stall = self.bcache_access(rec.pc, true);
                    self.stalls += stall;
                }
            }
            if self.config.icache_prefetch {
                let next = block + self.config.icache.block_bytes;
                let already = matches!(self.stream_buffer, Some((b, _)) if b == next);
                if !self.icache.contains(next) && !already {
                    let latency = self.bcache_fill_latency(next);
                    self.stream_buffer = Some((
                        next,
                        latency.saturating_sub(self.config.prefetch_cover_cycles),
                    ));
                }
            }
        }

        if rec.class.is_taken_control() {
            self.stream_buffer = None;
        }

        if let Some((op, addr)) = rec.mem {
            match op {
                MemOp::Read => {
                    if self.write_buffer.contains(addr) {
                        self.dcache.stats.accesses += 1;
                    } else if self.dcache.access(addr).is_miss() {
                        let stall = self.bcache_access(addr, true);
                        self.stalls += stall;
                    }
                }
                MemOp::Write => {
                    self.store_accesses += 1;
                    let now = self.now();
                    let outcome = self.write_buffer.store(addr, now);
                    if !outcome.merged {
                        self.store_misses += 1;
                    }
                    self.stalls += outcome.stall;
                    if let Some(block) = outcome.retired {
                        self.bcache_access(block, false);
                    }
                }
            }
        }
    }

    pub fn dcache_combined_stats(&self) -> CacheStats {
        CacheStats {
            accesses: self.dcache.stats.accesses + self.store_accesses,
            misses: self.dcache.stats.misses + self.store_misses,
            replacement_misses: self.dcache.stats.replacement_misses,
        }
    }

    pub fn reset(&mut self) {
        self.icache.reset();
        self.dcache.reset();
        self.bcache.reset();
        self.write_buffer.reset();
        if let Some(t) = &mut self.itlb {
            t.reset();
        }
        self.clear_counters();
    }

    pub fn reset_stats(&mut self) {
        self.icache.reset_stats();
        self.dcache.reset_stats();
        self.bcache.reset_stats();
        if let Some(t) = &mut self.itlb {
            t.reset_stats();
        }
        self.clear_counters();
    }

    fn clear_counters(&mut self) {
        self.stream_buffer = None;
        self.store_accesses = 0;
        self.store_misses = 0;
        self.stalls = 0;
        self.instructions = 0;
    }
}

/// Seed machine: shared CPU issue model plus the seed hierarchy.
#[derive(Debug, Clone)]
pub struct Machine {
    pub config: MachineConfig,
    pub cpu: Cpu,
    pub mem: MemorySystem,
}

impl Machine {
    pub fn new(config: MachineConfig) -> Self {
        let cpu = Cpu::new(config.cpu);
        let mem = MemorySystem::new(config.mem);
        Machine { config, cpu, mem }
    }

    pub fn dec3000_600() -> Self {
        Machine::new(MachineConfig::dec3000_600())
    }

    #[inline]
    pub fn step(&mut self, rec: &InstRecord) {
        self.cpu.issue(rec);
        self.mem.access(rec);
    }

    pub fn run(&mut self, trace: &[InstRecord]) -> RunReport {
        self.cpu.reset_stats();
        self.mem.reset_stats();
        self.run_accumulate(trace);
        self.report(trace.len() as u64)
    }

    pub fn run_accumulate(&mut self, trace: &[InstRecord]) {
        for rec in trace {
            self.step(rec);
        }
    }

    pub fn report(&self, instructions: u64) -> RunReport {
        RunReport {
            instructions,
            issue_cycles: self.cpu.cycles(),
            stall_cycles: self.mem.stall_cycles(),
            icache: self.mem.icache.stats,
            dcache: self.mem.dcache_combined_stats(),
            bcache: self.mem.bcache.stats,
            itlb: self.mem.itlb.as_ref().map(|t| t.stats).unwrap_or_default(),
            clock_mhz: self.config.cpu.clock_mhz,
        }
    }

    pub fn reset(&mut self) {
        self.cpu.reset_stats();
        self.mem.reset();
    }

    pub fn reset_stats(&mut self) {
        self.cpu.reset_stats();
        self.mem.reset_stats();
    }
}
