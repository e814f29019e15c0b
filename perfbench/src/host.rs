//! The host block every result carries, and peak resident memory.

use std::path::Path;
use std::sync::OnceLock;
use std::time::Duration;

/// `VmHWM` (peak resident set) of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// CPU time this process has used, its finished threads included.
/// Unlike wall time it leaves out the time the process waited for a
/// CPU, on this machine or, as steal time, on the host under it.
pub fn cpu_time() -> Duration {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the duration of
    // the call, laid out as the 64-bit Linux ABI defines it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.sec as u64, ts.nsec as u32)
}

/// Configure glibc malloc, before any thread starts, to keep the memory
/// it has: at most 2 arenas, no `mmap` for blocks under 32 MiB and no
/// trimming of the heap top.  The workloads build and drop fresh engines
/// and traffic runs; with the defaults every iteration maps and faults
/// in fresh pages, which took a fifth of paper_grid's CPU time as
/// kernel time, at a price set by the host's memory traffic, and with
/// more arenas peak memory depended on thread timing.  Allocation itself
/// is still measured.
pub fn keep_heap() {
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    const M_ARENA_MAX: i32 = -8;
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    // SAFETY: mallopt only sets allocator parameters; it is called
    // before the process starts any thread.
    unsafe {
        mallopt(M_ARENA_MAX, 2);
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
        mallopt(M_TRIM_THRESHOLD, i32::MAX);
    }
}

/// Confine this process, every thread it starts included, to one CPU,
/// the highest-numbered it may use, and return that CPU.  The
/// workloads' threads then take turns on it instead of running side by
/// side, so the CPU time of an iteration does not depend on whether a
/// sibling thread of the program or some other load shares the core.
/// `available_parallelism` reads 1 afterwards, so the sweep engine and
/// the dispatch plane size themselves for one CPU.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a writable buffer of the size passed.
    if unsafe { sched_getaffinity(0, MASK_WORDS * 8, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..MASK_WORDS * 64)
        .rev()
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; MASK_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    ORIGINAL_MASK.get_or_init(|| mask);
    // SAFETY: `one` is a readable buffer of the size passed.
    (unsafe { sched_setaffinity(0, MASK_WORDS * 8, one.as_ptr()) } == 0).then_some(cpu)
}

/// Give the process back the CPUs it had before [`pin_to_one_cpu`],
/// for untimed work whose threads must run side by side: the open-loop
/// plane's generator busy-waits while the executor drains its ring, and
/// on one CPU it spins away whole time slices.
pub fn unpin() {
    if let Some(mask) = ORIGINAL_MASK.get() {
        // SAFETY: `mask` is a readable buffer of the size passed.
        unsafe { sched_setaffinity(0, MASK_WORDS * 8, mask.as_ptr()) };
    }
}

const MASK_WORDS: usize = 16; // cpu_set_t: 1024 CPUs

static ORIGINAL_MASK: OnceLock<[u64; MASK_WORDS]> = OnceLock::new();

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name").and_then(|r| r.split_once(':')))
        .map_or_else(|| "unknown".into(), |(_, m)| m.trim().to_string())
}

/// The checked-out commit, read from `.git` in the working directory
/// without running git; `unknown` outside a git checkout.
fn git_commit() -> String {
    let git = Path::new(".git");
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown (not a git checkout)".into();
    };
    let Some(name) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&git.join(name))
        .or_else(|| {
            read(&git.join("packed-refs"))?
                .lines()
                .find_map(|l| l.strip_suffix(name).map(|h| h.trim().to_string()))
        })
        .unwrap_or_else(|| format!("unknown ({name})"))
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One `host ...` line: `nproc` as the machine offered it before the
/// process was pinned, and the CPU it was pinned to.
pub fn describe(nproc: usize, pinned: Option<usize>, threads: u32, executors: u32) -> String {
    format!(
        "host: nproc={} pinned_cpu={} cpu=\"{}\" rustc=\"{}\" commit={} profile={} threads={} executors={}",
        nproc,
        pinned.map_or_else(|| "none".into(), |c| c.to_string()),
        cpu_model(),
        env!("PERFBENCH_RUSTC"),
        git_commit(),
        env!("PERFBENCH_PROFILE"),
        threads,
        executors,
    )
}
