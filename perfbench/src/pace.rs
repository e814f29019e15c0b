//! The pace kernel: a fixed piece of CPU work timed next to every
//! set-up and iteration, so that host times can be rescaled to the
//! speed of a reference host.
//!
//! On a shared host the CPU this process gets runs faster or slower
//! from minute to minute: a neighbour on the sibling hyperthread, in
//! the shared cache or on the memory bus slows every instruction.
//! Process CPU time already leaves out the time the process waits for a
//! CPU; the pace kernel measures what is left.  It does the same work
//! every time, so the CPU time of a chunk tracks the host's current
//! speed, and a time measured beside it is rescaled by
//! `REF_CHUNK_MS / chunk_ms`, with `chunk_ms` the median of the chunks
//! nearest it: a single chunk is too short to say more than roughly how
//! fast the host is.  The kernel is a mix of what the simulator spends
//! its time on: dependent loads from a table the size of a core's L2,
//! multiplies, and branches on the loaded data.  Of the kernels tried
//! (tables from 32 KiB to 8 MiB, pure arithmetic) this one followed the
//! workloads' own drift most closely; tables that spill into the shared
//! L3 follow the neighbours' memory traffic instead.  Its code belongs
//! to the benchmark, so a change to the program never changes it.

use std::hint::black_box;

use crate::host::cpu_time;
use crate::metrics::median;

/// Table words: 256 KiB.
const TABLE_WORDS: usize = 1 << 15;

/// Loads per chunk.
const ROUNDS: u32 = 500_000;

/// The reference host's time for one chunk, in ms: about the median
/// measured on the host the benchmark was written on, a 2-vCPU Intel
/// Xeon VM.  A rescaled time reads as CPU time on a host that runs a
/// chunk in this time.
pub const REF_CHUNK_MS: f64 = 6.0;

/// Chunks on either side of an iteration whose median rescales it.
const WINDOW: usize = 4;

pub struct Pace {
    table: Vec<u64>,
    state: u64,
}

impl Pace {
    /// A pace kernel whose table is filled and cache-warm.
    pub fn new() -> Self {
        let mut pace = Pace {
            table: (0..TABLE_WORDS as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect(),
            state: 0x2545_F491_4F6C_DD1D,
        };
        pace.work();
        pace
    }

    fn work(&mut self) {
        let mask = TABLE_WORDS - 1;
        let mut x = self.state;
        let mut acc = 0u64;
        for _ in 0..ROUNDS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x ^ acc) as usize & mask;
            let v = self.table[i];
            acc = if v & 1 == 0 {
                acc.wrapping_add(v)
            } else {
                acc.rotate_left(5) ^ v.wrapping_mul(0xFF51_AFD7_ED55_8CCD)
            };
            self.table[i] = v ^ acc;
        }
        self.state = black_box(x ^ acc);
    }

    /// Run one chunk and return its CPU time in ms.
    pub fn chunk(&mut self) -> f64 {
        let t0 = cpu_time();
        self.work();
        (cpu_time() - t0).as_secs_f64() * 1e3
    }
}

/// Rescale times measured between chunks to the reference host: time
/// `i` ran between `chunks[i]` and `chunks[i + 1]`, and is rescaled by
/// the median of the [`WINDOW`] chunks on either side of it.
pub fn rescale(cpu_ms: &[f64], chunks: &[f64]) -> Vec<f64> {
    assert_eq!(
        chunks.len(),
        cpu_ms.len() + 1,
        "one chunk around every time"
    );
    cpu_ms
        .iter()
        .enumerate()
        .map(|(i, ms)| {
            let lo = (i + 1).saturating_sub(WINDOW);
            let hi = (i + WINDOW).min(chunks.len() - 1);
            ms * REF_CHUNK_MS / median(&chunks[lo..=hi])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rescale_divides_by_the_median_of_nearby_chunks() {
        // At the reference pace a time stays as it is; at half the
        // speed it halves.
        let ms = [10.0; 3];
        assert_eq!(rescale(&ms, &[REF_CHUNK_MS; 4]), vec![10.0; 3]);
        assert_eq!(rescale(&ms, &[2.0 * REF_CHUNK_MS; 4]), vec![5.0; 3]);
        // One slow chunk among its neighbours does not move the median.
        let mut chunks = vec![REF_CHUNK_MS; 12];
        chunks[5] = 10.0 * REF_CHUNK_MS;
        assert_eq!(rescale(&[10.0; 11], &chunks), vec![10.0; 11]);
    }
}
