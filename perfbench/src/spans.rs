//! In-memory spans for the traced run.
//!
//! A span is one call into a layer: its name, start and end on the
//! host clock, the span that caused it, and the id of the message (or
//! cell, or stage call) it served.  Spans are appended to preallocated
//! vectors and folded into per-layer totals when an iteration ends, so
//! recording costs two clock reads and one store.  The last traced
//! iteration's spans are written out when the run ends.  A span's self time
//! is its duration minus the part of it that its children cover.

use std::io::Write;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Instant;

use netsim::Ns;
use traffic::{Service, ServiceStats};
use xkernel::map::LookupKind;

/// `parent` of a root span.
pub const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub msg: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The spans of one iteration, timed against a shared epoch.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, capacity: usize) -> Self {
        Tracer {
            epoch,
            spans: Vec::with_capacity(capacity),
        }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, parent: u32, msg: u64) -> u32 {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            msg,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn close(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.now();
    }

    /// Run `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        msg: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, msg);
        let out = f();
        self.close(id);
        out
    }

    /// Summed duration of every span called `name`.
    pub fn total(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur)
            .sum()
    }

    pub fn count(&self, prefix: &str) -> usize {
        self.spans
            .iter()
            .filter(|s| s.name.starts_with(prefix))
            .count()
    }

    /// Time within span `id` covered by its children (their union,
    /// clipped to the parent).
    pub fn covered(&self, id: u32) -> u64 {
        let p = self.spans[id as usize];
        let mut kids: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == id)
            .map(|s| (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns)))
            .filter(|(a, b)| b > a)
            .collect();
        kids.sort_unstable();
        let (mut total, mut reach) = (0u64, 0u64);
        for (a, b) in kids {
            let a = a.max(reach);
            if b > a {
                total += b - a;
                reach = b;
            }
        }
        total
    }

    pub fn self_time(&self, id: u32) -> u64 {
        self.spans[id as usize].dur() - self.covered(id)
    }

    pub fn clear(&mut self) {
        self.spans.clear();
    }

    /// Write the spans as CSV (`name,start_ns,end_ns,parent,msg`) to
    /// `spans/<workload>.csv` in the benchmark's directory; returns the
    /// path written.
    pub fn write_csv(&self, workload: &str) -> std::io::Result<PathBuf> {
        let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/spans"));
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{workload}.csv"));
        let mut w = std::io::BufWriter::new(std::fs::File::create(&path)?);
        writeln!(w, "name,start_ns,end_ns,parent,msg")?;
        for s in &self.spans {
            let parent = if s.parent == ROOT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                w,
                "{},{},{},{},{}",
                s.name, s.start_ns, s.end_ns, parent, s.msg
            )?;
        }
        w.flush()?;
        Ok(path)
    }
}

/// A [`Service`] that records one `traffic.service.serve` span per
/// call around the wrapped service.  It takes its lane's preallocated
/// span vector from `home` when built and puts it back when the run
/// drops it, so the hot path never locks.
pub struct TracedService<'a, S> {
    inner: S,
    log: Vec<Span>,
    home: &'a Mutex<Vec<Span>>,
    epoch: Instant,
    parent: u32,
    lane: u64,
    serial: u64,
}

impl<'a, S> TracedService<'a, S> {
    pub fn new(
        inner: S,
        home: &'a Mutex<Vec<Span>>,
        epoch: Instant,
        parent: u32,
        lane: u32,
    ) -> Self {
        let log = std::mem::take(&mut *home.lock().expect("span log lock poisoned"));
        TracedService {
            inner,
            log,
            home,
            epoch,
            parent,
            lane: u64::from(lane),
            serial: 0,
        }
    }
}

impl<S: Service> Service for TracedService<'_, S> {
    fn serve(&mut self, kind: LookupKind, now: Ns) -> Ns {
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let ns = self.inner.serve(kind, now);
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.log.push(Span {
            name: "traffic.service.serve",
            start_ns,
            end_ns,
            parent: self.parent,
            msg: self.lane << 40 | self.serial,
        });
        self.serial += 1;
        ns
    }

    fn stats(&self) -> ServiceStats {
        self.inner.stats()
    }
}

impl<S> Drop for TracedService<'_, S> {
    fn drop(&mut self) {
        if let Ok(mut home) = self.home.lock() {
            *home = std::mem::take(&mut self.log);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name: "t",
            start_ns,
            end_ns,
            parent,
            msg: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new(Instant::now(), 8);
        t.spans = vec![
            span(0, 100, ROOT),
            span(10, 30, 0),
            span(20, 40, 0),
            span(90, 120, 0),
        ];
        // Children cover 10..40 and 90..100 of the parent.
        assert_eq!(t.covered(0), 40);
        assert_eq!(t.self_time(0), 60);
    }
}
