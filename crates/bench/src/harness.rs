//! A minimal, dependency-free benchmark harness.
//!
//! The benches in `benches/` are plain `harness = false` binaries: each
//! builds a [`Criterion`], registers timed closures through the same
//! `benchmark_group` / `bench_function` / `bench_with_input` surface the
//! old criterion-based benches used, and prints a summary table on
//! [`Criterion::report`].  Timing is wall-clock (`std::time::Instant`)
//! with one warm-up pass and automatic inner batching for kernels too
//! fast to time one call at a time.  No statistics machinery beyond
//! mean/min/max — these benches exist to rank configurations and catch
//! large regressions, not to resolve nanoseconds.  The `bench` runner's
//! suites render their reports with [`JsonReport`] and time their
//! baselines with the best-of timer [`best_secs`].

use std::fmt::Display;
use std::path::Path;
use std::time::Instant;

/// Ordered, dependency-free writer for the `BENCH_*.json` contract
/// files every bench suite emits: insertion-ordered `"key": value`
/// lines, one field per line, so a diff shows one changed key per line
/// and two deterministic runs render byte-identical files (the
/// runner's reproducibility probe compares the rendered bytes).
/// Values are pre-rendered by the caller (numbers with explicit
/// precision, booleans, nested arrays/objects as raw strings) — the
/// writer owns only ordering, punctuation and the trailing-comma rule.
#[derive(Debug, Clone, Default)]
pub struct JsonReport {
    fields: Vec<(String, String)>,
}

impl JsonReport {
    /// A report for one bench target; `"bench": "<name>"` is always
    /// the first field.
    pub fn new(bench: &str) -> Self {
        let mut r = JsonReport { fields: Vec::new() };
        r.text("bench", bench);
        r
    }

    /// Append a field with a pre-rendered JSON value — a number
    /// (callers keep full control of formatting precision), a boolean,
    /// or a raw array/object string.
    pub fn field(&mut self, key: impl Into<String>, value: impl Display) -> &mut Self {
        self.fields.push((key.into(), value.to_string()));
        self
    }

    /// Append a string-valued field (quoted; bench keys and values are
    /// plain ASCII identifiers, so no escaping).
    pub fn text(&mut self, key: impl Into<String>, value: impl Display) -> &mut Self {
        self.fields.push((key.into(), format!("\"{value}\"")));
        self
    }

    /// The rendered JSON object.
    pub fn render(&self) -> String {
        let mut out = String::from("{\n");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            out.push_str("  \"");
            out.push_str(k);
            out.push_str("\": ");
            out.push_str(v);
            out.push_str(if i + 1 == self.fields.len() { "\n" } else { ",\n" });
        }
        out.push_str("}\n");
        out
    }

    /// Write to `path` and log it.
    pub fn write(&self, path: &Path) {
        let shown = path.display();
        std::fs::write(path, self.render()).unwrap_or_else(|e| panic!("write {shown}: {e}"));
        println!("\nwrote {shown}");
    }
}

/// Best-of-`reps` wall-clock seconds for one call of `f` (dropping its
/// result is part of the call).
pub fn best_secs<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        std::hint::black_box(f());
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// One finished measurement.
#[derive(Debug, Clone)]
pub struct BenchResult {
    pub group: String,
    pub name: String,
    /// Timed samples (after the warm-up pass).
    pub samples: usize,
    /// Calls per sample (inner batching for sub-microsecond kernels).
    pub batch: usize,
    pub mean_ns: f64,
    pub min_ns: f64,
    pub max_ns: f64,
}

impl BenchResult {
    /// `{"group":"g","name":"n","mean_ns":1.0,...}` — hand-rolled so the
    /// harness stays dependency-free.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"group\":\"{}\",\"name\":\"{}\",\"samples\":{},\"batch\":{},\
             \"mean_ns\":{:.1},\"min_ns\":{:.1},\"max_ns\":{:.1}}}",
            self.group, self.name, self.samples, self.batch, self.mean_ns, self.min_ns,
            self.max_ns
        )
    }
}

/// Collects results across benchmark groups; one per bench binary.
pub struct Criterion {
    target: String,
    pub results: Vec<BenchResult>,
}

impl Criterion {
    pub fn new(target: &str) -> Self {
        Criterion { target: target.to_string(), results: Vec::new() }
    }

    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup { c: self, name: name.to_string(), sample_size: 20 }
    }

    /// Print the summary table for every recorded result.
    pub fn report(&self) {
        println!("bench target: {}", self.target);
        for r in &self.results {
            println!(
                "  {:<28} {:<32} mean {:>12.1} ns  (min {:>12.1}, max {:>12.1}, {} x {} calls)",
                r.group, r.name, r.mean_ns, r.min_ns, r.max_ns, r.samples, r.batch
            );
        }
    }

    /// All results as a JSON array.
    pub fn json_results(&self) -> String {
        let body: Vec<String> = self.results.iter().map(|r| r.to_json()).collect();
        format!("[{}]", body.join(","))
    }
}

/// A named identifier, optionally parameterized: `name/param`.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    pub id: String,
}

impl BenchmarkId {
    pub fn new(name: impl Into<String>, param: impl Display) -> Self {
        BenchmarkId { id: format!("{}/{}", name.into(), param) }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { id: s.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId { id: s }
    }
}

pub struct BenchmarkGroup<'c> {
    c: &'c mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F)
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let mut b = Bencher { samples: self.sample_size, result: None };
        f(&mut b);
        self.record(id, b);
    }

    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F)
    where
        F: FnMut(&mut Bencher, &I),
    {
        let mut b = Bencher { samples: self.sample_size, result: None };
        f(&mut b, input);
        self.record(id, b);
    }

    fn record(&mut self, id: BenchmarkId, b: Bencher) {
        let (batch, times) = b.result.expect("bench closure must call Bencher::iter");
        let n = times.len() as f64;
        let mean = times.iter().sum::<f64>() / n;
        let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = times.iter().cloned().fold(0.0f64, f64::max);
        self.c.results.push(BenchResult {
            group: self.name.clone(),
            name: id.id,
            samples: times.len(),
            batch,
            mean_ns: mean,
            min_ns: min,
            max_ns: max,
        });
    }

    pub fn finish(self) {}
}

pub struct Bencher {
    samples: usize,
    /// (batch size, per-call nanoseconds of each sample).
    result: Option<(usize, Vec<f64>)>,
}

impl Bencher {
    /// Time `f`: one warm-up call sizes an inner batch so each sample
    /// spans at least ~20 us of wall clock, then `samples` batched
    /// samples record per-call nanoseconds.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut f: F) {
        let warm = Instant::now();
        std::hint::black_box(f());
        let once_ns = warm.elapsed().as_nanos().max(1) as u64;
        let batch = (20_000 / once_ns).clamp(1, 10_000) as usize;

        let mut times = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let t = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(f());
            }
            times.push(t.elapsed().as_nanos() as f64 / batch as f64);
        }
        self.result = Some((batch, times));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_report_renders_ordered_fields() {
        let mut r = JsonReport::new("demo");
        r.field("count", 3)
            .field("rate", format_args!("{:.3}", 0.5f64))
            .field("flag", true)
            .text("label", "all")
            .field("curve", "[\n    {\"x\": 1}\n  ]");
        let s = r.render();
        assert!(s.starts_with("{\n  \"bench\": \"demo\",\n"));
        assert!(s.ends_with("\n}\n"));
        assert!(s.contains("  \"count\": 3,\n"));
        assert!(s.contains("  \"rate\": 0.500,\n"));
        assert!(s.contains("  \"flag\": true,\n"));
        assert!(s.contains("  \"label\": \"all\",\n"));
        // Insertion order is preserved and the last field has no comma.
        let count_at = s.find("\"count\"").unwrap();
        let flag_at = s.find("\"flag\"").unwrap();
        assert!(count_at < flag_at);
        assert!(s.contains("  \"curve\": [\n    {\"x\": 1}\n  ]\n}"));
        // Deterministic: rendering twice is byte-identical.
        assert_eq!(s, r.render());
    }

    #[test]
    fn records_results_with_plausible_timings() {
        let mut c = Criterion::new("self-test");
        let mut g = c.benchmark_group("g");
        g.sample_size(5);
        g.bench_function("spin", |b| {
            b.iter(|| (0..1000u64).sum::<u64>())
        });
        g.bench_with_input(BenchmarkId::new("param", 7), &7u64, |b, &k| {
            b.iter(|| k * 2)
        });
        g.finish();
        assert_eq!(c.results.len(), 2);
        assert_eq!(c.results[0].group, "g");
        assert_eq!(c.results[0].name, "spin");
        assert_eq!(c.results[1].name, "param/7");
        for r in &c.results {
            assert_eq!(r.samples, 5);
            assert!(r.mean_ns > 0.0);
            assert!(r.min_ns <= r.mean_ns && r.mean_ns <= r.max_ns);
        }
        let j = c.json_results();
        assert!(j.starts_with('[') && j.ends_with(']'));
        assert!(j.contains("\"name\":\"param/7\""));
    }
}
