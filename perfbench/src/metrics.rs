//! Metric records, the declared metric sets, summary statistics and
//! the result line.
//!
//! Every metric carries its unit, and the unit names its clock: a unit
//! ending in `.model` is an output of the deterministic simulation
//! (modelled DEC 3000/600 time, or a count of modelled events) and
//! must repeat exactly for a given seed; every other unit is measured
//! on the host.

use std::fmt::Write as _;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Free text printed beside the value (sample counts, definitions).
    pub note: String,
}

impl Metric {
    pub fn clock(&self) -> &'static str {
        clock_of(self.unit)
    }
}

pub fn clock_of(unit: &str) -> &'static str {
    if unit.ends_with(".model") {
        "model"
    } else {
        "host"
    }
}

/// The metrics one run computed, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) -> &mut Metric {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
            note: String::new(),
        });
        self.0.last_mut().expect("just pushed")
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.0.iter().find(|m| m.name == name)
    }
}

impl Metric {
    pub fn note(&mut self, note: impl Into<String>) -> &mut Self {
        self.note = note.into();
        self
    }
}

/// Stack × version cells of the paper grid, as metric-name suffixes.
pub const CELLS: [&str; 12] = [
    "tcpip_bad",
    "tcpip_std",
    "tcpip_out",
    "tcpip_clo",
    "tcpip_pin",
    "tcpip_all",
    "rpc_bad",
    "rpc_std",
    "rpc_out",
    "rpc_clo",
    "rpc_pin",
    "rpc_all",
];

/// The end-to-end metrics every untraced run reports (`BENCHMARK.json`
/// `end_to_end`), with their units.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("iter_cpu_ms_p50", "ms"),
    ("iter_cpu_ms_tail", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// The per-layer metrics every traced run reports (`BENCHMARK.json`
/// `per_layer`), with their units.  A layer a workload does not
/// exercise reports 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let fixed: &[(&str, &str)] = &[
        // Workload-level numbers that only some workloads define.
        ("host_msgs_per_s", "msg/s"),
        ("model_p50_us", "us.model"),
        ("model_p99_us", "us.model"),
        ("model_p999_us", "us.model"),
        ("model_knee_mps", "msg/s.model"),
        ("model_rtt_us", "us.model"),
        // paper_grid stages.
        ("core.functional_run_ms", "ms"),
        ("kcode.layout_ms", "ms"),
        ("kcode.image_ms", "ms"),
        ("machine.warm_timing_ms", "ms"),
        ("machine.cold_stats_ms", "ms"),
        ("machine.sim_inst", "count.model"),
        ("machine.host_ns_per_inst", "ns"),
        // Serving pipeline.
        ("traffic.calls", "count"),
        ("traffic.run_ms", "ms"),
        ("traffic.service.busy_ms", "ms"),
        ("traffic.service.share_pct", "%"),
        ("traffic.service.ns_per_serve", "ns"),
        ("traffic.runloop.self_ms", "ms"),
        ("traffic.runloop.ns_per_msg", "ns"),
        ("traffic.service.memo_hit_rate", "ratio.model"),
        ("traffic.service.simulated_replays", "count.model"),
        ("traffic.session.hit_rate", "ratio.model"),
        ("traffic.session.cache_hit_rate", "ratio.model"),
        ("traffic.session.insertions", "count.model"),
        ("traffic.session.evictions", "count.model"),
        ("traffic.session.ns_per_lookup", "ns"),
        ("protocols.wire.encode_ns", "ns"),
        ("protocols.wire.demux_ns", "ns"),
        ("netsim.pool.grows", "count.model"),
        ("netsim.pool.high_water", "count.model"),
        ("netsim.fault.drops", "count.model"),
        ("netsim.fault.corruptions", "count.model"),
        ("netsim.fault.reorders", "count.model"),
        ("netsim.fault.duplicates", "count.model"),
        ("traffic.retransmits", "count.model"),
        ("traffic.wire.bad_fcs", "count.model"),
        ("traffic.wire.truncated", "count.model"),
        ("traffic.wire.malformed", "count.model"),
        ("traffic.wire.fragmented", "count.model"),
        // Record/replay.
        ("traffic.capture.record_ms", "ms"),
        ("traffic.capture.validate_ms", "ms"),
        ("traffic.capture.replay_ms", "ms"),
        ("trace.encode_ns_per_event", "ns"),
        ("trace.decode_ns_per_event", "ns"),
        ("trace.bytes_per_event", "B.model"),
        ("trace.events", "count.model"),
        // Every workload.
        ("bench.trace_overhead_pct", "%"),
    ];
    let mut all: Vec<(String, &'static str)> =
        fixed.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for cell in CELLS {
        all.push((format!("kcode.rtt_us.{cell}"), "us.model"));
    }
    for cell in CELLS {
        all.push((format!("machine.mcpi.{cell}"), "cpi.model"));
    }
    all
}

/// Median of `v` (mean of the middle two for an even count).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The highest percentile of `v` with at least ten samples beyond it:
/// `(value, percentile)`.  With ten or fewer samples there is no such
/// percentile and the maximum is returned as the 100th.
pub fn tail(v: &[f64]) -> (f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n <= 10 {
        return (s.last().copied().unwrap_or(0.0), 100.0);
    }
    let rank = n - 10; // 1-based rank of the reported sample
    (s[rank - 1], 100.0 * rank as f64 / n as f64)
}

/// The closing result line: one JSON object with the declared metric
/// set.  A declared metric the run did not compute reports 0; a unit
/// that disagrees with the declaration is a bug in this program.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &Metrics,
    declared: &[(String, &'static str)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit)) in declared.iter().enumerate() {
        let value = match metrics.get(name) {
            Some(m) => {
                assert_eq!(
                    m.unit, *unit,
                    "metric {name} computed with a different unit"
                );
                m.value
            }
            None => 0.0,
        };
        let sep = if i == 0 { "" } else { ", " };
        write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_beyond() {
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&v), (30.0, 75.0));
        assert_eq!(tail(&v[..5]), (5.0, 100.0));
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn declared_names_are_unique() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        names.extend(per_layer().into_iter().map(|(n, _)| n));
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total);
    }
}
