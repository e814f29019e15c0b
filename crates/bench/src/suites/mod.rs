//! The bench suites, one module each, in the order the runner runs
//! them.  Each module's `run` measures one subsystem against its
//! baseline, renders `BENCH_<name>.json` and declares its gates.

use crate::runner::Suite;

pub mod adapt;
pub mod capacity;
pub mod demux;
pub mod engine;
pub mod layout;
pub mod pipeline;
pub mod replay;
pub mod trace;
pub mod traffic;
pub mod wire;

/// Every suite; the five with a smoke size are probed for
/// reproducibility.
pub const ALL: [Suite; 10] = [
    Suite { name: "pipeline", run: pipeline::run, probed: false },
    Suite { name: "replay", run: replay::run, probed: false },
    Suite { name: "layout", run: layout::run, probed: false },
    Suite { name: "traffic", run: traffic::run, probed: false },
    Suite { name: "engine", run: engine::run, probed: false },
    Suite { name: "capacity", run: capacity::run, probed: true },
    Suite { name: "demux", run: demux::run, probed: true },
    Suite { name: "adapt", run: adapt::run, probed: true },
    Suite { name: "trace", run: trace::run, probed: true },
    Suite { name: "wire", run: wire::run, probed: true },
];

/// The `(stack)` prefix of a cell's report keys.
pub(crate) fn stack_key(stack: protolat_core::config::StackKind) -> &'static str {
    match stack {
        protolat_core::config::StackKind::TcpIp => "tcpip",
        protolat_core::config::StackKind::Rpc => "rpc",
    }
}

/// Nanoseconds as microseconds.
pub(crate) fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}
