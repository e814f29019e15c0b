//! Dump an annotated execution trace (the paper published its raw
//! TCP/IP traces via anonymous FTP; this is our equivalent) and a pcap
//! capture of the wire exchange.
//!
//! ```text
//! cargo run --release --example trace_dump
//! ```
//!
//! Writes `tcpip_roundtrip.pcap` to the working directory — open it in
//! Wireshark to see the SYN handshake and the ping-pong segments.  Run
//! from the repository root, it rewrites the checked-in capture with
//! identical bytes (`protolat_core::fixtures::tcpip_roundtrip_pcap`).

use protolat::core::config::Version;
use protolat::core::fixtures;
use protolat::core::harness::run_tcpip;
use protolat::core::timing::replay_trace;
use protolat::core::world::TcpIpWorld;
use protolat::kcode::Symbolizer;
use protolat::protocols::StackOptions;
use trace::pcap::PcapSource;

fn main() {
    // 1. Annotated instruction trace of the client's input path.
    let run = run_tcpip(TcpIpWorld::build(StackOptions::improved()), 2);
    let canonical = run.episodes.client_trace();
    let img = Version::Std.build_tcpip(&run.world, &canonical);
    let trace = replay_trace(&img, &run.episodes.client_in);
    let sym = Symbolizer::new(&img);

    println!(
        "client input path, STD layout ({} instructions), by function:\n",
        trace.len()
    );
    print!("{}", sym.annotate(&trace));

    // 2. A pcap capture of a fresh exchange (handshake + 3 pings) — the
    //    same generator that produced the checked-in capture, so this
    //    rewrites it with identical bytes.
    let bytes = fixtures::tcpip_roundtrip_pcap();
    let frames = PcapSource::new(&bytes[..])
        .and_then(|mut src| src.collect_all())
        .expect("generated capture parses")
        .len();
    let path = std::path::Path::new("tcpip_roundtrip.pcap");
    std::fs::write(path, &bytes).expect("write pcap");
    println!(
        "\nwrote {frames} frames ({} bytes) to {} — handshake plus 3 echoed pings",
        bytes.len(),
        path.display(),
    );
}
