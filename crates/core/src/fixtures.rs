//! Deterministic test fixtures generated from the simulated stacks.

use netsim::lance::LanceTiming;
use protocols::StackOptions;
use trace::pcap::PcapSink;

use crate::world::TcpIpWorld;

/// The checked-in `tcpip_roundtrip.pcap`: a fresh TCP/IP exchange
/// between the two simulated hosts — the SYN handshake, then pings
/// until three have been echoed — one frame every 105 µs of simulated
/// wire time, as little-endian classic pcap.  A pure function: every
/// call returns the same bytes.
pub fn tcpip_roundtrip_pcap() -> Vec<u8> {
    let world = TcpIpWorld::build(StackOptions::improved());
    let timing = LanceTiming::dec3000_600();
    let mut client = world.client(timing);
    let mut server = world.server(timing);
    let mut pcap = PcapSink::new(Vec::new()).expect("writing to memory cannot fail");
    let mut now = 0u64;

    server.listen();
    client.connect(now);
    for _ in 0..12 {
        for b in client.take_tx() {
            pcap.record(now, &b).expect("writing to memory cannot fail");
            now += 105_000;
            server.deliver_wire(&b, now);
        }
        for b in server.take_tx() {
            pcap.record(now, &b).expect("writing to memory cannot fail");
            now += 105_000;
            client.deliver_wire(&b, now);
        }
        if client.is_established() && client.delivered.len() < 3 {
            client.app_send(b"ping", now);
        }
        client.take_episode();
        server.take_episode();
        if client.delivered.len() >= 3 {
            break;
        }
    }
    pcap.finish().expect("writing to memory cannot fail")
}
