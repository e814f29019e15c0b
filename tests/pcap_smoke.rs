//! End-to-end smoke test against the checked-in `tcpip_roundtrip.pcap`
//! (generated by `protolat_core::fixtures::tcpip_roundtrip_pcap` from a
//! live TCP handshake + ping exchange between the two simulated stacks;
//! `examples/trace_dump.rs` rewrites it).
//!
//! Contract: the wire data plane must ingest a real capture, demux
//! every frame through the zero-copy byte parser (full integrity
//! ladder — FCS, IP header checksum, TCP pseudo checksum), agree with
//! the copy-and-materialize reference codec frame-for-frame, and
//! re-emit the capture bit-identically.

use protocols::wire::{codec, reference};
use trace::pcap::{PcapSink, PcapSource, LINKTYPE_ETHERNET};

fn capture_bytes() -> Vec<u8> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tcpip_roundtrip.pcap");
    std::fs::read(path).expect("checked-in tcpip_roundtrip.pcap")
}

#[test]
fn checked_in_capture_ingests_demuxes_and_reemits_byte_identically() {
    let original = capture_bytes();
    assert_eq!(
        original,
        protolat::core::fixtures::tcpip_roundtrip_pcap(),
        "checked-in capture must equal the generator's output"
    );
    let mut src = PcapSource::new(&original[..]).expect("valid pcap header");
    assert_eq!(src.linktype(), LINKTYPE_ETHERNET);
    assert!(!src.swapped(), "trace_dump writes little-endian classic pcap");

    let mut sink = PcapSink::new(Vec::new()).unwrap();
    let mut frames = 0u32;
    let mut last_ts = 0u64;
    while let Some(pkt) = src.next_packet().expect("clean record stream") {
        // Every frame in the capture is a complete wire frame.
        assert_eq!(pkt.data.len(), pkt.orig_len as usize, "capture is unsnapped");
        assert!(pkt.ts_ns() >= last_ts, "timestamps are monotone");
        last_ts = pkt.ts_ns();

        // The zero-copy parser accepts it end to end...
        let d = codec::demux_frame(&pkt.data)
            .unwrap_or_else(|e| panic!("frame {frames} failed demux: {e}"));
        // ...with the addresses/ports the tcpip example actually used.
        assert_eq!(d.src_port, 5001, "frame {frames}");
        assert_eq!(d.dst_port, 5001, "frame {frames}");
        assert!(
            [0x0a00_0001, 0x0a00_0002].contains(&d.src_ip),
            "frame {frames}: unexpected src {:#010x}",
            d.src_ip
        );
        assert!(
            [0x0a00_0001, 0x0a00_0002].contains(&d.dst_ip),
            "frame {frames}: unexpected dst {:#010x}",
            d.dst_ip
        );
        assert!(d.payload_len <= 4, "frame {frames}: handshake/ping payloads only");

        // ...and the materializing reference codec agrees exactly.
        assert_eq!(
            reference::demux_frame(&pkt.data),
            Ok(d),
            "frame {frames}: codecs diverged"
        );

        sink.emit(&pkt).unwrap();
        frames += 1;
    }

    assert!(frames >= 5, "capture should hold a handshake plus pings, got {frames}");
    assert_eq!(sink.len(), u64::from(frames));
    let reemitted = sink.finish().unwrap();
    assert_eq!(reemitted, original, "re-emit must be bit-identical");
}

#[test]
fn corrupting_any_captured_frame_is_detected() {
    // Flip one bit in each captured frame's body: the FCS (or a
    // checksum) must catch every single one — no corrupt frame may
    // demux cleanly.
    let original = capture_bytes();
    let mut src = PcapSource::new(&original[..]).unwrap();
    let mut i = 0usize;
    while let Some(pkt) = src.next_packet().unwrap() {
        let mut bad = pkt.data.clone();
        let at = (i * 7) % bad.len();
        bad[at] ^= 0x04;
        let zc = codec::demux_frame(&bad);
        assert!(zc.is_err(), "frame {i}: flip at {at} went undetected");
        assert_eq!(zc, reference::demux_frame(&bad), "frame {i}: codecs diverged on corruption");
        i += 1;
    }
    assert!(i > 0);
}
