//! libpcap classic-format ingest and emit.
//!
//! The wire data plane's frames are real bytes, so its traces can
//! round-trip through the same format Wireshark and tcpdump speak.
//! [`PcapSink`] writes little-endian classic pcap (version 2.4,
//! snaplen 65535, Ethernet linktype, microsecond timestamps);
//! [`PcapSource`]
//! streams packets back out of any classic pcap — either byte order,
//! microsecond or nanosecond magic — one record at a time, with typed
//! errors carrying byte offsets (never a panic on corrupt input).
//!
//! The roundtrip contract (pinned by the in-tree `tcpip_roundtrip.pcap`
//! smoke test): ingest through [`PcapSource`], re-emit through
//! [`PcapSink::record_raw`], and the output file is bit-identical to a
//! little-endian-microsecond input.

use std::io::{Read, Write};

/// Linktype for Ethernet frames.
pub const LINKTYPE_ETHERNET: u32 = 1;
/// Classic pcap magic, microsecond timestamps.
pub const MAGIC_US: u32 = 0xa1b2_c3d4;
/// Classic pcap magic, nanosecond timestamps (as written by
/// `tcpdump --time-stamp-precision=nano`).
pub const MAGIC_NS: u32 = 0xa1b2_3c4d;
/// Global header length.
pub const GLOBAL_HDR: usize = 24;
/// Per-record header length.
pub const RECORD_HDR: usize = 16;

/// Everything that can be wrong with a pcap file.
#[derive(Debug)]
pub enum PcapError {
    Io(std::io::Error),
    /// First four bytes are no known pcap magic.
    BadMagic(u32),
    /// File ends mid-header or mid-record.
    Truncated { offset: u64 },
    /// Captured length exceeds the file's own snaplen — a corrupt
    /// record header, not a real packet.
    Oversize { len: u32, snaplen: u32, offset: u64 },
}

impl std::fmt::Display for PcapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PcapError::Io(e) => write!(f, "pcap I/O error: {e}"),
            PcapError::BadMagic(m) => write!(f, "not a pcap file (magic {m:#010x})"),
            PcapError::Truncated { offset } => write!(f, "pcap truncated at byte {offset}"),
            PcapError::Oversize { len, snaplen, offset } => {
                write!(f, "pcap record of {len} bytes exceeds snaplen {snaplen} at byte {offset}")
            }
        }
    }
}

impl std::error::Error for PcapError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PcapError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for PcapError {
    fn from(e: std::io::Error) -> Self {
        PcapError::Io(e)
    }
}

/// One captured packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PcapPacket {
    /// Timestamp seconds field.
    pub secs: u32,
    /// Sub-second field, always normalized to microseconds (nanosecond
    /// captures are divided down on ingest).
    pub usecs: u32,
    /// Original on-wire length (may exceed `data.len()` when the
    /// capture was snapped).
    pub orig_len: u32,
    /// Captured bytes.
    pub data: Vec<u8>,
}

impl PcapPacket {
    /// Timestamp in nanoseconds (microsecond resolution).
    pub fn ts_ns(&self) -> u64 {
        (u64::from(self.secs) * 1_000_000 + u64::from(self.usecs)) * 1_000
    }
}

// ------------------------------------------------------------------ sink

/// Streaming pcap writer.  The global header goes out on construction;
/// every [`record`](PcapSink::record) appends one packet.
pub struct PcapSink<W: Write> {
    w: W,
    records: u64,
}

impl<W: Write> PcapSink<W> {
    /// Write the global header (LE classic magic, v2.4, snaplen 65535,
    /// Ethernet) and return the sink.
    pub fn new(mut w: W) -> std::io::Result<Self> {
        w.write_all(&MAGIC_US.to_le_bytes())?;
        w.write_all(&2u16.to_le_bytes())?; // version major
        w.write_all(&4u16.to_le_bytes())?; // version minor
        w.write_all(&0i32.to_le_bytes())?; // thiszone
        w.write_all(&0u32.to_le_bytes())?; // sigfigs
        w.write_all(&65535u32.to_le_bytes())?; // snaplen
        w.write_all(&LINKTYPE_ETHERNET.to_le_bytes())?;
        Ok(PcapSink { w, records: 0 })
    }

    /// Append one frame captured at simulated time `at_ns`.
    pub fn record(&mut self, at_ns: u64, frame: &[u8]) -> std::io::Result<()> {
        let us = at_ns / 1_000;
        self.record_raw((us / 1_000_000) as u32, (us % 1_000_000) as u32, frame.len() as u32, frame)
    }

    /// Append one record with explicit header fields — the re-emit path
    /// for ingested packets, preserving snapped lengths exactly.
    pub fn record_raw(
        &mut self,
        secs: u32,
        usecs: u32,
        orig_len: u32,
        data: &[u8],
    ) -> std::io::Result<()> {
        self.w.write_all(&secs.to_le_bytes())?;
        self.w.write_all(&usecs.to_le_bytes())?;
        self.w.write_all(&(data.len() as u32).to_le_bytes())?;
        self.w.write_all(&orig_len.to_le_bytes())?;
        self.w.write_all(data)?;
        self.records += 1;
        Ok(())
    }

    /// Re-emit an ingested packet verbatim.
    pub fn emit(&mut self, pkt: &PcapPacket) -> std::io::Result<()> {
        self.record_raw(pkt.secs, pkt.usecs, pkt.orig_len, &pkt.data)
    }

    /// Number of records written.
    pub fn len(&self) -> u64 {
        self.records
    }

    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// Flush and hand back the underlying writer.
    pub fn finish(mut self) -> std::io::Result<W> {
        self.w.flush()?;
        Ok(self.w)
    }
}

// ---------------------------------------------------------------- source

/// Streaming pcap reader: global header parsed on construction,
/// packets pulled one at a time with [`next`](PcapSource::next).
pub struct PcapSource<R: Read> {
    r: R,
    offset: u64,
    swapped: bool,
    nanos: bool,
    snaplen: u32,
    linktype: u32,
}

impl<R: Read> PcapSource<R> {
    /// Parse the global header; detects byte order and timestamp
    /// resolution from the magic.
    pub fn new(mut r: R) -> Result<Self, PcapError> {
        let mut hdr = [0u8; GLOBAL_HDR];
        r.read_exact(&mut hdr).map_err(|e| eof_to_truncated(e, 0))?;
        let raw_magic = u32::from_le_bytes(hdr[0..4].try_into().unwrap());
        let (swapped, nanos) = match raw_magic {
            MAGIC_US => (false, false),
            MAGIC_NS => (false, true),
            m if m.swap_bytes() == MAGIC_US => (true, false),
            m if m.swap_bytes() == MAGIC_NS => (true, true),
            m => return Err(PcapError::BadMagic(m)),
        };
        let u32_at = |at: usize| -> u32 {
            let v = u32::from_le_bytes(hdr[at..at + 4].try_into().unwrap());
            if swapped { v.swap_bytes() } else { v }
        };
        let snaplen = u32_at(16);
        let linktype = u32_at(20);
        Ok(PcapSource { r, offset: GLOBAL_HDR as u64, swapped, nanos, snaplen, linktype })
    }

    pub fn snaplen(&self) -> u32 {
        self.snaplen
    }

    pub fn linktype(&self) -> u32 {
        self.linktype
    }

    /// Whether the file's byte order differs from little-endian.
    pub fn swapped(&self) -> bool {
        self.swapped
    }

    /// Read the next packet; `Ok(None)` is clean end-of-file at a
    /// record boundary.
    pub fn next_packet(&mut self) -> Result<Option<PcapPacket>, PcapError> {
        let rec_offset = self.offset;
        let mut hdr = [0u8; RECORD_HDR];
        match read_or_eof(&mut self.r, &mut hdr) {
            ReadOutcome::Done => {}
            ReadOutcome::CleanEof => return Ok(None),
            ReadOutcome::Truncated => return Err(PcapError::Truncated { offset: rec_offset }),
            ReadOutcome::Err(e) => return Err(PcapError::Io(e)),
        }
        let u32_at = |at: usize| -> u32 {
            let v = u32::from_le_bytes(hdr[at..at + 4].try_into().unwrap());
            if self.swapped { v.swap_bytes() } else { v }
        };
        let secs = u32_at(0);
        let mut subsec = u32_at(4);
        if self.nanos {
            subsec /= 1_000;
        }
        let cap_len = u32_at(8);
        let orig_len = u32_at(12);
        if cap_len > self.snaplen.max(65535) {
            return Err(PcapError::Oversize { len: cap_len, snaplen: self.snaplen, offset: rec_offset });
        }
        let mut data = vec![0u8; cap_len as usize];
        self.r
            .read_exact(&mut data)
            .map_err(|e| eof_to_truncated(e, rec_offset))?;
        self.offset = rec_offset + RECORD_HDR as u64 + u64::from(cap_len);
        Ok(Some(PcapPacket { secs, usecs: subsec, orig_len, data }))
    }

    /// Drain every remaining packet.
    pub fn collect_all(&mut self) -> Result<Vec<PcapPacket>, PcapError> {
        let mut out = Vec::new();
        while let Some(p) = self.next_packet()? {
            out.push(p);
        }
        Ok(out)
    }
}

enum ReadOutcome {
    Done,
    CleanEof,
    Truncated,
    Err(std::io::Error),
}

/// Fill `buf`, distinguishing a clean EOF before the first byte from a
/// truncation mid-way.
fn read_or_eof(r: &mut impl Read, buf: &mut [u8]) -> ReadOutcome {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => return if got == 0 { ReadOutcome::CleanEof } else { ReadOutcome::Truncated },
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return ReadOutcome::Err(e),
        }
    }
    ReadOutcome::Done
}

fn eof_to_truncated(e: std::io::Error, offset: u64) -> PcapError {
    if e.kind() == std::io::ErrorKind::UnexpectedEof {
        PcapError::Truncated { offset }
    } else {
        PcapError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_capture() -> Vec<u8> {
        let mut sink = PcapSink::new(Vec::new()).unwrap();
        sink.record(1_500_000, &[0xAA; 64]).unwrap();
        sink.record(2_000_000_000, &[0x55; 74]).unwrap();
        sink.finish().unwrap()
    }

    #[test]
    fn sink_writes_the_classic_layout_byte_for_byte() {
        // The global header alone: 24 bytes, LE microsecond magic
        // first, Ethernet linktype last.
        let empty = PcapSink::new(Vec::new()).unwrap().finish().unwrap();
        assert_eq!(empty.len(), GLOBAL_HDR);
        assert_eq!(u32::from_le_bytes(empty[0..4].try_into().unwrap()), MAGIC_US);
        assert_eq!(u32::from_le_bytes(empty[20..24].try_into().unwrap()), LINKTYPE_ETHERNET);

        // Records append: secs, usecs, captured and original length,
        // then the frame bytes.
        let mut sink = PcapSink::new(Vec::new()).unwrap();
        sink.record(1_500_000, &[0xAA; 64]).unwrap(); // 1.5 ms
        sink.record(2_000_000_000, &[4, 5]).unwrap(); // 2 s
        let b = sink.finish().unwrap();
        assert_eq!(b.len(), GLOBAL_HDR + RECORD_HDR + 64 + RECORD_HDR + 2);
        let field = |at: usize| u32::from_le_bytes(b[at..at + 4].try_into().unwrap());
        let first = GLOBAL_HDR;
        let header = [field(first), field(first + 4), field(first + 8), field(first + 12)];
        assert_eq!(header, [0, 1_500, 64, 64], "secs, usecs, cap len, orig len");
        assert_eq!(&b[first + RECORD_HDR..first + RECORD_HDR + 64], &[0xAA; 64][..]);
        assert_eq!(field(first + RECORD_HDR + 64), 2, "second record's seconds field");
    }

    #[test]
    fn roundtrip_is_bit_identical() {
        let original = sample_capture();
        let mut src = PcapSource::new(&original[..]).unwrap();
        assert_eq!(src.linktype(), LINKTYPE_ETHERNET);
        assert_eq!(src.snaplen(), 65535);
        let mut sink = PcapSink::new(Vec::new()).unwrap();
        while let Some(p) = src.next_packet().unwrap() {
            sink.emit(&p).unwrap();
        }
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.finish().unwrap(), original);
    }

    #[test]
    fn packets_carry_timestamps_and_payload() {
        let bytes = sample_capture();
        let mut src = PcapSource::new(&bytes[..]).unwrap();
        let p1 = src.next_packet().unwrap().unwrap();
        assert_eq!((p1.secs, p1.usecs), (0, 1_500));
        assert_eq!(p1.ts_ns(), 1_500_000);
        assert_eq!(p1.data, vec![0xAA; 64]);
        assert_eq!(p1.orig_len, 64);
        let p2 = src.next_packet().unwrap().unwrap();
        assert_eq!((p2.secs, p2.usecs), (2, 0));
        assert_eq!(p2.data.len(), 74);
        assert!(src.next_packet().unwrap().is_none());
    }

    #[test]
    fn big_endian_captures_are_readable() {
        // Hand-build a BE capture of one 4-byte packet.
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC_US.to_be_bytes());
        buf.extend_from_slice(&2u16.to_be_bytes());
        buf.extend_from_slice(&4u16.to_be_bytes());
        buf.extend_from_slice(&0i32.to_be_bytes());
        buf.extend_from_slice(&0u32.to_be_bytes());
        buf.extend_from_slice(&65535u32.to_be_bytes());
        buf.extend_from_slice(&LINKTYPE_ETHERNET.to_be_bytes());
        buf.extend_from_slice(&7u32.to_be_bytes()); // secs
        buf.extend_from_slice(&9u32.to_be_bytes()); // usecs
        buf.extend_from_slice(&4u32.to_be_bytes()); // cap len
        buf.extend_from_slice(&4u32.to_be_bytes()); // orig len
        buf.extend_from_slice(&[1, 2, 3, 4]);
        let mut src = PcapSource::new(&buf[..]).unwrap();
        assert!(src.swapped());
        assert_eq!(src.linktype(), LINKTYPE_ETHERNET);
        let p = src.next_packet().unwrap().unwrap();
        assert_eq!((p.secs, p.usecs, p.data.len()), (7, 9, 4));
        assert!(src.next_packet().unwrap().is_none());
    }

    #[test]
    fn nanosecond_magic_normalizes_to_micros() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC_NS.to_le_bytes());
        buf.extend_from_slice(&2u16.to_le_bytes());
        buf.extend_from_slice(&4u16.to_le_bytes());
        buf.extend_from_slice(&0i32.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&65535u32.to_le_bytes());
        buf.extend_from_slice(&LINKTYPE_ETHERNET.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&123_456_789u32.to_le_bytes()); // nanos
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.push(0xFF);
        let mut src = PcapSource::new(&buf[..]).unwrap();
        let p = src.next_packet().unwrap().unwrap();
        assert_eq!(p.usecs, 123_456);
    }

    #[test]
    fn bad_magic_rejected() {
        let buf = [0u8; 24];
        match PcapSource::new(&buf[..]) {
            Err(PcapError::BadMagic(0)) => {}
            Err(other) => panic!("expected BadMagic, got {other:?}"),
            Ok(_) => panic!("expected BadMagic, got a source"),
        }
    }

    #[test]
    fn truncated_header_and_record_detected() {
        let bytes = sample_capture();
        match PcapSource::new(&bytes[..10]) {
            Err(PcapError::Truncated { offset: 0 }) => {}
            Err(other) => panic!("expected Truncated, got {other:?}"),
            Ok(_) => panic!("expected Truncated, got a source"),
        }
        // Cut mid-record-header and mid-payload.
        for cut in [GLOBAL_HDR + 7, GLOBAL_HDR + RECORD_HDR + 10] {
            let mut src = PcapSource::new(&bytes[..cut]).unwrap();
            match src.next_packet() {
                Err(PcapError::Truncated { offset }) => {
                    assert_eq!(offset, GLOBAL_HDR as u64, "cut at {cut}")
                }
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn oversize_record_rejected() {
        let mut buf = sample_capture()[..GLOBAL_HDR].to_vec();
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&0x7fff_ffffu32.to_le_bytes()); // absurd cap len
        buf.extend_from_slice(&4u32.to_le_bytes());
        let mut src = PcapSource::new(&buf[..]).unwrap();
        match src.next_packet() {
            Err(PcapError::Oversize { len: 0x7fff_ffff, .. }) => {}
            other => panic!("expected Oversize, got {other:?}"),
        }
    }
}
