//! Wire data-plane lane state: pooled packet buffers plus byte-level
//! encode/demux threaded through the serving loop.
//!
//! In descriptor mode (the seed behaviour) a message is a `(session,
//! born)` pair and no bytes exist.  In wire mode every send is encoded
//! to a real Ethernet/IPv4/TCP frame — into a recycled
//! [`netsim::BufPool`] buffer on the zero-copy path, into fresh `Vec`
//! copies on the reference path — the fault injector operates on those
//! bytes, and whatever survives is demuxed *from the bytes*: the
//! session rank handed to the server is re-derived from the parsed
//! 4-tuple, never trusted from the generator.
//!
//! The wire layer adds no modelled nanoseconds and consumes no RNG
//! draws of its own, so for a fixed configuration the three paths
//! produce bit-identical latency reports; the real encode/parse cost
//! is what the `bench wire` suite measures.

use netsim::buf::{BufPool, PktBuf, PoolStats};
use netsim::{Fate, Ns};
use protocols::wire::codec::{self, Demux, PktSpec, Shape};
use protocols::wire::reference;
use protocols::ErrorClass;

use crate::session::DemuxKey;

/// How messages are represented on their way through the injector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WirePath {
    /// Descriptor-only modelling: no bytes exist (seed behaviour).
    #[default]
    Descriptor,
    /// Zero-copy: pooled recycled buffers, in-place header views.
    ZeroCopy,
    /// Copy-and-materialize reference codec (the equivalence twin and
    /// the cost baseline the `bench wire` suite compares against).
    Reference,
}

impl WirePath {
    /// Wire-stable code (matches `trace::wire_name`).
    pub fn code(self) -> u8 {
        match self {
            WirePath::Descriptor => 0,
            WirePath::ZeroCopy => 1,
            WirePath::Reference => 2,
        }
    }

    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(WirePath::Descriptor),
            1 => Some(WirePath::ZeroCopy),
            2 => Some(WirePath::Reference),
            _ => None,
        }
    }
}

/// Byte-path counters, merged across lanes into the run report.  All
/// decode-derived: zero in descriptor mode (fate-level counts live in
/// `FaultStats` for every mode).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Frames encoded to wire bytes (one per send, retransmits included).
    pub encoded: u64,
    /// Frames that parsed cleanly end-to-end and reached the demux.
    pub demuxed: u64,
    /// TCP payload bytes carried by cleanly demuxed frames.
    pub payload_bytes: u64,
    /// Frames discarded at the link layer (injector bit corruption —
    /// provably caught by the FCS, so counted without a parse to keep
    /// record and replay byte-identical).
    pub bad_fcs: u64,
    /// Frames cut short on the wire; typed decode error, class
    /// [`ErrorClass::Truncated`].
    pub truncated: u64,
    /// Frames with mangled headers; class [`ErrorClass::Malformed`].
    pub malformed: u64,
    /// IP fragments this plane cannot reassemble; class
    /// [`ErrorClass::Fragmented`].
    pub fragmented: u64,
    /// Buffer-pool counters (zero-copy path only; the reference path
    /// allocates fresh copies by design).
    pub pool: PoolStats,
}

impl WireStats {
    pub fn merge(&mut self, other: &WireStats) {
        self.encoded += other.encoded;
        self.demuxed += other.demuxed;
        self.payload_bytes += other.payload_bytes;
        self.bad_fcs += other.bad_fcs;
        self.truncated += other.truncated;
        self.malformed += other.malformed;
        self.fragmented += other.fragmented;
        self.pool.merge(&other.pool);
    }

    /// The decode-outcome counters alone (pool excluded): these must be
    /// identical between the zero-copy and reference paths.
    pub fn decode_counters(&self) -> [u64; 7] {
        [
            self.encoded,
            self.demuxed,
            self.payload_bytes,
            self.bad_fcs,
            self.truncated,
            self.malformed,
            self.fragmented,
        ]
    }
}

/// TCP payload carried by every simulated message: enough to round-trip
/// the descriptor through the bytes.
const PAYLOAD_LEN: usize = 16;

/// One lane's wire-mode state.  At most one frame is ever in flight
/// (encode → injector → resolve happen within a single arrival), so the
/// pool's steady state is a single recycled buffer and `grows` must
/// stay 0 for the whole run.
pub(crate) struct WireLane {
    path: WirePath,
    pool: BufPool,
    stats: WireStats,
    /// Zero-copy path: the in-flight pooled buffer.
    cur: Option<PktBuf>,
    /// Reference path: the in-flight frame (a fresh copy per packet, by
    /// design — that allocation is part of the measured cost).
    frame: Vec<u8>,
    cur_len: usize,
    /// The spec/payload of the in-flight frame, kept for shaped
    /// re-encodes (truncation/malform/fragment decide what *arrives*).
    spec: PktSpec,
    payload: [u8; PAYLOAD_LEN],
    worker_idx: u32,
    workers: u32,
}

impl WireLane {
    pub(crate) fn new(path: WirePath, worker_idx: u32, workers: u32) -> Self {
        WireLane {
            path,
            // One buffer in flight at a time; 2 slots of slack so a
            // future pipelined lane would still not grow mid-run.
            pool: BufPool::new(2),
            stats: WireStats::default(),
            cur: None,
            frame: Vec::new(),
            cur_len: 0,
            spec: PktSpec::default(),
            payload: [0; PAYLOAD_LEN],
            worker_idx,
            workers,
        }
    }

    pub(crate) fn on(&self) -> bool {
        self.path != WirePath::Descriptor
    }

    /// Encode the outgoing message as a real frame.  No-op in
    /// descriptor mode.
    pub(crate) fn encode(&mut self, global_session: u64, session: u32, born: Ns) {
        if !self.on() {
            return;
        }
        let key = DemuxKey::for_session(global_session);
        self.spec = PktSpec {
            src_ip: key.src_ip,
            dst_ip: key.dst_ip,
            src_port: key.src_port,
            dst_port: key.dst_port,
            seq: born as u32,
            ack: (born >> 32) as u32,
            ident: global_session as u16,
            ..PktSpec::default()
        };
        self.payload[..4].copy_from_slice(&session.to_le_bytes());
        self.payload[4..12].copy_from_slice(&born.to_le_bytes());
        self.payload[12..].copy_from_slice(&self.worker_idx.to_le_bytes());
        match self.path {
            WirePath::ZeroCopy => {
                let h = self.pool.alloc();
                let buf = self.pool.bytes_mut(h).expect("fresh handle is live");
                self.cur_len = codec::encode_frame(buf, &self.spec, &self.payload);
                self.cur = Some(h);
            }
            WirePath::Reference => {
                self.frame = reference::encode_frame(&self.spec, &self.payload);
                self.cur_len = self.frame.len();
            }
            WirePath::Descriptor => unreachable!(),
        }
        self.stats.encoded += 1;
    }

    /// The in-flight frame's bytes, for the injector to scribble on.
    pub(crate) fn frame_mut(&mut self) -> Option<&mut [u8]> {
        match self.path {
            WirePath::Descriptor => None,
            WirePath::ZeroCopy => {
                let h = self.cur.expect("encode precedes the injector");
                let buf = self.pool.bytes_mut(h).expect("in-flight handle is live");
                Some(&mut buf[..self.cur_len])
            }
            WirePath::Reference => Some(&mut self.frame[..self.cur_len]),
        }
    }

    /// Resolve what actually arrived: parse surviving frames back out
    /// of the bytes (shaped fates re-encode the broken variant first),
    /// free the buffer, and return the session rank the *demux* says —
    /// `None` when nothing decodable arrived or in descriptor mode.
    pub(crate) fn resolve(&mut self, fate: Fate) -> Option<u32> {
        if !self.on() {
            return None;
        }
        let arrived = match fate {
            Fate::Delivered | Fate::Reordered | Fate::Duplicated => {
                let d = match self.demux() {
                    Ok(d) => d,
                    Err(e) => panic!("intact frame failed demux: {e}"),
                };
                self.stats.demuxed += 1;
                self.stats.payload_bytes += d.payload_len as u64;
                Some(self.rank_of(&d))
            }
            Fate::Dropped => None,
            Fate::Corrupted => {
                // The injector flipped one bit; the FCS provably
                // catches any single-bit flip (see the codec's
                // every-byte sweep), so the link layer discards it.
                // Counted from the fate — replayed runs apply fates
                // without mutating bytes, and parsing here would let
                // the two diverge.
                self.stats.bad_fcs += 1;
                None
            }
            Fate::Truncated => {
                self.expect_shaped(Shape::Truncated, ErrorClass::Truncated);
                self.stats.truncated += 1;
                None
            }
            Fate::Malformed => {
                self.expect_shaped(Shape::Malformed, ErrorClass::Malformed);
                self.stats.malformed += 1;
                None
            }
            Fate::Fragmented => {
                self.expect_shaped(Shape::Fragmented, ErrorClass::Fragmented);
                self.stats.fragmented += 1;
                None
            }
        };
        self.release();
        arrived
    }

    fn demux(&self) -> Result<Demux, protocols::WireError> {
        match self.path {
            WirePath::ZeroCopy => {
                let h = self.cur.expect("encode precedes resolve");
                let bytes = self.pool.bytes(h).expect("in-flight handle is live");
                codec::demux_frame(&bytes[..self.cur_len])
            }
            WirePath::Reference => reference::demux_frame(&self.frame[..self.cur_len]),
            WirePath::Descriptor => unreachable!(),
        }
    }

    /// Re-encode the in-flight message in the broken shape the injector
    /// chose, push it through the real parser, and check the typed
    /// error lands in the expected class — the anomaly counter is a
    /// genuine decode verdict, not an echo of the fate.
    fn expect_shaped(&mut self, shape: Shape, class: ErrorClass) {
        let err = match self.path {
            WirePath::ZeroCopy => {
                let h = self.cur.expect("encode precedes resolve");
                let buf = self.pool.bytes_mut(h).expect("in-flight handle is live");
                let len = codec::encode_frame_shaped(buf, &self.spec, &self.payload, shape);
                let bytes = self.pool.bytes(h).expect("in-flight handle is live");
                codec::demux_frame(&bytes[..len]).expect_err("shaped frame must not demux")
            }
            WirePath::Reference => {
                let frame = reference::encode_frame_shaped(&self.spec, &self.payload, shape);
                reference::demux_frame(&frame).expect_err("shaped frame must not demux")
            }
            WirePath::Descriptor => unreachable!(),
        };
        assert_eq!(err.class(), class, "shaped decode error mis-classified: {err}");
    }

    /// Session rank from the parsed 4-tuple — the inverse of
    /// [`DemuxKey::for_session`] over this lane's disjoint id space.
    fn rank_of(&self, d: &Demux) -> u32 {
        assert_eq!(d.dst_ip, 0xC0A8_0001, "demux produced a foreign destination");
        assert_eq!(d.dst_port, 7, "demux produced a foreign port");
        let id = u64::from(d.src_ip & 0x00FF_FFFF) | (u64::from(d.src_port) << 24);
        let lane = u64::from(self.worker_idx);
        let workers = u64::from(self.workers);
        assert!(
            id >= lane && (id - lane) % workers == 0,
            "session id {id} does not belong to lane {lane} of {workers}"
        );
        ((id - lane) / workers) as u32
    }

    fn release(&mut self) {
        if let Some(h) = self.cur.take() {
            self.pool.free(h).expect("in-flight buffer frees exactly once");
        }
        self.frame = Vec::new();
        self.cur_len = 0;
    }

    /// Fold the pool counters in and surface the lane's stats.
    pub(crate) fn finish(mut self) -> WireStats {
        debug_assert!(self.cur.is_none(), "run ended with a frame in flight");
        self.stats.pool = self.pool.stats();
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_path_codes_round_trip() {
        for p in [WirePath::Descriptor, WirePath::ZeroCopy, WirePath::Reference] {
            assert_eq!(WirePath::from_code(p.code()), Some(p));
        }
        assert_eq!(WirePath::from_code(3), None);
    }

    #[test]
    fn lane_round_trips_a_message_through_bytes() {
        for path in [WirePath::ZeroCopy, WirePath::Reference] {
            let mut lane = WireLane::new(path, 1, 4);
            // global id for rank 7 on lane 1 of 4 workers.
            lane.encode(7 * 4 + 1, 7, 0xABCD);
            assert_eq!(lane.frame_mut().unwrap().len(), codec::wire_len(PAYLOAD_LEN));
            assert_eq!(lane.resolve(Fate::Delivered), Some(7));
            let stats = lane.finish();
            assert_eq!(stats.demuxed, 1);
            assert_eq!(stats.payload_bytes, PAYLOAD_LEN as u64);
        }
    }

    #[test]
    fn shaped_fates_count_typed_decode_errors() {
        let mut lane = WireLane::new(WirePath::ZeroCopy, 0, 1);
        for fate in [
            Fate::Truncated,
            Fate::Malformed,
            Fate::Fragmented,
            Fate::Corrupted,
            Fate::Dropped,
        ] {
            lane.encode(3, 3, 99);
            assert_eq!(lane.resolve(fate), None);
        }
        let stats = lane.finish();
        assert_eq!(
            (stats.truncated, stats.malformed, stats.fragmented, stats.bad_fcs),
            (1, 1, 1, 1)
        );
        assert_eq!(stats.encoded, 5);
        assert_eq!(stats.demuxed, 0);
    }

    #[test]
    fn pool_recycles_without_growing() {
        let mut lane = WireLane::new(WirePath::ZeroCopy, 0, 1);
        for i in 0..1000u64 {
            lane.encode(i % 5, (i % 5) as u32, i);
            lane.resolve(Fate::Delivered);
        }
        let pool = lane.finish().pool;
        assert_eq!(pool.allocs, 1000);
        assert_eq!(pool.frees, 1000);
        assert_eq!(pool.grows, 0, "steady state must never allocate");
        assert_eq!(pool.recycled, 999);
        assert_eq!(pool.high_water, 1);
    }
}
