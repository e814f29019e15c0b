//! The copy-and-materialize twin of the zero-copy codec.
//!
//! Every layer is parsed into an owned struct with its payload copied
//! into a fresh `Vec`, every checksum goes through the byte-pair
//! [`checksum::reference`] path, and the FCS through the byte-serial
//! [`Frame::fcs_of_serial`] fold — the straightforward implementations
//! a first cut would write.  It produces *identical bytes* on encode and
//! the *identical [`WireError`]* (same variant, same precedence) on
//! demux; the seeded equivalence suite in `tests/wire_props.rs` pins
//! that, and the `wire` bench suite measures the gap (the zero-copy path is
//! asserted ≥ 2× faster).

use netsim::frame::{Frame, FCS, MIN_FRAME};

use super::codec::{Demux, PktSpec, Shape, ETHERTYPE_IPV4, TRUNCATED_LEN};
use super::views::{ETH_HDR, IP_HDR_MIN, TCP_HDR_MIN};
use super::WireError;
use crate::checksum;
use crate::tcpip::hdr::IPPROTO_TCP;

/// A materialized Ethernet layer: owned payload copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EthFields {
    pub dst: [u8; 6],
    pub src: [u8; 6],
    pub ethertype: u16,
    pub payload: Vec<u8>,
}

/// A materialized IPv4 layer: owned options and payload copies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IpFields {
    pub tos: u8,
    pub total_len: u16,
    pub ident: u16,
    pub frag: u16,
    pub ttl: u8,
    pub proto: u8,
    pub src: u32,
    pub dst: u32,
    pub options: Vec<u8>,
    pub payload: Vec<u8>,
}

/// A materialized TCP layer: owned options and payload copies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcpFields {
    pub src_port: u16,
    pub dst_port: u16,
    pub seq: u32,
    pub ack: u32,
    pub data_off: usize,
    pub flags: u8,
    pub window: u16,
    pub urgent: u16,
    pub options: Vec<u8>,
    pub payload: Vec<u8>,
}

/// A fully materialized frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefPacket {
    pub eth: EthFields,
    pub ip: IpFields,
    pub tcp: TcpFields,
}

/// Encode by building each layer as an owned `Vec` and concatenating —
/// byte-identical to [`super::codec::encode_frame`].
pub fn encode_frame(spec: &PktSpec, payload: &[u8]) -> Vec<u8> {
    encode_with_frag(spec, payload, 0)
}

fn encode_with_frag(spec: &PktSpec, payload: &[u8], frag: u16) -> Vec<u8> {
    // TCP segment.
    let mut tcp = Vec::with_capacity(TCP_HDR_MIN + payload.len());
    tcp.extend_from_slice(&spec.src_port.to_be_bytes());
    tcp.extend_from_slice(&spec.dst_port.to_be_bytes());
    tcp.extend_from_slice(&spec.seq.to_be_bytes());
    tcp.extend_from_slice(&spec.ack.to_be_bytes());
    tcp.push(5 << 4);
    tcp.push(spec.flags);
    tcp.extend_from_slice(&spec.window.to_be_bytes());
    tcp.extend_from_slice(&[0, 0, 0, 0]); // checksum + urgent
    tcp.extend_from_slice(payload);
    let tcp_ck =
        checksum::reference::in_cksum_pseudo(spec.src_ip, spec.dst_ip, IPPROTO_TCP, &tcp);
    tcp[16..18].copy_from_slice(&tcp_ck.to_be_bytes());

    // IP datagram.
    let total_len = (IP_HDR_MIN + tcp.len()) as u16;
    let mut ip = Vec::with_capacity(total_len as usize);
    ip.push(0x45);
    ip.push(0);
    ip.extend_from_slice(&total_len.to_be_bytes());
    ip.extend_from_slice(&spec.ident.to_be_bytes());
    ip.extend_from_slice(&frag.to_be_bytes());
    ip.push(spec.ttl);
    ip.push(IPPROTO_TCP);
    ip.extend_from_slice(&[0, 0]); // checksum
    ip.extend_from_slice(&spec.src_ip.to_be_bytes());
    ip.extend_from_slice(&spec.dst_ip.to_be_bytes());
    let ip_ck = checksum::reference::in_cksum(&ip);
    ip[10..12].copy_from_slice(&ip_ck.to_be_bytes());
    ip.extend_from_slice(&tcp);

    // Ethernet frame via the netsim materializing path: pad + FCS.
    let mut out = Vec::with_capacity(MIN_FRAME);
    out.extend_from_slice(&spec.dst_mac);
    out.extend_from_slice(&spec.src_mac);
    out.extend_from_slice(&ETHERTYPE_IPV4.to_be_bytes());
    out.extend_from_slice(&ip);
    let padded = out.len().max(MIN_FRAME - FCS);
    out.resize(padded, 0);
    let fcs = Frame::fcs_of_serial(&out);
    out.extend_from_slice(&fcs.to_be_bytes());
    out
}

/// Shaped encode — same shapes, same bytes as the zero-copy
/// [`super::codec::encode_frame_shaped`].
pub fn encode_frame_shaped(spec: &PktSpec, payload: &[u8], shape: Shape) -> Vec<u8> {
    match shape {
        Shape::Intact => encode_frame(spec, payload),
        Shape::Truncated => {
            let mut out = encode_frame(spec, payload);
            out.truncate(TRUNCATED_LEN);
            out
        }
        Shape::Malformed => {
            let mut out = encode_frame(spec, payload);
            out[ETH_HDR] = 0x65;
            let body = out.len() - FCS;
            let fcs = Frame::fcs_of_serial(&out[..body]);
            out[body..].copy_from_slice(&fcs.to_be_bytes());
            out
        }
        Shape::Fragmented => encode_with_frag(spec, payload, 0x2000),
    }
}

/// Parse a frame by materializing every layer, with the same checks in
/// the same order as [`super::codec::demux_frame`].
pub fn parse_frame(frame: &[u8]) -> Result<RefPacket, WireError> {
    if frame.len() < MIN_FRAME {
        return Err(WireError::Runt(frame.len()));
    }
    let body = frame[..frame.len() - FCS].to_vec(); // copy 1: the frame body
    let fcs = u32::from_be_bytes(frame[frame.len() - FCS..].try_into().unwrap());
    if Frame::fcs_of_serial(&body) != fcs {
        return Err(WireError::BadFcs);
    }

    if body.len() < ETH_HDR {
        return Err(WireError::TruncatedEth(body.len()));
    }
    let eth = EthFields {
        dst: body[0..6].try_into().unwrap(),
        src: body[6..12].try_into().unwrap(),
        ethertype: u16::from_be_bytes([body[12], body[13]]),
        payload: body[ETH_HDR..].to_vec(), // copy 2: the IP datagram
    };
    if eth.ethertype != ETHERTYPE_IPV4 {
        return Err(WireError::NotIpv4(eth.ethertype));
    }

    let b = &eth.payload;
    if b.len() < IP_HDR_MIN {
        return Err(WireError::TruncatedIp(b.len()));
    }
    let version = b[0] >> 4;
    if version != 4 {
        return Err(WireError::BadVersion(version));
    }
    let ihl = b[0] & 0x0f;
    let hdr_len = ihl as usize * 4;
    if ihl < 5 || hdr_len > b.len() {
        return Err(WireError::BadIhl(ihl));
    }
    let total_len = u16::from_be_bytes([b[2], b[3]]) as usize;
    if total_len < hdr_len || total_len > b.len() {
        return Err(WireError::BadTotalLen { total: total_len as u16, have: b.len() });
    }
    if checksum::reference::in_cksum(&b[..hdr_len]) != 0 {
        return Err(WireError::BadIpChecksum);
    }
    let ip = IpFields {
        tos: b[1],
        total_len: total_len as u16,
        ident: u16::from_be_bytes([b[4], b[5]]),
        frag: u16::from_be_bytes([b[6], b[7]]),
        ttl: b[8],
        proto: b[9],
        src: u32::from_be_bytes(b[12..16].try_into().unwrap()),
        dst: u32::from_be_bytes(b[16..20].try_into().unwrap()),
        options: b[IP_HDR_MIN..hdr_len].to_vec(),
        payload: b[hdr_len..total_len].to_vec(), // copy 3: the TCP segment
    };
    if ip.frag & 0x2000 != 0 || ip.frag & 0x1fff != 0 {
        return Err(WireError::Fragmented);
    }
    if ip.proto != IPPROTO_TCP {
        return Err(WireError::NotTcp(ip.proto));
    }

    let s = &ip.payload;
    if s.len() < TCP_HDR_MIN {
        return Err(WireError::TruncatedTcp(s.len()));
    }
    let doff_words = s[12] >> 4;
    let data_off = doff_words as usize * 4;
    if data_off < TCP_HDR_MIN || data_off > s.len() {
        return Err(WireError::BadDataOffset(doff_words));
    }
    if checksum::reference::in_cksum_pseudo(ip.src, ip.dst, IPPROTO_TCP, s) != 0 {
        return Err(WireError::BadTcpChecksum);
    }
    let tcp = TcpFields {
        src_port: u16::from_be_bytes([s[0], s[1]]),
        dst_port: u16::from_be_bytes([s[2], s[3]]),
        seq: u32::from_be_bytes(s[4..8].try_into().unwrap()),
        ack: u32::from_be_bytes(s[8..12].try_into().unwrap()),
        data_off,
        flags: s[13],
        window: u16::from_be_bytes([s[14], s[15]]),
        urgent: u16::from_be_bytes([s[18], s[19]]),
        options: s[TCP_HDR_MIN..data_off].to_vec(),
        payload: s[data_off..].to_vec(), // copy 4: the application bytes
    };
    Ok(RefPacket { eth, ip, tcp })
}

/// Demux through the materializing parse, reduced to the same [`Demux`]
/// the zero-copy codec returns.
pub fn demux_frame(frame: &[u8]) -> Result<Demux, WireError> {
    let pkt = parse_frame(frame)?;
    let hdr_len = IP_HDR_MIN + pkt.ip.options.len();
    Ok(Demux {
        src_ip: pkt.ip.src,
        dst_ip: pkt.ip.dst,
        src_port: pkt.tcp.src_port,
        dst_port: pkt.tcp.dst_port,
        seq: pkt.tcp.seq,
        ack: pkt.tcp.ack,
        flags: pkt.tcp.flags,
        payload_off: ETH_HDR + hdr_len + pkt.tcp.data_off,
        payload_len: pkt.tcp.payload.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::codec;

    fn spec() -> PktSpec {
        PktSpec {
            src_ip: 0x0a00_0007,
            dst_ip: 0xc0a8_0001,
            src_port: 5,
            dst_port: 7,
            seq: 42,
            ack: 7,
            ident: 9,
            ..PktSpec::default()
        }
    }

    #[test]
    fn reference_encode_matches_zero_copy() {
        for payload in [&b""[..], b"x", b"sixteen byte pay", &[0xeeu8; 200]] {
            let mut buf = [0u8; 512];
            let n = codec::encode_frame(&mut buf, &spec(), payload);
            let r = encode_frame(&spec(), payload);
            assert_eq!(&buf[..n], &r[..], "payload len {}", payload.len());
        }
    }

    #[test]
    fn reference_shapes_match_zero_copy() {
        for shape in [Shape::Intact, Shape::Truncated, Shape::Malformed, Shape::Fragmented] {
            let mut buf = [0u8; 256];
            let n = codec::encode_frame_shaped(&mut buf, &spec(), b"pay", shape);
            let r = encode_frame_shaped(&spec(), b"pay", shape);
            assert_eq!(&buf[..n], &r[..], "{shape:?}");
        }
    }

    #[test]
    fn parse_materializes_all_layers() {
        let payload = b"materialized";
        let frame = encode_frame(&spec(), payload);
        let pkt = parse_frame(&frame).unwrap();
        assert_eq!(pkt.eth.ethertype, ETHERTYPE_IPV4);
        assert_eq!(pkt.ip.proto, IPPROTO_TCP);
        assert_eq!(pkt.ip.ttl, 64);
        assert_eq!(pkt.tcp.src_port, 5);
        assert_eq!(pkt.tcp.payload, payload);
    }

    #[test]
    fn reference_demux_matches_zero_copy() {
        let frame = encode_frame(&spec(), b"equivalent");
        assert_eq!(demux_frame(&frame), codec::demux_frame(&frame));
    }

    #[test]
    fn reference_errors_match_zero_copy_on_shaped_frames() {
        for shape in [Shape::Truncated, Shape::Malformed, Shape::Fragmented] {
            let frame = encode_frame_shaped(&spec(), b"pay", shape);
            assert_eq!(demux_frame(&frame), codec::demux_frame(&frame), "{shape:?}");
            assert!(demux_frame(&frame).is_err(), "{shape:?}");
        }
    }
}
