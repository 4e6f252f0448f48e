//! TCP segment format (RFC 793 header; no connection state machine — the
//! emulator's traffic generators emit pre-formed segments, and VNFs such as
//! the firewall or DPI only inspect headers).

use crate::checksum::pseudo_header_checksum;
use crate::ipv4::IpProtocol;
use crate::ParseError;
use std::net::Ipv4Addr;

/// Option-less TCP header length.
pub const HEADER_LEN: usize = 20;

/// TCP flag bits.
pub mod flags {
    pub const FIN: u8 = 0x01;
    pub const SYN: u8 = 0x02;
    pub const RST: u8 = 0x04;
    pub const PSH: u8 = 0x08;
    pub const ACK: u8 = 0x10;
    pub const URG: u8 = 0x20;
}

/// The fields of a TCP header, read in place by [`TcpHeader::parse`] and
/// written, with the segment it heads, by [`TcpHeader::put`]: the one
/// reader and the one writer of the format. Options are skipped on read
/// and never written; the urgent pointer is written as zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpHeader {
    pub src_port: u16,
    pub dst_port: u16,
    pub seq: u32,
    pub ack: u32,
    pub flags: u8,
    pub window: u16,
}

impl TcpHeader {
    /// Validates the segment in `data` (data offset, and the checksum
    /// against the IPv4 pseudo-header of `src`/`dst`) and returns its
    /// header with the payload slice that follows the options. Nothing is
    /// copied.
    pub fn parse(
        data: &[u8],
        src: Ipv4Addr,
        dst: Ipv4Addr,
    ) -> Result<(TcpHeader, &[u8]), ParseError> {
        if data.len() < HEADER_LEN {
            return Err(ParseError::Truncated {
                needed: HEADER_LEN,
                got: data.len(),
            });
        }
        let data_off = ((data[12] >> 4) as usize) * 4;
        if data_off < HEADER_LEN {
            return Err(ParseError::UnsupportedField {
                field: "tcp.doff",
                value: data_off as u64,
            });
        }
        if data.len() < data_off {
            return Err(ParseError::Truncated {
                needed: data_off,
                got: data.len(),
            });
        }
        let sum = pseudo_header_checksum(src, dst, IpProtocol::Tcp.to_u8(), data);
        if sum != 0 {
            return Err(ParseError::BadChecksum {
                expected: 0,
                got: sum,
            });
        }
        let header = TcpHeader {
            src_port: u16::from_be_bytes([data[0], data[1]]),
            dst_port: u16::from_be_bytes([data[2], data[3]]),
            seq: u32::from_be_bytes([data[4], data[5], data[6], data[7]]),
            ack: u32::from_be_bytes([data[8], data[9], data[10], data[11]]),
            flags: data[13] & 0x3f,
            window: u16::from_be_bytes([data[14], data[15]]),
        };
        Ok((header, &data[data_off..]))
    }

    /// Appends the option-less segment this header heads, `payload`
    /// included, with a checksum computed over the pseudo-header of
    /// `src`/`dst`.
    pub fn put(&self, buf: &mut Vec<u8>, src: Ipv4Addr, dst: Ipv4Addr, payload: &[u8]) {
        let start = buf.len();
        buf.extend_from_slice(&self.src_port.to_be_bytes());
        buf.extend_from_slice(&self.dst_port.to_be_bytes());
        buf.extend_from_slice(&self.seq.to_be_bytes());
        buf.extend_from_slice(&self.ack.to_be_bytes());
        buf.push((HEADER_LEN as u8 / 4) << 4);
        buf.push(self.flags & 0x3f);
        buf.extend_from_slice(&self.window.to_be_bytes());
        buf.extend_from_slice(&[0, 0, 0, 0]); // checksum placeholder, urgent pointer
        buf.extend_from_slice(payload);
        let c = pseudo_header_checksum(src, dst, IpProtocol::Tcp.to_u8(), &buf[start..]);
        buf[start + 16..start + 18].copy_from_slice(&c.to_be_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: Ipv4Addr = Ipv4Addr::new(10, 1, 0, 1);
    const B: Ipv4Addr = Ipv4Addr::new(10, 2, 0, 2);

    fn header(flags: u8) -> TcpHeader {
        TcpHeader {
            src_port: 443,
            dst_port: 51000,
            seq: 1000,
            ack: 2000,
            flags,
            window: 65535,
        }
    }

    fn segment(h: &TcpHeader, payload: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        h.put(&mut buf, A, B, payload);
        buf
    }

    #[test]
    fn encode_decode_roundtrip() {
        let h = header(flags::ACK | flags::PSH);
        let wire = segment(&h, b"tls bytes");
        assert_eq!(wire.len(), HEADER_LEN + 9);
        let (back, payload) = TcpHeader::parse(&wire, A, B).unwrap();
        assert_eq!(back, h);
        assert_eq!(payload, b"tls bytes");
    }

    #[test]
    fn flag_helpers() {
        // Every flag bit survives the round trip; bits above URG do not.
        for f in [
            flags::FIN,
            flags::SYN,
            flags::RST,
            flags::PSH,
            flags::ACK,
            flags::URG,
        ] {
            let (h, _) = TcpHeader::parse(&segment(&header(f | 0xc0), b""), A, B).unwrap();
            assert_eq!(h.flags, f);
        }
    }

    #[test]
    fn corrupted_payload_fails_checksum() {
        let mut wire = segment(&header(flags::ACK), b"response");
        let last = wire.len() - 1;
        wire[last] ^= 0xff;
        assert!(matches!(
            TcpHeader::parse(&wire, A, B),
            Err(ParseError::BadChecksum { .. })
        ));
    }

    #[test]
    fn segments_with_options_are_decoded() {
        // Hand-build a header with doff=6 (one 4-byte option of NOPs).
        let mut wire = segment(&header(flags::SYN), b"");
        wire[12] = 6 << 4;
        wire.extend_from_slice(&[1, 1, 1, 1]);
        wire[16..18].fill(0);
        let c = pseudo_header_checksum(A, B, IpProtocol::Tcp.to_u8(), &wire);
        wire[16..18].copy_from_slice(&c.to_be_bytes());
        let (h, payload) = TcpHeader::parse(&wire, A, B).unwrap();
        assert_eq!(h.flags, flags::SYN);
        assert!(payload.is_empty());
    }

    #[test]
    fn truncated_is_rejected() {
        let mut wire = segment(&header(flags::SYN), b"");
        wire[12] = 4 << 4;
        assert!(matches!(
            TcpHeader::parse(&wire, A, B),
            Err(ParseError::UnsupportedField {
                field: "tcp.doff",
                ..
            })
        ));
        assert!(matches!(
            TcpHeader::parse(&[0u8; 19], A, B),
            Err(ParseError::Truncated { .. })
        ));
    }
}
