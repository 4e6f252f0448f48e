//! UDP (RFC 768).

use crate::checksum::pseudo_header_checksum;
use crate::ipv4::IpProtocol;
use crate::ParseError;
use std::net::Ipv4Addr;

/// UDP header length.
pub const HEADER_LEN: usize = 8;

/// The ports of a UDP header, read in place by [`UdpHeader::parse`] and
/// written, with the datagram they head, by [`UdpHeader::put`]: the one
/// reader and the one writer of the format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdpHeader {
    pub src_port: u16,
    pub dst_port: u16,
}

impl UdpHeader {
    /// Validates the datagram in `data` (length, and the checksum against
    /// the IPv4 pseudo-header of `src`/`dst`) and returns its header with
    /// the payload slice `data[8..length]`. Nothing is copied. A zero
    /// checksum means "not computed" and is accepted per RFC 768.
    pub fn parse(
        data: &[u8],
        src: Ipv4Addr,
        dst: Ipv4Addr,
    ) -> Result<(UdpHeader, &[u8]), ParseError> {
        if data.len() < HEADER_LEN {
            return Err(ParseError::Truncated {
                needed: HEADER_LEN,
                got: data.len(),
            });
        }
        let length = u16::from_be_bytes([data[4], data[5]]) as usize;
        if length < HEADER_LEN || length > data.len() {
            return Err(ParseError::BadLength {
                declared: length,
                actual: data.len(),
            });
        }
        let wire_sum = u16::from_be_bytes([data[6], data[7]]);
        if wire_sum != 0 {
            let ok = pseudo_header_checksum(src, dst, IpProtocol::Udp.to_u8(), &data[..length]);
            if ok != 0 {
                return Err(ParseError::BadChecksum {
                    expected: 0,
                    got: ok,
                });
            }
        }
        let header = UdpHeader {
            src_port: u16::from_be_bytes([data[0], data[1]]),
            dst_port: u16::from_be_bytes([data[2], data[3]]),
        };
        Ok((header, &data[HEADER_LEN..length]))
    }

    /// Appends the datagram this header heads, `payload` included, with a
    /// checksum computed over the pseudo-header of `src`/`dst`.
    pub fn put(&self, buf: &mut Vec<u8>, src: Ipv4Addr, dst: Ipv4Addr, payload: &[u8]) {
        let start = buf.len();
        buf.extend_from_slice(&self.src_port.to_be_bytes());
        buf.extend_from_slice(&self.dst_port.to_be_bytes());
        buf.extend_from_slice(&((HEADER_LEN + payload.len()) as u16).to_be_bytes());
        buf.extend_from_slice(&[0, 0]); // checksum placeholder
        buf.extend_from_slice(payload);
        let mut c = pseudo_header_checksum(src, dst, IpProtocol::Udp.to_u8(), &buf[start..]);
        if c == 0 {
            c = 0xffff; // RFC 768: transmit all-ones when the sum is zero
        }
        buf[start + 6..start + 8].copy_from_slice(&c.to_be_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 1);
    const B: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 2);

    fn datagram(src_port: u16, dst_port: u16, payload: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        UdpHeader { src_port, dst_port }.put(&mut buf, A, B, payload);
        buf
    }

    #[test]
    fn encode_decode_roundtrip() {
        let wire = datagram(1234, 80, b"hello udp");
        assert_eq!(wire.len(), HEADER_LEN + 9);
        let (h, payload) = UdpHeader::parse(&wire, A, B).unwrap();
        assert_eq!((h.src_port, h.dst_port), (1234, 80));
        assert_eq!(payload, b"hello udp");
    }

    #[test]
    fn checksum_binds_addresses() {
        let wire = datagram(1, 2, b"x");
        // Same bytes with a different pseudo-header must fail.
        let wrong = Ipv4Addr::new(10, 9, 8, 7);
        assert!(matches!(
            UdpHeader::parse(&wire, A, wrong),
            Err(ParseError::BadChecksum { .. })
        ));
    }

    #[test]
    fn zero_checksum_is_accepted() {
        let mut wire = datagram(5, 6, b"nochk");
        wire[6] = 0;
        wire[7] = 0;
        let (_, payload) = UdpHeader::parse(&wire, A, B).unwrap();
        assert_eq!(payload, b"nochk");
    }

    #[test]
    fn empty_payload_roundtrips() {
        let wire = datagram(0, 65535, b"");
        let (h, payload) = UdpHeader::parse(&wire, A, B).unwrap();
        assert_eq!((h.src_port, h.dst_port), (0, 65535));
        assert!(payload.is_empty());
    }

    #[test]
    fn bad_length_is_rejected() {
        let mut wire = datagram(1, 2, b"abc");
        wire[5] = 200; // declared length > buffer
        assert!(matches!(
            UdpHeader::parse(&wire, A, B),
            Err(ParseError::BadLength { .. })
        ));
    }

    #[test]
    fn truncated_is_rejected() {
        assert!(matches!(
            UdpHeader::parse(&[0u8; 7], A, B),
            Err(ParseError::Truncated { .. })
        ));
    }
}
