//! UDP (RFC 768).

use crate::checksum::pseudo_header_checksum;
use crate::ipv4::IpProtocol;
use crate::ParseError;
use bytes::Bytes;
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

/// A decoded UDP datagram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UdpDatagram {
    pub src_port: u16,
    pub dst_port: u16,
    pub payload: Bytes,
}

impl UdpDatagram {
    /// Creates a datagram.
    pub fn new(src_port: u16, dst_port: u16, payload: Bytes) -> Self {
        UdpDatagram {
            src_port,
            dst_port,
            payload,
        }
    }

    /// Decodes a datagram and validates its checksum against the
    /// IPv4 pseudo-header (`src`/`dst` from the enclosing IP packet):
    /// [`UdpHeader::parse`] plus a copy of the payload.
    pub fn decode(data: &[u8], src: Ipv4Addr, dst: Ipv4Addr) -> Result<Self, ParseError> {
        let (h, payload) = UdpHeader::parse(data, src, dst)?;
        Ok(UdpDatagram::new(
            h.src_port,
            h.dst_port,
            Bytes::copy_from_slice(payload),
        ))
    }

    /// The header fields of this datagram.
    pub fn header(&self) -> UdpHeader {
        UdpHeader {
            src_port: self.src_port,
            dst_port: self.dst_port,
        }
    }

    /// Encodes with a checksum computed over the given pseudo-header.
    pub fn encode(&self, src: Ipv4Addr, dst: Ipv4Addr) -> Bytes {
        let mut buf = Vec::with_capacity(self.wire_len());
        self.header().put(&mut buf, src, dst, &self.payload);
        Bytes::from(buf)
    }

    /// Total encoded length.
    pub fn wire_len(&self) -> usize {
        HEADER_LEN + self.payload.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 1);
    const B: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 2);

    #[test]
    fn encode_decode_roundtrip() {
        let d = UdpDatagram::new(1234, 80, Bytes::from_static(b"hello udp"));
        let wire = d.encode(A, B);
        assert_eq!(wire.len(), d.wire_len());
        let e = UdpDatagram::decode(&wire, A, B).unwrap();
        assert_eq!(d, e);
    }

    #[test]
    fn checksum_binds_addresses() {
        let d = UdpDatagram::new(1, 2, Bytes::from_static(b"x"));
        let wire = d.encode(A, B);
        // Same bytes with a different pseudo-header must fail.
        let wrong = Ipv4Addr::new(10, 9, 8, 7);
        assert!(matches!(
            UdpDatagram::decode(&wire, A, wrong),
            Err(ParseError::BadChecksum { .. })
        ));
    }

    #[test]
    fn zero_checksum_is_accepted() {
        let d = UdpDatagram::new(5, 6, Bytes::from_static(b"nochk"));
        let mut wire = d.encode(A, B).to_vec();
        wire[6] = 0;
        wire[7] = 0;
        let e = UdpDatagram::decode(&wire, A, B).unwrap();
        assert_eq!(e.payload, d.payload);
    }

    #[test]
    fn empty_payload_roundtrips() {
        let d = UdpDatagram::new(0, 65535, Bytes::new());
        let e = UdpDatagram::decode(&d.encode(A, B), A, B).unwrap();
        assert_eq!(d, e);
    }

    #[test]
    fn bad_length_is_rejected() {
        let d = UdpDatagram::new(1, 2, Bytes::from_static(b"abc"));
        let mut wire = d.encode(A, B).to_vec();
        wire[5] = 200; // declared length > buffer
        assert!(matches!(
            UdpDatagram::decode(&wire, A, B),
            Err(ParseError::BadLength { .. })
        ));
    }

    #[test]
    fn truncated_is_rejected() {
        assert!(matches!(
            UdpDatagram::decode(&[0u8; 7], A, B),
            Err(ParseError::Truncated { .. })
        ));
    }
}
