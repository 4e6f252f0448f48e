//! IPv4 (RFC 791 subset: no options, no fragmentation reassembly — the
//! emulated links never fragment because the MTU is uniform).

use crate::checksum;
use crate::ParseError;
use std::net::Ipv4Addr;

/// Length of the option-less IPv4 header this stack emits.
pub const HEADER_LEN: usize = 20;

/// IP protocol numbers this stack understands (others are preserved).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IpProtocol {
    Icmp,
    Tcp,
    Udp,
    Other(u8),
}

impl IpProtocol {
    /// Numeric protocol value.
    pub fn to_u8(self) -> u8 {
        match self {
            IpProtocol::Icmp => 1,
            IpProtocol::Tcp => 6,
            IpProtocol::Udp => 17,
            IpProtocol::Other(v) => v,
        }
    }

    /// Decodes a protocol number.
    pub fn from_u8(v: u8) -> Self {
        match v {
            1 => IpProtocol::Icmp,
            6 => IpProtocol::Tcp,
            17 => IpProtocol::Udp,
            other => IpProtocol::Other(other),
        }
    }
}

/// The fields of an IPv4 header, read in place by [`Ipv4Header::parse`]
/// and written by [`Ipv4Header::put`]: the one reader and the one writer
/// of the format. Options are skipped on read and never written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv4Header {
    pub dscp: u8,
    pub ecn: u8,
    pub identification: u16,
    pub dont_fragment: bool,
    pub ttl: u8,
    pub protocol: IpProtocol,
    pub src: Ipv4Addr,
    pub dst: Ipv4Addr,
}

impl Ipv4Header {
    /// A header with sensible defaults (TTL 64, DF set).
    pub fn new(src: Ipv4Addr, dst: Ipv4Addr, protocol: IpProtocol) -> Self {
        Ipv4Header {
            dscp: 0,
            ecn: 0,
            identification: 0,
            dont_fragment: true,
            ttl: 64,
            protocol,
            src,
            dst,
        }
    }

    /// Validates the header of `data` (version, IHL, checksum, total
    /// length, no fragmentation) and returns it with the payload slice
    /// `data[ihl..total_len]`. Nothing is copied.
    pub fn parse(data: &[u8]) -> Result<(Ipv4Header, &[u8]), ParseError> {
        if data.len() < HEADER_LEN {
            return Err(ParseError::Truncated {
                needed: HEADER_LEN,
                got: data.len(),
            });
        }
        let version = data[0] >> 4;
        if version != 4 {
            return Err(ParseError::UnsupportedField {
                field: "ip.version",
                value: version as u64,
            });
        }
        let ihl = (data[0] & 0x0f) as usize * 4;
        if ihl < HEADER_LEN {
            return Err(ParseError::UnsupportedField {
                field: "ip.ihl",
                value: ihl as u64,
            });
        }
        if data.len() < ihl {
            return Err(ParseError::Truncated {
                needed: ihl,
                got: data.len(),
            });
        }
        if !checksum::verify(&data[..ihl]) {
            let got = u16::from_be_bytes([data[10], data[11]]);
            let mut hdr = data[..ihl].to_vec();
            hdr[10] = 0;
            hdr[11] = 0;
            return Err(ParseError::BadChecksum {
                expected: checksum::checksum(&hdr),
                got,
            });
        }
        let total_len = u16::from_be_bytes([data[2], data[3]]) as usize;
        if total_len < ihl || total_len > data.len() {
            return Err(ParseError::BadLength {
                declared: total_len,
                actual: data.len(),
            });
        }
        let flags = data[6] >> 5;
        let frag_off = (u16::from_be_bytes([data[6], data[7]]) & 0x1fff) as usize;
        if flags & 0b001 != 0 || frag_off != 0 {
            // More-fragments set or non-zero offset: we don't reassemble.
            return Err(ParseError::UnsupportedField {
                field: "ip.fragment",
                value: frag_off as u64,
            });
        }
        let header = Ipv4Header {
            dscp: data[1] >> 2,
            ecn: data[1] & 0x03,
            identification: u16::from_be_bytes([data[4], data[5]]),
            dont_fragment: flags & 0b010 != 0,
            ttl: data[8],
            protocol: IpProtocol::from_u8(data[9]),
            src: Ipv4Addr::new(data[12], data[13], data[14], data[15]),
            dst: Ipv4Addr::new(data[16], data[17], data[18], data[19]),
        };
        Ok((header, &data[ihl..total_len]))
    }

    /// Appends the option-less 20-byte header of a packet carrying
    /// `payload_len` bytes, with a correct header checksum.
    pub fn put(&self, buf: &mut Vec<u8>, payload_len: usize) {
        let start = buf.len();
        buf.push(0x45); // version 4, IHL 5
        buf.push((self.dscp << 2) | (self.ecn & 0x03));
        buf.extend_from_slice(&((HEADER_LEN + payload_len) as u16).to_be_bytes());
        buf.extend_from_slice(&self.identification.to_be_bytes());
        buf.extend_from_slice(&(if self.dont_fragment { 0x4000u16 } else { 0 }).to_be_bytes());
        buf.push(self.ttl);
        buf.push(self.protocol.to_u8());
        buf.extend_from_slice(&[0, 0]); // checksum placeholder
        buf.extend_from_slice(&self.src.octets());
        buf.extend_from_slice(&self.dst.octets());
        let c = checksum::checksum(&buf[start..]);
        buf[start + 10..start + 12].copy_from_slice(&c.to_be_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let h = Ipv4Header::new(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            IpProtocol::Udp,
        );
        let mut wire = Vec::new();
        h.put(&mut wire, 5);
        wire.extend_from_slice(b"data!");
        wire
    }

    /// Rewrites the header checksum after a hand edit.
    fn fix_checksum(wire: &mut [u8]) {
        wire[10..12].fill(0);
        let c = checksum::checksum(&wire[..20]);
        wire[10..12].copy_from_slice(&c.to_be_bytes());
    }

    #[test]
    fn encode_decode_roundtrip() {
        let wire = sample();
        assert_eq!(wire.len(), HEADER_LEN + 5);
        let (h, payload) = Ipv4Header::parse(&wire).unwrap();
        assert_eq!(h.ttl, 64);
        assert!(h.dont_fragment);
        assert_eq!(h.protocol, IpProtocol::Udp);
        assert_eq!(payload, b"data!");
    }

    #[test]
    fn checksum_is_validated() {
        let mut wire = sample();
        wire[8] = wire[8].wrapping_add(1); // corrupt TTL without fixing checksum
        assert!(matches!(
            Ipv4Header::parse(&wire),
            Err(ParseError::BadChecksum { .. })
        ));
    }

    #[test]
    fn total_length_is_honoured_with_trailing_padding() {
        // Ethernet may pad short frames; the parser must trim to total_len.
        let mut wire = sample();
        wire.extend_from_slice(&[0u8; 10]); // padding
        let (_, payload) = Ipv4Header::parse(&wire).unwrap();
        assert_eq!(payload, b"data!");
    }

    #[test]
    fn rejects_fragments() {
        let mut wire = sample();
        wire[6] = 0x20; // more fragments
        fix_checksum(&mut wire);
        assert!(matches!(
            Ipv4Header::parse(&wire),
            Err(ParseError::UnsupportedField {
                field: "ip.fragment",
                ..
            })
        ));
    }

    #[test]
    fn rejects_version_6() {
        let mut wire = sample();
        wire[0] = 0x65;
        assert!(matches!(
            Ipv4Header::parse(&wire),
            Err(ParseError::UnsupportedField {
                field: "ip.version",
                ..
            })
        ));
    }

    #[test]
    fn declared_length_longer_than_buffer_is_rejected() {
        let wire = sample();
        let truncated = &wire[..wire.len() - 2];
        // header checksum still valid but total_len now exceeds buffer
        assert!(matches!(
            Ipv4Header::parse(truncated),
            Err(ParseError::BadLength { .. })
        ));
    }
}
