//! Ethernet II framing.

use crate::mac::MacAddr;
use crate::ParseError;

/// Ethernet II header length.
pub const HEADER_LEN: usize = 14;

/// EtherType values this stack understands (unknown values are preserved).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EtherType {
    Ipv4,
    Arp,
    Vlan,
    /// Any other value, carried verbatim.
    Other(u16),
}

impl EtherType {
    /// Numeric value on the wire.
    pub fn to_u16(self) -> u16 {
        match self {
            EtherType::Ipv4 => 0x0800,
            EtherType::Arp => 0x0806,
            EtherType::Vlan => 0x8100,
            EtherType::Other(v) => v,
        }
    }

    /// Decodes a wire value.
    pub fn from_u16(v: u16) -> Self {
        match v {
            0x0800 => EtherType::Ipv4,
            0x0806 => EtherType::Arp,
            0x8100 => EtherType::Vlan,
            other => EtherType::Other(other),
        }
    }
}

/// The fields of an Ethernet II header, read in place by
/// [`EthernetHeader::parse`] and written by [`EthernetHeader::put`]: the
/// one reader and the one writer of the format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EthernetHeader {
    pub dst: MacAddr,
    pub src: MacAddr,
    pub ethertype: EtherType,
}

impl EthernetHeader {
    /// Reads the header of `data`, returning it with the payload slice
    /// that follows it. Nothing is copied.
    pub fn parse(data: &[u8]) -> Result<(EthernetHeader, &[u8]), ParseError> {
        if data.len() < HEADER_LEN {
            return Err(ParseError::Truncated {
                needed: HEADER_LEN,
                got: data.len(),
            });
        }
        let mut dst = [0u8; 6];
        dst.copy_from_slice(&data[0..6]);
        let mut src = [0u8; 6];
        src.copy_from_slice(&data[6..12]);
        let header = EthernetHeader {
            dst: MacAddr(dst),
            src: MacAddr(src),
            ethertype: EtherType::from_u16(u16::from_be_bytes([data[12], data[13]])),
        };
        Ok((header, &data[HEADER_LEN..]))
    }

    /// Appends the 14 header bytes to `buf`.
    pub fn put(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.dst.0);
        buf.extend_from_slice(&self.src.0);
        buf.extend_from_slice(&self.ethertype.to_u16().to_be_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> EthernetHeader {
        EthernetHeader {
            dst: MacAddr::from_id(1),
            src: MacAddr::from_id(2),
            ethertype: EtherType::Ipv4,
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let mut wire = Vec::new();
        header().put(&mut wire);
        wire.extend_from_slice(b"payload-bytes");
        assert_eq!(wire.len(), HEADER_LEN + 13);
        let (h, payload) = EthernetHeader::parse(&wire).unwrap();
        assert_eq!(h, header());
        assert_eq!(payload, b"payload-bytes");
    }

    #[test]
    fn decode_rejects_short_frame() {
        let err = EthernetHeader::parse(&[0u8; 13]).unwrap_err();
        assert_eq!(
            err,
            ParseError::Truncated {
                needed: 14,
                got: 13
            }
        );
    }

    #[test]
    fn empty_payload_is_allowed() {
        let mut wire = Vec::new();
        header().put(&mut wire);
        let (h, payload) = EthernetHeader::parse(&wire).unwrap();
        assert!(payload.is_empty());
        assert_eq!(h.ethertype, EtherType::Ipv4);
    }

    #[test]
    fn ethertype_mapping_covers_known_values() {
        for (t, v) in [
            (EtherType::Ipv4, 0x0800u16),
            (EtherType::Arp, 0x0806),
            (EtherType::Vlan, 0x8100),
            (EtherType::Other(0x88cc), 0x88cc),
        ] {
            assert_eq!(t.to_u16(), v);
            assert_eq!(EtherType::from_u16(v), t);
        }
    }
}
