//! Ethernet II framing.

use crate::mac::MacAddr;
use crate::ParseError;
use bytes::Bytes;

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

/// A decoded Ethernet II frame: header fields plus opaque payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EthernetFrame {
    pub dst: MacAddr,
    pub src: MacAddr,
    pub ethertype: EtherType,
    pub payload: Bytes,
}

impl EthernetFrame {
    /// Creates a frame.
    pub fn new(dst: MacAddr, src: MacAddr, ethertype: EtherType, payload: Bytes) -> Self {
        EthernetFrame {
            dst,
            src,
            ethertype,
            payload,
        }
    }

    /// Decodes a frame from raw bytes: [`EthernetHeader::parse`] plus a
    /// copy of the payload.
    pub fn decode(data: &[u8]) -> Result<Self, ParseError> {
        let (h, payload) = EthernetHeader::parse(data)?;
        Ok(EthernetFrame::new(
            h.dst,
            h.src,
            h.ethertype,
            Bytes::copy_from_slice(payload),
        ))
    }

    /// The header fields of this frame.
    pub fn header(&self) -> EthernetHeader {
        EthernetHeader {
            dst: self.dst,
            src: self.src,
            ethertype: self.ethertype,
        }
    }

    /// Encodes the frame to wire bytes.
    pub fn encode(&self) -> Bytes {
        let mut buf = Vec::with_capacity(self.wire_len());
        self.header().put(&mut buf);
        buf.extend_from_slice(&self.payload);
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

    fn sample() -> EthernetFrame {
        EthernetFrame::new(
            MacAddr::from_id(1),
            MacAddr::from_id(2),
            EtherType::Ipv4,
            Bytes::from_static(b"payload-bytes"),
        )
    }

    #[test]
    fn encode_decode_roundtrip() {
        let f = sample();
        let wire = f.encode();
        assert_eq!(wire.len(), f.wire_len());
        let g = EthernetFrame::decode(&wire).unwrap();
        assert_eq!(f, g);
    }

    #[test]
    fn decode_rejects_short_frame() {
        let err = EthernetFrame::decode(&[0u8; 13]).unwrap_err();
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
        let f = EthernetFrame::new(MacAddr::ZERO, MacAddr::ZERO, EtherType::Arp, Bytes::new());
        let g = EthernetFrame::decode(&f.encode()).unwrap();
        assert_eq!(g.payload.len(), 0);
        assert_eq!(g.ethertype, EtherType::Arp);
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
