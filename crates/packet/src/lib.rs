//! # escape-packet
//!
//! Wire formats for the ESCAPE-RS emulated dataplane.
//!
//! This crate implements the packet formats that flow through the emulated
//! network: Ethernet II, IPv4, UDP, TCP and ICMPv4. Ethernet, IPv4,
//! UDP and TCP each have one header type with one reader, `parse`, which
//! validates the header in place and returns the payload as a slice, and
//! one writer, `put`, which appends the header (with its checksum) to a
//! buffer. Every header edit goes through one [`rewrite()`], which parses a
//! frame, lets the edit change the header values, and writes back only the
//! layers it touched. So each format is read and written in one place, and
//! the per-frame path copies nothing to read and allocates nothing to
//! edit. ICMP, which no frame carries per hop, keeps an owned
//! `decode`/`encode` pair.
//!
//! Design notes (following the smoltcp philosophy):
//! * simplicity over cleverness — plain `Copy` header structs with
//!   explicit fields, no macro/type tricks;
//! * strict parsing — malformed input yields a typed [`ParseError`], never a
//!   panic;
//! * checksums are always generated on write and validated on read.
//!
//! The high-level [`Packet`] type is what the emulator, the Click engine and
//! the OpenFlow switch exchange: raw bytes plus a lazily computed
//! [`FlowKey`] describing the header fields OpenFlow 1.0 can match on.

pub mod builder;
pub mod checksum;
pub mod ether;
pub mod flowkey;
pub mod icmp;
pub mod ipv4;
pub mod lookup;
pub mod mac;
pub mod rewrite;
pub mod tcp;
pub mod udp;

pub use builder::PacketBuilder;
pub use ether::{EtherType, EthernetHeader};
pub use flowkey::FlowKey;
pub use icmp::{IcmpPacket, IcmpType};
pub use ipv4::{IpProtocol, Ipv4Header};
pub use lookup::LookupMap;
pub use mac::MacAddr;
pub use rewrite::{rewrite, Headers};
pub use tcp::TcpHeader;
pub use udp::UdpHeader;

use bytes::Bytes;

/// Errors produced when decoding a wire format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The buffer is shorter than the minimum length for this format.
    Truncated { needed: usize, got: usize },
    /// A checksum did not verify.
    BadChecksum { expected: u16, got: u16 },
    /// A field holds a value this implementation does not understand.
    UnsupportedField { field: &'static str, value: u64 },
    /// The declared length field disagrees with the buffer length.
    BadLength { declared: usize, actual: usize },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Truncated { needed, got } => {
                write!(f, "truncated packet: need {needed} bytes, have {got}")
            }
            ParseError::BadChecksum { expected, got } => {
                write!(f, "bad checksum: expected {expected:#06x}, got {got:#06x}")
            }
            ParseError::UnsupportedField { field, value } => {
                write!(f, "unsupported value {value:#x} in field {field}")
            }
            ParseError::BadLength { declared, actual } => {
                write!(
                    f,
                    "bad length: header declares {declared}, buffer has {actual}"
                )
            }
        }
    }
}

impl std::error::Error for ParseError {}

/// A packet travelling through the emulated network.
///
/// Carries the raw frame bytes plus bookkeeping the emulator needs: an id
/// unique within a run (for tracing) and the ingress timestamp in virtual
/// nanoseconds (set by the emulator when the packet first enters the
/// network, used by end-to-end latency experiments).
#[derive(Debug, Clone)]
pub struct Packet {
    /// Raw Ethernet frame bytes.
    pub data: Bytes,
    /// Unique id assigned at creation, for tracing through the network.
    pub id: u64,
    /// Virtual time (ns) when this packet entered the network; 0 if unset.
    pub born_ns: u64,
}

impl Packet {
    /// Wraps raw frame bytes into a packet with id 0 and no timestamp.
    pub fn from_bytes(data: Bytes) -> Self {
        Packet {
            data,
            id: 0,
            born_ns: 0,
        }
    }

    /// Frame length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the frame is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_error_display_is_informative() {
        let e = ParseError::Truncated { needed: 14, got: 3 };
        assert!(e.to_string().contains("14"));
        let e = ParseError::BadChecksum {
            expected: 0xabcd,
            got: 0x1234,
        };
        assert!(e.to_string().contains("0xabcd"));
        let e = ParseError::UnsupportedField {
            field: "ihl",
            value: 3,
        };
        assert!(e.to_string().contains("ihl"));
        let e = ParseError::BadLength {
            declared: 100,
            actual: 20,
        };
        assert!(e.to_string().contains("100"));
    }

    #[test]
    fn packet_from_bytes_roundtrip() {
        let p = Packet::from_bytes(Bytes::from_static(b"hello"));
        assert_eq!(p.len(), 5);
        assert!(!p.is_empty());
        assert_eq!(p.id, 0);
    }
}
