//! The one in-place header rewrite.
//!
//! [`rewrite()`] parses a frame's Ethernet, IPv4 and UDP/TCP headers in
//! place and hands an edit their `Copy` values. Every layer the edit
//! touched is written back through that format's one `put`, and the rest
//! of the frame is copied verbatim. Every header edit in the dataplane —
//! OpenFlow set-field actions, `DecIPTTL`, `SetIPDSCP`, the NAT — goes
//! through it, so a rewritten frame has one shape whoever wrote it.

use crate::ether::{EtherType, EthernetHeader};
use crate::ipv4::{IpProtocol, Ipv4Header};
use crate::tcp::{self, TcpHeader};
use crate::udp::{self, UdpHeader};
use crate::ParseError;

/// A parsed UDP or TCP header.
#[derive(Debug, Clone, Copy)]
enum Transport {
    Udp(UdpHeader),
    Tcp(TcpHeader),
}

impl Transport {
    /// Parses the transport header of an IPv4 payload, if it is UDP or
    /// TCP and valid, returning it with its payload.
    fn parse<'a>(ip: &Ipv4Header, l4: &'a [u8]) -> Option<(Transport, &'a [u8])> {
        match ip.protocol {
            IpProtocol::Udp => UdpHeader::parse(l4, ip.src, ip.dst)
                .ok()
                .map(|(h, p)| (Transport::Udp(h), p)),
            IpProtocol::Tcp => TcpHeader::parse(l4, ip.src, ip.dst)
                .ok()
                .map(|(h, p)| (Transport::Tcp(h), p)),
            _ => None,
        }
    }

    fn ports(&mut self) -> (&mut u16, &mut u16) {
        match self {
            Transport::Udp(h) => (&mut h.src_port, &mut h.dst_port),
            Transport::Tcp(h) => (&mut h.src_port, &mut h.dst_port),
        }
    }
}

/// The headers of one frame, as [`rewrite()`] hands them to an edit.
///
/// Reading is free. Borrowing a layer mutably marks it for writing back,
/// whether or not the edit then changes it: a written IPv4 header loses
/// its options and the frame its bytes past the total length, a written
/// UDP header gets a computed checksum even where it had none, and a
/// written TCP header loses its options.
#[derive(Debug)]
pub struct Headers<'a> {
    /// The Ethernet header. It is always written back, which leaves it
    /// unchanged unless the edit changed it.
    pub eth: EthernetHeader,
    ip: Option<Ipv4Header>,
    /// The transport header, with its payload.
    transport: Option<(Transport, &'a [u8])>,
    ip_touched: bool,
    transport_touched: bool,
}

impl Headers<'_> {
    /// The IPv4 header, when the frame carries one that parses.
    pub fn ip(&self) -> Option<Ipv4Header> {
        self.ip
    }

    /// The IPv4 header, marked for writing back. When the edit changes
    /// an address, a transport header that parsed is written back too,
    /// since its checksum covers the addresses.
    pub fn ip_mut(&mut self) -> Option<&mut Ipv4Header> {
        self.ip_touched |= self.ip.is_some();
        self.ip.as_mut()
    }

    /// The (source, destination) ports, when a UDP or TCP header parses.
    pub fn ports(&self) -> Option<(u16, u16)> {
        let (mut transport, _) = self.transport?;
        let (src, dst) = transport.ports();
        Some((*src, *dst))
    }

    /// The (source, destination) ports, marked for writing back with the
    /// IPv4 header. On UDP or TCP whose header does not parse, only the
    /// IPv4 header is marked and `None` returned.
    pub fn ports_mut(&mut self) -> Option<(&mut u16, &mut u16)> {
        let proto = self.ip.map(|ip| ip.protocol);
        self.ip_touched |= matches!(proto, Some(IpProtocol::Udp | IpProtocol::Tcp));
        self.transport_touched |= self.transport.is_some();
        self.transport.as_mut().map(|(t, _)| t.ports())
    }
}

/// Runs `edit` on the headers of `frame` and writes the result into
/// `out`, which it clears first; returns what `edit` returned.
///
/// Layers below Ethernet that do not parse reach `edit` as `None` and are
/// copied verbatim. The IPv4 header is written only when the edit
/// touched it; the transport header only when the edit touched its ports
/// or changed an address. Checksums are computed by each format's `put`.
/// Fails, writing nothing, when the frame is too short for Ethernet.
pub fn rewrite<R>(
    frame: &[u8],
    out: &mut Vec<u8>,
    edit: impl FnOnce(&mut Headers) -> R,
) -> Result<R, ParseError> {
    let (eth, l3) = EthernetHeader::parse(frame)?;
    let parsed = match eth.ethertype {
        EtherType::Ipv4 => Ipv4Header::parse(l3).ok(),
        _ => None,
    };
    let mut h = Headers {
        eth,
        ip: parsed.map(|(ip, _)| ip),
        transport: parsed.and_then(|(ip, l4)| Transport::parse(&ip, l4)),
        ip_touched: false,
        transport_touched: false,
    };
    let result = edit(&mut h);
    out.clear();
    h.eth.put(out);
    let (Some((old, l4)), Some(ip), true) = (parsed, h.ip, h.ip_touched) else {
        out.extend_from_slice(l3);
        return Ok(result);
    };
    // The transport checksum covers the addresses.
    let put_l4 = h.transport_touched || (ip.src, ip.dst) != (old.src, old.dst);
    match h.transport {
        Some((Transport::Udp(u), payload)) if put_l4 => {
            ip.put(out, udp::HEADER_LEN + payload.len());
            u.put(out, ip.src, ip.dst, payload);
        }
        Some((Transport::Tcp(t), payload)) if put_l4 => {
            ip.put(out, tcp::HEADER_LEN + payload.len());
            t.put(out, ip.src, ip.dst, payload);
        }
        _ => {
            ip.put(out, l4.len());
            out.extend_from_slice(l4);
        }
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MacAddr, PacketBuilder};
    use bytes::Bytes;
    use std::net::Ipv4Addr;

    const A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    fn udp() -> Bytes {
        let (ma, mb) = (MacAddr::from_id(1), MacAddr::from_id(2));
        PacketBuilder::udp(ma, mb, A, B, 1000, 2000, Bytes::from_static(b"rw"))
    }

    fn edited(frame: &[u8], edit: impl FnOnce(&mut Headers)) -> Vec<u8> {
        let mut out = Vec::new();
        rewrite(frame, &mut out, edit).unwrap();
        out
    }

    #[test]
    fn an_edit_that_touches_nothing_copies_the_frame() {
        let mut frame = udp().to_vec();
        frame.extend_from_slice(&[0; 6]); // padding survives untouched
        assert_eq!(edited(&frame, |_| {}), frame);
        let read = edited(&frame, |h| {
            assert_eq!(h.ports(), Some((1000, 2000)));
            assert_eq!(h.ip().map(|ip| ip.ttl), Some(64));
        });
        assert_eq!(read, frame);
    }

    #[test]
    fn an_address_edit_rewrites_the_transport_checksum() {
        let out = edited(&udp(), |h| {
            h.ip_mut().unwrap().src = Ipv4Addr::new(9, 9, 9, 9)
        });
        let (_, l3) = EthernetHeader::parse(&out).unwrap();
        let (ip, l4) = Ipv4Header::parse(l3).unwrap();
        assert_eq!(ip.src, Ipv4Addr::new(9, 9, 9, 9));
        let (u, payload) = UdpHeader::parse(l4, ip.src, ip.dst).unwrap();
        assert_eq!((u.src_port, payload), (1000, &b"rw"[..]));
    }

    #[test]
    fn a_touched_ip_header_drops_the_padding() {
        let mut frame = udp().to_vec();
        let len = frame.len();
        frame.extend_from_slice(&[0; 6]);
        assert_eq!(edited(&frame, |h| h.ip_mut().unwrap().dscp = 0).len(), len);
    }

    #[test]
    fn short_frames_fail_and_non_ip_has_no_ip_layer() {
        assert!(rewrite(&[0u8; 13], &mut Vec::new(), |_| {}).is_err());
        let arp = PacketBuilder::arp_request(MacAddr::from_id(1), A, B);
        let out = edited(&arp, |h| {
            assert!(h.ip_mut().is_none() && h.ports_mut().is_none());
        });
        assert_eq!(out, arp.to_vec());
    }
}
