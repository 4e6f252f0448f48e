//! `IPRewriter`: a stateful source NAT.
//!
//! Input/output 0 carry the outbound (private→public) direction: the
//! source address is rewritten to the configured external IP and the
//! source port to an allocated external port. Input/output 1 carry the
//! inbound direction: destination address/port are mapped back. Headers
//! are read in place and the new frame is written through each format's
//! header writer, so checksums (IP header and UDP/TCP pseudo-header) are
//! fresh and the frame costs one allocation.

use super::args;
use crate::element::{ElemCtx, Element};
use crate::registry::Registry;
use bytes::Bytes;
use escape_packet::{
    udp, EtherType, EthernetHeader, IpProtocol, Ipv4Header, Packet, TcpSegment, UdpHeader,
};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::net::Ipv4Addr;

pub fn install(r: &mut Registry) {
    r.register("IPRewriter", |a| {
        args::max(a, 1)?;
        let external: Ipv4Addr = args::req(a, 0, "external IP")?;
        Ok(Box::new(IpRewriter::new(external)))
    });
}

type FlowId = (u8, Ipv4Addr, u16); // (proto, private ip, private port)

/// The first external port handed out; allocation wraps back to it.
const FIRST_PORT: u16 = 40_000;

/// The NAT element. See the module docs.
pub struct IpRewriter {
    external: Ipv4Addr,
    forward: HashMap<FlowId, u16>,
    reverse: HashMap<(u8, u16), (Ipv4Addr, u16)>,
    next_port: u16,
    rewritten: u64,
    dropped: u64,
    /// The rewritten frame is written here, then copied out once.
    frame: Vec<u8>,
}

impl IpRewriter {
    fn new(external: Ipv4Addr) -> Self {
        IpRewriter {
            external,
            forward: HashMap::new(),
            reverse: HashMap::new(),
            next_port: FIRST_PORT,
            rewritten: 0,
            dropped: 0,
            frame: Vec::new(),
        }
    }

    /// The external port of `key`'s flow, allocated on first sight: the
    /// next port from [`FIRST_PORT`] up, wrapping, that no live mapping
    /// of `proto` holds. `None` when every port is held.
    fn alloc_port(&mut self, proto: u8, key: FlowId) -> Option<u16> {
        if let Some(&p) = self.forward.get(&key) {
            return Some(p);
        }
        for _ in FIRST_PORT..=u16::MAX {
            let p = self.next_port;
            self.next_port = self.next_port.checked_add(1).unwrap_or(FIRST_PORT);
            if let Entry::Vacant(slot) = self.reverse.entry((proto, p)) {
                slot.insert((key.1, key.2));
                self.forward.insert(key, p);
                return Some(p);
            }
        }
        None
    }

    /// Reads a frame in place down to transport, lets `f` rewrite the
    /// (src, dst) addresses and (src, dst) ports, and writes the result
    /// with fresh checksums. Returns `None` when the frame is not
    /// rewritable UDP/TCP-in-IPv4 or `f` refuses it. The frame comes out
    /// as `decode` → rewrite → `encode` would write it: IP options and
    /// bytes past a length field are dropped.
    fn rewrite(
        &mut self,
        pkt: &Packet,
        f: impl FnOnce(&mut Self, &mut Ipv4Addr, &mut Ipv4Addr, &mut u16, &mut u16, bool) -> bool,
    ) -> Option<Packet> {
        let (eth, l3) = EthernetHeader::parse(&pkt.data).ok()?;
        if eth.ethertype != EtherType::Ipv4 {
            return None;
        }
        let (mut ip, l4) = Ipv4Header::parse(l3).ok()?;
        match ip.protocol {
            IpProtocol::Udp => {
                let (mut hdr, payload) = UdpHeader::parse(l4, ip.src, ip.dst).ok()?;
                let (sp, dp) = (&mut hdr.src_port, &mut hdr.dst_port);
                if !f(self, &mut ip.src, &mut ip.dst, sp, dp, false) {
                    return None;
                }
                let buf = &mut self.frame;
                buf.clear();
                eth.put(buf);
                ip.put(buf, udp::HEADER_LEN + payload.len());
                hdr.put(buf, ip.src, ip.dst, payload);
            }
            IpProtocol::Tcp => {
                // No workload sends TCP, so the owned codec serves here.
                let mut tcp = TcpSegment::decode(l4, ip.src, ip.dst).ok()?;
                let (sp, dp) = (&mut tcp.src_port, &mut tcp.dst_port);
                if !f(self, &mut ip.src, &mut ip.dst, sp, dp, true) {
                    return None;
                }
                let segment = tcp.encode(ip.src, ip.dst);
                let buf = &mut self.frame;
                buf.clear();
                eth.put(buf);
                ip.put(buf, segment.len());
                buf.extend_from_slice(&segment);
            }
            _ => return None,
        }
        Some(Packet {
            data: Bytes::copy_from_slice(&self.frame),
            id: pkt.id,
            born_ns: pkt.born_ns,
        })
    }
}

impl Element for IpRewriter {
    fn class_name(&self) -> &'static str {
        "IPRewriter"
    }
    fn ports(&self) -> (usize, usize) {
        (2, 2)
    }
    fn push(&mut self, ctx: &mut ElemCtx<'_>, port: usize, pkt: Packet) {
        let out = match port {
            0 => self.rewrite(&pkt, |nat, src, _dst, sp, _dp, is_tcp| {
                let proto = if is_tcp { 6 } else { 17 };
                let Some(ext_port) = nat.alloc_port(proto, (proto, *src, *sp)) else {
                    return false; // every external port is held: drop
                };
                *src = nat.external;
                *sp = ext_port;
                true
            }),
            1 => self.rewrite(&pkt, |nat, _src, dst, _sp, dp, is_tcp| {
                let proto = if is_tcp { 6 } else { 17 };
                match nat.reverse.get(&(proto, *dp)) {
                    Some(&(priv_ip, priv_port)) => {
                        *dst = priv_ip;
                        *dp = priv_port;
                        true
                    }
                    None => false, // unsolicited inbound: drop
                }
            }),
            _ => None,
        };
        match out {
            Some(p) => {
                self.rewritten += 1;
                ctx.emit(port, p);
            }
            None => self.dropped += 1,
        }
    }
    fn read_handler(&self, name: &str) -> Option<String> {
        match name {
            "mappings" => Some(self.forward.len().to_string()),
            "rewritten" => Some(self.rewritten.to_string()),
            "dropped" => Some(self.dropped.to_string()),
            _ => None,
        }
    }
    fn cost_ns(&self) -> u64 {
        200
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;
    use crate::router::Router;
    use escape_netem::Time;
    use escape_packet::{EthernetFrame, Ipv4Packet, MacAddr, PacketBuilder, UdpDatagram};

    const PRIV: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 10);
    const SRV: Ipv4Addr = Ipv4Addr::new(8, 8, 8, 8);
    const EXT: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 1);

    fn mk() -> Router {
        Router::from_config(
            "FromDevice(0) -> [0] nat :: IPRewriter(203.0.113.1); nat [0] -> ToDevice(1);\n\
             FromDevice(1) -> [1] nat; nat [1] -> ToDevice(0);",
            &Registry::standard(),
            0,
        )
        .unwrap()
    }

    fn outbound(sport: u16) -> Packet {
        let data = PacketBuilder::udp(
            MacAddr::from_id(1),
            MacAddr::from_id(2),
            PRIV,
            SRV,
            sport,
            53,
            Bytes::from_static(b"query"),
        );
        Packet {
            data,
            id: 0,
            born_ns: 0,
        }
    }

    fn parse_udp(p: &Packet) -> (Ipv4Addr, Ipv4Addr, u16, u16) {
        let eth = EthernetFrame::decode(&p.data).unwrap();
        let ip = Ipv4Packet::decode(&eth.payload).unwrap();
        let udp = UdpDatagram::decode(&ip.payload, ip.src, ip.dst).unwrap();
        (ip.src, ip.dst, udp.src_port, udp.dst_port)
    }

    #[test]
    fn outbound_is_source_rewritten() {
        let mut r = mk();
        let out = r.push_external(0, outbound(5555), Time::ZERO);
        assert_eq!(out.external.len(), 1);
        let (src, dst, sp, dp) = parse_udp(&out.external[0].1);
        assert_eq!(src, EXT);
        assert_eq!(dst, SRV);
        assert_eq!(sp, 40_000);
        assert_eq!(dp, 53);
        assert_eq!(r.read_handler("nat.mappings").unwrap(), "1");
    }

    #[test]
    fn inbound_reply_is_mapped_back() {
        let mut r = mk();
        r.push_external(0, outbound(5555), Time::ZERO);
        // The server replies to EXT:40000.
        let reply = PacketBuilder::udp(
            MacAddr::from_id(2),
            MacAddr::from_id(1),
            SRV,
            EXT,
            53,
            40_000,
            Bytes::from_static(b"answer"),
        );
        let out = r.push_external(
            1,
            Packet {
                data: reply,
                id: 0,
                born_ns: 0,
            },
            Time::ZERO,
        );
        assert_eq!(out.external.len(), 1);
        assert_eq!(out.external[0].0, 0);
        let (src, dst, sp, dp) = parse_udp(&out.external[0].1);
        assert_eq!(src, SRV);
        assert_eq!(dst, PRIV);
        assert_eq!(sp, 53);
        assert_eq!(dp, 5555);
    }

    #[test]
    fn same_flow_reuses_mapping() {
        let mut r = mk();
        r.push_external(0, outbound(7777), Time::ZERO);
        r.push_external(0, outbound(7777), Time::ZERO);
        assert_eq!(r.read_handler("nat.mappings").unwrap(), "1");
        r.push_external(0, outbound(7778), Time::ZERO);
        assert_eq!(r.read_handler("nat.mappings").unwrap(), "2");
    }

    #[test]
    fn unsolicited_inbound_is_dropped() {
        let mut r = mk();
        let stray = PacketBuilder::udp(
            MacAddr::from_id(2),
            MacAddr::from_id(1),
            SRV,
            EXT,
            53,
            41_234,
            Bytes::from_static(b"scan"),
        );
        let out = r.push_external(
            1,
            Packet {
                data: stray,
                id: 0,
                born_ns: 0,
            },
            Time::ZERO,
        );
        assert!(out.external.is_empty());
        assert_eq!(r.read_handler("nat.dropped").unwrap(), "1");
    }

    #[test]
    fn a_wrapped_port_skips_the_mappings_still_live() {
        let mut r = mk();
        // Ports 40 000..=65 535: one flow more than the pool holds.
        let pool = u32::from(u16::MAX - FIRST_PORT) + 1;
        for sport in 1..=pool + 1 {
            r.push_external(0, outbound(sport as u16), Time::ZERO);
        }
        assert_eq!(r.read_handler("nat.mappings").unwrap(), pool.to_string());
        assert_eq!(r.read_handler("nat.dropped").unwrap(), "1");
        // The first flow's reply still reaches the first flow.
        let reply = PacketBuilder::udp(
            MacAddr::from_id(2),
            MacAddr::from_id(1),
            SRV,
            EXT,
            53,
            FIRST_PORT,
            Bytes::from_static(b"answer"),
        );
        let out = r.push_external(1, Packet::from_bytes(reply), Time::ZERO);
        assert_eq!(out.external.len(), 1);
        assert_eq!(parse_udp(&out.external[0].1), (SRV, PRIV, 53, 1));
    }

    #[test]
    fn non_rewritable_frames_are_dropped() {
        let mut r = mk();
        let arp = PacketBuilder::arp_request(MacAddr::from_id(1), PRIV, SRV);
        let out = r.push_external(
            0,
            Packet {
                data: arp,
                id: 0,
                born_ns: 0,
            },
            Time::ZERO,
        );
        assert!(out.external.is_empty());
        assert_eq!(r.read_handler("nat.dropped").unwrap(), "1");
    }

    #[test]
    fn tcp_flows_are_translated_too() {
        let mut r = mk();
        let syn = PacketBuilder::tcp_syn(
            MacAddr::from_id(1),
            MacAddr::from_id(2),
            PRIV,
            SRV,
            6000,
            80,
        );
        let out = r.push_external(
            0,
            Packet {
                data: syn,
                id: 0,
                born_ns: 0,
            },
            Time::ZERO,
        );
        assert_eq!(out.external.len(), 1);
        let eth = EthernetFrame::decode(&out.external[0].1.data).unwrap();
        let ip = Ipv4Packet::decode(&eth.payload).unwrap();
        assert_eq!(ip.src, EXT);
        let tcp = TcpSegment::decode(&ip.payload, ip.src, ip.dst).unwrap();
        assert!(tcp.is_syn());
        assert_eq!(tcp.src_port, 40_000);
    }
}
