//! `IPRewriter`: a stateful source NAT.
//!
//! Input/output 0 carry the outbound (private→public) direction: the
//! source address is rewritten to the configured external IP and the
//! source port to an allocated external port. Input/output 1 carry the
//! inbound direction: destination address/port are mapped back. The
//! frame is rewritten through [`escape_packet::rewrite()`], so the IP and
//! UDP/TCP checksums are fresh and the frame costs one allocation.

use super::args;
use crate::element::{ElemCtx, Element};
use crate::registry::Registry;
use bytes::Bytes;
use escape_packet::{rewrite, LookupMap, Packet};
use std::collections::hash_map::Entry;
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
    forward: LookupMap<FlowId, u16>,
    reverse: LookupMap<(u8, u16), (Ipv4Addr, u16)>,
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
            forward: LookupMap::new(),
            reverse: LookupMap::new(),
            next_port: FIRST_PORT,
            rewritten: 0,
            dropped: 0,
            frame: Vec::new(),
        }
    }

    /// The external port of `key`'s flow, allocated on first sight: the
    /// next port from [`FIRST_PORT`] up, wrapping, that no live mapping
    /// of `key`'s protocol holds. `None` when every port is held.
    fn port_for(&mut self, key: FlowId) -> Option<u16> {
        if let Some(&p) = self.forward.get(&key) {
            return Some(p);
        }
        for _ in FIRST_PORT..=u16::MAX {
            let p = self.next_port;
            self.next_port = self.next_port.checked_add(1).unwrap_or(FIRST_PORT);
            if let Entry::Vacant(slot) = self.reverse.entry((key.0, p)) {
                slot.insert((key.1, key.2));
                self.forward.insert(key, p);
                return Some(p);
            }
        }
        None
    }
}

impl Element for IpRewriter {
    fn class_name(&self) -> &'static str {
        "IPRewriter"
    }
    fn ports(&self) -> (usize, usize) {
        (2, 2)
    }
    fn push(&mut self, ctx: &mut ElemCtx<'_>, port: usize, mut pkt: Packet) {
        let mut frame = std::mem::take(&mut self.frame);
        // `None` drops the frame: not UDP/TCP-in-IPv4, every external
        // port held, or an unsolicited inbound frame.
        let mapped = rewrite(&pkt.data, &mut frame, |h| {
            let (ip, (sport, dport)) = (h.ip()?, h.ports()?);
            let proto = ip.protocol.to_u8();
            match port {
                0 => {
                    let ext_port = self.port_for((proto, ip.src, sport))?;
                    h.ip_mut()?.src = self.external;
                    *h.ports_mut()?.0 = ext_port;
                }
                1 => {
                    let &(priv_ip, priv_port) = self.reverse.get(&(proto, dport))?;
                    h.ip_mut()?.dst = priv_ip;
                    *h.ports_mut()?.1 = priv_port;
                }
                _ => return None,
            }
            Some(())
        });
        match mapped {
            Ok(Some(())) => {
                self.rewritten += 1;
                pkt.data = Bytes::copy_from_slice(&frame);
                ctx.emit(port, pkt);
            }
            _ => self.dropped += 1,
        }
        self.frame = frame;
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
    use escape_packet::{
        tcp, EtherType, EthernetHeader, Ipv4Header, MacAddr, PacketBuilder, TcpHeader, UdpHeader,
    };

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
        let (_, l3) = EthernetHeader::parse(&p.data).unwrap();
        let (ip, l4) = Ipv4Header::parse(l3).unwrap();
        let (udp, _) = UdpHeader::parse(l4, ip.src, ip.dst).unwrap();
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
        let arp = PacketBuilder::ethernet(
            MacAddr::from_id(1),
            MacAddr::BROADCAST,
            EtherType::Arp,
            |b| b.extend_from_slice(&[0; 28]),
        );
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
        let (_, l3) = EthernetHeader::parse(&out.external[0].1.data).unwrap();
        let (ip, l4) = Ipv4Header::parse(l3).unwrap();
        assert_eq!(ip.src, EXT);
        let (seg, _) = TcpHeader::parse(l4, ip.src, ip.dst).unwrap();
        assert_eq!(seg.flags, tcp::flags::SYN);
        assert_eq!(seg.src_port, 40_000);
    }
}
