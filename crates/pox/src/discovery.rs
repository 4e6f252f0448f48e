//! Topology discovery (POX's `openflow.discovery`).
//!
//! The controller injects LLDP-style probe frames out of every switch
//! port via packet-out; probes that re-appear as packet-ins on another
//! switch reveal a switch-to-switch link. The discovered adjacency is the
//! controller's own view of the infrastructure — which the orchestrator's
//! resource view can be validated against.

use crate::component::{Component, Ctl, PacketInEvent};
use bytes::Bytes;
use escape_openflow::{switch::NO_BUFFER, Action, PortDesc};
use escape_packet::{EtherType, EthernetHeader, MacAddr, PacketBuilder};
use std::collections::BTreeSet;

/// The ethertype probes are sent with (LLDP's 0x88cc).
pub const LLDP_ETHERTYPE: u16 = 0x88cc;

/// A discovered unidirectional switch link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct DiscoveredLink {
    pub src_dpid: u64,
    pub src_port: u16,
    pub dst_dpid: u64,
    pub dst_port: u16,
}

/// The discovery component: floods probes on connection-up and collects
/// the resulting adjacency.
#[derive(Default)]
pub struct Discovery {
    links: BTreeSet<DiscoveredLink>,
    probes_sent: u64,
    probes_seen: u64,
}

impl Discovery {
    pub fn new() -> Discovery {
        Discovery::default()
    }

    /// Discovered links so far (sorted, deterministic).
    pub fn links(&self) -> Vec<DiscoveredLink> {
        self.links.iter().copied().collect()
    }

    /// Bidirectional link count (each unordered pair counted once).
    pub fn bidirectional_links(&self) -> usize {
        let mut pairs = BTreeSet::new();
        for l in &self.links {
            let key = if l.src_dpid <= l.dst_dpid {
                (l.src_dpid, l.src_port, l.dst_dpid, l.dst_port)
            } else {
                (l.dst_dpid, l.dst_port, l.src_dpid, l.src_port)
            };
            pairs.insert(key);
        }
        pairs.len()
    }

    /// Encodes (dpid, port) into a probe frame. The payload carries both
    /// values; the source MAC marks the frame as ours.
    fn probe(dpid: u64, port: u16) -> Bytes {
        PacketBuilder::ethernet(
            MacAddr::from_id(0xD15C),
            MacAddr([0x01, 0x80, 0xc2, 0x00, 0x00, 0x0e]), // LLDP multicast
            EtherType::Other(LLDP_ETHERTYPE),
            |buf| {
                buf.extend_from_slice(&dpid.to_be_bytes());
                buf.extend_from_slice(&port.to_be_bytes());
            },
        )
    }

    fn parse_probe(data: &[u8]) -> Option<(u64, u16)> {
        let (eth, payload) = EthernetHeader::parse(data).ok()?;
        if eth.ethertype != EtherType::Other(LLDP_ETHERTYPE) || payload.len() < 10 {
            return None;
        }
        let mut d = [0u8; 8];
        d.copy_from_slice(&payload[0..8]);
        let port = u16::from_be_bytes([payload[8], payload[9]]);
        Some((u64::from_be_bytes(d), port))
    }

    /// Re-probes every port of every connected switch.
    pub fn reprobe(&mut self, ctl: &mut Ctl<'_, '_>, ports_of: &dyn Fn(u64) -> Vec<u16>) {
        for dpid in ctl.dpids() {
            for port in ports_of(dpid) {
                self.probes_sent += 1;
                ctl.packet_out(
                    dpid,
                    NO_BUFFER,
                    escape_openflow::port::NONE,
                    vec![Action::out(port)],
                    Self::probe(dpid, port),
                );
            }
        }
    }
}

impl Component for Discovery {
    fn name(&self) -> &'static str {
        "discovery"
    }

    fn on_connection_up(&mut self, ctl: &mut Ctl<'_, '_>, dpid: u64, ports: &[PortDesc]) {
        // Probe every port of the newly connected switch.
        for p in ports {
            self.probes_sent += 1;
            ctl.packet_out(
                dpid,
                NO_BUFFER,
                escape_openflow::port::NONE,
                vec![Action::out(p.port_no)],
                Self::probe(dpid, p.port_no),
            );
        }
    }

    fn on_packet_in(&mut self, _ctl: &mut Ctl<'_, '_>, ev: &PacketInEvent) -> bool {
        let Some((src_dpid, src_port)) = Self::parse_probe(&ev.data) else {
            return false; // not ours
        };
        self.probes_seen += 1;
        self.links.insert(DiscoveredLink {
            src_dpid,
            src_port,
            dst_dpid: ev.dpid,
            dst_port: ev.in_port,
        });
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::Controller;
    use escape_netem::{LinkConfig, Sim, Time};
    use escape_openflow::Switch;

    /// Three switches in a line: s1 -(p1:p0)- s2 -(p1:p0)- s3.
    fn rig() -> (Sim, escape_netem::NodeId) {
        let mut sim = Sim::new(4);
        let s1 = sim.add_node("s1", 2, Box::new(Switch::new(1, 2)));
        let s2 = sim.add_node("s2", 2, Box::new(Switch::new(2, 2)));
        let s3 = sim.add_node("s3", 2, Box::new(Switch::new(3, 2)));
        sim.connect((s1, 1), (s2, 0), LinkConfig::lan());
        sim.connect((s2, 1), (s3, 0), LinkConfig::lan());
        let c = sim.add_node("c0", 0, Box::new(Controller::new()));
        for &sw in &[s1, s2, s3] {
            let conn = sim.ctrl_connect(sw, c, Time::from_us(100));
            sim.node_as_mut::<Switch>(sw)
                .unwrap()
                .attach_controller(conn);
            sim.node_as_mut::<Controller>(c)
                .unwrap()
                .register_switch(conn);
        }
        sim.node_as_mut::<Controller>(c)
            .unwrap()
            .add_component(Box::new(Discovery::new()));
        Controller::start(&mut sim, c);
        (sim, c)
    }

    #[test]
    fn discovers_switch_links_in_both_directions() {
        let (mut sim, c) = rig();
        sim.run(10_000);
        let ctl = sim.node_as::<Controller>(c).unwrap();
        let d = ctl.component_as::<Discovery>().unwrap();
        let links = d.links();
        // s1<->s2 and s2<->s3, both directions each.
        assert_eq!(links.len(), 4, "{links:?}");
        assert!(links.contains(&DiscoveredLink {
            src_dpid: 1,
            src_port: 1,
            dst_dpid: 2,
            dst_port: 0
        }));
        assert!(links.contains(&DiscoveredLink {
            src_dpid: 2,
            src_port: 0,
            dst_dpid: 1,
            dst_port: 1
        }));
        assert!(links.contains(&DiscoveredLink {
            src_dpid: 2,
            src_port: 1,
            dst_dpid: 3,
            dst_port: 0
        }));
        assert_eq!(d.bidirectional_links(), 2);
    }

    #[test]
    fn probe_roundtrip_encoding() {
        let frame = Discovery::probe(0xdead_beef_cafe, 42);
        let (dpid, port) = Discovery::parse_probe(&frame).unwrap();
        assert_eq!(dpid, 0xdead_beef_cafe);
        assert_eq!(port, 42);
        // Non-probe frames are ignored.
        assert!(Discovery::parse_probe(b"junk").is_none());
        let udp = escape_packet::PacketBuilder::udp(
            MacAddr::from_id(1),
            MacAddr::from_id(2),
            std::net::Ipv4Addr::new(1, 1, 1, 1),
            std::net::Ipv4Addr::new(2, 2, 2, 2),
            1,
            2,
            Bytes::from_static(b"x"),
        );
        assert!(Discovery::parse_probe(&udp).is_none());
    }

    #[test]
    fn non_probe_packet_ins_pass_through() {
        // Discovery must not consume ordinary traffic events.
        let (mut sim, c) = rig();
        sim.run(10_000);
        // Track unhandled count: inject a real frame at s1 port 0 (an
        // edge port) so it misses and punts.
        let s1 = escape_netem::NodeId(0);
        let udp = escape_packet::PacketBuilder::udp(
            MacAddr::from_id(9),
            MacAddr::from_id(8),
            std::net::Ipv4Addr::new(1, 1, 1, 1),
            std::net::Ipv4Addr::new(2, 2, 2, 2),
            1,
            2,
            Bytes::from_static(b"user"),
        );
        sim.inject(s1, 0, udp, sim.now());
        sim.run(1_000);
        let ctl = sim.node_as::<Controller>(c).unwrap();
        assert_eq!(
            ctl.stats().unhandled_packet_ins,
            1,
            "user traffic left to other apps"
        );
    }
}
