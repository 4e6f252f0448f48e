//! The classic learning switch (POX `forwarding.l2_learning`).

use crate::component::{Component, Ctl, PacketInEvent};
use escape_netem::Time;
use escape_openflow::{port, switch::NO_BUFFER, Action, Match, OfMessage, PortDesc};
use escape_packet::MacAddr;
use std::collections::HashMap;

/// Per-switch MAC learning plus reactive exact-match flow installation.
pub struct L2Learning {
    /// (dpid, mac) -> port.
    table: HashMap<(u64, MacAddr), u16>,
    /// Idle timeout for installed flows, seconds.
    pub idle_timeout: u16,
    /// Flows installed (diagnostics).
    pub flows_installed: u64,
    /// Floods performed (diagnostics).
    pub floods: u64,
}

impl L2Learning {
    pub fn new() -> L2Learning {
        L2Learning {
            table: HashMap::new(),
            idle_timeout: 10,
            flows_installed: 0,
            floods: 0,
        }
    }

    /// Looks up a learned location.
    pub fn location_of(&self, dpid: u64, mac: MacAddr) -> Option<u16> {
        self.table.get(&(dpid, mac)).copied()
    }
}

impl Default for L2Learning {
    fn default() -> Self {
        Self::new()
    }
}

impl Component for L2Learning {
    fn name(&self) -> &'static str {
        "l2_learning"
    }

    fn on_connection_up(&mut self, _ctl: &mut Ctl<'_, '_>, _dpid: u64, _ports: &[PortDesc]) {}

    fn on_packet_in(&mut self, ctl: &mut Ctl<'_, '_>, ev: &PacketInEvent) -> bool {
        let Some(key) = ev.key else { return false };
        // Learn the source.
        self.table.insert((ev.dpid, key.eth_src), ev.in_port);
        if key.eth_dst.is_unicast() {
            if let Some(&out) = self.table.get(&(ev.dpid, key.eth_dst)) {
                if out == ev.in_port {
                    // Destination is where the packet came from: drop it
                    // to avoid a loop (packet-out with no actions).
                    ctl.packet_out(
                        ev.dpid,
                        ev.buffer_id,
                        ev.in_port,
                        vec![],
                        bytes::Bytes::new(),
                    );
                    return true;
                }
                // Install an exact flow and release the buffered packet
                // through it.
                let m = Match::exact_from_key(&key, ev.in_port);
                ctl.flow_add(
                    ev.dpid,
                    m,
                    100,
                    vec![Action::out(out)],
                    self.idle_timeout,
                    0,
                    ev.buffer_id,
                    0,
                );
                self.flows_installed += 1;
                let _ = Time::ZERO;
                return true;
            }
        }
        // Unknown or broadcast destination: flood.
        self.floods += 1;
        if ev.buffer_id != NO_BUFFER {
            ctl.packet_out(
                ev.dpid,
                ev.buffer_id,
                ev.in_port,
                vec![Action::out(port::FLOOD)],
                bytes::Bytes::new(),
            );
        } else {
            ctl.packet_out(
                ev.dpid,
                NO_BUFFER,
                ev.in_port,
                vec![Action::out(port::FLOOD)],
                ev.data.clone(),
            );
        }
        true
    }

    fn on_flow_removed(&mut self, _ctl: &mut Ctl<'_, '_>, _dpid: u64, _msg: &OfMessage) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::Controller;
    use escape_netem::{Host, LinkConfig, Sim};
    use escape_openflow::Switch;
    use std::net::Ipv4Addr;

    /// h1 -- s1 -- h2, controller running l2_learning.
    fn rig() -> (
        Sim,
        escape_netem::NodeId,
        escape_netem::NodeId,
        escape_netem::NodeId,
    ) {
        let mut sim = Sim::new(5);
        let sw = sim.add_node("s1", 2, Box::new(Switch::new(1, 2)));
        let h1 = sim.add_node(
            "h1",
            1,
            Box::new(Host::new(MacAddr::from_id(1), Ipv4Addr::new(10, 0, 0, 1))),
        );
        let h2 = sim.add_node(
            "h2",
            1,
            Box::new(Host::new(MacAddr::from_id(2), Ipv4Addr::new(10, 0, 0, 2))),
        );
        sim.connect((sw, 0), (h1, 0), LinkConfig::lan());
        sim.connect((sw, 1), (h2, 0), LinkConfig::lan());
        let c = sim.add_node("c0", 0, Box::new(Controller::new()));
        let conn = sim.ctrl_connect(sw, c, Time::from_us(200));
        sim.node_as_mut::<Switch>(sw)
            .unwrap()
            .attach_controller(conn);
        {
            let ctl = sim.node_as_mut::<Controller>(c).unwrap();
            ctl.register_switch(conn);
            ctl.add_component(Box::new(L2Learning::new()));
        }
        Controller::start(&mut sim, c);
        sim.run(100); // handshake
        (sim, h1, h2, c)
    }

    #[test]
    fn end_to_end_udp_through_learning_switch() {
        let (mut sim, h1, h2, c) = rig();
        sim.node_as_mut::<Host>(h1).unwrap().add_stream(
            Ipv4Addr::new(10, 0, 0, 2),
            1000,
            2000,
            100,
            Time::from_us(500),
            20,
        );
        Host::start_streams(&mut sim, h1, Time::from_ms(1));
        sim.run(1_000_000);
        // All 20 datagrams arrive (first goes via ARP + flood + reactive
        // install; the rest ride the installed flow).
        assert_eq!(sim.node_as::<Host>(h2).unwrap().stats.udp_rx, 20);
        let ctl = sim.node_as::<Controller>(c).unwrap();
        let l2 = ctl.component_as::<L2Learning>().unwrap();
        assert!(l2.flows_installed >= 1, "reactive flow installed");
        assert!(l2.floods >= 1, "first packet flooded");
        assert!(ctl.stats().packet_ins >= 2, "ARP + first UDP punted");
        // The learning table knows both hosts.
        assert_eq!(l2.location_of(1, MacAddr::from_id(1)), Some(0));
        assert_eq!(l2.location_of(1, MacAddr::from_id(2)), Some(1));
    }

    #[test]
    fn second_flow_reuses_learned_locations() {
        let (mut sim, h1, h2, c) = rig();
        sim.node_as_mut::<Host>(h1).unwrap().add_stream(
            Ipv4Addr::new(10, 0, 0, 2),
            1000,
            2000,
            100,
            Time::from_us(500),
            5,
        );
        Host::start_streams(&mut sim, h1, Time::from_ms(1));
        sim.run(1_000_000);
        let pi_before = sim.node_as::<Controller>(c).unwrap().stats().packet_ins;
        // A second stream (different ports) needs one more reactive
        // install but no flooding (locations known).
        sim.node_as_mut::<Host>(h1).unwrap().add_stream(
            Ipv4Addr::new(10, 0, 0, 2),
            1001,
            2001,
            100,
            Time::from_us(500),
            5,
        );
        // Arms only the new stream.
        Host::start_streams(&mut sim, h1, Time::from_ms(1));
        sim.run(1_000_000);
        assert_eq!(sim.node_as::<Host>(h2).unwrap().stats.udp_rx, 10);
        let ctl = sim.node_as::<Controller>(c).unwrap();
        assert_eq!(
            ctl.stats().packet_ins,
            pi_before + 1,
            "exactly one more miss"
        );
    }
}
