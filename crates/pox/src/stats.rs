//! Flow/port statistics collection (POX's `openflow.of_01` stats plumbing
//! plus what ESCAPE's orchestration layer uses for its "global network and
//! resource view").
//!
//! The component records every stats reply the controller receives;
//! polls are triggered explicitly (the environment or a test asks for a
//! sweep via [`StatsCollector::poll_all`]) or on every controller flush.

use crate::component::{Component, Ctl};
use escape_openflow::{port, FlowStats, Match, OfMessage, PortDesc, PortStats};
use escape_telemetry::{Counter, Registry};
use std::collections::HashMap;

/// Latest statistics per datapath.
pub struct StatsCollector {
    pub flows: HashMap<u64, Vec<FlowStats>>,
    pub ports: HashMap<u64, Vec<PortStats>>,
    /// Poll requests sent (`pox.stats.polls_sent`).
    polls_ctr: Counter,
    /// Stats replies recorded (`pox.stats.replies_seen`).
    replies_ctr: Counter,
    /// When true, a poll sweep is issued on every connection-up/flush.
    pub poll_on_flush: bool,
}

impl StatsCollector {
    /// A collector that polls on every flush, counting `pox.stats.*`
    /// into `registry`.
    pub fn new(registry: &Registry) -> StatsCollector {
        StatsCollector {
            flows: HashMap::new(),
            ports: HashMap::new(),
            polls_ctr: registry.counter("pox.stats.polls_sent"),
            replies_ctr: registry.counter("pox.stats.replies_seen"),
            poll_on_flush: true,
        }
    }

    /// Poll requests sent so far.
    pub fn polls_sent(&self) -> u64 {
        self.polls_ctr.get()
    }

    /// Stats replies recorded so far.
    pub fn replies_seen(&self) -> u64 {
        self.replies_ctr.get()
    }

    /// Requests flow + port stats from every connected switch.
    pub fn poll_all(&mut self, ctl: &mut Ctl<'_, '_>) {
        for dpid in ctl.dpids() {
            self.polls_ctr.add(2);
            ctl.send(
                dpid,
                OfMessage::FlowStatsRequest {
                    match_: Match::any(),
                    out_port: port::NONE,
                },
            );
            ctl.send(
                dpid,
                OfMessage::PortStatsRequest {
                    port_no: port::NONE,
                },
            );
        }
    }

    /// Total packets counted across all flows of a datapath.
    pub fn total_flow_packets(&self, dpid: u64) -> u64 {
        self.flows
            .get(&dpid)
            .map_or(0, |v| v.iter().map(|f| f.packet_count).sum())
    }

    /// Aggregate rx packets across all ports of a datapath.
    pub fn total_rx_packets(&self, dpid: u64) -> u64 {
        self.ports
            .get(&dpid)
            .map_or(0, |v| v.iter().map(|p| p.rx_packets).sum())
    }
}

impl Component for StatsCollector {
    fn name(&self) -> &'static str {
        "stats_collector"
    }

    fn on_connection_up(&mut self, ctl: &mut Ctl<'_, '_>, _dpid: u64, _ports: &[PortDesc]) {
        if self.poll_on_flush {
            self.poll_all(ctl);
        }
    }

    fn on_stats(&mut self, dpid: u64, msg: &OfMessage) {
        match msg {
            OfMessage::FlowStatsReply(v) => {
                self.replies_ctr.inc();
                self.flows.insert(dpid, v.clone());
            }
            OfMessage::PortStatsReply(v) => {
                self.replies_ctr.inc();
                self.ports.insert(dpid, v.clone());
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::Controller;
    use crate::l2::L2Learning;
    use escape_netem::{Host, LinkConfig, Sim, Time};
    use escape_openflow::Switch;
    use escape_packet::MacAddr;
    use std::net::Ipv4Addr;

    #[test]
    fn collects_flow_and_port_stats() {
        let mut sim = Sim::new(12);
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
        let reg = sim.telemetry().clone();
        let c = sim.add_node("c0", 0, Box::new(Controller::with_registry(&reg)));
        let conn = sim.ctrl_connect(sw, c, Time::from_us(100));
        sim.node_as_mut::<Switch>(sw)
            .unwrap()
            .attach_controller(conn);
        {
            let ctl = sim.node_as_mut::<Controller>(c).unwrap();
            ctl.register_switch(conn);
            ctl.add_component(Box::new(L2Learning::new()));
            ctl.add_component(Box::new(StatsCollector::new(&reg)));
        }
        Controller::start(&mut sim, c);
        sim.run(1000);

        // Move some traffic so counters are non-zero.
        sim.node_as_mut::<Host>(h1).unwrap().add_stream(
            Ipv4Addr::new(10, 0, 0, 2),
            1,
            2,
            100,
            Time::from_us(200),
            10,
        );
        Host::start_streams(&mut sim, h1, Time::ZERO);
        // Bound by *virtual time*: running the queue dry would fire the
        // 10 s idle-timeout and expire the very flows we want to poll.
        sim.run_until(Time::from_ms(50));

        // Trigger a poll sweep via the controller flush hook.
        Controller::request_flush(&mut sim, c, Time::ZERO);
        sim.run_until(Time::from_ms(60));

        let ctl = sim.node_as::<Controller>(c).unwrap();
        let sc = ctl.component_as::<StatsCollector>().unwrap();
        assert!(sc.replies_seen() >= 2, "{} replies", sc.replies_seen());
        assert!(
            sc.total_rx_packets(1) >= 10,
            "port counters live: {}",
            sc.total_rx_packets(1)
        );
        assert!(sc.total_flow_packets(1) > 0, "flow counters live");
        assert!(!sc.flows.get(&1).unwrap().is_empty());
    }
}
