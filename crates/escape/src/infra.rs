//! Infrastructure bring-up: from a [`ResourceTopology`] to a running
//! emulated network (switches, containers, SAP hosts, control network).

use crate::container::VnfContainer;
use crate::error::EscapeError;
use escape_netem::{CtrlId, Host, LinkConfig, NodeCtx, NodeId, NodeLogic, Sim, Time};
use escape_openflow::Switch;
use escape_packet::{MacAddr, Packet};
use escape_pox::{Controller, SteeringMode};
use escape_sg::topo::TopoNodeKind;
use escape_sg::ResourceTopology;
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Attachment points pre-provisioned per container-switch adjacency
/// (parallel veth pairs in Mininet terms). Each VNF port connection
/// consumes one.
pub const ATTACH_POINTS_PER_LINK: u16 = 8;

/// Latency of the dedicated control network (NETCONF sessions and the
/// OpenFlow control channel).
pub const CTRL_LATENCY: Time = Time::from_us(200);

/// The management-side relay node: the orchestrator process's foothold in
/// the emulation. It terminates the manager ends of the NETCONF control
/// channels and buffers whatever arrives for the (out-of-sim) deployment
/// driver to drain.
#[derive(Default)]
pub struct ManagerRelay {
    /// (channel, raw bytes) in arrival order.
    pub inbox: Vec<(CtrlId, Vec<u8>)>,
}

impl NodeLogic for ManagerRelay {
    fn on_packet(&mut self, _ctx: &mut NodeCtx<'_>, _port: u16, _pkt: Packet) {}
    fn on_ctrl(&mut self, _ctx: &mut NodeCtx<'_>, conn: CtrlId, msg: Vec<u8>) {
        self.inbox.push((conn, msg));
    }
}

/// Everything the environment needs to address the emulated network.
pub struct Infra {
    /// Topology node name -> emulator node.
    pub nodes: HashMap<String, NodeId>,
    /// Switch name -> datapath id.
    pub dpid: HashMap<String, u64>,
    /// (switch name, adjacent non-container node name) -> switch port.
    pub switch_port: HashMap<(String, String), u16>,
    /// SAP name -> (MAC, IP).
    pub sap_addr: HashMap<String, (MacAddr, Ipv4Addr)>,
    /// Container name -> NETCONF control channel (manager side).
    pub netconf_conn: HashMap<String, CtrlId>,
    /// Control channel id -> container name (for inbox routing).
    pub conn_owner: HashMap<u32, String>,
    /// The POX controller node.
    pub controller: NodeId,
    /// The manager relay node.
    pub manager: NodeId,
}

/// A planned emulator link.
struct PlannedLink {
    a: String,
    a_port: u16,
    b: String,
    b_port: u16,
    cfg: LinkConfig,
}

impl Infra {
    /// Builds the emulated network in `sim` from `topo`:
    /// * each switch becomes a [`Switch`] with a dpid and enough ports;
    /// * each container becomes a [`VnfContainer`] with
    ///   [`ATTACH_POINTS_PER_LINK`] parallel links per switch adjacency
    ///   and an embedded NETCONF agent wired to the manager relay;
    /// * each SAP becomes a [`Host`] with deterministic MAC/IP;
    /// * a controller node runs
    ///   [`TrafficSteering`](escape_pox::TrafficSteering) in the given mode
    ///   over a dedicated control channel per switch.
    ///
    /// Constraints checked here: SAPs and containers attach only to
    /// switches, and each SAP has exactly one uplink.
    pub fn build(
        sim: &mut Sim,
        topo: &ResourceTopology,
        mode: SteeringMode,
        seed: u64,
    ) -> Result<Infra, String> {
        topo.validate()?;
        let kind_of = |name: &str| topo.node(name).map(|n| &n.kind);
        let is_switch = |name: &str| matches!(kind_of(name), Some(TopoNodeKind::Switch));
        let is_container =
            |name: &str| matches!(kind_of(name), Some(TopoNodeKind::Container { .. }));

        // Plan ports and links.
        let mut next_port: HashMap<String, u16> = HashMap::new();
        let mut planned: Vec<PlannedLink> = Vec::new();
        let mut switch_port: HashMap<(String, String), u16> = HashMap::new();
        let mut container_attach: HashMap<String, Vec<(String, u16, u16)>> = HashMap::new();
        let mut sap_links: HashMap<String, u32> = HashMap::new();

        for l in &topo.links {
            let cfg = LinkConfig::lan()
                .with_bandwidth((l.bandwidth_mbps * 1_000_000.0) as u64)
                .with_delay(Time::from_us(l.delay_us));
            let endpoints_ok = match (is_switch(&l.a), is_switch(&l.b)) {
                (true, true) => true,
                (true, false) | (false, true) => true,
                (false, false) => false,
            };
            if !endpoints_ok {
                return Err(format!(
                    "link {}-{}: SAPs and containers must attach to switches",
                    l.a, l.b
                ));
            }
            // Normalize: `sw` is a switch; `peer` is the other end.
            let (sw, peer) = if is_switch(&l.a) {
                (&l.a, &l.b)
            } else {
                (&l.b, &l.a)
            };
            if is_container(peer) {
                for _ in 0..ATTACH_POINTS_PER_LINK {
                    let sp = alloc_port(&mut next_port, sw);
                    let cp = alloc_port(&mut next_port, peer);
                    planned.push(PlannedLink {
                        a: sw.clone(),
                        a_port: sp,
                        b: peer.clone(),
                        b_port: cp,
                        cfg,
                    });
                    container_attach
                        .entry(peer.clone())
                        .or_default()
                        .push((sw.clone(), cp, sp));
                }
            } else {
                let sp = alloc_port(&mut next_port, sw);
                let pp = alloc_port(&mut next_port, peer);
                planned.push(PlannedLink {
                    a: sw.clone(),
                    a_port: sp,
                    b: peer.clone(),
                    b_port: pp,
                    cfg,
                });
                switch_port.insert((sw.clone(), peer.clone()), sp);
                if is_switch(peer) {
                    // Switch-switch: record both directions.
                    switch_port.insert((peer.clone(), sw.clone()), pp);
                } else {
                    *sap_links.entry(peer.clone()).or_insert(0) += 1;
                }
            }
        }
        for sap in topo.saps() {
            if sap_links.get(&sap.name).copied().unwrap_or(0) != 1 {
                return Err(format!("SAP {:?} must have exactly one uplink", sap.name));
            }
        }

        // Create nodes.
        let mut nodes = HashMap::new();
        let mut dpid = HashMap::new();
        let mut sap_addr = HashMap::new();
        let mut next_dpid = 1u64;
        let mut sap_idx = 0u32;
        let mut container_idx = 0u32;
        for n in &topo.nodes {
            let ports = next_port.get(&n.name).copied().unwrap_or(0).max(1);
            let id = match &n.kind {
                TopoNodeKind::Switch => {
                    let d = next_dpid;
                    next_dpid += 1;
                    dpid.insert(n.name.clone(), d);
                    // All switches share the `openflow.cache_*` series.
                    let sw = Switch::with_registry(d, ports, sim.telemetry());
                    sim.add_node(n.name.clone(), ports, Box::new(sw))
                }
                TopoNodeKind::Container { .. } => {
                    container_idx += 1;
                    let attach = container_attach.remove(&n.name).unwrap_or_default();
                    sim.add_node(
                        n.name.clone(),
                        ports,
                        Box::new(VnfContainer::new(
                            n.name.clone(),
                            container_idx,
                            attach,
                            seed.wrapping_add(container_idx as u64),
                        )),
                    )
                }
                TopoNodeKind::Sap => {
                    sap_idx += 1;
                    let mac = MacAddr::from_id(0x5A50_0000 + sap_idx as u64);
                    let ip = sap_ip(sap_idx);
                    sap_addr.insert(n.name.clone(), (mac, ip));
                    sim.add_node(n.name.clone(), 1, Box::new(Host::new(mac, ip)))
                }
            };
            nodes.insert(n.name.clone(), id);
        }

        // Wire links.
        for p in &planned {
            sim.connect((nodes[&p.a], p.a_port), (nodes[&p.b], p.b_port), p.cfg);
        }

        // Control network: controller <-> every switch. The controller
        // and its steering app count into the simulation-wide registry.
        let controller = Controller::new(mode, sim.telemetry());
        let controller_node = sim.add_node("controller", 0, Box::new(controller));
        for (name, &node) in &nodes {
            if dpid.contains_key(name) {
                let conn = sim.ctrl_connect(node, controller_node, CTRL_LATENCY);
                sim.node_as_mut::<Switch>(node)
                    .expect("switch node")
                    .attach_controller(conn);
                sim.node_as_mut::<Controller>(controller_node)
                    .expect("controller node")
                    .register_switch(conn);
            }
        }
        Controller::start(sim, controller_node);

        // Management network: manager relay <-> every container agent.
        let manager = sim.add_node("manager", 0, Box::new(ManagerRelay::default()));
        let mut netconf_conn = HashMap::new();
        let mut conn_owner = HashMap::new();
        for n in topo.containers() {
            let conn = sim.ctrl_connect(manager, nodes[&n.name], CTRL_LATENCY);
            netconf_conn.insert(n.name.clone(), conn);
            conn_owner.insert(conn.0, n.name.clone());
        }

        Ok(Infra {
            nodes,
            dpid,
            switch_port,
            sap_addr,
            netconf_conn,
            conn_owner,
            controller: controller_node,
            manager,
        })
    }

    /// The emulator node of a topology node.
    pub fn node(&self, name: &str) -> Option<NodeId> {
        self.nodes.get(name).copied()
    }

    /// The (MAC, IP) address pair of a SAP.
    pub(crate) fn sap(&self, name: &str) -> Result<(MacAddr, Ipv4Addr), EscapeError> {
        self.sap_addr
            .get(name)
            .copied()
            .ok_or_else(|| EscapeError::NotFound(format!("sap {name}")))
    }
}

fn alloc_port(next: &mut HashMap<String, u16>, name: &str) -> u16 {
    let e = next.entry(name.to_string()).or_insert(0);
    let p = *e;
    *e += 1;
    p
}

fn sap_ip(i: u32) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, (i / 250) as u8, (i % 250 + 1) as u8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use escape_netconf::VnfInstrumentation;
    use escape_sg::topo::builders;

    #[test]
    fn linear_topology_builds() {
        let topo = builders::linear(3, 4.0);
        let mut sim = Sim::new(1);
        let infra = Infra::build(&mut sim, &topo, SteeringMode::Proactive, 7).unwrap();
        // Nodes: 2 saps + 3 switches + 3 containers + controller + manager.
        assert_eq!(sim.node_count(), 10);
        assert_eq!(infra.dpid.len(), 3);
        assert_eq!(infra.sap_addr.len(), 2);
        assert_eq!(infra.netconf_conn.len(), 3);
        // Handshake completes.
        sim.run(10_000);
        let ctl = sim.node_as::<Controller>(infra.controller).unwrap();
        assert_eq!(ctl.connected_dpids().len(), 3);
    }

    #[test]
    fn sap_addresses_are_unique_and_deterministic() {
        let topo = builders::star(5, 1.0);
        let mut sim = Sim::new(1);
        let infra = Infra::build(&mut sim, &topo, SteeringMode::Proactive, 7).unwrap();
        let mut macs: Vec<_> = infra.sap_addr.values().map(|(m, _)| *m).collect();
        macs.sort_unstable();
        macs.dedup();
        assert_eq!(macs.len(), 5);
        // Deterministic across builds.
        let mut sim2 = Sim::new(1);
        let infra2 = Infra::build(&mut sim2, &topo, SteeringMode::Proactive, 7).unwrap();
        assert_eq!(infra.sap_addr, infra2.sap_addr);
    }

    #[test]
    fn switch_ports_recorded_for_steering() {
        let topo = builders::linear(2, 1.0);
        let mut sim = Sim::new(1);
        let infra = Infra::build(&mut sim, &topo, SteeringMode::Proactive, 7).unwrap();
        // s0 connects to: c0 (8 attach ports), s1, sap0.
        assert!(infra.switch_port.contains_key(&("s0".into(), "s1".into())));
        assert!(infra.switch_port.contains_key(&("s1".into(), "s0".into())));
        assert!(infra
            .switch_port
            .contains_key(&("s0".into(), "sap0".into())));
        // Container adjacency is not in switch_port (allocated per VNF).
        assert!(!infra.switch_port.contains_key(&("s0".into(), "c0".into())));
    }

    #[test]
    fn container_attach_points_provisioned() {
        let topo = builders::linear(1, 1.0);
        let mut sim = Sim::new(1);
        let infra = Infra::build(&mut sim, &topo, SteeringMode::Proactive, 7).unwrap();
        let c0 = infra.node("c0").unwrap();
        let host = sim.node_as_mut::<VnfContainer>(c0).unwrap().host_mut();
        let id = host.initiate("monitor", None, &[]).unwrap();
        // Exactly ATTACH_POINTS_PER_LINK bindings to s0 succeed (connect
        // is binding-level, so distinct device numbers suffice).
        for dev in 0..ATTACH_POINTS_PER_LINK {
            host.connect(&id, dev, "s0").unwrap();
        }
        assert!(
            host.connect(&id, 100, "s0").is_err(),
            "attach points exhausted"
        );
    }

    #[test]
    fn invalid_attachments_rejected() {
        // Container-to-container link.
        let mut topo = ResourceTopology::new();
        topo.add_container("c0", 1.0, 64)
            .add_container("c1", 1.0, 64)
            .add_link("c0", "c1", 100.0, 10);
        let mut sim = Sim::new(1);
        assert!(Infra::build(&mut sim, &topo, SteeringMode::Proactive, 7)
            .err()
            .unwrap()
            .contains("switches"));
        // SAP with two uplinks.
        let mut topo = ResourceTopology::new();
        topo.add_switch("s0")
            .add_switch("s1")
            .add_sap("sap0")
            .add_sap("sap1")
            .add_link("sap0", "s0", 100.0, 10)
            .add_link("sap0", "s1", 100.0, 10)
            .add_link("sap1", "s1", 100.0, 10)
            .add_link("s0", "s1", 100.0, 10);
        let mut sim = Sim::new(1);
        assert!(Infra::build(&mut sim, &topo, SteeringMode::Proactive, 7)
            .err()
            .unwrap()
            .contains("exactly one uplink"));
    }
}
