//! Infrastructure bring-up: from a [`ResourceTopology`] to a running
//! emulated network (switches, containers, SAP hosts, control network).

use crate::container::VnfContainer;
use crate::error::EscapeError;
use escape_netem::{CtrlId, Host, LinkConfig, NodeCtx, NodeId, NodeLogic, Sim, Time};
use escape_openflow::{port, Switch};
use escape_packet::{LookupMap, MacAddr, Packet};
use escape_pox::{Controller, SteeringMode};
use escape_sg::topo::TopoNodeKind;
use escape_sg::ResourceTopology;
use std::collections::BTreeMap;
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
    pub nodes: BTreeMap<String, NodeId>,
    /// Switch name -> datapath id.
    pub dpid: BTreeMap<String, u64>,
    /// (switch name, adjacent non-container node name) -> switch port.
    pub switch_port: LookupMap<(String, String), u16>,
    /// SAP name -> (MAC, IP).
    pub sap_addr: BTreeMap<String, (MacAddr, Ipv4Addr)>,
    /// Container name -> NETCONF control channel (manager side).
    pub netconf_conn: BTreeMap<String, CtrlId>,
    /// Control channel id -> container name (for inbox routing).
    pub conn_owner: LookupMap<u32, String>,
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
    /// Constraints checked here, before any node is added: SAPs and
    /// containers attach only to switches, each SAP has exactly one
    /// uplink, no node needs more than [`MAX_PORTS`] ports and there are
    /// at most [`MAX_SAPS`] SAPs.
    pub fn build(
        sim: &mut Sim,
        topo: &ResourceTopology,
        mode: SteeringMode,
        seed: u64,
    ) -> Result<Infra, String> {
        topo.validate()?;
        if let Some(sap) = topo.saps().nth(MAX_SAPS) {
            return Err(format!(
                "SAP {:?}: a topology holds at most {MAX_SAPS} SAPs",
                sap.name
            ));
        }
        let kind_of = |name: &str| topo.node(name).map(|n| &n.kind);
        let is_switch = |name: &str| matches!(kind_of(name), Some(TopoNodeKind::Switch));
        let is_container =
            |name: &str| matches!(kind_of(name), Some(TopoNodeKind::Container { .. }));

        // Plan ports and links.
        let mut next_port: LookupMap<&str, u16> = LookupMap::new();
        let mut planned: Vec<PlannedLink> = Vec::new();
        let mut switch_port: LookupMap<(String, String), u16> = LookupMap::new();
        let mut container_attach: LookupMap<&str, Vec<(String, u16, u16)>> = LookupMap::new();
        let mut sap_links: LookupMap<&str, u32> = LookupMap::new();

        for l in &topo.links {
            let cfg = LinkConfig::lan()
                .with_bandwidth((l.bandwidth_mbps * 1_000_000.0) as u64)
                .with_delay(Time::from_us(l.delay_us));
            if !is_switch(&l.a) && !is_switch(&l.b) {
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
                    let sp = alloc_port(&mut next_port, sw)?;
                    let cp = alloc_port(&mut next_port, peer)?;
                    planned.push(PlannedLink {
                        a: sw.clone(),
                        a_port: sp,
                        b: peer.clone(),
                        b_port: cp,
                        cfg,
                    });
                    container_attach
                        .entry(peer)
                        .or_default()
                        .push((sw.clone(), cp, sp));
                }
            } else {
                let sp = alloc_port(&mut next_port, sw)?;
                let pp = alloc_port(&mut next_port, peer)?;
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
                    *sap_links.entry(peer).or_insert(0) += 1;
                }
            }
        }
        for sap in topo.saps() {
            if sap_links.get(sap.name.as_str()).copied().unwrap_or(0) != 1 {
                return Err(format!("SAP {:?} must have exactly one uplink", sap.name));
            }
        }

        // Create nodes.
        let mut nodes = BTreeMap::new();
        let mut dpid = BTreeMap::new();
        let mut sap_addr = BTreeMap::new();
        let mut next_dpid = 1u64;
        let mut sap_idx = 0u32;
        let mut container_idx = 0u32;
        for n in &topo.nodes {
            let ports = next_port.get(n.name.as_str()).copied().unwrap_or(0).max(1);
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
                    let attach = container_attach.remove(n.name.as_str()).unwrap_or_default();
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
        let mut netconf_conn = BTreeMap::new();
        let mut conn_owner = LookupMap::new();
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

/// Most ports one node may have: a port number is below
/// [`port::NONE`], which means "no port" on the OpenFlow wire.
pub const MAX_PORTS: u16 = port::NONE;

/// Most SAPs one topology may have: up to here `sap_ip` gives each
/// its own `10.0.x.y` address without wrapping `x`.
pub const MAX_SAPS: usize = 63_999;

/// The next free port of `name`, or an error once it has
/// [`MAX_PORTS`].
fn alloc_port<'t>(next: &mut LookupMap<&'t str, u16>, name: &'t str) -> Result<u16, String> {
    let e = next.entry(name).or_insert(0);
    if *e == MAX_PORTS {
        return Err(format!("node {name:?} needs more than {MAX_PORTS} ports"));
    }
    *e += 1;
    Ok(*e - 1)
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
        let port = |sw: &str, peer: &str| infra.switch_port.get(&(sw.into(), peer.into()));
        assert!(port("s0", "s1").is_some());
        assert!(port("s1", "s0").is_some());
        assert!(port("s0", "sap0").is_some());
        // Container adjacency is not in switch_port (allocated per VNF).
        assert!(port("s0", "c0").is_none());
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
    fn a_topology_too_large_to_number_is_an_error() {
        // Each s0-c0 link is 8 attach points, a port on either end for
        // each: 8 192 links need one port more than a node can number.
        let mut topo = ResourceTopology::new();
        topo.add_switch("s0").add_container("c0", 1.0, 64);
        for _ in 0..8192 {
            topo.add_link("s0", "c0", 100.0, 10);
        }
        let mut sim = Sim::new(1);
        let err = Infra::build(&mut sim, &topo, SteeringMode::Proactive, 7)
            .err()
            .expect("too many ports");
        assert_eq!(err, "node \"s0\" needs more than 65535 ports");
        assert_eq!(sim.node_count(), 0, "no node is added");
        // One link fewer numbers every port.
        topo.links.pop();
        assert!(Infra::build(&mut sim, &topo, SteeringMode::Proactive, 7).is_ok());

        // Past the bound the third octet of `sap_ip` wraps, and SAP
        // 64 001 would get SAP 1's address.
        let mut topo = ResourceTopology::new();
        for i in 0..=MAX_SAPS {
            topo.add_sap(format!("sap{i}"));
        }
        let err = Infra::build(&mut sim, &topo, SteeringMode::Proactive, 7)
            .err()
            .expect("too many SAPs");
        assert_eq!(err, "SAP \"sap63999\": a topology holds at most 63999 SAPs");
        assert_eq!(sap_ip(MAX_SAPS as u32), Ipv4Addr::new(10, 0, 255, 250));
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
