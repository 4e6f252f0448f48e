//! The VNF container: a managed node hosting Click-based VNFs.
//!
//! One container node = Mininet host + cgroup + OpenYuma agent in the
//! paper's setup. It terminates a NETCONF control channel (the agent),
//! owns a [`CpuModel`] shared by its VNF processes, and forwards
//! dataplane frames through the Click routers of the VNFs bound to its
//! ports. Packet processing cost (from the Click engine) is charged to
//! the owning process under its isolation mode, and outputs are released
//! when the virtual CPU finishes the work.
//!
//! The module is split by concern: `host` runs frames through the hosted
//! Click routers ([`VnfHost`]'s path map and reused buffers),
//! `instrumentation` is the [`VnfInstrumentation`] the NETCONF agent
//! drives (initiate, isolation parsing, connect and disconnect over the
//! attachment free list), and `node` is the emulator node
//! ([`VnfContainer`]: node logic, the release and tick timers and the
//! agent glue).

mod host;
mod instrumentation;
mod node;

pub use node::VnfContainer;

use escape_catalog::Catalog;
use escape_click::{Registry, Router};
use escape_netconf::agent::VnfInstrumentation;
use escape_netem::process::ProcId;
use escape_netem::{CpuModel, VnfPath};
use escape_packet::{LookupMap, Packet};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Where a VNF device is wired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Binding {
    /// To the physical fabric: a container port (and the switch port on
    /// the far side, as reported back to the orchestrator).
    External {
        container_port: u16,
        switch_port: u16,
        switch: String,
    },
    /// Directly into another VNF on the same container (service chaining
    /// without leaving the box).
    Internal { vnf: usize, dev: u16 },
}

/// Lifecycle state of a hosted VNF.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VnfStatus {
    Initiated,
    Running,
    Stopped,
    Failed,
}

impl VnfStatus {
    fn as_str(&self) -> &'static str {
        match self {
            VnfStatus::Initiated => "initiated",
            VnfStatus::Running => "running",
            VnfStatus::Stopped => "stopped",
            VnfStatus::Failed => "failed",
        }
    }
}

/// One hosted VNF instance.
pub struct VnfSlot {
    pub id: String,
    pub vnf_type: String,
    pub router: Router,
    pub status: VnfStatus,
    pub proc: ProcId,
    pub bindings: BTreeMap<u16, Binding>,
    /// Frames dropped because the VNF was not running.
    pub dropped_not_running: u64,
}

/// The container's VNF table and attachment inventory — also the
/// [`VnfInstrumentation`] the NETCONF agent drives. This is the
/// "instrumentation part" the paper says is all that changes on a real
/// platform.
pub struct VnfHost {
    pub name: String,
    pub vnfs: Vec<VnfSlot>,
    by_id: LookupMap<String, usize>,
    pub cpu: CpuModel,
    catalog: Catalog,
    registry: Registry,
    /// Free attachment points: switch name -> (container port, switch
    /// port) pairs pre-provisioned at build time.
    attach_free: LookupMap<String, Vec<(u16, u16)>>,
    /// Ingress dispatch: container port -> (vnf index, device).
    port_bindings: LookupMap<u16, (usize, u16)>,
    seed: u64,
    next_vnf: u32,
    /// When set, [`VnfHost::process`] collects the Click elements each
    /// frame traverses (the flight recorder's per-element view).
    trace_paths: bool,
    /// The (vnf slot, element index) steps of the frame `process` ran
    /// last, reused across frames.
    steps: Vec<(u32, u16)>,
    /// One shared path per distinct traversal, so a traced frame costs a
    /// lookup, not a copy of every name. A VNF's entries go when it
    /// stops; records still in the trace ring keep their own `Arc`.
    paths: LookupMap<Box<[(u32, u16)]>, Arc<VnfPath>>,
    /// `run`'s (vnf, dev, frame) work queue and one router's emissions,
    /// reused across frames.
    queue: Vec<(usize, u16, Packet)>,
    routed: Vec<(u16, Packet)>,
}
#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use escape_netem::{CtrlId, DropReason, HopDetail, NodeCtx, NodeLogic, Time};
    use escape_netem::{LinkConfig, Sim};
    use escape_packet::{MacAddr, PacketBuilder};
    use std::net::Ipv4Addr;

    fn frame(dport: u16) -> Bytes {
        PacketBuilder::udp(
            MacAddr::from_id(1),
            MacAddr::from_id(2),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            7,
            dport,
            Bytes::from_static(b"container"),
        )
    }

    fn attach4() -> Vec<(String, u16, u16)> {
        (0..4).map(|i| ("s0".to_string(), i, 10 + i)).collect()
    }

    #[test]
    fn instrumentation_lifecycle_direct() {
        let mut h = VnfHost::new("c0", attach4(), 1);
        let id = h.initiate("monitor", None, &[]).unwrap();
        assert_eq!(id, "c0-vnf1");
        let sp = h.connect(&id, 0, "s0").unwrap();
        assert_eq!(sp, 10);
        let sp = h.connect(&id, 1, "s0").unwrap();
        assert_eq!(sp, 11);
        assert!(h.connect(&id, 1, "s0").is_err(), "double connect refused");
        assert!(h.connect(&id, 2, "s9").is_err(), "unknown switch refused");
        h.start(&id).unwrap();
        let info = h.info(None);
        assert_eq!(info[0].status, "running");
        assert_eq!(info[0].ports.len(), 2);
        h.disconnect(&id, 0).unwrap();
        // The attachment point is recycled.
        let sp = h.connect(&id, 0, "s0").unwrap();
        assert_eq!(sp, 10);
        // getVNFInfo lists ports in ascending order, whatever the connect order.
        let mut h = VnfHost::new("c0", (0..64).map(|i| ("s0".into(), i, i)).collect(), 1);
        for _ in 0..16 {
            let id = h.initiate("monitor", None, &[]).unwrap();
            for port in [3, 1, 2, 0] {
                h.connect(&id, port, "s0").unwrap();
            }
        }
        let want: Vec<(u16, String)> = (0..4).map(|p| (p, "s0".into())).collect();
        assert!(h.info(None).iter().all(|v| v.ports == want));
    }

    #[test]
    fn isolation_options_are_parsed() {
        let mut h = VnfHost::new("c0", attach4(), 1);
        h.initiate("monitor", None, &[("isolation".into(), "share:1:4".into())])
            .unwrap();
        h.initiate(
            "monitor",
            None,
            &[("isolation".into(), "quota:1000:10000".into())],
        )
        .unwrap();
        assert!(h
            .initiate("monitor", None, &[("isolation".into(), "bogus".into())])
            .is_err());
    }

    #[test]
    fn catalog_params_pass_through_options() {
        let mut h = VnfHost::new("c0", attach4(), 1);
        let id = h
            .initiate(
                "firewall",
                None,
                &[("rules".into(), "deny udp, allow all".into())],
            )
            .unwrap();
        assert_eq!(h.read_handler(&id, "fw.rules").unwrap(), "2");
    }

    #[test]
    fn raw_click_config_overrides_catalog() {
        let mut h = VnfHost::new("c0", attach4(), 1);
        let id = h
            .initiate(
                "custom",
                Some("FromDevice(0) -> c :: Counter -> ToDevice(1);"),
                &[],
            )
            .unwrap();
        assert!(h.read_handler(&id, "c.count").is_some());
        assert!(h.initiate("custom", Some("syntax error ("), &[]).is_err());
    }

    #[test]
    fn frames_on_one_path_share_it_until_the_vnf_stops() {
        let mut h = VnfHost::new("c0", attach4(), 1);
        let id = h.initiate("monitor", None, &[]).unwrap();
        h.connect(&id, 0, "s0").unwrap();
        h.connect(&id, 1, "s0").unwrap();
        h.start(&id).unwrap();
        h.set_trace_paths(true);
        let mut out = Vec::new();
        let first = h.process(0, 0, Packet::from_bytes(frame(80)), Time::ZERO, &mut out);
        let second = h.process(0, 0, Packet::from_bytes(frame(81)), Time::ZERO, &mut out);
        let (a, b) = (first.1.unwrap(), second.1.unwrap());
        assert!(Arc::ptr_eq(&a, &b), "one path, one allocation");
        assert_eq!(a.vnf, id);
        assert_eq!(h.paths.len(), 1);
        h.stop(&id).unwrap();
        assert!(h.paths.is_empty(), "a stopped VNF's paths are dropped");
        assert!(
            a.elements.iter().any(|e| e == "in_cnt"),
            "held paths live on"
        );
        h.start(&id).unwrap();
        h.set_trace_paths(false);
        let untraced = h.process(0, 0, Packet::from_bytes(frame(82)), Time::ZERO, &mut out);
        assert!(untraced.1.is_none());
        assert!(h.paths.is_empty());
    }

    #[test]
    fn tick_driven_work_builds_no_path() {
        let mut h = VnfHost::new("c0", attach4(), 1);
        let shaper = h
            .initiate(
                "custom",
                Some("FromDevice(0) -> s :: BandwidthShaper(1000) -> ToDevice(1);"),
                &[],
            )
            .unwrap();
        let mon = h.initiate("monitor", None, &[]).unwrap();
        h.connect(&shaper, 0, "s0").unwrap();
        h.bind_internal(&shaper, 1, &mon, 0).unwrap();
        h.connect(&mon, 1, "s0").unwrap();
        h.start(&shaper).unwrap();
        h.start(&mon).unwrap();
        h.set_trace_paths(true);
        let mut out = Vec::new();
        let (_, path) = h.process(0, 0, Packet::from_bytes(frame(80)), Time::ZERO, &mut out);
        assert!(out.is_empty(), "parked behind the shaper");
        let path = path.expect("the frame reached the shaper");
        assert_eq!(path.elements.last().map(String::as_str), Some("s"));
        assert_eq!(h.paths.len(), 1);
        let wake = h.next_wake().expect("the shaper wakes to release it");
        h.tick_vnf(0, wake, &mut out);
        assert_eq!(out.len(), 1, "released through the monitor");
        assert!(h.vnfs.iter().all(|v| v.router.traced().is_empty()));
        assert_eq!(h.paths.len(), 1, "tick-driven work adds no path");
    }

    /// Sink node capturing frames.
    #[derive(Default)]
    struct Sink {
        rx: Vec<(u16, Packet)>,
    }
    impl NodeLogic for Sink {
        fn on_packet(&mut self, _: &mut NodeCtx<'_>, port: u16, pkt: Packet) {
            self.rx.push((port, pkt));
        }
    }

    /// Wires container port k <-> sink port k for k in 0..2, then binds a
    /// monitor VNF between them, mimicking what deployment does.
    fn rigged_sim() -> (Sim, escape_netem::NodeId, escape_netem::NodeId, String) {
        let mut sim = Sim::new(2);
        let attach = vec![("s0".to_string(), 0u16, 0u16), ("s0".to_string(), 1, 1)];
        let c = sim.add_node("c0", 2, Box::new(VnfContainer::new("c0", 1, attach, 7)));
        let sink = sim.add_node("peer", 2, Box::new(Sink::default()));
        sim.connect((c, 0), (sink, 0), LinkConfig::ideal());
        sim.connect((c, 1), (sink, 1), LinkConfig::ideal());
        let vnf_id = {
            let host = sim.node_as_mut::<VnfContainer>(c).unwrap().host_mut();
            let id = host.initiate("monitor", None, &[]).unwrap();
            host.connect(&id, 0, "s0").unwrap();
            host.connect(&id, 1, "s0").unwrap();
            host.start(&id).unwrap();
            id
        };
        (sim, c, sink, vnf_id)
    }

    #[test]
    fn deferred_release_timers_coalesce() {
        // A slow VNF (150-rule firewall, ~3.2 us of virtual CPU per
        // frame) hit by a 100 ns-paced burst builds a deep
        // deferred-output backlog. Each deferred frame must not start
        // its own release-timer chain: per-frame arming dispatches
        // O(backlog²) timer events under sustained overload.
        let mut sim = Sim::new(2);
        let attach = vec![("s0".to_string(), 0u16, 0u16), ("s0".to_string(), 1, 1)];
        let c = sim.add_node("c0", 2, Box::new(VnfContainer::new("c0", 1, attach, 7)));
        let sink = sim.add_node("peer", 2, Box::new(Sink::default()));
        sim.connect((c, 0), (sink, 0), LinkConfig::ideal());
        sim.connect((c, 1), (sink, 1), LinkConfig::ideal());
        let rules = (1..150)
            .map(|i| format!("deny udp and dst port {}, ", 20_000 + i))
            .collect::<String>()
            + "allow all";
        {
            let host = sim.node_as_mut::<VnfContainer>(c).unwrap().host_mut();
            let id = host
                .initiate("firewall", None, &[("rules".into(), rules)])
                .unwrap();
            host.connect(&id, 0, "s0").unwrap();
            host.connect(&id, 1, "s0").unwrap();
            host.start(&id).unwrap();
        }
        let n = 200u64;
        for k in 0..n {
            sim.inject(c, 0, frame(80), Time::from_ns(k * 100));
        }
        sim.run(u64::MAX);
        let s = sim.node_as::<Sink>(sink).unwrap();
        assert_eq!(s.rx.len(), n as usize, "every frame eventually released");
        let timers = sim.stats().timers;
        assert!(
            timers <= 3 * n,
            "release timers must coalesce: {timers} timer events for {n} frames"
        );
    }

    #[test]
    fn dataplane_flows_through_vnf() {
        let (mut sim, c, sink, vnf_id) = rigged_sim();
        sim.inject(c, 0, frame(80), Time::ZERO);
        sim.run(1000);
        let s = sim.node_as::<Sink>(sink).unwrap();
        assert_eq!(s.rx.len(), 1);
        assert_eq!(s.rx[0].0, 1, "exited through dev 1 -> container port 1");
        let host = sim.node_as::<VnfContainer>(c).unwrap().host();
        assert_eq!(host.read_handler(&vnf_id, "in_cnt.count").unwrap(), "1");
        // Reverse direction.
        sim.inject(c, 1, frame(81), sim.now());
        sim.run(1000);
        let s = sim.node_as::<Sink>(sink).unwrap();
        assert_eq!(s.rx.len(), 2);
        assert_eq!(s.rx[1].0, 0);
    }

    #[test]
    fn stopped_vnf_drops() {
        let (mut sim, c, sink, vnf_id) = rigged_sim();
        sim.node_as_mut::<VnfContainer>(c)
            .unwrap()
            .host_mut()
            .stop(&vnf_id)
            .unwrap();
        sim.inject(c, 0, frame(80), Time::ZERO);
        sim.run(1000);
        assert!(sim.node_as::<Sink>(sink).unwrap().rx.is_empty());
        assert_eq!(
            sim.node_as::<VnfContainer>(c).unwrap().host().vnfs[0].dropped_not_running,
            1
        );
    }

    #[test]
    fn unbound_port_counts() {
        let mut sim = Sim::new(0);
        let c = sim.add_node("c0", 1, Box::new(VnfContainer::new("c0", 1, vec![], 0)));
        sim.enable_trace(100);
        let id = sim.inject(c, 0, frame(80), Time::ZERO);
        sim.run(100);
        let snap = sim.telemetry().snapshot();
        assert_eq!(
            snap.counter("netem.drops", &[("reason", "no_route")]),
            Some(1)
        );
        let tr = sim.trace.as_ref().unwrap();
        let drop = tr
            .for_packet(id)
            .find(|r| r.dir == escape_netem::TraceDir::Drop)
            .expect("an unbound port leaves a drop record");
        assert_eq!(drop.drop, Some(DropReason::NoRoute));
        assert_eq!(drop.port, 0);
    }

    #[test]
    fn vnf_path_hop_and_vnf_down_drop_are_recorded() {
        let (mut sim, c, _sink, vnf_id) = rigged_sim();
        sim.enable_trace(1000);
        let id = sim.inject(c, 0, frame(80), Time::ZERO);
        sim.run(1000);
        {
            let tr = sim.trace.as_ref().unwrap();
            let hop = tr
                .for_packet(id)
                .find(|r| r.dir == escape_netem::TraceDir::Hop)
                .expect("VNF hop recorded");
            let Some(HopDetail::VnfPath(path)) = &hop.hop else {
                panic!("expected VnfPath, got {:?}", hop.hop);
            };
            assert_eq!(path.vnf, vnf_id);
            assert!(
                path.elements.iter().any(|e| e == "in_cnt"),
                "monitor's counter missing from path {:?}",
                path.elements
            );
        }
        // Stopped VNF: the drop is typed and counted.
        sim.node_as_mut::<VnfContainer>(c)
            .unwrap()
            .host_mut()
            .stop(&vnf_id)
            .unwrap();
        let id2 = sim.inject(c, 0, frame(80), sim.now());
        sim.run(1000);
        let tr = sim.trace.as_ref().unwrap();
        let drop = tr
            .for_packet(id2)
            .find(|r| r.dir == escape_netem::TraceDir::Drop)
            .expect("drop recorded");
        assert_eq!(drop.drop, Some(DropReason::VnfDown));
        let snap = sim.telemetry().snapshot();
        assert_eq!(
            snap.counter("netem.drops", &[("reason", "vnf_down")]),
            Some(1)
        );
    }

    #[test]
    fn firewall_deny_is_attributed_as_filtered() {
        let mut sim = Sim::new(2);
        let attach = vec![("s0".to_string(), 0u16, 0u16), ("s0".to_string(), 1, 1)];
        let c = sim.add_node("c0", 2, Box::new(VnfContainer::new("c0", 1, attach, 7)));
        let sink = sim.add_node("peer", 2, Box::new(Sink::default()));
        sim.connect((c, 0), (sink, 0), LinkConfig::ideal());
        sim.connect((c, 1), (sink, 1), LinkConfig::ideal());
        {
            let host = sim.node_as_mut::<VnfContainer>(c).unwrap().host_mut();
            let id = host
                .initiate("firewall", None, &[("rules".into(), "deny udp".into())])
                .unwrap();
            host.connect(&id, 0, "s0").unwrap();
            host.connect(&id, 1, "s0").unwrap();
            host.start(&id).unwrap();
        }
        sim.enable_trace(1000);
        let id = sim.inject(c, 0, frame(80), Time::ZERO);
        sim.run(1000);
        assert!(sim.node_as::<Sink>(sink).unwrap().rx.is_empty());
        let tr = sim.trace.as_ref().unwrap();
        let drop = tr
            .for_packet(id)
            .find(|r| r.dir == escape_netem::TraceDir::Drop)
            .expect("filtered frame leaves a drop record");
        assert_eq!(drop.drop, Some(DropReason::Filtered));
    }

    #[test]
    fn cpu_cost_delays_emission() {
        // A DPI VNF charges per-byte work; under a tight CPU quota the
        // output is deferred.
        let mut sim = Sim::new(2);
        let attach = vec![("s0".to_string(), 0u16, 0u16), ("s0".to_string(), 1, 1)];
        let c = sim.add_node("c0", 2, Box::new(VnfContainer::new("c0", 1, attach, 7)));
        let sink = sim.add_node("peer", 2, Box::new(Sink::default()));
        sim.connect((c, 0), (sink, 0), LinkConfig::ideal());
        sim.connect((c, 1), (sink, 1), LinkConfig::ideal());
        {
            let host = sim.node_as_mut::<VnfContainer>(c).unwrap().host_mut();
            let id = host
                .initiate(
                    "dpi",
                    None,
                    &[("isolation".into(), "share:1:100".into())], // 1% of a CPU
                )
                .unwrap();
            host.connect(&id, 0, "s0").unwrap();
            host.connect(&id, 1, "s0").unwrap();
            host.start(&id).unwrap();
        }
        sim.inject(c, 0, frame(80), Time::ZERO);
        sim.run(10_000);
        let s = sim.node_as::<Sink>(sink).unwrap();
        assert_eq!(s.rx.len(), 1);
        // The work is inflated 100x; emission must be visibly later than 0.
        assert!(sim.now() > Time::from_us(10), "emitted at {}", sim.now());
    }

    #[test]
    fn internal_chaining_between_colocated_vnfs() {
        let mut sim = Sim::new(2);
        let attach = vec![("s0".to_string(), 0u16, 0u16), ("s0".to_string(), 1, 1)];
        let c = sim.add_node("c0", 2, Box::new(VnfContainer::new("c0", 1, attach, 7)));
        let sink = sim.add_node("peer", 2, Box::new(Sink::default()));
        sim.connect((c, 0), (sink, 0), LinkConfig::ideal());
        sim.connect((c, 1), (sink, 1), LinkConfig::ideal());
        let (_v1, v2) = {
            let host = sim.node_as_mut::<VnfContainer>(c).unwrap().host_mut();
            let v1 = host.initiate("monitor", None, &[]).unwrap();
            let v2 = host.initiate("monitor", None, &[]).unwrap();
            host.connect(&v1, 0, "s0").unwrap(); // in from fabric
            host.bind_internal(&v1, 1, &v2, 0).unwrap(); // v1 -> v2 inside
            host.connect(&v2, 1, "s0").unwrap(); // out to fabric
            host.start(&v1).unwrap();
            host.start(&v2).unwrap();
            (v1, v2)
        };
        sim.inject(c, 0, frame(80), Time::ZERO);
        sim.run(1000);
        let s = sim.node_as::<Sink>(sink).unwrap();
        assert_eq!(s.rx.len(), 1);
        let host = sim.node_as::<VnfContainer>(c).unwrap().host();
        assert_eq!(host.read_handler(&v2, "in_cnt.count").unwrap(), "1");
    }

    #[test]
    fn netconf_over_ctrl_channel_manages_vnfs() {
        use escape_netconf::{Client, ClientEvent};
        // Relay node standing in for the orchestrator.
        #[derive(Default)]
        struct Relay {
            inbox: Vec<Vec<u8>>,
        }
        impl NodeLogic for Relay {
            fn on_packet(&mut self, _: &mut NodeCtx<'_>, _: u16, _: Packet) {}
            fn on_ctrl(&mut self, _: &mut NodeCtx<'_>, _: CtrlId, msg: Vec<u8>) {
                self.inbox.push(msg);
            }
        }
        let mut sim = Sim::new(1);
        let attach = vec![("s0".to_string(), 0u16, 0u16)];
        let c = sim.add_node("c0", 1, Box::new(VnfContainer::new("c0", 1, attach, 7)));
        let mgr = sim.add_node("mgr", 0, Box::new(Relay::default()));
        let conn = sim.ctrl_connect(mgr, c, Time::from_us(100));

        let mut client = Client::new();
        sim.ctrl_send_from(mgr, conn, client.start());
        sim.run(100);
        // Agent's hello arrived at the relay.
        let hello = sim.node_as_mut::<Relay>(mgr).unwrap().inbox.remove(0);
        let ev = client.on_bytes(&hello);
        assert!(matches!(ev[0], ClientEvent::HelloReceived { .. }));
        assert!(client.has_vnf_starter());

        let (_, req) = client.initiate_vnf("monitor", None, &[]);
        sim.ctrl_send_from(mgr, conn, req);
        sim.run(100);
        let reply = sim.node_as_mut::<Relay>(mgr).unwrap().inbox.remove(0);
        let ev = client.on_bytes(&reply);
        let ClientEvent::Reply(r) = &ev[0] else {
            panic!()
        };
        let vnf_id = escape_netconf::client::vnf_id_of(r).unwrap();
        assert_eq!(vnf_id, "c0-vnf1");
    }
}
