//! Full-stack integration: topology bring-up, chain deployment over
//! NETCONF, POX steering, dataplane traffic through Click VNFs.

use escape::env::Escape;
use escape_orch::{GreedyFirstFit, NearestNeighbor};
use escape_pox::SteeringMode;
use escape_sg::topo::builders;
use escape_sg::ServiceGraph;

fn simple_sg() -> ServiceGraph {
    ServiceGraph::new()
        .sap("sap0")
        .sap("sap1")
        .vnf("mon", "monitor", 0.5, 64)
        .chain("c1", &["sap0", "mon", "sap1"], 50.0, None)
}

#[test]
fn single_vnf_chain_carries_traffic() {
    let topo = builders::linear(2, 4.0);
    let mut esc =
        Escape::build(topo, Box::new(GreedyFirstFit), SteeringMode::Proactive, 1).unwrap();
    let report = esc.deploy(&simple_sg()).unwrap();
    assert_eq!(report.chains.len(), 1);
    assert_eq!(report.chains[0].vnfs.len(), 1);
    assert!(report.chains[0].rules > 0, "steering rules installed");
    assert!(report.total().as_us() > 0, "setup takes virtual time");

    esc.start_udp("sap0", "sap1", 128, 200, 25).unwrap();
    esc.run_for_ms(100);
    let stats = esc.sap_stats("sap1").unwrap();
    assert_eq!(stats.udp_rx, 25, "all frames arrive through the chain");
    assert!(stats.mean_latency().unwrap().as_us() > 0);

    // The VNF saw the traffic (Clicky view over NETCONF).
    let handlers = esc.monitor_vnf("c1", "mon").unwrap();
    let count = handlers
        .iter()
        .find(|(k, _)| k == "in_cnt.count")
        .map(|(_, v)| v.clone())
        .expect("monitor exposes in_cnt.count");
    assert_eq!(count, "25");
}

#[test]
fn three_vnf_chain_works() {
    let topo = builders::linear(3, 8.0);
    let mut esc =
        Escape::build(topo, Box::new(NearestNeighbor), SteeringMode::Proactive, 2).unwrap();
    let sg = ServiceGraph::new()
        .sap("sap0")
        .sap("sap1")
        .vnf("fw", "firewall", 1.0, 128)
        .with_params(&[("rules", "allow udp")])
        .vnf("mark", "qos_marker", 0.5, 64)
        .vnf("mon", "monitor", 0.5, 64)
        .chain("c1", &["sap0", "fw", "mark", "mon", "sap1"], 20.0, None);
    esc.deploy(&sg).unwrap();
    esc.start_udp("sap0", "sap1", 200, 500, 10).unwrap();
    esc.run_for_ms(100);
    assert_eq!(esc.sap_stats("sap1").unwrap().udp_rx, 10);
    // Firewall counted passes; monitor counted arrivals.
    let fw = esc.monitor_vnf("c1", "fw").unwrap();
    assert!(
        fw.iter().any(|(k, v)| k == "fw.passed" && v == "10"),
        "{fw:?}"
    );
}

#[test]
fn firewall_chain_filters_disallowed_traffic() {
    let topo = builders::linear(2, 4.0);
    let mut esc =
        Escape::build(topo, Box::new(GreedyFirstFit), SteeringMode::Proactive, 3).unwrap();
    let sg = ServiceGraph::new()
        .sap("sap0")
        .sap("sap1")
        .vnf("fw", "firewall", 1.0, 128)
        .with_params(&[("rules", "deny dst port 9000, allow all")])
        .chain("c1", &["sap0", "fw", "sap1"], 20.0, None);
    esc.deploy(&sg).unwrap();
    // start_udp uses dst port 9000 — everything should be dropped.
    esc.start_udp("sap0", "sap1", 128, 200, 10).unwrap();
    esc.run_for_ms(50);
    assert_eq!(esc.sap_stats("sap1").unwrap().udp_rx, 0);
    let fw = esc.monitor_vnf("c1", "fw").unwrap();
    assert!(
        fw.iter().any(|(k, v)| k == "fw.dropped" && v == "10"),
        "{fw:?}"
    );
}

#[test]
fn reactive_steering_also_delivers() {
    let topo = builders::linear(2, 4.0);
    let mut esc = Escape::build(topo, Box::new(GreedyFirstFit), SteeringMode::Reactive, 4).unwrap();
    esc.deploy(&simple_sg()).unwrap();
    esc.start_udp("sap0", "sap1", 128, 500, 10).unwrap();
    esc.run_for_ms(100);
    let stats = esc.sap_stats("sap1").unwrap();
    assert_eq!(
        stats.udp_rx, 10,
        "reactive install releases buffered packets"
    );
}

#[test]
fn two_chains_share_the_infrastructure() {
    let topo = builders::star(4, 4.0);
    let mut esc =
        Escape::build(topo, Box::new(NearestNeighbor), SteeringMode::Proactive, 5).unwrap();
    let sg = ServiceGraph::new()
        .sap("sap0")
        .sap("sap1")
        .sap("sap2")
        .sap("sap3")
        .vnf("m1", "monitor", 0.5, 64)
        .vnf("m2", "monitor", 0.5, 64)
        .chain("a", &["sap0", "m1", "sap1"], 10.0, None)
        .chain("b", &["sap2", "m2", "sap3"], 10.0, None);
    let report = esc.deploy(&sg).unwrap();
    assert_eq!(report.chains.len(), 2);
    esc.start_udp("sap0", "sap1", 100, 300, 8).unwrap();
    esc.start_udp("sap2", "sap3", 100, 300, 9).unwrap();
    esc.run_for_ms(100);
    assert_eq!(esc.sap_stats("sap1").unwrap().udp_rx, 8);
    assert_eq!(esc.sap_stats("sap3").unwrap().udp_rx, 9);
}

#[test]
fn teardown_stops_traffic_and_frees_resources() {
    let topo = builders::linear(2, 4.0);
    let mut esc =
        Escape::build(topo, Box::new(GreedyFirstFit), SteeringMode::Proactive, 6).unwrap();
    esc.deploy(&simple_sg()).unwrap();
    let used_before = esc.orchestrator().cpu_utilization();
    assert!(used_before > 0.0);

    esc.teardown("c1").unwrap();
    assert_eq!(esc.orchestrator().cpu_utilization(), 0.0);
    assert!(esc.deployed("c1").is_none());

    // Traffic now dies at the first switch (no rules, no running VNF).
    esc.start_udp("sap0", "sap1", 128, 200, 5).unwrap();
    esc.run_for_ms(50);
    assert_eq!(esc.sap_stats("sap1").unwrap().udp_rx, 0);
}

#[test]
fn chain_latency_reflects_path_and_vnf_count() {
    // Longer chains through more VNFs must show higher end-to-end latency.
    let mut lat = Vec::new();
    for n_vnfs in [1usize, 3] {
        let topo = builders::linear(4, 8.0);
        let mut esc =
            Escape::build(topo, Box::new(NearestNeighbor), SteeringMode::Proactive, 7).unwrap();
        let mut sg = ServiceGraph::new().sap("sap0").sap("sap1");
        let mut hops = vec!["sap0".to_string()];
        for i in 0..n_vnfs {
            sg = sg.vnf(&format!("v{i}"), "monitor", 0.2, 32);
            hops.push(format!("v{i}"));
        }
        hops.push("sap1".to_string());
        let hop_refs: Vec<&str> = hops.iter().map(|s| s.as_str()).collect();
        sg = sg.chain("c", &hop_refs, 10.0, None);
        esc.deploy(&sg).unwrap();
        esc.start_udp("sap0", "sap1", 128, 500, 10).unwrap();
        esc.run_for_ms(100);
        let stats = esc.sap_stats("sap1").unwrap();
        assert_eq!(stats.udp_rx, 10, "{n_vnfs} vnf chain");
        lat.push(stats.mean_latency().unwrap().as_ns());
    }
    assert!(lat[1] > lat[0], "3-VNF chain slower than 1-VNF: {lat:?}");
}

#[test]
fn mapping_failure_is_reported_and_clean() {
    let topo = builders::linear(2, 0.25); // tiny containers
    let mut esc =
        Escape::build(topo, Box::new(GreedyFirstFit), SteeringMode::Proactive, 8).unwrap();
    let sg = ServiceGraph::new()
        .sap("sap0")
        .sap("sap1")
        .vnf("big", "dpi", 2.0, 512)
        .chain("c1", &["sap0", "big", "sap1"], 10.0, None);
    let err = esc.deploy(&sg).err().unwrap();
    assert!(matches!(err, escape::EscapeError::MappingFailed(_)));
    assert_eq!(esc.orchestrator().cpu_utilization(), 0.0, "rolled back");
}

#[test]
fn ping_works_over_bidirectional_chains() {
    // Echo request rides chain fwd (sap0 -> mon -> sap1); the reply needs
    // its own chain back (sap1 -> mon2 -> sap0) — chains are
    // unidirectional by design.
    let topo = builders::linear(2, 4.0);
    let mut esc =
        Escape::build(topo, Box::new(NearestNeighbor), SteeringMode::Proactive, 9).unwrap();
    let sg = ServiceGraph::new()
        .sap("sap0")
        .sap("sap1")
        .vnf("m1", "monitor", 0.5, 64)
        .vnf("m2", "monitor", 0.5, 64)
        .chain("fwd", &["sap0", "m1", "sap1"], 10.0, None)
        .chain("back", &["sap1", "m2", "sap0"], 10.0, None);
    esc.deploy(&sg).unwrap();
    esc.start_ping("sap0", "sap1", 1_000, 5).unwrap();
    esc.run_for_ms(50);
    let s1 = esc.sap_stats("sap1").unwrap();
    let s0 = esc.sap_stats("sap0").unwrap();
    assert_eq!(s1.icmp_echo_rx, 5, "echo requests arrived");
    assert_eq!(s0.icmp_reply_rx, 5, "echo replies came back");
}

#[test]
fn packet_trace_captures_chain_traversal() {
    // The pcap stand-in: enable tracing, run a chain, verify the trace
    // shows the frame crossing switch and container nodes.
    let topo = builders::linear(2, 4.0);
    let mut esc =
        Escape::build(topo, Box::new(GreedyFirstFit), SteeringMode::Proactive, 10).unwrap();
    esc.deploy(&simple_sg()).unwrap();
    esc.sim.enable_trace(10_000);
    esc.sim.trace.as_mut().unwrap().capture_payloads = true;
    esc.start_udp("sap0", "sap1", 128, 500, 3).unwrap();
    esc.run_for_ms(50);
    let trace = esc.sim.trace.as_ref().unwrap();
    assert!(
        trace.count(escape_netem::TraceDir::Rx) >= 9,
        "multi-hop rx events"
    );
    assert!(
        trace.count(escape_netem::TraceDir::Tx) >= 6,
        "switch/container forwards"
    );
    let dump = trace.dump();
    assert!(dump.contains("rx"), "{dump}");
    // And the pcap export is a valid libpcap file carrying real frames.
    let pcap = trace.to_pcap();
    assert!(
        pcap.len() > 24 + (16 + 128) * 3,
        "pcap has frames: {} bytes",
        pcap.len()
    );
    assert_eq!(&pcap[0..4], &0xa1b2_c3d4u32.to_le_bytes());
}

#[test]
fn custom_click_config_vnf_deploys_end_to_end() {
    // The "develop a particular VNF" path: a service graph carries a raw
    // Click config instead of a catalog type; the orchestrator ships the
    // text in initiateVNF's click-config leaf.
    let topo = builders::linear(2, 4.0);
    let mut esc =
        Escape::build(topo, Box::new(GreedyFirstFit), SteeringMode::Proactive, 11).unwrap();
    let sg = ServiceGraph::new()
        .sap("sap0")
        .sap("sap1")
        .vnf("mine", "custom", 0.5, 64)
        .with_click_config(
            "FromDevice(0) -> tagged :: Counter -> SetIPDSCP(12) -> ToDevice(1);\n\
             FromDevice(1) -> rev :: Counter -> ToDevice(0);\n",
        )
        .chain("c1", &["sap0", "mine", "sap1"], 10.0, None);
    esc.deploy(&sg).unwrap();
    esc.start_udp("sap0", "sap1", 128, 300, 7).unwrap();
    esc.run_for_ms(50);
    assert_eq!(esc.sap_stats("sap1").unwrap().udp_rx, 7);
    // The custom element graph is live and countable over NETCONF.
    let handlers = esc.monitor_vnf("c1", "mine").unwrap();
    assert!(
        handlers
            .iter()
            .any(|(k, v)| k == "tagged.count" && v == "7"),
        "{handlers:?}"
    );
    // Bad configs are rejected by the agent: the transaction rolls back
    // completely and surfaces the NETCONF error as the prepare-phase
    // cause.
    let bad = ServiceGraph::new()
        .sap("sap0")
        .sap("sap1")
        .vnf("broken", "custom", 0.5, 64)
        .with_click_config("this is not click (")
        .chain("c2", &["sap0", "broken", "sap1"], 10.0, None);
    let err = esc.deploy(&bad).err().unwrap();
    let escape::EscapeError::DeployFailed {
        phase,
        cause,
        rollback,
    } = err
    else {
        panic!("expected DeployFailed, got {err}");
    };
    assert_eq!(phase, escape::DeployPhase::Prepare);
    assert!(
        matches!(*cause, escape::EscapeError::Netconf(_)),
        "got {cause}"
    );
    assert!(rollback.complete(), "rollback: {rollback}");
    // The agent refused initiateVNF, so no VNF exists to undo: the whole
    // rollback is the reservation, released the instant the error came.
    let steps: Vec<_> = rollback
        .steps
        .iter()
        .map(|s| (s.action, s.target.as_str(), s.ok))
        .collect();
    assert_eq!(steps, vec![("release-reservation", "c2", true)]);
    assert_eq!(
        esc.now().as_ns(),
        58_060_000,
        "instant the failed deploy returned"
    );
    // The first chain is untouched and still carries traffic.
    esc.start_udp("sap0", "sap1", 128, 300, 3).unwrap();
    esc.run_for_ms(50);
    assert_eq!(esc.sap_stats("sap1").unwrap().udp_rx, 10);
}

#[test]
fn telemetry_spans_all_layers() {
    // The acceptance gate for the observability subsystem: one demo run
    // must leave counters and histograms from the netem, pox, orch, and
    // escape crates in a single shared registry, plus virtual-time spans
    // around the chain-setup path.
    let topo = builders::linear(3, 4.0);
    let mut esc =
        Escape::build(topo, Box::new(NearestNeighbor), SteeringMode::Proactive, 7).unwrap();
    let sg = ServiceGraph::new()
        .sap("sap0")
        .sap("sap1")
        .vnf("fw", "firewall", 1.0, 128)
        .vnf("mon", "monitor", 0.5, 64)
        .chain("demo", &["sap0", "fw", "mon", "sap1"], 25.0, Some(50_000));
    esc.deploy(&sg).unwrap();
    esc.start_udp("sap0", "sap1", 128, 200, 15).unwrap();
    esc.run_for_ms(60);

    let snap = esc.metrics();

    // Counters from four distinct crates moved through the shared registry.
    assert!(snap.counter_total("netem.events") > 0, "netem counters");
    assert!(
        snap.counter_total("netem.frames_delivered") > 0,
        "dataplane moved"
    );
    assert!(snap.counter_total("pox.flow_mods") > 0, "pox counters");
    assert!(
        snap.counter_total("pox.steering.proactive_installs") > 0,
        "steering installs recorded"
    );
    assert!(
        snap.counter_total("orch.mapping_attempts") > 0,
        "orch counters"
    );
    assert!(
        snap.counter_total("escape.chains_deployed") > 0,
        "escape counters"
    );
    assert!(
        snap.counter_total("netconf.rpcs_sent") > 0,
        "netconf counters"
    );

    // The NETCONF RPC latency histogram saw real round-trips.
    let h = snap
        .histogram("netconf.rpc_latency_ns", &[])
        .expect("rpc latency histogram");
    assert!(h.count > 0 && h.sum > 0, "rpc latency observed");

    // Orchestrator placement time was measured.
    let p = snap
        .histogram("wallclock.orch_placement_ns", &[])
        .expect("placement histogram");
    assert!(p.count > 0, "placement timed");

    // Chain-setup spans: one per chain, balanced, with non-zero virtual
    // duration, nested under the deploy span.
    let setups: Vec<_> = esc.tracer().finished("chain_setup").collect();
    assert_eq!(setups.len(), 1, "one chain_setup span per chain");
    assert!(
        setups[0].duration_ns().unwrap_or(0) > 0,
        "chain setup takes virtual time"
    );
    assert!(setups[0].parent.is_some(), "chain_setup nests under deploy");
    assert_eq!(esc.tracer().finished("deploy").count(), 1);
    assert_eq!(esc.tracer().finished("mapping").count(), 1);
    assert_eq!(esc.tracer().depth(), 0, "all spans closed");
    assert_eq!(
        snap.counter("span.count", &[("span", "chain_setup")])
            .unwrap_or(0),
        1,
        "span counter matches trace"
    );

    // Both expositions carry all four crates' series.
    let prom = snap.prometheus();
    for prefix in ["netem_", "pox_", "orch_", "escape_", "netconf_"] {
        assert!(
            prom.contains(prefix),
            "prometheus text has {prefix}* series"
        );
    }
    let json = snap.to_json();
    assert!(json.contains("pox.flow_mods") && json.contains("orch.mapping_attempts"));

    // Further activity moves the counters on.
    esc.start_udp("sap0", "sap1", 128, 200, 5).unwrap();
    esc.run_for_ms(20);
    assert!(
        esc.telemetry().counter_total("netem.frames_delivered")
            > snap.counter_total("netem.frames_delivered"),
        "new frames are counted"
    );
}
