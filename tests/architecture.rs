//! Experiment F1: Figure 1 — "The main components of ESCAPE with the
//! corresponding UNIFY architecture layers."
//!
//! This test brings up every component of the figure in one environment
//! and asserts the layer inventory is live:
//!
//! * Service layer — service graph (SG editor stand-in), SLA
//!   requirements, VNF catalog;
//! * Orchestration layer — resource view, mapping algorithm, NETCONF
//!   client, traffic steering;
//! * Infrastructure layer — Mininet-role emulator: OpenFlow switches,
//!   VNF containers (Click + NETCONF agent), SAPs, dedicated control
//!   network.

use escape::container::VnfContainer;
use escape::env::Escape;
use escape_catalog::Catalog;
use escape_netconf::{vnf_starter, XmlElement};
use escape_orch::NearestNeighbor;
use escape_pox::{Controller, SteeringMode};
use escape_sg::topo::builders;
use escape_sg::ServiceGraph;

#[test]
fn figure1_all_layers_present_and_live() {
    // ---------- Infrastructure layer ----------
    let topo = builders::linear(3, 4.0);
    let n_switches = topo.switches().count();
    let n_containers = topo.containers().count();
    let n_saps = topo.saps().count();
    let mut esc =
        Escape::build(topo, Box::new(NearestNeighbor), SteeringMode::Proactive, 99).unwrap();

    // Switches handshaked with the controller over the control network.
    let ctl = esc.sim.node_as::<Controller>(esc.infra.controller).unwrap();
    assert_eq!(
        ctl.connected_dpids().len(),
        n_switches,
        "OpenFlow switches up"
    );
    // The controller runs the traffic steering app (POX role).
    assert_eq!(
        ctl.steering().mode,
        SteeringMode::Proactive,
        "traffic steering app"
    );
    // Containers expose NETCONF agents speaking vnf_starter (OpenYuma role).
    assert_eq!(esc.infra.netconf_conn.len(), n_containers, "NETCONF agents");
    let module = vnf_starter::module();
    for rpc in [
        "initiateVNF",
        "startVNF",
        "stopVNF",
        "connectVNF",
        "disconnectVNF",
        "getVNFInfo",
    ] {
        assert!(module.rpc(rpc).is_some(), "vnf_starter rpc {rpc}");
    }
    assert!(
        module
            .validate_rpc_input("startVNF", &XmlElement::new("startVNF"))
            .is_err(),
        "YANG data model checks RPC input"
    );
    assert_eq!(esc.infra.sap_addr.len(), n_saps, "SAPs addressable");

    // ---------- Service layer ----------
    // VNF catalog ("a built-in set of useful VNFs implemented in Click").
    let catalog = Catalog::standard();
    assert!(catalog.names().len() >= 10, "VNF catalog stocked");
    // A service graph with an SLA-ish requirement (delay budget).
    let sg = ServiceGraph::new()
        .sap("sap0")
        .sap("sap1")
        .vnf("fw", "firewall", 1.0, 128)
        .with_params(&[("rules", "allow all")])
        .chain("svc", &["sap0", "fw", "sap1"], 25.0, Some(50_000));
    sg.validate().unwrap();

    // ---------- Orchestration layer ----------
    assert_eq!(esc.orchestrator().algorithm_name(), "nearest_neighbor");
    assert!(
        esc.orchestrator().state().total_free_cpu() > 0.0,
        "global resource view"
    );
    let report = esc.deploy(&sg).unwrap();
    assert_eq!(report.chains.len(), 1);
    assert!(
        report.chains[0].mapping.total_delay_us <= 50_000,
        "SLA delay budget honoured by the mapping"
    );

    // The deployed VNF is a real Click router inside a container.
    let dc = esc.deployed("svc").unwrap().clone();
    let vnf = &dc.vnfs[0];
    let cnode = esc.infra.node(&vnf.container).unwrap();
    let container = esc.sim.node_as::<VnfContainer>(cnode).unwrap();
    let idx = container.host().vnf_index(&vnf.vnf_id).unwrap();
    let slot = &container.host().vnfs[idx];
    assert_eq!(slot.vnf_type, "firewall");
    assert!(
        slot.router.element_names().iter().any(|n| n == "fw"),
        "Click element graph instantiated: {:?}",
        slot.router.element_names()
    );

    // And the whole stack moves packets.
    esc.start_udp("sap0", "sap1", 100, 500, 5).unwrap();
    esc.run_for_ms(50);
    assert_eq!(esc.sap_stats("sap1").unwrap().udp_rx, 5);

    // Print the layer inventory (the figure, in text).
    println!(
        "┌─ Service layer ──────── SG editor (DSL/JSON), catalog ({} VNFs), SLAs",
        catalog.names().len()
    );
    println!(
        "├─ Orchestration layer ── {} mapping, NETCONF client, steering",
        esc.orchestrator().algorithm_name()
    );
    println!(
        "└─ Infrastructure layer ─ {} switches (OF 1.0), {} containers (Click+NETCONF), {} SAPs",
        n_switches, n_containers, n_saps
    );
}
