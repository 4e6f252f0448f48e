//! Figure 1 walk: brings up every ESCAPE component and prints the
//! architecture with live evidence for each box (experiment F1).
//!
//! ```sh
//! cargo run --example architecture
//! ```

use escape::env::Escape;
use escape_catalog::Catalog;
use escape_netconf::vnf_starter;
use escape_orch::NearestNeighbor;
use escape_pox::{Controller, SteeringMode};
use escape_sg::topo::builders;
use escape_sg::ServiceGraph;

fn main() {
    let topo = builders::linear(3, 4.0);
    let mut esc =
        Escape::build(topo, Box::new(NearestNeighbor), SteeringMode::Proactive, 1).unwrap();
    let sg = ServiceGraph::new()
        .sap("sap0")
        .sap("sap1")
        .vnf("fw", "firewall", 1.0, 128)
        .with_params(&[("rules", "allow all")])
        .vnf("mon", "monitor", 0.5, 64)
        .chain("svc", &["sap0", "fw", "mon", "sap1"], 25.0, Some(50_000));
    let report = esc.deploy(&sg).unwrap();
    esc.start_udp("sap0", "sap1", 128, 500, 10).unwrap();
    esc.run_for_ms(50);

    let catalog = Catalog::standard();
    let module = vnf_starter::module();
    let n_sw = esc.topology().switches().count();
    let n_c = esc.topology().containers().count();
    let n_sap = esc.topology().saps().count();
    let ctl_stats = esc
        .sim
        .node_as::<Controller>(esc.infra.controller)
        .unwrap()
        .stats();
    let steering = esc
        .sim
        .node_as::<Controller>(esc.infra.controller)
        .unwrap()
        .steering()
        .proactive_installs();

    println!("┌──────────────────────────── SERVICE LAYER ────────────────────────────┐");
    println!("│ SG editor stand-ins: DSL + JSON                                       │");
    println!(
        "│ VNF catalog: {:2} Click-implemented types                               │",
        catalog.names().len()
    );
    println!("│   {}", catalog.names().join(", "));
    println!(
        "│ SLA: chain 'svc' delay budget 50 ms -> mapped at {:6} µs             │",
        report.chains[0].mapping.total_delay_us
    );
    println!("├───────────────────────── ORCHESTRATION LAYER ─────────────────────────┤");
    println!(
        "│ mapping algorithm: {} (pluggable)                       │",
        esc.orchestrator().algorithm_name()
    );
    println!(
        "│ resource view: {:4.1} CPU cores free after embedding                    │",
        esc.orchestrator().state().total_free_cpu()
    );
    println!(
        "│ NETCONF client: {} RPC module '{}'                          │",
        module.rpcs.len(),
        module.name
    );
    println!(
        "│ traffic steering: {} proactive flow rules installed                    │",
        steering
    );
    println!("├───────────────────────── INFRASTRUCTURE LAYER ────────────────────────┤");
    println!(
        "│ emulated network: {} OpenFlow switches, {} VNF containers, {} SAPs      │",
        n_sw, n_c, n_sap
    );
    println!(
        "│ control network: {} OpenFlow connections up, {} flow-mods sent         │",
        ctl_stats.connections_up, ctl_stats.flow_mods_sent
    );
    println!(
        "│ dataplane: {} frames forwarded, {} events simulated               │",
        esc.sim.stats().frames_delivered,
        esc.sim.stats().events
    );
    println!("└────────────────────────────────────────────────────────────────────────┘");

    let rx = esc.sap_stats("sap1").unwrap().udp_rx;
    println!("\nproof of life: {rx}/10 frames crossed the deployed chain.");
    assert_eq!(rx, 10);

    let rpcs: Vec<&str> = module.rpcs.iter().map(|r| r.name.as_str()).collect();
    println!("\nvnf_starter RPCs (input checked against the YANG-lite schema):");
    println!("  {}", rpcs.join(", "));
}
