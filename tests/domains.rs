//! Multi-domain orchestration, end to end: hierarchical mapping,
//! parallel per-domain simulation with deterministic gateway handoff,
//! cross-domain SLA-relevant latency, per-domain telemetry, and global
//! re-stitching around gateway failures.
//!
//! The headline assertion is the determinism witness: a cross-domain
//! chain over three domains yields identical embeddings and a
//! byte-identical merged flight-recorder trace across repeated runs
//! *and* across worker-thread counts.

use escape::env::Escape;
use escape::JournalKind;
use escape_domain::DomainSpec;
use escape_orch::{GreedyFirstFit, MappingAlgorithm};
use escape_pox::SteeringMode;
use escape_sg::{ResourceTopology, ServiceGraph};

fn greedy() -> Box<dyn MappingAlgorithm> {
    Box::new(GreedyFirstFit)
}

/// Three domains in a line:
/// `sap0 - s0(c0) -[300us]- s1(c1) -[400us]- s2(c2) - sap2`.
fn linear3() -> (ResourceTopology, DomainSpec) {
    let mut t = ResourceTopology::new();
    t.add_sap("sap0")
        .add_switch("s0")
        .add_container("c0", 4.0, 2048)
        .add_switch("s1")
        .add_container("c1", 4.0, 2048)
        .add_switch("s2")
        .add_container("c2", 4.0, 2048)
        .add_sap("sap2")
        .add_link("sap0", "s0", 1000.0, 10)
        .add_link("c0", "s0", 1000.0, 20)
        .add_link("s0", "s1", 1000.0, 300)
        .add_link("c1", "s1", 1000.0, 20)
        .add_link("s1", "s2", 1000.0, 400)
        .add_link("c2", "s2", 1000.0, 20)
        .add_link("sap2", "s2", 1000.0, 10);
    let spec = DomainSpec::new()
        .domain("d0", &["sap0", "s0", "c0"])
        .domain("d1", &["s1", "c1"])
        .domain("d2", &["s2", "c2", "sap2"]);
    (t, spec)
}

/// A chain whose three VNFs spill over two domains (4 CPU per domain,
/// 1.5 CPU per VNF: f1+f2 land in d0, f3 in d1, d2 is transit+exit).
fn spill_sg() -> ServiceGraph {
    ServiceGraph::new()
        .sap("sap0")
        .sap("sap2")
        .vnf("f1", "firewall", 1.5, 256)
        .vnf("f2", "monitor", 1.5, 256)
        .vnf("f3", "firewall", 1.5, 256)
        .chain("c1", &["sap0", "f1", "f2", "f3", "sap2"], 50.0, None)
}

const BURST: u64 = 20;

/// One full run at the given worker count; returns the witnesses.
fn run_linear3(workers: usize) -> (String, String, Vec<String>, u64) {
    let (topo, spec) = linear3();
    let mut md =
        Escape::with_domains(&topo, &spec, &greedy, SteeringMode::Proactive, 42, workers).unwrap();
    md.enable_flight_recorder(4096);
    md.deploy(&spill_sg()).unwrap();
    md.start_chain_udp("c1", 128, 200, BURST).unwrap();
    md.run_for_ms(60);
    let rx = md.sap_stats("sap2").unwrap().udp_rx;
    (
        md.embedding_trace(),
        md.merged_flight_trace(),
        md.event_trace(),
        rx,
    )
}

#[test]
fn three_domain_chain_delivers_end_to_end() {
    let (topo, spec) = linear3();
    let mut md =
        Escape::with_domains(&topo, &spec, &greedy, SteeringMode::Proactive, 42, 1).unwrap();
    md.deploy(&spill_sg()).unwrap();

    // The hierarchical split: VNFs greedily fill d0, spill into d1.
    let plan = md.plan("c1").unwrap();
    assert_eq!(plan.domain_path, vec!["d0", "d1", "d2"]);
    assert_eq!(plan.legs[0].vnfs, vec!["f1", "f2"]);
    assert_eq!(plan.legs[1].vnfs, vec!["f3"]);
    assert!(plan.legs[2].vnfs.is_empty());
    assert_eq!(plan.inter_domain_us, 700);

    md.start_chain_udp("c1", 128, 200, BURST).unwrap();
    md.run_for_ms(60);
    assert_eq!(md.sap_stats("sap2").unwrap().udp_rx, BURST);
    // Gateway SAPs buffered and forwarded rather than consuming.
    let m = md.metrics();
    assert_eq!(
        m.counter("domains.handoffs", &[("domain", "global"), ("from", "d0")]),
        Some(BURST)
    );
    assert_eq!(
        m.counter("domains.handoffs", &[("domain", "global"), ("from", "d1")]),
        Some(BURST)
    );
}

#[test]
fn determinism_across_runs_and_worker_counts() {
    let (embed1, flight1, events1, rx1) = run_linear3(1);
    assert_eq!(rx1, BURST);
    assert!(!flight1.is_empty(), "flight recorder captured journeys");
    for workers in [1, 2, 4] {
        let (embed, flight, events, rx) = run_linear3(workers);
        assert_eq!(rx, BURST, "workers={workers}");
        assert_eq!(embed, embed1, "embedding differs at workers={workers}");
        assert_eq!(flight, flight1, "flight trace differs at workers={workers}");
        assert_eq!(events, events1, "event trace differs at workers={workers}");
    }
}

#[test]
fn per_domain_telemetry_labels() {
    let (topo, spec) = linear3();
    let mut md =
        Escape::with_domains(&topo, &spec, &greedy, SteeringMode::Proactive, 7, 2).unwrap();
    md.enable_flight_recorder(4096);
    md.deploy(&spill_sg()).unwrap();
    md.start_chain_udp("c1", 128, 200, BURST).unwrap();
    md.run_for_ms(60);

    let m = md.metrics();
    // Every domain deployed exactly one leg, each visible under its own
    // `domain` label in the merged snapshot.
    for d in ["d0", "d1", "d2"] {
        assert_eq!(
            m.counter("escape.chains_deployed", &[("domain", d)]),
            Some(1),
            "missing per-domain deploy counter for {d}"
        );
    }
    // Flight journeys aggregate per domain too (each leg is a journey).
    for d in ["d0", "d1", "d2"] {
        let esc = md.domain_escape(d).unwrap();
        let fr = esc.flight_record();
        assert!(
            fr.journeys.iter().any(|j| j.chain.as_deref() == Some("c1")),
            "domain {d} recorded no journeys for the stitched chain"
        );
    }
}

/// A diamond of domains: d0 reaches d3 either through d1 (cheap) or
/// through d2 (expensive). Failing the d0-d1 gateway forces a global
/// re-stitch onto the d2 route.
fn diamond() -> (ResourceTopology, DomainSpec) {
    let mut t = ResourceTopology::new();
    t.add_sap("sap0")
        .add_switch("s0")
        .add_container("c0", 4.0, 2048)
        .add_switch("s1")
        .add_container("c1", 4.0, 2048)
        .add_switch("s2")
        .add_container("c2", 4.0, 2048)
        .add_switch("s3")
        .add_container("c3", 4.0, 2048)
        .add_sap("sap3")
        .add_link("sap0", "s0", 1000.0, 10)
        .add_link("c0", "s0", 1000.0, 20)
        .add_link("s0", "s1", 1000.0, 300)
        .add_link("s1", "s3", 1000.0, 300)
        .add_link("s0", "s2", 1000.0, 500)
        .add_link("s2", "s3", 1000.0, 500)
        .add_link("c1", "s1", 1000.0, 20)
        .add_link("c2", "s2", 1000.0, 20)
        .add_link("c3", "s3", 1000.0, 20)
        .add_link("sap3", "s3", 1000.0, 10);
    let spec = DomainSpec::new()
        .domain("d0", &["sap0", "s0", "c0"])
        .domain("d1", &["s1", "c1"])
        .domain("d2", &["s2", "c2"])
        .domain("d3", &["s3", "c3", "sap3"]);
    (t, spec)
}

#[test]
fn gateway_failure_triggers_global_restitch() {
    let (topo, spec) = diamond();
    let mut md =
        Escape::with_domains(&topo, &spec, &greedy, SteeringMode::Proactive, 11, 2).unwrap();
    let sg = ServiceGraph::new()
        .sap("sap0")
        .sap("sap3")
        .vnf("fw", "firewall", 1.0, 256)
        .chain("c1", &["sap0", "fw", "sap3"], 20.0, None);
    md.deploy(&sg).unwrap();
    assert_eq!(
        md.plan("c1").unwrap().domain_path,
        vec!["d0", "d1", "d3"],
        "initial stitch takes the cheap route"
    );

    // Kill the d0-d1 gateway: both half-links drop, the global layer
    // re-plans around it and redeploys the legs.
    md.fail_gateway(0).unwrap();
    assert_eq!(md.plan("c1").unwrap().domain_path, vec!["d0", "d2", "d3"]);
    assert!(
        md.journal()
            .entries()
            .any(|e| e.kind == JournalKind::ChainRestitched),
        "re-stitch not journaled by the coordinator"
    );
    assert!(
        md.event_trace()
            .iter()
            .any(|l| l.contains("[global] info chain-restitched: chain c1 ")),
        "re-stitch not visible in the merged event trace"
    );

    // The re-stitched chain still carries traffic end to end.
    md.start_chain_udp("c1", 128, 200, BURST).unwrap();
    md.run_for_ms(60);
    assert_eq!(md.sap_stats("sap3").unwrap().udp_rx, BURST);

    // The metrics see the re-stitch under the global domain label.
    assert_eq!(
        md.metrics()
            .counter("domains.restitches", &[("domain", "global")]),
        Some(1)
    );
}

#[test]
fn intra_domain_crash_heals_locally_without_restitch() {
    // Two containers in d1 so the local orchestrator can remap the
    // crashed VNF onto the survivor without escalating.
    let mut t = ResourceTopology::new();
    t.add_sap("sap0")
        .add_switch("s0")
        .add_container("c0", 4.0, 2048)
        .add_switch("s1")
        .add_container("c1a", 4.0, 2048)
        .add_container("c1b", 4.0, 2048)
        .add_sap("sap1")
        .add_link("sap0", "s0", 1000.0, 10)
        .add_link("c0", "s0", 1000.0, 20)
        .add_link("s0", "s1", 1000.0, 300)
        .add_link("c1a", "s1", 1000.0, 20)
        .add_link("c1b", "s1", 1000.0, 20)
        .add_link("sap1", "s1", 1000.0, 10);
    let spec = DomainSpec::new()
        .domain("d0", &["sap0", "s0", "c0"])
        .domain("d1", &["s1", "c1a", "c1b", "sap1"]);
    let mut md = Escape::with_domains(&t, &spec, &greedy, SteeringMode::Proactive, 5, 2).unwrap();
    let sg = ServiceGraph::new()
        .sap("sap0")
        .sap("sap1")
        .vnf("f0", "firewall", 3.0, 256)
        .vnf("f1", "monitor", 3.0, 256)
        .chain("c1", &["sap0", "f0", "f1", "sap1"], 20.0, None);
    md.deploy(&sg).unwrap();
    // f0 fills d0 (3 of 4 cpu), f1 spills to d1 and lands on c1a.
    let plan = md.plan("c1").unwrap();
    assert_eq!(plan.legs[1].vnfs, vec!["f1"]);

    // Crash the container hosting f1 via the d1-local fault plan.
    use escape_netem::{FaultEvent, FaultKind, FaultPlan};
    let container = {
        let dc = md.domain_escape("d1").unwrap().deployed("c1").unwrap();
        dc.vnfs[0].container.clone()
    };
    assert_eq!(container, "c1a");
    // The fault is local to d1, so local recovery must handle it.
    md.domain_escape_mut("d1")
        .unwrap()
        .load_fault_plan(&FaultPlan {
            name: "crash".into(),
            events: vec![FaultEvent {
                at_us: 2_000,
                kind: FaultKind::VnfCrash { node: "c1a".into() },
            }],
        })
        .unwrap();
    md.run_for_ms(30);

    // Local remap moved f1 to the surviving container; the global plan
    // (domain path) is unchanged — no escalation.
    let d1 = md.domain_escape("d1").unwrap();
    let dc = d1.deployed("c1").expect("chain survived locally");
    assert_eq!(dc.vnfs[0].container, "c1b");
    assert_eq!(md.plan("c1").unwrap().domain_path, vec!["d0", "d1"]);
    assert_eq!(
        md.metrics()
            .counter("domains.restitches", &[("domain", "global")]),
        None,
        "no global re-stitch should have happened"
    );
    assert_eq!(
        md.metrics()
            .counter("escape.recoveries", &[("domain", "d1")]),
        Some(1)
    );

    // Traffic still flows over the healed chain.
    md.start_chain_udp("c1", 128, 200, BURST).unwrap();
    md.run_for_ms(60);
    assert_eq!(md.sap_stats("sap1").unwrap().udp_rx, BURST);
}

#[test]
fn coordinator_admission_rejects_at_hard_watermark() {
    // Fill the three domains past a low hard watermark, then verify the
    // coordinator rejects with the typed verdict instead of planning a
    // doomed cross-domain chain.
    let (topo, spec) = linear3();
    let mut md =
        Escape::with_domains(&topo, &spec, &greedy, SteeringMode::Proactive, 77, 1).unwrap();
    md.set_admission(escape::AdmissionConfig {
        soft_watermark: 0.2,
        hard_watermark: 0.3,
        max_queue: 4,
        max_retries: 3,
    });
    assert_eq!(md.cpu_utilization(), 0.0);
    md.deploy(&spill_sg()).unwrap();
    // 4.5 of 12 CPU reserved -> mean utilization 0.375 >= 0.3.
    assert!(md.cpu_utilization() >= 0.3, "{}", md.cpu_utilization());

    let more = ServiceGraph::new()
        .sap("sap0")
        .sap("sap2")
        .vnf("g1", "monitor", 0.5, 64)
        .chain("c2", &["sap0", "g1", "sap2"], 10.0, None);
    let err = md.deploy(&more).err().unwrap();
    let escape::EscapeError::Admission(escape::AdmissionVerdict::RejectedHard {
        utilization,
        hard_watermark,
    }) = err
    else {
        panic!("expected RejectedHard, got {err}");
    };
    assert!(utilization >= hard_watermark);
    assert!(
        md.journal()
            .entries()
            .any(|e| e.kind == JournalKind::AdmissionRejected),
        "trace: {:#?}",
        md.event_trace()
    );

    // Freeing the chain reopens admission.
    md.teardown("c1").unwrap();
    md.deploy(&more).unwrap();
}
