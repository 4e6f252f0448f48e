//! Multi-domain orchestration, end to end: hierarchical mapping,
//! parallel per-domain simulation with deterministic gateway handoff,
//! cross-domain SLA-relevant latency, per-domain telemetry, and global
//! re-stitching around gateway failures.
//!
//! The headline assertion is the determinism witness: a cross-domain
//! chain over three domains yields identical embeddings and a
//! byte-identical merged flight-recorder trace across repeated runs
//! *and* across worker-thread counts.
//!
//! That witness compares runs inside one build, so a change that moves
//! behaviour the same way at every worker count passes it. The corpus
//! in `domains.txt` pins two scripted runs across builds: on a mismatch
//! the current corpus is written to `target/tmp/witness/tests/domains.txt`,
//! which `scripts/rerecord.sh` copies over.

use escape::{EscapeError, JournalKind, MultiDomainEscape};
use escape_domain::DomainSpec;
use escape_pox::SteeringMode;
use escape_sg::{ResourceTopology, ServiceGraph};
use escape_witness::fnv1a;
use std::fmt::Write as _;

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
    let mut md = MultiDomainEscape::build(
        &topo,
        &spec,
        "first_fit",
        SteeringMode::Proactive,
        42,
        workers,
    )
    .unwrap();
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
        MultiDomainEscape::build(&topo, &spec, "first_fit", SteeringMode::Proactive, 42, 1)
            .unwrap();
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
        MultiDomainEscape::build(&topo, &spec, "first_fit", SteeringMode::Proactive, 7, 2).unwrap();
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

/// One firewall chain across the diamond, `sap0` to `sap3`.
fn diamond_sg(chain: &str, vnf: &str) -> ServiceGraph {
    ServiceGraph::new()
        .sap("sap0")
        .sap("sap3")
        .vnf(vnf, "firewall", 1.0, 256)
        .chain(chain, &["sap0", vnf, "sap3"], 20.0, None)
}

#[test]
fn gateway_failure_triggers_global_restitch() {
    let (topo, spec) = diamond();
    let mut md =
        MultiDomainEscape::build(&topo, &spec, "first_fit", SteeringMode::Proactive, 11, 2)
            .unwrap();
    md.deploy(&diamond_sg("c1", "fw")).unwrap();
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
    let mut md =
        MultiDomainEscape::build(&t, &spec, "first_fit", SteeringMode::Proactive, 5, 2).unwrap();
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

/// One corpus block: the embedding and event traces in full, the sink
/// SAP's stats, and hashes of the merged flight trace and of the merged
/// metrics outside `wallclock.*`.
fn witness(tag: &str, md: &MultiDomainEscape, sink: &str) -> String {
    let mut out = format!("## {tag}\n{}", md.embedding_trace());
    for line in md.event_trace() {
        writeln!(out, "event {line}").expect("writing to a String");
    }
    let metrics: String = md
        .metrics()
        .prometheus()
        .lines()
        .filter(|l| !l.contains("wallclock_"))
        .map(|l| format!("{l}\n"))
        .collect();
    writeln!(
        out,
        "sink {sink} {:?}\nflight={:016x} metrics={:016x}",
        md.sap_stats(sink).expect("the sink SAP"),
        fnv1a(md.merged_flight_trace().as_bytes()),
        fnv1a(metrics.as_bytes()),
    )
    .expect("writing to a String");
    out
}

/// Run A: the spill chain across linear3, 20 frames, 60 ms.
fn corpus_linear3() -> String {
    let (topo, spec) = linear3();
    let mut md =
        MultiDomainEscape::build(&topo, &spec, "first_fit", SteeringMode::Proactive, 42, 2)
            .unwrap();
    md.enable_flight_recorder(4096);
    md.deploy(&spill_sg()).unwrap();
    md.start_chain_udp("c1", 128, 200, BURST).unwrap();
    md.run_for_ms(60);
    witness("A linear3 seed=42 first_fit", &md, "sap2")
}

/// Run B: a chain re-stitched around a failed gateway carries traffic;
/// once the gateway is back a new chain takes the cheap route again;
/// then the first chain is torn down.
fn corpus_diamond() -> String {
    let (topo, spec) = diamond();
    let mut md =
        MultiDomainEscape::build(&topo, &spec, "first_fit", SteeringMode::Proactive, 11, 2)
            .unwrap();
    md.enable_flight_recorder(4096);
    md.deploy(&diamond_sg("c1", "fw")).unwrap();
    md.fail_gateway(0).unwrap();
    md.start_chain_udp("c1", 128, 200, BURST).unwrap();
    md.run_for_ms(60);
    md.restore_gateway(0).unwrap();
    md.deploy(&diamond_sg("c2", "fw2")).unwrap();
    assert_eq!(
        md.plan("c2").unwrap().domain_path,
        vec!["d0", "d1", "d3"],
        "a restored gateway carries new chains again"
    );
    md.teardown("c1").unwrap();
    md.run_for_ms(10);
    witness("B diamond seed=11 first_fit", &md, "sap3")
}

#[test]
fn multi_domain_corpus_is_unchanged() {
    escape_witness::corpus!("domains.txt").check(&(corpus_linear3() + &corpus_diamond()));
}

#[test]
fn teardown_keeps_the_plan_until_every_leg_is_down() {
    use escape_netem::{FaultKind, FaultPlan};
    let (topo, spec) = linear3();
    let mut md =
        MultiDomainEscape::build(&topo, &spec, "first_fit", SteeringMode::Proactive, 42, 1)
            .unwrap();
    md.deploy(&spill_sg()).unwrap();
    // Stall d1's container, which hosts f3, past the RPC retry budget.
    let stall = FaultPlan::new("stall").at_ms(
        0,
        FaultKind::VnfStall {
            node: "c1".into(),
            for_us: 900_000,
        },
    );
    md.domain_escape_mut("d1")
        .unwrap()
        .load_fault_plan(&stall)
        .unwrap();
    md.run_for_ms(1);

    // d0's leg comes down, d1's times out: the chain is half torn down,
    // and the plan stays so the teardown can be retried.
    let err = md.teardown("c1").unwrap_err();
    assert!(matches!(err, EscapeError::RpcTimeout { .. }), "{err}");
    assert!(md.plan("c1").is_some(), "the plan outlives a failed leg");

    // Neither a gateway fault nor the heal sweep re-stitches a chain
    // that is being removed.
    md.fail_gateway(0).unwrap();
    md.run_for_ms(900);
    assert!(
        md.plan("c1").is_some(),
        "a half-removed chain was re-stitched"
    );
    assert!(
        !md.journal()
            .entries()
            .any(|e| e.kind == JournalKind::HealEscalated),
        "the heal sweep escalated a half-removed chain"
    );
    md.restore_gateway(0).unwrap();

    // After the stall the retry skips d0 and finishes the rest.
    md.teardown("c1").unwrap();
    assert!(md.plan("c1").is_none());
    for d in ["d0", "d1", "d2"] {
        let esc = md.domain_escape(d).unwrap();
        assert!(esc.deployed("c1").is_none(), "{d} still holds c1");
        assert_eq!(esc.check_invariants(), Vec::<String>::new(), "{d}");
    }
    // The global view gave d0's CPU back: f1 and f2 fit there again.
    md.deploy(&spill_sg()).unwrap();
    assert_eq!(md.plan("c1").unwrap().legs[0].vnfs, vec!["f1", "f2"]);
}

/// The state a removal that met a stalled agent must end in once the
/// stall is over: every domain's invariants hold, and a domain holds
/// `chain` only where its plan (if any) puts a leg.
fn assert_settled(md: &MultiDomainEscape, chain: &str) {
    let path = md
        .plan(chain)
        .map_or_else(Vec::new, |p| p.domain_path.clone());
    for d in &md.partition().domains {
        let esc = md.domain_escape(&d.name).unwrap();
        assert_eq!(esc.check_invariants(), Vec::<String>::new(), "{}", d.name);
        assert!(
            esc.deployed(chain).is_none() || path.contains(&d.name),
            "{} holds {chain} outside its plan",
            d.name
        );
    }
}

/// The spill chain with `f3` asking for `f3_mem` MB: the global view
/// counts CPU only, so d1's own orchestrator is the one to refuse f3
/// when its container (2 048 MB) is too small.
fn spill_sg_with_f3_mem(f3_mem: u64) -> ServiceGraph {
    ServiceGraph::new()
        .sap("sap0")
        .sap("sap2")
        .vnf("f1", "firewall", 1.5, 256)
        .vnf("f2", "monitor", 1.5, 256)
        .vnf("f3", "firewall", 1.5, f3_mem)
        .chain("c1", &["sap0", "f1", "f2", "f3", "sap2"], 50.0, None)
}

#[test]
fn a_restitch_keeps_the_plan_while_a_leg_is_stalled() {
    use escape_netem::{FaultKind, FaultPlan};
    let (topo, spec) = diamond();
    let mut md =
        MultiDomainEscape::build(&topo, &spec, "first_fit", SteeringMode::Proactive, 11, 1)
            .unwrap();
    // f1 fills d0, so f2 spills into d1 on the cheap route.
    let sg = ServiceGraph::new()
        .sap("sap0")
        .sap("sap3")
        .vnf("f1", "firewall", 3.5, 256)
        .vnf("f2", "monitor", 3.5, 256)
        .chain("c1", &["sap0", "f1", "f2", "sap3"], 20.0, None);
    md.deploy(&sg).unwrap();
    let plan = md.plan("c1").unwrap();
    assert_eq!(plan.domain_path, vec!["d0", "d1", "d3"]);
    assert_eq!(plan.legs[1].vnfs, vec!["f2"]);
    // Stall d1's container, which hosts f2, past the RPC retry budget.
    let stall = FaultPlan::new("stall").at_ms(
        0,
        FaultKind::VnfStall {
            node: "c1".into(),
            for_us: 900_000,
        },
    );
    md.domain_escape_mut("d1")
        .unwrap()
        .load_fault_plan(&stall)
        .unwrap();
    md.run_for_ms(1);

    // The re-stitch takes d0's and d3's legs down, d1's stays up: the
    // plan stays on its old route, and so does the chain's graph.
    md.fail_gateway(0).unwrap();
    assert_eq!(md.plan("c1").unwrap().domain_path, vec!["d0", "d1", "d3"]);
    assert!(md.domain_escape("d1").unwrap().deployed("c1").is_some());
    assert!(md.domain_escape("d0").unwrap().deployed("c1").is_none());
    assert_eq!(
        md.metrics()
            .counter("domains.restitches", &[("domain", "global")]),
        None
    );

    // The heal sweep retries every epoch; once the stall is over, d1's
    // leg comes down and the chain is re-stitched around the gateway.
    md.run_for_ms(1000);
    assert_eq!(md.plan("c1").unwrap().domain_path, vec!["d0", "d2", "d3"]);
    assert_settled(&md, "c1");
    assert!(md.domain_escape("d1").unwrap().deployed("c1").is_none());
    assert_eq!(
        md.metrics()
            .counter("domains.restitches", &[("domain", "global")]),
        Some(1)
    );
    md.start_chain_udp("c1", 128, 200, BURST).unwrap();
    md.run_for_ms(60);
    assert_eq!(md.sap_stats("sap3").unwrap().udp_rx, BURST);

    // The global view gave d1's CPU back: with the gateway restored, a
    // VNF that no longer fits in d0 lands in d1 again, not in d3.
    md.restore_gateway(0).unwrap();
    md.deploy(&diamond_sg("c2", "g")).unwrap();
    let plan = md.plan("c2").unwrap();
    assert_eq!(plan.domain_path, vec!["d0", "d1", "d3"]);
    assert_eq!(plan.legs[1].vnfs, vec!["g"]);
}

#[test]
fn a_restitch_with_every_leg_stalled_is_retried_off_the_failed_gateway() {
    use escape_netem::{FaultKind, FaultPlan};
    let (topo, spec) = diamond();
    let mut md =
        MultiDomainEscape::build(&topo, &spec, "first_fit", SteeringMode::Proactive, 11, 1)
            .unwrap();
    // Each VNF fills its domain, so the cheap route puts one in each of
    // d0, d1 and d3.
    let sg = ServiceGraph::new()
        .sap("sap0")
        .sap("sap3")
        .vnf("f1", "firewall", 3.5, 256)
        .vnf("f2", "monitor", 3.5, 256)
        .vnf("f3", "firewall", 3.5, 256)
        .chain("c1", &["sap0", "f1", "f2", "f3", "sap3"], 20.0, None);
    md.deploy(&sg).unwrap();
    let plan = md.plan("c1").unwrap();
    assert_eq!(plan.domain_path, vec!["d0", "d1", "d3"]);
    assert!(plan.gateways().contains(&0));
    // Stall every container that hosts a VNF past the RPC retry budget.
    for (domain, node) in [("d0", "c0"), ("d1", "c1"), ("d3", "c3")] {
        let stall = FaultPlan::new("stall").at_ms(
            0,
            FaultKind::VnfStall {
                node: node.into(),
                for_us: 900_000,
            },
        );
        md.domain_escape_mut(domain)
            .unwrap()
            .load_fault_plan(&stall)
            .unwrap();
    }
    md.run_for_ms(1);

    // The re-stitch takes no leg down: every leg stays up, and so does
    // the plan over the failed gateway.
    md.fail_gateway(0).unwrap();
    assert_eq!(md.plan("c1").unwrap().domain_path, vec!["d0", "d1", "d3"]);

    // The sweep retries a plan that crosses a failed gateway, so once
    // the stalls are over the chain is re-stitched around it.
    md.run_for_ms(1500);
    let plan = md.plan("c1").unwrap();
    assert_eq!(plan.domain_path, vec!["d0", "d2", "d3"]);
    assert!(!plan.gateways().contains(&0));
    assert_settled(&md, "c1");
    assert!(md.domain_escape("d1").unwrap().deployed("c1").is_none());
}

#[test]
fn a_rollback_that_meets_a_stalled_leg_leaves_the_plan_to_teardown() {
    use escape_netem::{FaultEvent, FaultKind, FaultPlan};
    let (topo, spec) = linear3();
    let build = || {
        MultiDomainEscape::build(&topo, &spec, "first_fit", SteeringMode::Proactive, 42, 1).unwrap()
    };
    // The instant d0's leg is up, read from a run whose d1 accepts f3.
    let mut probe = build();
    probe.deploy(&spill_sg()).unwrap();
    let up_at_ns = probe
        .domain_escape("d0")
        .unwrap()
        .journal()
        .entries()
        .find(|e| e.kind == JournalKind::DeployCommitted)
        .unwrap()
        .at_ns;

    // Stall d0's container, which hosts f1 and f2, from that instant
    // (a plan's times count from its loading): the leg deploys, and the
    // rollback's teardown meets the stall.
    let mut md = build();
    let loaded_at_ns = md.domain_escape("d0").unwrap().now().as_ns();
    let stall = FaultPlan {
        name: "stall".into(),
        events: vec![FaultEvent {
            at_us: (up_at_ns - loaded_at_ns).div_ceil(1000),
            kind: FaultKind::VnfStall {
                node: "c0".into(),
                for_us: 900_000,
            },
        }],
    };
    md.domain_escape_mut("d0")
        .unwrap()
        .load_fault_plan(&stall)
        .unwrap();
    let err = md.deploy(&spill_sg_with_f3_mem(4096)).unwrap_err();
    let EscapeError::DeployFailed {
        cause, rollback, ..
    } = &err
    else {
        panic!("a rollback that left a leg up is a failed deploy: {err}");
    };
    assert!(matches!(**cause, EscapeError::MappingFailed(_)), "{err}");
    assert!(!rollback.complete(), "{err}");
    assert_eq!(rollback.steps.len(), 1, "{err}");
    assert_eq!(rollback.steps[0].target, "c1 in d0", "{err}");

    // The plan stays, without a graph: the heal sweep leaves the chain
    // to the teardown that finishes it.
    assert!(md.plan("c1").is_some(), "the plan outlives a stalled leg");
    assert!(md.domain_escape("d0").unwrap().deployed("c1").is_some());
    md.run_for_ms(900);
    assert!(
        !md.journal()
            .entries()
            .any(|e| e.kind == JournalKind::HealEscalated),
        "the heal sweep escalated a chain being removed"
    );
    md.teardown("c1").unwrap();
    assert!(md.plan("c1").is_none());
    assert_settled(&md, "c1");
    // The global view gave d0's CPU back: f1 and f2 fit there again.
    md.deploy(&spill_sg()).unwrap();
    assert_eq!(md.plan("c1").unwrap().legs[0].vnfs, vec!["f1", "f2"]);
}

/// Pods on E9's line, cut from eight.
const PODS: usize = 4;

/// E9's substrate cut to [`PODS`] pods: pod i is
/// `sap{i}/xsap{i} - s{i} - c{i}`, and the `s{i}-s{i+1}` trunks become
/// gateway links once the line is partitioned.
fn pod_line() -> ResourceTopology {
    let mut topo = ResourceTopology::new();
    for i in 0..PODS {
        topo.add_switch(format!("s{i}"))
            .add_container(format!("c{i}"), 4.0, 2048)
            .add_sap(format!("sap{i}"))
            .add_sap(format!("xsap{i}"))
            .add_link(format!("sap{i}"), format!("s{i}"), 1000.0, 10)
            .add_link(format!("xsap{i}"), format!("s{i}"), 1000.0, 10)
            .add_link(format!("c{i}"), format!("s{i}"), 1000.0, 20);
        if i > 0 {
            topo.add_link(format!("s{}", i - 1), format!("s{i}"), 1000.0, 200);
        }
    }
    topo
}

/// Groups the pods into `n` equal contiguous domains.
fn pod_domains(n: usize) -> DomainSpec {
    let per = PODS / n;
    (0..n).fold(DomainSpec::new(), |spec, d| {
        let nodes: Vec<String> = (d * per..(d + 1) * per)
            .flat_map(|i| {
                [
                    format!("sap{i}"),
                    format!("xsap{i}"),
                    format!("s{i}"),
                    format!("c{i}"),
                ]
            })
            .collect();
        let refs: Vec<&str> = nodes.iter().map(String::as_str).collect();
        spec.domain(&format!("d{d}"), &refs)
    })
}

/// E9's workload, cut down: a local chain inside every pod plus a chain
/// from each odd pod to the pod half the line away. Each entry is the
/// graph, its chain, the sink SAP, the frame count and the interval.
fn pod_workload() -> Vec<(ServiceGraph, String, String, u64, u64)> {
    let mut jobs = Vec::new();
    for k in 0..PODS {
        let (from, to, v) = (format!("sap{k}"), format!("xsap{k}"), format!("v{k}"));
        let name = format!("local_{k}");
        let sg = ServiceGraph::new()
            .sap(&from)
            .sap(&to)
            .vnf(&v, "monitor", 1.0, 64)
            .chain(&name, &[&from, &v, &to], 50.0, None);
        jobs.push((sg, name, to, 200, 20));
    }
    for k in (1..PODS).step_by(2) {
        let (from, to) = (format!("sap{k}"), format!("sap{}", (k + PODS / 2) % PODS));
        let (a, b, name) = (format!("x{k}a"), format!("x{k}b"), format!("cross_{k}"));
        let sg = ServiceGraph::new()
            .sap(&from)
            .sap(&to)
            .vnf(&a, "monitor", 1.0, 64)
            .vnf(&b, "firewall", 1.0, 64)
            .chain(&name, &[&from, &a, &b, &to], 20.0, None);
        jobs.push((sg, name, to, 100, 50));
    }
    jobs
}

#[test]
fn delivery_depends_on_neither_partitioning_nor_workers() {
    let jobs = pod_workload();
    let sent: u64 = jobs.iter().map(|job| job.3).sum();
    for domains in [2, 4] {
        for workers in [1, 2] {
            let mut md = MultiDomainEscape::build(
                &pod_line(),
                &pod_domains(domains),
                "nearest",
                SteeringMode::Proactive,
                7,
                workers,
            )
            .unwrap();
            for (sg, name, ..) in &jobs {
                md.deploy(sg)
                    .unwrap_or_else(|e| panic!("{name} maps at {domains} domains: {e}"));
            }
            for (_, name, _, frames, interval_us) in &jobs {
                md.start_chain_udp(name, 128, *interval_us, *frames)
                    .unwrap();
            }
            md.run_for_ms(20);
            let delivered: u64 = jobs
                .iter()
                .map(|(_, _, sink, ..)| md.sap_stats(sink).unwrap().udp_rx)
                .sum();
            assert_eq!(delivered, sent, "{domains} domains, {workers} workers");
        }
    }
}
