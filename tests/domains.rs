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
//! the current corpus is written to the target tmp dir as
//! `domains.actual.txt`, ready to diff or copy over.

use escape::{EscapeError, JournalKind, MultiDomainEscape};
use escape_domain::DomainSpec;
use escape_pox::SteeringMode;
use escape_sg::{ResourceTopology, ServiceGraph};
use std::fmt::Write as _;
use std::path::PathBuf;

const CORPUS: &str = include_str!("domains.txt");

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

/// FNV-1a, 64 bit: no dependency, and the same on every toolchain.
fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
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
        fnv(&md.merged_flight_trace()),
        fnv(&metrics),
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
    let actual = corpus_linear3() + &corpus_diamond();
    if actual == CORPUS {
        return;
    }
    let first = actual
        .lines()
        .zip(CORPUS.lines())
        .position(|(x, y)| x != y)
        .map_or_else(
            || "a missing or extra line".to_string(),
            |i| format!("line {}", i + 1),
        );
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("domains.actual.txt");
    std::fs::write(&path, &actual).expect("writing the actual corpus");
    panic!(
        "multi-domain runs differ from tests/domains.txt, first at {first}; \
         current corpus written to {}",
        path.display()
    );
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
