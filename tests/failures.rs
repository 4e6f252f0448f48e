//! Failure injection across the stack: link loss, link down, VNF death,
//! agent death, resource exhaustion under churn.

use escape::container::VnfContainer;
use escape::env::Escape;
use escape::{DeployPhase, EscapeError, JournalKind, RollbackReport};
use escape_netconf::VnfInstrumentation;
use escape_netem::LinkState;
use escape_openflow::Match;
use escape_orch::{GreedyFirstFit, NearestNeighbor};
use escape_pox::{Controller, SteeringMode, SteeringRule};
use escape_sg::topo::builders;
use escape_sg::ServiceGraph;

/// A rollback as its ordered `(action, target, ok)` list.
fn steps(r: &RollbackReport) -> Vec<(&'static str, &str, bool)> {
    r.steps
        .iter()
        .map(|s| (s.action, s.target.as_str(), s.ok))
        .collect()
}

/// Parks a rule for a datapath that never connects in the controller's
/// live queue: every later flush leaves it pending, so the next wait
/// for steering runs into its deadline.
fn jam_steering(esc: &mut Escape) {
    esc.sim
        .node_as_mut::<Controller>(esc.infra.controller)
        .unwrap()
        .steering_mut()
        .queue_rules(vec![SteeringRule {
            dpid: 0xdead,
            match_: Match::any(),
            priority: 1,
            actions: Vec::new(),
            chain_id: 0,
        }]);
}

fn sg() -> ServiceGraph {
    ServiceGraph::new()
        .sap("sap0")
        .sap("sap1")
        .vnf("mon", "monitor", 0.5, 64)
        .chain("c1", &["sap0", "mon", "sap1"], 20.0, None)
}

#[test]
fn lossy_links_lose_some_but_not_all() {
    let topo = builders::linear(2, 4.0);
    let mut esc =
        Escape::build(topo, Box::new(GreedyFirstFit), SteeringMode::Proactive, 21).unwrap();
    esc.deploy(&sg()).unwrap();
    // 20% loss on every link.
    for i in 0..esc.sim.link_count() as u32 {
        esc.sim.set_link_loss(escape_netem::LinkId(i), 0.2);
    }
    esc.start_udp("sap0", "sap1", 100, 200, 100).unwrap();
    esc.run_for_ms(200);
    let rx = esc.sap_stats("sap1").unwrap().udp_rx;
    assert!(rx < 100, "some frames lost ({rx})");
    assert!(rx > 10, "but not everything ({rx})");
    assert!(esc.sim.stats().drops_loss > 0);
}

#[test]
fn link_down_black_holes_then_recovers() {
    let topo = builders::linear(2, 4.0);
    let mut esc =
        Escape::build(topo, Box::new(GreedyFirstFit), SteeringMode::Proactive, 22).unwrap();
    esc.deploy(&sg()).unwrap();
    // Flip every dataplane link down, verify the black hole, bring them
    // back, verify recovery.
    let ids: Vec<escape_netem::LinkId> = (0..esc.sim.link_count() as u32)
        .map(escape_netem::LinkId)
        .collect();
    for &id in &ids {
        esc.sim.set_link_state(id, LinkState::Down);
    }
    esc.start_udp("sap0", "sap1", 100, 200, 10).unwrap();
    esc.run_for_ms(50);
    assert_eq!(
        esc.sap_stats("sap1").unwrap().udp_rx,
        0,
        "black hole while down"
    );
    assert!(esc.sim.stats().drops_link_down > 0);
    for id in ids {
        esc.sim.set_link_state(id, LinkState::Up);
    }
    esc.start_udp("sap0", "sap1", 100, 200, 10).unwrap();
    esc.run_for_ms(50);
    assert_eq!(esc.sap_stats("sap1").unwrap().udp_rx, 10, "recovered");
}

#[test]
fn stopped_vnf_drops_chain_traffic() {
    let topo = builders::linear(2, 4.0);
    let mut esc =
        Escape::build(topo, Box::new(GreedyFirstFit), SteeringMode::Proactive, 23).unwrap();
    esc.deploy(&sg()).unwrap();
    // Kill the VNF behind the chain's back (simulating a crash).
    let dc = esc.deployed("c1").unwrap().clone();
    let vnf = &dc.vnfs[0];
    let node = esc.infra.node(&vnf.container).unwrap();
    esc.sim
        .node_as_mut::<VnfContainer>(node)
        .unwrap()
        .host_mut()
        .stop(&vnf.vnf_id)
        .unwrap();
    esc.start_udp("sap0", "sap1", 100, 200, 10).unwrap();
    esc.run_for_ms(50);
    assert_eq!(esc.sap_stats("sap1").unwrap().udp_rx, 0);
    let c = esc.sim.node_as::<VnfContainer>(node).unwrap();
    let idx = c.host().vnf_index(&vnf.vnf_id).unwrap();
    assert_eq!(c.host().vnfs[idx].dropped_not_running, 10);
}

#[test]
fn dead_agent_times_out_cleanly() {
    let topo = builders::linear(2, 4.0);
    let mut esc =
        Escape::build(topo, Box::new(GreedyFirstFit), SteeringMode::Proactive, 24).unwrap();
    // Kill the container node entirely: its agent can never answer, so
    // every retry times out and the typed error names the container and
    // the exhausted attempt budget.
    let node = esc.infra.node("c0").unwrap();
    esc.sim.kill_node(node);
    let before = esc.now();
    let err = esc.deploy(&sg()).err().unwrap();
    let EscapeError::DeployFailed {
        phase,
        cause,
        rollback,
    } = err
    else {
        panic!("expected DeployFailed, got {err}");
    };
    assert_eq!(phase, DeployPhase::Prepare);
    let EscapeError::RpcTimeout {
        container,
        attempts,
    } = *cause
    else {
        panic!("expected RpcTimeout cause, got {cause}");
    };
    assert_eq!(container, "c0");
    assert_eq!(attempts, 5, "first try + 4 retries");
    // The reservation was the only completed step; undoing it cannot
    // fail, so the rollback reports complete.
    assert!(rollback.complete(), "rollback: {rollback}");
    assert_eq!(
        steps(&rollback),
        vec![("release-reservation", "c1", true)],
        "rollback released the plan-phase reservation: {rollback}"
    );
    // Each attempt waited out the RPC deadline plus its backoff slot.
    assert!(
        esc.now().since(before) >= 5 * 100_000_000,
        "virtual time spent waiting"
    );
    assert_eq!(
        esc.now().as_ns(),
        659_903_110,
        "instant the failed deploy returned"
    );
    // The retry counter saw exactly the retries (not the first attempt).
    assert_eq!(esc.metrics().counter("netconf.rpc_retries", &[]), Some(4));
}

#[test]
fn remap_with_no_surviving_capacity_degrades_gracefully() {
    // Two 1-CPU containers; the chain's VNF needs a full CPU. Crash the
    // hosting container, then fill the survivor so re-mapping has nowhere
    // to go: recovery must fail cleanly (no panic), the chain is
    // abandoned, and the failure is counted and logged.
    let topo = builders::star(2, 1.0);
    let mut esc =
        Escape::build(topo, Box::new(GreedyFirstFit), SteeringMode::Proactive, 27).unwrap();
    let g = ServiceGraph::new()
        .sap("sap0")
        .sap("sap1")
        .vnf("fw", "firewall", 1.0, 256)
        .chain("c1", &["sap0", "fw", "sap1"], 20.0, None);
    esc.deploy(&g).unwrap();
    assert_eq!(
        esc.deployed("c1").unwrap().vnfs[0].container,
        "c0",
        "greedy picks c0"
    );
    // Take the survivor's capacity out of play too.
    esc.orchestrator_mut().mark_container_failed("c1");

    let plan = escape_netem::FaultPlan::new("no-capacity")
        .at_ms(5, escape_netem::FaultKind::VnfCrash { node: "c0".into() });
    esc.load_fault_plan(&plan).unwrap();
    esc.run_with_recovery(30);

    assert!(esc.deployed("c1").is_none(), "chain abandoned");
    let m = esc.metrics();
    assert_eq!(m.counter("escape.recovery_failures", &[]), Some(1));
    assert_eq!(m.counter("escape.recoveries", &[]), Some(0));
    assert!(
        esc.journal()
            .entries()
            .any(|e| e.kind == JournalKind::HealFailed && e.detail.starts_with("chain c1:")),
        "trace: {:#?}",
        esc.event_trace()
    );
}

#[test]
fn churn_embed_release_cycles_do_not_leak_resources() {
    let topo = builders::star(4, 2.0);
    let mut esc =
        Escape::build(topo, Box::new(NearestNeighbor), SteeringMode::Proactive, 25).unwrap();
    for round in 0..5 {
        let g = ServiceGraph::new()
            .sap("sap0")
            .sap("sap1")
            .vnf("v", "monitor", 1.5, 64)
            .chain("churny", &["sap0", "v", "sap1"], 50.0, None);
        esc.deploy(&g)
            .unwrap_or_else(|e| panic!("round {round}: {e}"));
        esc.teardown("churny").unwrap();
        assert_eq!(
            esc.orchestrator().cpu_utilization(),
            0.0,
            "round {round}: all CPU back"
        );
    }
}

#[test]
fn delay_sla_violation_is_rejected_up_front() {
    // 8 switch hops at 50 µs each cannot meet a 60 µs budget.
    let topo = builders::linear(8, 4.0);
    let mut esc =
        Escape::build(topo, Box::new(NearestNeighbor), SteeringMode::Proactive, 26).unwrap();
    let g = ServiceGraph::new()
        .sap("sap0")
        .sap("sap1")
        .vnf("v", "monitor", 0.5, 64)
        .chain("tight", &["sap0", "v", "sap1"], 10.0, Some(60));
    let err = esc.deploy(&g).err().unwrap();
    let EscapeError::MappingFailed(rej) = err else {
        panic!("expected mapping failure")
    };
    assert!(matches!(
        rej[0].1,
        escape_orch::MapError::DelayExceeded { .. }
    ));
}

#[test]
fn netconf_timeout_mid_deploy_rolls_back_to_identical_state() {
    // The zero-residual-state guarantee: a deploy whose *second* VNF
    // times out over NETCONF must undo everything the transaction did —
    // the already-started first VNF, any staged rules, every
    // reservation — leaving the environment byte-identical to its
    // pre-deploy fingerprint.
    let topo = builders::linear(3, 4.0);
    let mut esc =
        Escape::build(topo, Box::new(GreedyFirstFit), SteeringMode::Proactive, 31).unwrap();

    // Warm up: one deploy/teardown cycle so the NETCONF session to c0
    // and its stopped-VNF husk already exist before the fingerprint.
    let warm = ServiceGraph::new()
        .sap("sap0")
        .sap("sap1")
        .vnf("w", "monitor", 0.5, 64)
        .chain("warm", &["sap0", "w", "sap1"], 10.0, None);
    esc.deploy(&warm).unwrap();
    esc.teardown("warm").unwrap();

    // Stall c1's agent for longer than the entire RPC retry schedule.
    let plan = escape_netem::FaultPlan::new("c1-stall").at_ms(
        0,
        escape_netem::FaultKind::VnfStall {
            node: "c1".into(),
            for_us: 3_000_000,
        },
    );
    esc.load_fault_plan(&plan).unwrap();
    esc.run_for_ms(1); // arm the stall

    let before = esc.state_fingerprint();
    assert!(esc.check_invariants().is_empty());

    // Two 3-CPU VNFs cannot share a 4-CPU container: v0 lands on c0
    // (prepares fine), v1 lands on stalled c1 and times out.
    let big = ServiceGraph::new()
        .sap("sap0")
        .sap("sap1")
        .vnf("v0", "monitor", 3.0, 64)
        .vnf("v1", "monitor", 3.0, 64)
        .chain("big", &["sap0", "v0", "v1", "sap1"], 10.0, None);
    let err = esc.deploy(&big).expect_err("deploy must fail");
    let EscapeError::DeployFailed {
        phase,
        cause,
        rollback,
    } = err
    else {
        panic!("expected DeployFailed, got {err}");
    };
    assert_eq!(phase, DeployPhase::Prepare);
    assert!(
        matches!(*cause, EscapeError::RpcTimeout { ref container, .. } if container == "c1"),
        "cause: {cause}"
    );
    // v0 on healthy c0 was started and connected; both undo steps hit a
    // live agent and succeed, as does releasing the reservation.
    assert!(rollback.complete(), "rollback: {rollback}");
    assert_eq!(
        steps(&rollback),
        vec![
            ("stop-vnf", "c0/c0-vnf2", true),
            ("disconnect-vnf", "c0/c0-vnf2:dev1", true),
            ("disconnect-vnf", "c0/c0-vnf2:dev0", true),
            ("release-reservation", "big", true),
        ]
    );
    assert_eq!(
        esc.now().as_ns(),
        668_281_446,
        "instant the failed deploy returned"
    );

    // Zero residual state: resources, flow tables, running VNFs and
    // sessions are byte-identical to the pre-deploy view.
    assert_eq!(esc.state_fingerprint(), before, "residual state leaked");
    assert!(esc.check_invariants().is_empty());
    assert!(esc.deployed("big").is_none());
    assert_eq!(esc.orchestrator().cpu_utilization(), 0.0);

    // Once the stall clears the same graph deploys cleanly.
    esc.run_for_ms(3_100);
    esc.deploy(&big).unwrap();
    assert!(esc.check_invariants().is_empty());
    esc.start_udp("sap0", "sap1", 100, 200, 5).unwrap();
    esc.run_for_ms(50);
    assert_eq!(
        esc.sap_stats("sap1").unwrap().udp_rx,
        5,
        "chain carries traffic"
    );
}

#[test]
fn malformed_agent_reply_fails_deploy_with_typed_error() {
    // A garbage frame on the control connection (truncated XML) must
    // surface as the typed MalformedReply — not a parse panic and not a
    // silent retry-until-timeout — and the transaction rolls back.
    let topo = builders::linear(2, 4.0);
    let mut esc =
        Escape::build(topo, Box::new(GreedyFirstFit), SteeringMode::Proactive, 33).unwrap();
    let conn = esc.infra.netconf_conn["c0"];
    let relay = esc.infra.manager;
    esc.sim
        .node_as_mut::<escape::infra::ManagerRelay>(relay)
        .unwrap()
        .inbox
        .push((
            conn,
            escape_netconf::Framer::frame(b"<rpc-reply message-id=\"1\"><data>"),
        ));

    let err = esc.deploy(&sg()).err().unwrap();
    let EscapeError::DeployFailed {
        phase,
        cause,
        rollback,
    } = err
    else {
        panic!("expected DeployFailed, got {err}");
    };
    assert_eq!(phase, DeployPhase::Prepare);
    let EscapeError::MalformedReply { container, reason } = *cause else {
        panic!("expected MalformedReply cause, got {cause}");
    };
    assert_eq!(container, "c0");
    assert!(reason.contains("XML"), "{reason}");
    assert!(rollback.complete(), "rollback: {rollback}");
    assert_eq!(steps(&rollback), vec![("release-reservation", "c1", true)]);
    assert_eq!(
        esc.now().as_ns(),
        5_450_000,
        "instant the failed deploy returned"
    );
    assert_eq!(
        esc.metrics().counter("netconf.malformed_replies", &[]),
        Some(1)
    );
    assert!(
        esc.journal()
            .entries()
            .any(|e| e.kind == JournalKind::MalformedReply && e.detail.starts_with("c0:")),
        "trace: {:#?}",
        esc.event_trace()
    );

    // The bad frame never corrupts session state: the same graph
    // deploys cleanly right after.
    esc.deploy(&sg()).unwrap();
    assert!(esc.check_invariants().is_empty());
}

/// Two chains, one per direction, with a 3-CPU VNF each: on 4-CPU
/// containers greedy puts `va` on c0 and `vb` on c1.
fn two_chains() -> ServiceGraph {
    ServiceGraph::new()
        .sap("sap0")
        .sap("sap1")
        .vnf("va", "monitor", 3.0, 64)
        .vnf("vb", "monitor", 3.0, 64)
        .chain("a", &["sap0", "va", "sap1"], 10.0, None)
        .chain("b", &["sap1", "vb", "sap0"], 10.0, None)
}

#[test]
fn two_chain_prepare_failure_unwinds_newest_chain_first() {
    // Chain a prepares completely (VNF up, rules staged); chain b's only
    // VNF lands on a stalled agent. The rollback walks b then a, and
    // releases the reservations last, b before a.
    let topo = builders::linear(2, 4.0);
    let mut esc =
        Escape::build(topo, Box::new(GreedyFirstFit), SteeringMode::Proactive, 35).unwrap();
    let plan = escape_netem::FaultPlan::new("c1-stall").at_ms(
        0,
        escape_netem::FaultKind::VnfStall {
            node: "c1".into(),
            for_us: 3_000_000,
        },
    );
    esc.load_fault_plan(&plan).unwrap();
    esc.run_for_ms(1);

    let err = esc.deploy(&two_chains()).expect_err("deploy must fail");
    let EscapeError::DeployFailed {
        phase, rollback, ..
    } = err
    else {
        panic!("expected DeployFailed, got {err}");
    };
    assert_eq!(phase, DeployPhase::Prepare);
    assert_eq!(
        steps(&rollback),
        vec![
            ("discard-rules", "a", true),
            ("stop-vnf", "c0/c0-vnf1", true),
            ("disconnect-vnf", "c0/c0-vnf1:dev1", true),
            ("disconnect-vnf", "c0/c0-vnf1:dev0", true),
            ("release-reservation", "b", true),
            ("release-reservation", "a", true),
        ]
    );
    assert_eq!(
        esc.now().as_ns(),
        663_313_428,
        "instant the failed deploy returned"
    );
    assert!(esc.check_invariants().is_empty());
    assert_eq!(esc.orchestrator().cpu_utilization(), 0.0);
}

#[test]
fn chains_never_attempted_release_their_reservation_too() {
    // The plan phase reserves for every chain of the graph before any
    // prepare step runs. When the *first* chain fails, the second was
    // never attempted — its reservation must come back all the same.
    let topo = builders::linear(2, 4.0);
    let mut esc =
        Escape::build(topo, Box::new(GreedyFirstFit), SteeringMode::Proactive, 37).unwrap();
    let plan = escape_netem::FaultPlan::new("c0-stall").at_ms(
        0,
        escape_netem::FaultKind::VnfStall {
            node: "c0".into(),
            for_us: 3_000_000,
        },
    );
    esc.load_fault_plan(&plan).unwrap();
    esc.run_for_ms(1);
    let before = esc.state_fingerprint();

    let err = esc.deploy(&two_chains()).expect_err("deploy must fail");
    let EscapeError::DeployFailed {
        phase, rollback, ..
    } = err
    else {
        panic!("expected DeployFailed, got {err}");
    };
    assert_eq!(phase, DeployPhase::Prepare);
    assert_eq!(
        steps(&rollback),
        vec![
            ("release-reservation", "b", true),
            ("release-reservation", "a", true),
        ]
    );
    assert_eq!(esc.orchestrator().cpu_utilization(), 0.0);
    assert_eq!(esc.state_fingerprint(), before, "residual state leaked");
}

#[test]
fn commit_failure_removes_every_chains_rules_before_releasing() {
    // Both chains prepare and commit their rules; the wait for the
    // switches then times out on a jammed controller queue. Per chain,
    // newest first: rules out, VNFs down; then one flush; then the
    // reservations.
    let topo = builders::linear(2, 4.0);
    let mut esc =
        Escape::build(topo, Box::new(GreedyFirstFit), SteeringMode::Proactive, 36).unwrap();
    jam_steering(&mut esc);

    let err = esc.deploy(&two_chains()).expect_err("deploy must fail");
    let EscapeError::DeployFailed {
        phase,
        cause,
        rollback,
    } = err
    else {
        panic!("expected DeployFailed, got {err}");
    };
    assert_eq!(phase, DeployPhase::Commit);
    assert!(matches!(*cause, EscapeError::Steering(_)), "cause: {cause}");
    assert_eq!(
        steps(&rollback),
        vec![
            ("remove-rules", "b", true),
            ("stop-vnf", "c1/c1-vnf1", true),
            ("disconnect-vnf", "c1/c1-vnf1:dev1", true),
            ("disconnect-vnf", "c1/c1-vnf1:dev0", true),
            ("remove-rules", "a", true),
            ("stop-vnf", "c0/c0-vnf1", true),
            ("disconnect-vnf", "c0/c0-vnf1:dev1", true),
            ("disconnect-vnf", "c0/c0-vnf1:dev0", true),
            ("release-reservation", "b", true),
            ("release-reservation", "a", true),
        ]
    );
    assert_eq!(
        esc.now().as_ns(),
        112_650_000,
        "instant the failed deploy returned"
    );
    assert!(esc.deployed_chains().is_empty());
    assert_eq!(esc.orchestrator().cpu_utilization(), 0.0);
}
