//! Elastic VNF scaling, end to end: replica sets with hash-bucket
//! steering, make-before-break migration, and the telemetry-driven
//! autoscaler.
//!
//! Four witnesses:
//!
//! 1. **Determinism** — the same seed and script produce byte-identical
//!    journals and event traces at every replica count (1/2/4);
//! 2. **Rollback** — a disruptive fault landing mid-migration aborts the
//!    transaction and leaves the environment fingerprint-identical to
//!    its pre-scale state;
//! 3. **Zero-drop cutover** — a scale-out promoted under live traffic
//!    loses nothing: every frame in flight across the cutover is
//!    delivered (flight-recorder witness);
//! 4. **Convergence** — an SLA-violating chain is scaled out by the
//!    autoscaler within a bounded number of sampler ticks.

use escape::env::Escape;
use escape::flight::Outcome;
use escape::{EscapeError, RollbackReport};
use escape_netem::{FaultKind, FaultPlan};
use escape_openflow::Match;
use escape_orch::NearestNeighbor;
use escape_pox::{Controller, SteeringMode, SteeringRule};
use escape_scale::{AutoscalerConfig, MigrationPhase};
use escape_sg::{topo::builders, ServiceGraph, Sla};
use escape_telemetry::SamplerConfig;

/// A firewall between two SAPs on a 3-container linear substrate. The
/// VNF is fabric-attached (a switch on both sides), so it can grow
/// replicas.
fn demo_sg(sla: Option<Sla>) -> ServiceGraph {
    let mut g = ServiceGraph::new()
        .sap("sap0")
        .sap("sap1")
        .vnf("fw", "firewall", 1.0, 256)
        .chain("demo", &["sap0", "fw", "sap1"], 100.0, Some(50_000));
    if let Some(s) = sla {
        g = g.with_sla(s);
    }
    g
}

fn build(seed: u64) -> Escape {
    let topo = builders::linear(3, 4.0);
    let mut esc = Escape::build(
        topo,
        Box::new(NearestNeighbor),
        SteeringMode::Proactive,
        seed,
    )
    .unwrap();
    esc.deploy(&demo_sg(None)).unwrap();
    esc
}

/// A rollback as its ordered `(action, target, ok)` list.
fn steps(r: &RollbackReport) -> Vec<(&'static str, &str, bool)> {
    r.steps
        .iter()
        .map(|s| (s.action, s.target.as_str(), s.ok))
        .collect()
}

// ---------------------------------------------------------------------
// 1. Same seed + same script ⇒ byte-identical traces at any count
// ---------------------------------------------------------------------

/// Fixed scale/traffic script at one replica count; returns the journal
/// and the event trace.
fn scripted_run(seed: u64, replicas: u32) -> (String, Vec<String>) {
    let mut esc = build(seed);
    esc.enable_flight_recorder(65_536);
    if replicas > 1 {
        let r = esc.scale_chain("demo", "fw", replicas).unwrap();
        assert_eq!(r.to, replicas);
        assert!(r.rules > 0);
    }
    esc.start_udp("sap0", "sap1", 128, 200, 40).unwrap();
    esc.run_for_ms(60);
    if replicas > 1 {
        esc.scale_chain("demo", "fw", 1).unwrap();
    }
    esc.run_for_ms(10);
    (esc.journal_json_lines(), esc.event_trace().to_vec())
}

#[test]
fn same_seed_scaling_traces_are_byte_identical_at_every_count() {
    for replicas in [1u32, 2, 4] {
        let (journal_a, trace_a) = scripted_run(42, replicas);
        let (journal_b, trace_b) = scripted_run(42, replicas);
        assert!(!journal_a.is_empty());
        assert_eq!(
            journal_a, journal_b,
            "same-seed journals diverged at {replicas} replicas"
        );
        assert_eq!(
            trace_a, trace_b,
            "same-seed event traces diverged at {replicas} replicas"
        );
        if replicas > 1 {
            for want in ["scale-out", "scale-in", "migration-committed"] {
                assert!(
                    journal_a.contains(&format!("\"{want}\"")),
                    "journal at {replicas} replicas missing {want}:\n{journal_a}"
                );
            }
        }
    }
    // The count is load-bearing: different replica targets journal
    // different migrations.
    assert_ne!(scripted_run(42, 2).0, scripted_run(42, 4).0);
}

#[test]
fn all_frames_are_delivered_at_every_replica_count() {
    for replicas in [1u32, 2, 4] {
        let mut esc = build(7);
        esc.enable_flight_recorder(65_536);
        if replicas > 1 {
            esc.scale_chain("demo", "fw", replicas).unwrap();
        }
        assert_eq!(esc.replica_count("demo", "fw"), replicas);
        esc.start_udp("sap0", "sap1", 128, 200, 30).unwrap();
        esc.run_for_ms(60);
        assert_eq!(
            esc.sap_stats("sap1").unwrap().udp_rx,
            30,
            "lost frames at {replicas} replicas"
        );
        // Replicas really carry traffic: with hash-bucket fan-out over
        // one 5-tuple every frame rides exactly one bucket, and the
        // journeys say which container VNF processed it.
        let fr = esc.flight_record();
        assert_eq!(fr.journeys.len(), 30);
        for j in &fr.journeys {
            assert!(matches!(j.outcome, Outcome::Delivered { .. }), "{j:?}");
        }
    }
}

// ---------------------------------------------------------------------
// 2. Mid-migration disruptive fault ⇒ rollback to pre-scale state
// ---------------------------------------------------------------------

#[test]
fn disruptive_fault_mid_migration_rolls_back_to_prescale_fingerprint() {
    let mut esc = build(11);
    // Arm a link cut and let it land. run_for_ms (no recovery pass)
    // leaves the fault record pending in the injector — exactly the
    // window a long-running migration must notice.
    let plan = FaultPlan::new("cut").at_ms(
        2,
        FaultKind::LinkDown {
            a: "s1".into(),
            b: "s2".into(),
        },
    );
    esc.load_fault_plan(&plan).unwrap();
    esc.run_for_ms(5);

    let before = esc.state_fingerprint();
    let err = esc.scale_chain("demo", "fw", 3).unwrap_err();
    match &err {
        EscapeError::ScaleFailed {
            chain,
            vnf,
            phase,
            rollback,
            ..
        } => {
            assert_eq!(chain, "demo");
            assert_eq!(vnf, "fw");
            assert_eq!(*phase, MigrationPhase::Prepare);
            // The two new replicas were brought up and must be torn
            // back down: staged rules discarded, VNFs stopped and
            // disconnected, both reservations released.
            assert!(
                rollback.steps.iter().all(|s| s.ok),
                "rollback steps failed: {rollback}"
            );
            assert_eq!(
                steps(rollback),
                vec![
                    ("discard-rules", "demo", true),
                    ("stop-vnf", "c0/c0-vnf3", true),
                    ("disconnect-vnf", "c0/c0-vnf3:dev1", true),
                    ("disconnect-vnf", "c0/c0-vnf3:dev0", true),
                    ("stop-vnf", "c0/c0-vnf2", true),
                    ("disconnect-vnf", "c0/c0-vnf2:dev1", true),
                    ("disconnect-vnf", "c0/c0-vnf2:dev0", true),
                    ("release-replica", "demo/fw", true),
                    ("release-replica", "demo/fw", true),
                ]
            );
        }
        e => panic!("want ScaleFailed, got {e}"),
    }
    assert_eq!(
        esc.now().as_ns(),
        17_860_000,
        "instant the failed scale returned"
    );
    assert_eq!(
        before,
        esc.state_fingerprint(),
        "failed scale must leave the environment untouched"
    );
    assert_eq!(esc.replica_count("demo", "fw"), 1);
    assert!(esc
        .journal_json_lines()
        .contains("\"migration-rolled-back\""));
    let snap = esc.metrics();
    assert_eq!(snap.counter("escape.migration_rollbacks", &[]), Some(1));

    // The fault record was left for the healing pass, which can still
    // re-route the chain afterwards (linear substrate: heal fails, but
    // the record IS drained — the migration didn't eat it).
    esc.run_with_recovery(10);
    assert!(
        esc.scale_chain("demo", "fw", 2).is_err(),
        "chain is broken by the cut; scaling it stays refused or fails downstream"
    );
}

#[test]
fn scale_out_failing_after_promote_restores_rules_then_retires_the_new_replica() {
    let mut esc = build(12);
    // A rule for a datapath that never connects jams the controller's
    // live queue: the promote flush leaves it pending, so the wait for
    // the cutover runs into its deadline — and so does the wait after
    // the rollback swaps the pre-scale rules back.
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
    let err = esc.scale_chain("demo", "fw", 2).unwrap_err();
    let EscapeError::ScaleFailed {
        phase, rollback, ..
    } = &err
    else {
        panic!("want ScaleFailed, got {err}");
    };
    assert_eq!(*phase, MigrationPhase::Promote);
    assert_eq!(
        steps(rollback),
        vec![
            ("restore-rules", "demo", false),
            ("stop-vnf", "c0/c0-vnf2", true),
            ("disconnect-vnf", "c0/c0-vnf2:dev1", true),
            ("disconnect-vnf", "c0/c0-vnf2:dev0", true),
            ("release-replica", "demo/fw", true),
        ]
    );
    assert_eq!(
        esc.now().as_ns(),
        210_160_000,
        "instant the failed scale returned"
    );
    assert_eq!(esc.replica_count("demo", "fw"), 1);
}

#[test]
fn retire_stall_keeps_the_cutover_and_undoes_nothing() {
    let mut esc = build(14);
    esc.scale_chain("demo", "fw", 2).unwrap();
    let container = esc.replicas("demo", "fw")[0].2.clone();
    // Stall the agent for longer than the whole RPC retry schedule: the
    // survivor rules promote (no RPC involved), then stopVNF times out.
    let plan = FaultPlan::new("stall").at_ms(
        0,
        FaultKind::VnfStall {
            node: container,
            for_us: 3_000_000,
        },
    );
    esc.load_fault_plan(&plan).unwrap();
    esc.run_for_ms(1);
    let err = esc.scale_chain("demo", "fw", 1).unwrap_err();
    let EscapeError::ScaleFailed {
        phase,
        cause,
        rollback,
        ..
    } = &err
    else {
        panic!("want ScaleFailed, got {err}");
    };
    assert_eq!(*phase, MigrationPhase::Retire);
    assert!(
        matches!(**cause, EscapeError::RpcTimeout { .. }),
        "cause: {cause}"
    );
    assert_eq!(steps(rollback), vec![]);
    assert_eq!(
        esc.now().as_ns(),
        665_201_976,
        "instant the failed scale returned"
    );
    // The replica stays registered; a retry finishes the job once the
    // agent answers again.
    assert_eq!(esc.replica_count("demo", "fw"), 2);
    esc.run_for_ms(3_100);
    esc.scale_chain("demo", "fw", 1).unwrap();
    assert_eq!(esc.replica_count("demo", "fw"), 1);
    assert!(esc.check_invariants().is_empty());
}

// ---------------------------------------------------------------------
// 3. Zero-drop make-before-break cutover under live traffic
// ---------------------------------------------------------------------

#[test]
fn cutover_under_live_traffic_drops_nothing() {
    let mut esc = build(13);
    esc.enable_flight_recorder(262_144);
    // Traffic runs across BOTH migrations (1→2 and 2→1): frames are in
    // flight while the staged rule set is promoted.
    esc.start_udp("sap0", "sap1", 128, 150, 200).unwrap();
    esc.run_for_ms(6);
    let up = esc.scale_chain("demo", "fw", 2).unwrap();
    assert!(up.cutover_latency().as_ns() > 0);
    esc.run_for_ms(10);
    let down = esc.scale_chain("demo", "fw", 1).unwrap();
    assert_eq!(down.to, 1);
    esc.run_for_ms(60);

    assert_eq!(
        esc.sap_stats("sap1").unwrap().udp_rx,
        200,
        "cutover dropped frames"
    );
    let fr = esc.flight_record_aggregated();
    let dropped: Vec<_> = fr
        .journeys
        .iter()
        .filter(|j| matches!(j.outcome, Outcome::Dropped { .. }))
        .collect();
    assert!(
        dropped.is_empty(),
        "zero drops attributable to the cutover, got {dropped:?}"
    );
    let snap = esc.metrics();
    assert_eq!(
        snap.counter("chain.delivered", &[("chain", "demo")]),
        Some(200)
    );
    assert_eq!(snap.counter("escape.scale_outs", &[]), Some(1));
    assert_eq!(snap.counter("escape.scale_ins", &[]), Some(1));
}

// ---------------------------------------------------------------------
// 4. Telemetry-driven convergence in bounded ticks
// ---------------------------------------------------------------------

#[test]
fn autoscaler_scales_out_an_sla_violating_chain_within_bounded_ticks() {
    let topo = builders::linear(3, 4.0);
    let mut esc =
        Escape::build(topo, Box::new(NearestNeighbor), SteeringMode::Proactive, 17).unwrap();
    // An SLA no delivered packet can meet: every sampler tick records a
    // violation, which is the autoscaler's highest-pressure signal.
    esc.deploy(&demo_sg(Some(Sla {
        max_latency_us: Some(1),
        max_loss: None,
    })))
    .unwrap();
    esc.enable_flight_recorder(262_144);
    esc.enable_sampler(SamplerConfig {
        period_ns: 5_000_000,
        retention: 256,
    });
    esc.enable_autoscaler(
        AutoscalerConfig {
            cooldown_ticks: 2,
            max_replicas: 4,
            ..AutoscalerConfig::default()
        },
        17,
    );
    esc.start_udp("sap0", "sap1", 128, 300, 400).unwrap();

    // Bounded convergence: with a 5 ms sampler period and 2-tick
    // cooldown, 1→2 must happen within 16 ticks (80 virtual ms).
    let mut converged_at = None;
    for tick in 1..=16u32 {
        esc.run_for_ms(5);
        if esc.replica_count("demo", "fw") >= 2 {
            converged_at = Some(tick);
            break;
        }
    }
    let ticks = converged_at.expect("autoscaler never scaled the violating chain out");
    assert!(ticks <= 16, "convergence took {ticks} ticks");
    let journal = esc.journal_json_lines();
    assert!(
        journal.contains("(sla-violation)") || journal.contains("(queue-depth)"),
        "scale-out must be attributed to a telemetry signal:\n{journal}"
    );
    let auto = esc.autoscaler().expect("autoscaler enabled");
    assert!(auto.ticks() >= ticks as u64);
    assert!(auto.decisions() >= 1);

    // Per-replica gauges exist for every live replica after the next
    // sample point.
    esc.run_for_ms(5);
    let snap = esc.metrics();
    for replica in ["0", "1"] {
        let labels = [("chain", "demo"), ("replica", replica), ("vnf", "fw")];
        assert!(
            snap.gauge("escape.replica_utilization_pm", &labels)
                .is_some(),
            "missing utilization gauge for replica {replica}"
        );
        assert!(
            snap.gauge("escape.replica_queue_depth", &labels).is_some(),
            "missing queue gauge for replica {replica}"
        );
        assert!(
            snap.gauge("escape.steering_bucket_rules", &labels)
                .is_some_and(|v| v > 0),
            "missing bucket-rule gauge for replica {replica}"
        );
    }
}

#[test]
fn replica_gauges_render_in_the_prometheus_exposition() {
    let mut esc = build(29);
    esc.enable_flight_recorder(65_536);
    esc.enable_sampler(SamplerConfig::default());
    esc.enable_autoscaler(AutoscalerConfig::default(), 29);
    esc.scale_chain("demo", "fw", 2).unwrap();
    esc.start_udp("sap0", "sap1", 128, 200, 20).unwrap();
    esc.run_for_ms(20); // a few sample points publish the gauges
    let text = esc.metrics().prometheus();
    for replica in ["0", "1"] {
        for gauge in [
            "escape_replica_utilization_pm",
            "escape_replica_queue_depth",
            "escape_steering_bucket_rules",
        ] {
            assert!(
                text.contains(&format!(
                    "{gauge}{{chain=\"demo\",replica=\"{replica}\",vnf=\"fw\"}}"
                )),
                "missing {gauge} line for replica {replica} in:\n{text}"
            );
        }
    }
}

#[test]
fn autoscaler_scales_back_in_when_pressure_clears() {
    let mut esc = build(23);
    esc.enable_flight_recorder(262_144);
    esc.enable_sampler(SamplerConfig {
        period_ns: 5_000_000,
        retention: 256,
    });
    esc.enable_autoscaler(
        AutoscalerConfig {
            cooldown_ticks: 1,
            ..AutoscalerConfig::default()
        },
        23,
    );
    // Grow by hand, then leave the chain idle: utilization sits at 0,
    // under the low watermark, so the policy retires the extra replica.
    esc.scale_chain("demo", "fw", 2).unwrap();
    assert_eq!(esc.replica_count("demo", "fw"), 2);
    let mut shrank_at = None;
    for tick in 1..=12u32 {
        esc.run_for_ms(5);
        if esc.replica_count("demo", "fw") == 1 {
            shrank_at = Some(tick);
            break;
        }
    }
    assert!(
        shrank_at.is_some(),
        "idle replica set was never scaled back in"
    );
    assert!(esc.journal_json_lines().contains("(low-utilization)"));
}
