//! Leak-hunting soak runs and admission-control behavior.
//!
//! The soak harness ([`escape::soak::run_soak`]) drives one `Session`
//! through hundreds of steps of the seeded op mix ([`escape::ops`], the
//! one the behaviour corpus pins): deploy, teardown, scale, traffic,
//! fault, heal and idle steps with admission control, the flight
//! recorder, the sampler and the autoscaler on. It asserts the
//! conservation invariants after every single step:
//!
//! * reserved CPU and bandwidth equal the sum over live chains
//!   (orchestrator audit);
//! * the orchestrator holds a reservation for exactly the live chains;
//! * no flow rule carries a cookie without a live chain;
//! * no VNF runs outside the current embedding;
//! * no ready NETCONF session dangles.
//!
//! The admission tests pin down the watermark semantics directly:
//! hard → typed rejection, soft → queue + deterministic retry.

use escape::env::Escape;
use escape::soak::{run_soak, SoakConfig};
use escape::{AdmissionConfig, AdmissionVerdict, EscapeError, JournalKind};
use escape_orch::GreedyFirstFit;
use escape_pox::SteeringMode;
use escape_sg::topo::builders;
use escape_sg::ServiceGraph;

#[test]
fn soak_500_steps_keeps_every_invariant() {
    let report = run_soak(SoakConfig {
        steps: 500,
        seed: 7,
    });
    assert!(report.clean(), "violations: {:#?}", report.violations);
    assert_eq!(report.steps, 500, "no early abort");
    // The run must actually exercise the machinery, not idle through it.
    assert!(report.deploys >= 40, "{}", report.summary());
    assert!(report.teardowns >= 20, "{}", report.summary());
    assert!(report.faults >= 30, "{}", report.summary());
    assert!(report.scales >= 10, "{}", report.summary());
}

#[test]
fn soak_exercises_rollback_and_retry_paths() {
    // Across a few seeds the op mix must hit the interesting paths:
    // deploys that roll back mid-transaction (long agent stalls),
    // teardowns that bounce off a stalled agent and retry, and scaling
    // migrations that both commit and abort.
    let mut rollbacks = 0;
    let mut teardown_retries = 0;
    let mut scales = 0;
    let mut scale_rollbacks = 0;
    for seed in [5, 7, 42] {
        let report = run_soak(SoakConfig { steps: 200, seed });
        assert!(report.clean(), "seed {seed}: {:#?}", report.violations);
        rollbacks += report.rollbacks;
        teardown_retries += report.teardown_retries;
        scales += report.scales;
        scale_rollbacks += report.scale_rollbacks;
    }
    assert!(rollbacks > 0, "no soak seed ever forced a rollback");
    assert!(
        teardown_retries > 0,
        "no soak seed ever retried a teardown off a stalled agent"
    );
    assert!(scales > 0, "no soak seed ever committed a migration");
    assert!(
        scale_rollbacks > 0,
        "no soak seed ever rolled a migration back"
    );
}

#[test]
fn soak_is_deterministic_across_runs() {
    let cfg = SoakConfig {
        steps: 250,
        seed: 1234,
    };
    let a = run_soak(cfg);
    let b = run_soak(cfg);
    assert!(a.clean(), "violations: {:#?}", a.violations);
    assert_eq!(a, b, "same (steps, seed) must reproduce the same report");
    assert!(!a.fingerprint.is_empty());

    let c = run_soak(SoakConfig {
        steps: 250,
        seed: 1235,
    });
    assert_ne!(
        a.fingerprint, c.fingerprint,
        "different seeds should end in different states"
    );
}

/// A 1-VNF graph demanding `cpu` cores.
fn graph(name: &str, cpu: f64) -> ServiceGraph {
    ServiceGraph::new()
        .sap("sap0")
        .sap("sap1")
        .vnf(&format!("{name}v"), "monitor", cpu, 64)
        .chain(name, &["sap0", &format!("{name}v"), "sap1"], 10.0, None)
}

#[test]
fn hard_watermark_rejects_outright() {
    // Two 1-CPU containers (2 CPU total). Soft 0.25, hard 0.75: the
    // first chain (1 CPU = 50% utilization) admits; at 50% ≥ 25% the
    // second queues; filling to ≥ 75% makes further requests
    // hard-reject.
    let topo = builders::star(2, 1.0);
    let mut esc =
        Escape::build(topo, Box::new(GreedyFirstFit), SteeringMode::Proactive, 91).unwrap();
    esc.set_admission(AdmissionConfig {
        soft_watermark: 0.25,
        hard_watermark: 0.75,
        max_queue: 4,
        max_retries: 3,
    });

    esc.deploy(&graph("a", 1.0)).unwrap();
    assert_eq!(esc.orchestrator().cpu_utilization(), 0.5);

    let err = esc.deploy(&graph("b", 0.6)).err().unwrap();
    let EscapeError::Admission(AdmissionVerdict::Queued { position: 0, .. }) = err else {
        panic!("expected Queued, got {err}");
    };

    // Push utilization past the hard watermark directly.
    let (mapped, rejected) = esc.orchestrator_mut().embed_graph(&graph("c", 0.6));
    assert_eq!((mapped.len(), rejected.len()), (1, 0), "capacity for c");
    assert!(esc.orchestrator().cpu_utilization() >= 0.75);

    let err = esc.deploy(&graph("d", 0.1)).err().unwrap();
    let EscapeError::Admission(AdmissionVerdict::RejectedHard {
        utilization,
        hard_watermark,
    }) = err
    else {
        panic!("expected RejectedHard, got {err}");
    };
    assert!(utilization >= hard_watermark);
    assert_eq!(hard_watermark, 0.75);

    // The queued request burns its retries while the pressure lasts and
    // is dropped — typed counters tell the story.
    esc.run_for_ms(200);
    assert_eq!(esc.pending_admissions(), 0, "queue drained by give-up");
    let m = esc.metrics();
    assert_eq!(m.counter("escape.admission_queued", &[]), Some(1));
    assert!(m.counter("escape.admission_retries", &[]).unwrap_or(0) >= 1);
    // One hard reject + one retries-exhausted drop.
    assert_eq!(m.counter("escape.admission_rejected", &[]), Some(2));
}

#[test]
fn queued_deploy_lands_once_capacity_frees_up() {
    let topo = builders::star(2, 1.0);
    let mut esc =
        Escape::build(topo, Box::new(GreedyFirstFit), SteeringMode::Proactive, 92).unwrap();
    esc.set_admission(AdmissionConfig {
        soft_watermark: 0.25,
        hard_watermark: 0.9,
        max_queue: 4,
        max_retries: 8,
    });

    esc.deploy(&graph("a", 1.0)).unwrap();
    let err = esc.deploy(&graph("b", 0.4)).err().unwrap();
    assert!(
        matches!(err, EscapeError::Admission(AdmissionVerdict::Queued { .. })),
        "got {err}"
    );
    assert_eq!(esc.pending_admissions(), 1);

    // Tearing the first chain down drops utilization to 0; the queued
    // deploy lands on the next pump.
    esc.teardown("a").unwrap();
    esc.run_for_ms(200);
    assert_eq!(esc.pending_admissions(), 0);
    assert!(esc.deployed("b").is_some(), "queued chain deployed");
    assert!(esc.check_invariants().is_empty());
    // The journal tells the story in order: parked, then committed.
    let at = |kind: JournalKind, detail: &str| {
        esc.journal()
            .entries()
            .position(|e| e.kind == kind && e.detail.starts_with(detail))
    };
    let queued = at(JournalKind::AdmissionQueued, "position 0");
    let landed = at(JournalKind::DeployCommitted, "chain b ");
    assert!(
        queued.is_some() && queued < landed,
        "trace: {:#?}",
        esc.event_trace()
    );
}

#[test]
fn queued_deploy_that_no_longer_maps_is_journaled_as_dropped() {
    // A 1.5-CPU VNF fits no 1-CPU container. While chain a holds 50%
    // the request parks; once a is gone utilization is 0, the request is
    // dequeued — and the orchestrator refuses it before any transaction
    // starts. That exit from the queue must not be silent.
    let topo = builders::star(2, 1.0);
    let mut esc =
        Escape::build(topo, Box::new(GreedyFirstFit), SteeringMode::Proactive, 94).unwrap();
    esc.set_admission(AdmissionConfig {
        soft_watermark: 0.25,
        hard_watermark: 0.9,
        max_queue: 4,
        max_retries: 8,
    });
    esc.deploy(&graph("a", 1.0)).unwrap();
    let err = esc.deploy(&graph("big", 1.5)).err().unwrap();
    assert!(
        matches!(err, EscapeError::Admission(AdmissionVerdict::Queued { .. })),
        "got {err}"
    );
    esc.teardown("a").unwrap();
    esc.run_for_ms(200);
    assert_eq!(esc.pending_admissions(), 0);
    assert!(esc.deployed("big").is_none());
    let dropped: Vec<&str> = esc
        .journal()
        .entries()
        .filter(|e| e.kind == JournalKind::AdmissionDropped)
        .map(|e| e.detail.as_str())
        .collect();
    assert_eq!(dropped.len(), 1, "journal: {:#?}", esc.event_trace());
    assert!(
        dropped[0].contains("mapping failed") && dropped[0].contains("big"),
        "{dropped:?}"
    );
    assert!(esc.check_invariants().is_empty());
}

#[test]
fn reservation_without_a_live_chain_is_a_violation() {
    // The orchestrator's own audit balances a reservation against the
    // capacity it took, so a chain reserved but never deployed is
    // invisible to it; the environment's audit names the chain.
    let topo = builders::star(2, 1.0);
    let mut esc =
        Escape::build(topo, Box::new(GreedyFirstFit), SteeringMode::Proactive, 95).unwrap();
    esc.deploy(&graph("a", 0.5)).unwrap();
    assert!(esc.check_invariants().is_empty());
    let (mapped, rejected) = esc.orchestrator_mut().embed_graph(&graph("ghost", 0.5));
    assert_eq!((mapped.len(), rejected.len()), (1, 0), "capacity for ghost");
    assert!(esc.orchestrator().audit().is_empty(), "ledger balances");
    let violations = esc.check_invariants();
    assert_eq!(
        violations,
        ["orchestrator: reservation for chain ghost but no live chain"],
    );
}

#[test]
fn admission_disabled_by_default() {
    // Without set_admission, deploys run straight through even at 100%
    // utilization — existing behavior is unchanged.
    let topo = builders::star(2, 1.0);
    let mut esc =
        Escape::build(topo, Box::new(GreedyFirstFit), SteeringMode::Proactive, 93).unwrap();
    esc.deploy(&graph("a", 1.0)).unwrap();
    esc.deploy(&graph("a2", 1.0)).unwrap();
    assert_eq!(esc.orchestrator().cpu_utilization(), 1.0);
    // Full: the *orchestrator* rejects (no capacity), not admission.
    let err = esc.deploy(&graph("b", 0.5)).err().unwrap();
    assert!(matches!(err, EscapeError::MappingFailed(_)), "got {err}");
}
