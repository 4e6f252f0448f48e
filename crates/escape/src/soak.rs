//! Leak-hunting soak harness.
//!
//! Drives a single [`Escape`] environment through a long, seeded,
//! randomized sequence of deploys, teardowns, replica scaling,
//! fault injections and
//! recovery windows — with admission control enabled — and asserts the
//! conservation invariants ([`Escape::check_invariants`]) after **every
//! step**. Any residual state a rollback, recovery action or teardown
//! leaves behind (a reservation without a chain, a flow rule without a
//! live cookie, a running VNF outside the embedding, a dangling NETCONF
//! session) fails the run on the exact step that leaked it.
//!
//! The harness is fully deterministic: the op sequence comes from a
//! seeded [`SmallRng`] and the environment runs in virtual time, so the
//! same `(steps, seed)` pair reproduces the same [`SoakReport`] —
//! including the final state fingerprint — byte for byte.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use escape_netem::{FaultKind, FaultPlan};
use escape_orch::GreedyFirstFit;
use escape_pox::SteeringMode;
use escape_sg::{ResourceTopology, ServiceGraph};

use crate::env::{AdmissionConfig, Escape};
use crate::error::EscapeError;

/// Parameters for one soak run.
#[derive(Debug, Clone, Copy)]
pub struct SoakConfig {
    /// Number of randomized steps to execute.
    pub steps: u64,
    /// Seed for the op-sequence RNG *and* the environment.
    pub seed: u64,
}

impl Default for SoakConfig {
    fn default() -> SoakConfig {
        SoakConfig {
            steps: 500,
            seed: 42,
        }
    }
}

/// What a soak run did and what it found.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SoakReport {
    /// Steps actually executed (== config unless a violation aborted).
    pub steps: u64,
    /// Chains deployed successfully.
    pub deploys: u64,
    /// Deploys that failed mid-transaction and rolled back.
    pub rollbacks: u64,
    /// Deploys the orchestrator rejected outright (no capacity).
    pub mapping_rejections: u64,
    /// Deploys queued or rejected by the admission controller.
    pub admission_queued: u64,
    pub admission_rejected: u64,
    /// Replica-scaling migrations committed.
    pub scales: u64,
    /// Scaling transactions that failed and rolled back.
    pub scale_rollbacks: u64,
    /// Scale ops skipped (co-located VNF, nothing live to scale).
    pub scale_skipped: u64,
    /// Chains torn down.
    pub teardowns: u64,
    /// Teardowns that hit a stalled agent and will be retried.
    pub teardown_retries: u64,
    /// Fault plans injected.
    pub faults: u64,
    /// Chains still live when the run ended.
    pub live_at_end: usize,
    /// First invariant violations found, tagged with the step number.
    /// Empty on a clean run.
    pub violations: Vec<String>,
    /// [`Escape::state_fingerprint`] at the end of the run — the
    /// determinism witness (same config ⇒ same fingerprint).
    pub fingerprint: String,
}

impl SoakReport {
    /// True when every step kept every invariant.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// One-screen human summary.
    pub fn summary(&self) -> String {
        format!(
            "soak: {} steps | {} deploys, {} rollbacks, {} no-capacity, \
             {} queued, {} rejected | {} scales ({} rolled back, {} skipped) | \
             {} teardowns ({} retried) | {} faults | \
             {} live at end | {}",
            self.steps,
            self.deploys,
            self.rollbacks,
            self.mapping_rejections,
            self.admission_queued,
            self.admission_rejected,
            self.scales,
            self.scale_rollbacks,
            self.scale_skipped,
            self.teardowns,
            self.teardown_retries,
            self.faults,
            self.live_at_end,
            if self.clean() {
                "invariants clean".to_string()
            } else {
                format!("{} VIOLATION(S)", self.violations.len())
            }
        )
    }
}

/// The soak substrate: a diamond of switches with two disjoint paths
/// between the SAP edges, so single-link faults are always reroutable,
/// and three containers so placement (and admission pressure) has room
/// to move.
///
/// ```text
///   sap0 - s0 - s1 - s3 - sap1
///           \       /
///            - s2 -
///   c0@s1  c1@s2  c2@s0
/// ```
fn soak_topology() -> ResourceTopology {
    let mut t = ResourceTopology::new();
    t.add_sap("sap0").add_sap("sap1");
    t.add_switch("s0")
        .add_switch("s1")
        .add_switch("s2")
        .add_switch("s3");
    t.add_container("c0", 4.0, 4096)
        .add_container("c1", 4.0, 4096)
        .add_container("c2", 4.0, 4096);
    t.add_link("sap0", "s0", 1000.0, 50)
        .add_link("sap1", "s3", 1000.0, 50)
        .add_link("s0", "s1", 1000.0, 50)
        .add_link("s1", "s3", 1000.0, 50)
        .add_link("s0", "s2", 1000.0, 50)
        .add_link("s2", "s3", 1000.0, 50)
        .add_link("s1", "c0", 1000.0, 20)
        .add_link("s2", "c1", 1000.0, 20)
        .add_link("s0", "c2", 1000.0, 20);
    t
}

/// Inter-switch links eligible for link faults. Container and SAP
/// access links stay healthy so every fault is recoverable.
const FAULTABLE_LINKS: [(&str, &str); 4] = [("s0", "s1"), ("s1", "s3"), ("s0", "s2"), ("s2", "s3")];

const CONTAINERS: [&str; 3] = ["c0", "c1", "c2"];

/// Builds a small service graph for soak step `n`: 1–2 monitor VNFs
/// between the two SAPs, random CPU demand.
fn soak_graph(n: u64, rng: &mut SmallRng) -> ServiceGraph {
    let hops: u32 = if rng.gen_bool(0.5) { 1 } else { 2 };
    let cpu = 0.5 + rng.gen_range(0u32..11) as f64 * 0.1;
    let bw = 10.0 + rng.gen_range(0u32..9) as f64 * 10.0;
    let mut sg = ServiceGraph::new().sap("sap0").sap("sap1");
    let mut names: Vec<String> = vec!["sap0".into()];
    for h in 0..hops {
        let name = format!("soak{n}v{h}");
        sg = sg.vnf(&name, "monitor", cpu, 64);
        names.push(name);
    }
    names.push("sap1".into());
    let hop_refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
    sg.chain(&format!("soak{n}"), &hop_refs, bw, None)
}

/// One randomized fault plan: link flap, loss spike + clear, delay
/// spike + clear, or a VNF stall (short, bridged by RPC retries — or
/// occasionally long enough to defeat the whole retry schedule and
/// force rollbacks). Every fault heals within the returned settle
/// window, so plans never overlap destructively.
fn soak_fault(n: u64, rng: &mut SmallRng) -> (FaultPlan, u64) {
    let name = format!("soakfault{n}");
    match rng.gen_range(0u32..4) {
        0 => {
            let (a, b) = FAULTABLE_LINKS[rng.gen_range(0..FAULTABLE_LINKS.len())];
            let up_ms = 2 + rng.gen_range(0u64..4);
            let plan = FaultPlan::new(&name)
                .at_ms(
                    0,
                    FaultKind::LinkDown {
                        a: a.into(),
                        b: b.into(),
                    },
                )
                .at_ms(
                    up_ms,
                    FaultKind::LinkUp {
                        a: a.into(),
                        b: b.into(),
                    },
                );
            (plan, up_ms + 2)
        }
        1 => {
            let (a, b) = FAULTABLE_LINKS[rng.gen_range(0..FAULTABLE_LINKS.len())];
            let clear_ms = 2 + rng.gen_range(0u64..4);
            // ≥ 0.25 loss counts as a link failure and triggers reroute.
            let loss = if rng.gen_bool(0.5) { 0.4 } else { 0.1 };
            let plan = FaultPlan::new(&name)
                .at_ms(
                    0,
                    FaultKind::LossSpike {
                        a: a.into(),
                        b: b.into(),
                        loss,
                    },
                )
                .at_ms(
                    clear_ms,
                    FaultKind::LossClear {
                        a: a.into(),
                        b: b.into(),
                    },
                );
            (plan, clear_ms + 2)
        }
        2 => {
            let (a, b) = FAULTABLE_LINKS[rng.gen_range(0..FAULTABLE_LINKS.len())];
            let clear_ms = 2 + rng.gen_range(0u64..4);
            let plan = FaultPlan::new(&name)
                .at_ms(
                    0,
                    FaultKind::DelaySpike {
                        a: a.into(),
                        b: b.into(),
                        delay_us: 500,
                    },
                )
                .at_ms(
                    clear_ms,
                    FaultKind::DelayClear {
                        a: a.into(),
                        b: b.into(),
                    },
                );
            (plan, clear_ms + 2)
        }
        _ => {
            let node = CONTAINERS[rng.gen_range(0..CONTAINERS.len())];
            // Mostly short stalls (bridged by retries); occasionally a
            // stall longer than the whole RPC retry budget, so deploys
            // and teardowns that land on this container fail and
            // exercise rollback / teardown-retry.
            let stall_ms = if rng.gen_bool(0.25) {
                700 + rng.gen_range(0u64..200)
            } else {
                1 + rng.gen_range(0u64..15)
            };
            let plan = FaultPlan::new(&name).at_ms(
                0,
                FaultKind::VnfStall {
                    node: node.into(),
                    for_us: stall_ms * 1000,
                },
            );
            // Don't wait out long stalls here — let subsequent ops land
            // on the stalled container.
            (plan, stall_ms.min(16) + 2)
        }
    }
}

/// Runs the soak loop. Aborts on the first step whose invariant check
/// fails and records the violations in the report.
pub fn run_soak(cfg: SoakConfig) -> SoakReport {
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut esc = Escape::build(
        soak_topology(),
        Box::new(GreedyFirstFit),
        SteeringMode::Proactive,
        cfg.seed,
    )
    .expect("soak topology is valid");
    esc.set_admission(AdmissionConfig::default());

    let mut report = SoakReport::default();
    for step in 0..cfg.steps {
        match rng.gen_range(0u32..100) {
            // Deploy a fresh small chain.
            0..=34 => match esc.deploy(&soak_graph(step, &mut rng)) {
                Ok(_) => report.deploys += 1,
                Err(EscapeError::DeployFailed { .. }) => report.rollbacks += 1,
                Err(EscapeError::MappingFailed(_)) => report.mapping_rejections += 1,
                Err(EscapeError::Admission(_)) => report.admission_queued += 1,
                Err(e) => panic!("soak step {step}: unexpected deploy error: {e}"),
            },
            // Resize a random live chain's first VNF (every soak chain
            // names it `<chain>v0`). Migrations race the injected
            // faults and stalls, so both the commit path and the
            // rollback path get soaked; either way the invariant check
            // below must stay clean.
            35..=49 => {
                let live = esc.deployed_chains();
                if live.is_empty() {
                    report.scale_skipped += 1;
                } else {
                    let chain = live[rng.gen_range(0..live.len())].clone();
                    let vnf = format!("{chain}v0");
                    let to = 1 + rng.gen_range(0u32..3);
                    match esc.scale_chain(&chain, &vnf, to) {
                        Ok(_) => report.scales += 1,
                        Err(EscapeError::ScaleFailed { .. }) => report.scale_rollbacks += 1,
                        // Co-located placement or admission pressure:
                        // nothing to undo.
                        Err(EscapeError::Invalid(_)) => report.scale_skipped += 1,
                        Err(e) => panic!("soak step {step}: unexpected scale error: {e}"),
                    }
                }
            }
            // Tear down a random live chain.
            50..=64 => {
                let live = esc.deployed_chains();
                if !live.is_empty() {
                    let victim = live[rng.gen_range(0..live.len())].clone();
                    match esc.teardown(&victim) {
                        Ok(()) => report.teardowns += 1,
                        // Stalled agent: chain stays live, retried by a
                        // later teardown step.
                        Err(EscapeError::RpcTimeout { .. }) => report.teardown_retries += 1,
                        Err(e) => panic!("soak step {step}: unexpected teardown error: {e}"),
                    }
                }
            }
            // Inject a fault plan, then run recovery past its window.
            65..=79 => {
                let (plan, settle_ms) = soak_fault(step, &mut rng);
                esc.load_fault_plan(&plan)
                    .expect("soak fault targets exist");
                report.faults += 1;
                esc.run_with_recovery(settle_ms);
            }
            // Just let time pass (pumps the admission queue too).
            _ => esc.run_with_recovery(1 + rng.gen_range(0u64..4)),
        }
        report.steps = step + 1;
        let violations = esc.check_invariants();
        if !violations.is_empty() {
            report
                .violations
                .extend(violations.into_iter().map(|v| format!("step {step}: {v}")));
            break;
        }
    }

    // Drain whatever is still queued in admission, then account.
    esc.run_with_recovery(200);
    let final_violations = esc.check_invariants();
    report
        .violations
        .extend(final_violations.into_iter().map(|v| format!("final: {v}")));
    let m = esc.telemetry();
    report.admission_queued = m.counter_total("escape.admission_queued");
    report.admission_rejected = m.counter_total("escape.admission_rejected");
    report.live_at_end = esc.deployed_chains().len();
    report.fingerprint = esc.state_fingerprint();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_soak_is_clean_and_deterministic() {
        let cfg = SoakConfig { steps: 60, seed: 9 };
        let a = run_soak(cfg);
        assert!(a.clean(), "violations: {:?}", a.violations);
        assert!(
            a.deploys > 0,
            "soak never deployed anything: {}",
            a.summary()
        );
        let b = run_soak(cfg);
        assert_eq!(a, b, "same seed must reproduce the same report");
    }
}
