//! Leak-hunting soak harness.
//!
//! Drives one [`Session`](crate::Session) through the seeded op mix
//! ([`crate::ops`]) — deploys, teardowns, replica scaling, UDP streams,
//! fault injections, heals and idle time, with admission control, the
//! flight recorder, the sampler and the autoscaler on — and asserts the
//! conservation invariants ([`Escape::check_invariants`]) after **every
//! step**. Any residual state a rollback, recovery action or teardown
//! leaves behind (a reservation without a chain, a flow rule without a
//! live cookie, a running VNF outside the embedding, a dangling NETCONF
//! session) fails the run on the exact step that leaked it.
//!
//! The harness is fully deterministic: the op sequence comes from a
//! seeded RNG and the environment runs in virtual time, so the same
//! `(steps, seed)` pair reproduces the same [`SoakReport`] — including
//! the final state fingerprint — byte for byte.
//!
//! [`Escape::check_invariants`]: crate::Escape::check_invariants

use escape_json::wire_struct;
use escape_pox::SteeringMode;

use crate::error::EscapeError;
use crate::ops::{self, Op, OpKind, OpMix};

/// Parameters for one soak run.
#[derive(Debug, Clone, Copy)]
pub struct SoakConfig {
    /// Number of randomized steps to execute.
    pub steps: u64,
    /// Seed for the op mix *and* the environment.
    pub seed: u64,
}

wire_struct! {
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
        /// Scale ops refused up front (co-located VNF, replica cap).
        pub scale_skipped: u64,
        /// Chains torn down.
        pub teardowns: u64,
        /// Teardowns that hit a stalled agent and will be retried.
        pub teardown_retries: u64,
        /// Fault plans injected.
        pub faults: u64,
        /// Ops that failed with an error the soak has no count for.
        pub unexpected: u64,
        /// Chains still live when the run ended.
        pub live_at_end: usize,
        /// First invariant violations found, tagged with the step number.
        /// Empty on a clean run.
        pub violations: Vec<String>,
        /// `state_fingerprint` at the end of the run — the determinism
        /// witness (same config ⇒ same fingerprint).
        pub fingerprint: String,
    }
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
             {} teardowns ({} retried) | {} faults | {} unexpected | \
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
            self.unexpected,
            self.live_at_end,
            if self.clean() {
                "invariants clean".to_string()
            } else {
                format!("{} VIOLATION(S)", self.violations.len())
            }
        )
    }

    /// Counts one op by its kind and outcome.
    fn tally(&mut self, op: &Op) {
        use EscapeError as E;
        let count = match (op.kind, &op.error) {
            (OpKind::Deploy, None) => &mut self.deploys,
            (OpKind::Deploy, Some(E::DeployFailed { .. })) => &mut self.rollbacks,
            (OpKind::Deploy, Some(E::MappingFailed(_))) => &mut self.mapping_rejections,
            // Read from telemetry at the end, with the queued deploys
            // that were dropped later.
            (OpKind::Deploy, Some(E::Admission(_))) => return,
            (OpKind::Scale, None) => &mut self.scales,
            (OpKind::Scale, Some(E::ScaleFailed { .. })) => &mut self.scale_rollbacks,
            (OpKind::Scale, Some(E::Invalid(_))) => &mut self.scale_skipped,
            (OpKind::Teardown, None) => &mut self.teardowns,
            (OpKind::Teardown, Some(E::RpcTimeout { .. })) => &mut self.teardown_retries,
            (OpKind::Fault, None) => &mut self.faults,
            (_, None) => return,
            (_, Some(_)) => &mut self.unexpected,
        };
        *count += 1;
    }
}

/// Runs the soak loop. Aborts on the first step whose invariant check
/// fails and records the violations in the report.
pub fn run_soak(cfg: SoakConfig) -> SoakReport {
    let mut s = ops::session(cfg.seed, SteeringMode::Proactive);
    let mut mix = OpMix::new(cfg.seed);
    let mut report = SoakReport::default();
    for step in 0..cfg.steps {
        report.tally(&mix.step(&mut s));
        report.steps = step + 1;
        let violations = s.escape().check_invariants();
        if !violations.is_empty() {
            report
                .violations
                .extend(violations.into_iter().map(|v| format!("step {step}: {v}")));
            break;
        }
    }

    // Drain whatever is still queued in admission, then account.
    s.run_for_ms(200);
    let esc = s.escape();
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
