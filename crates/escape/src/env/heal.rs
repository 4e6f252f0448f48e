//! Fault injection and self-healing: armed fault plans, the healing
//! pass that drains applied faults, and the recovery verbs — re-route,
//! re-map, re-steer, abandon.

use super::{DeployedChain, DeployedVnf, Escape, Retire};
use crate::error::EscapeError;
use crate::journal::{JournalKind, Severity};
use escape_netem::{FaultInjector, FaultKind, FaultPlan, FaultRecord, NodeId};
use escape_telemetry::{Counter, Histogram, Registry};

/// The fault injector and the recovery metric handles.
pub(super) struct Healing {
    /// The fault injector node every loaded plan is appended to (plans
    /// can overlap); `None` until the first plan is loaded.
    injector: Option<NodeId>,
    /// Successful chain recoveries (`escape.recoveries`).
    recoveries: Counter,
    /// Chains that could not be recovered (`escape.recovery_failures`).
    recovery_failures: Counter,
    /// Virtual ns from fault detection to restored steering
    /// (`recovery.latency_ns`).
    recovery_latency: Histogram,
}

impl Healing {
    pub(super) fn new(telemetry: &Registry) -> Healing {
        Healing {
            injector: None,
            recoveries: telemetry.counter("escape.recoveries"),
            recovery_failures: telemetry.counter("escape.recovery_failures"),
            recovery_latency: telemetry.histogram("recovery.latency_ns"),
        }
    }
}

/// Loss at or above this fraction is treated as a link failure (the
/// paper's "degraded beyond use" threshold) and triggers a re-route.
const LOSS_FAILURE_THRESHOLD: f64 = 0.25;

impl Escape {
    /// Installs a fault plan into the emulation. Event times are relative
    /// to *now*; entity names are resolved immediately, so a plan naming
    /// an unknown node or link fails here rather than mid-run.
    pub fn load_fault_plan(&mut self, plan: &FaultPlan) -> Result<(), EscapeError> {
        let node = FaultInjector::install(&mut self.sim, self.healing.injector, plan)
            .map_err(EscapeError::FaultPlan)?;
        self.healing.injector = Some(node);
        Ok(())
    }

    /// Runs one healing pass right now: drains the injected-fault
    /// records and reacts to each in the order the faults were applied.
    /// The multi-domain coordinator calls this at every epoch barrier
    /// instead of using [`Escape::run_with_recovery`]'s internal slicing.
    pub fn heal_now(&mut self) {
        let records = self
            .healing
            .injector
            .and_then(|inj| self.sim.node_as_mut::<FaultInjector>(inj))
            .map_or_else(Vec::new, FaultInjector::take_records);
        for rec in records {
            self.handle_fault(rec);
        }
    }

    fn handle_fault(&mut self, rec: FaultRecord) {
        self.journal_note(
            Severity::Warn,
            JournalKind::FaultInjected,
            format!("{} {}", rec.kind.label(), rec.kind.target()),
        );
        match rec.kind {
            FaultKind::LinkDown { a, b } => self.heal_link(&a, &b),
            FaultKind::LossSpike { a, b, loss } if loss >= LOSS_FAILURE_THRESHOLD => {
                self.heal_link(&a, &b)
            }
            FaultKind::LinkUp { a, b } | FaultKind::LossClear { a, b } => {
                if self.orch.mark_link_recovered(&a, &b) {
                    self.journal_note(
                        Severity::Info,
                        JournalKind::LinkRestored,
                        format!("link {a}-{b}"),
                    );
                }
            }
            FaultKind::VnfCrash { node } => self.heal_container(&node),
            // Tolerable degradations: delay spikes ride out on their own,
            // stalls are bridged by the RPC retry schedule.
            FaultKind::LossSpike { .. }
            | FaultKind::DelaySpike { .. }
            | FaultKind::DelayClear { .. }
            | FaultKind::VnfStall { .. }
            | FaultKind::VnfResume { .. } => {}
        }
    }

    /// Link failed (or degraded beyond use): mark it in the resource view
    /// and re-route every chain whose path crossed it, keeping placements.
    fn heal_link(&mut self, a: &str, b: &str) {
        self.orch.mark_link_failed(a, b);
        for chain in self.orch.chains_using_link(a, b) {
            self.recover_chain(&chain, "reroute", Escape::reroute_deployed);
        }
    }

    /// Container died: its agent is gone, its residuals are written off,
    /// and every chain with a VNF on it is re-mapped onto survivors and
    /// redeployed over NETCONF.
    fn heal_container(&mut self, container: &str) {
        self.rpcs.clients.remove(container); // session died with the agent
        self.orch.mark_container_failed(container);
        for chain in self.orch.chains_on_container(container) {
            self.recover_chain(&chain, "remap", Escape::remap_deployed);
        }
    }

    /// Runs one recovery action under a `recovery` span — `replan` gives
    /// the chain's new deployment record, which is then re-steered and
    /// published — updating the recovery counters and latency histogram.
    fn recover_chain(
        &mut self,
        chain: &str,
        action: &str,
        replan: fn(&mut Escape, &str) -> Result<DeployedChain, EscapeError>,
    ) {
        let start = self.sim.now();
        let sp = self.tracer.enter("recovery", start.as_ns());
        let result = replan(self, chain).and_then(|mut dc| {
            self.resteer(&mut dc)?;
            self.deployed.insert(chain.to_string(), dc);
            Ok(())
        });
        self.tracer.exit(sp, self.sim.now().as_ns());
        match result {
            Ok(()) => {
                self.healing.recoveries.inc();
                self.healing
                    .recovery_latency
                    .observe(self.sim.now().since(start));
                self.journal_note(
                    Severity::Info,
                    JournalKind::HealRecovered,
                    format!("chain {chain} ({action})"),
                );
            }
            Err(e) => {
                self.healing.recovery_failures.inc();
                self.abandon_chain(chain);
                self.journal_note(
                    Severity::Error,
                    JournalKind::HealFailed,
                    format!("chain {chain}: {e}"),
                );
            }
        }
    }

    /// Re-routes a deployed chain around failed links (placement kept);
    /// its flows are then re-steered onto the new paths.
    fn reroute_deployed(&mut self, chain: &str) -> Result<DeployedChain, EscapeError> {
        let mapping = self
            .orch
            .reroute_chain(chain)
            .map_err(|e| EscapeError::MappingFailed(vec![(chain.to_string(), e)]))?;
        let mut dc = self.live_chain(chain)?;
        dc.mapping = mapping;
        Ok(dc)
    }

    /// Fully re-maps a chain (new placement on surviving containers) and
    /// redeploys its VNFs over NETCONF under the original cookie, so the
    /// re-steer that follows replaces the stale rules.
    fn remap_deployed(&mut self, chain: &str) -> Result<DeployedChain, EscapeError> {
        let sg = self
            .graphs
            .get(chain)
            .cloned()
            .ok_or_else(|| EscapeError::NotFound(format!("service graph of chain {chain}")))?;
        let old = self.live_chain(chain)?;
        let mapping = self
            .orch
            .remap_chain(&sg, chain)
            .map_err(|e| EscapeError::MappingFailed(vec![(chain.to_string(), e)]))?;
        // Their containers may host the replacements too, so don't leak
        // running VNFs.
        self.stop_survivors(&old.vnfs);
        let mut undo = Vec::new();
        match self.prepare_vnfs(&sg, &mapping, &mut undo) {
            Ok(vnfs) => Ok(DeployedChain {
                mapping,
                vnfs,
                cookie: old.cookie,
                rules: 0,
            }),
            Err(e) => {
                // Undo the partial redeploy so nothing keeps running for a
                // chain that is about to be abandoned.
                self.unwind(undo);
                Err(e)
            }
        }
    }

    /// Replaces a chain's steering rules atomically (stale rules deleted,
    /// new ones installed at one flush) and waits for the switches.
    pub(super) fn resteer(&mut self, dc: &mut DeployedChain) -> Result<(), EscapeError> {
        let rules = super::deploy::compile_rules(&self.infra, dc)?;
        dc.rules = rules.len();
        self.steering_mut().resteer_chain(dc.cookie, rules);
        self.flush();
        self.await_steering()
    }

    /// Best-effort stop of every instance in `vnfs` whose container is
    /// still alive (the others died with it).
    fn stop_survivors(&mut self, vnfs: &[DeployedVnf]) {
        for v in vnfs {
            if !self.orch.state().container_failed(&v.container) {
                let _ = self.retire_vnf(v, Retire::StopOnly);
            }
        }
    }

    /// A chain that could not be recovered: stop whatever VNFs of it
    /// survive (best effort), tear its stale rules out of the switches,
    /// release any reservation still held and forget it. Its service
    /// graph stays cached for a later manual redeploy.
    fn abandon_chain(&mut self, chain: &str) {
        let Some(dc) = self.deployed.remove(chain) else {
            return;
        };
        // Nothing may keep running for a dead chain (leak audit).
        self.stop_survivors(&dc.vnfs);
        self.steering_mut().remove_chain(dc.cookie);
        self.flush();
        // Usually a no-op (the failed re-map/re-route already released),
        // but a steering failure after a successful re-map leaves the
        // reservation live — drop it here.
        self.orch.release_chain(chain);
    }

    /// A destabilizing fault record (link down, container crash, loss at
    /// or above the failure threshold) sitting in the injector, waiting
    /// for the healing pass. Benign records (clears, tolerable spikes)
    /// don't abort migrations.
    pub(super) fn disruptive_fault_pending(&self) -> Option<String> {
        let fi = self
            .sim
            .peek_node_as::<FaultInjector>(self.healing.injector?)?;
        fi.pending_records()
            .iter()
            .find(|r| match r.kind {
                FaultKind::LinkDown { .. } | FaultKind::VnfCrash { .. } => true,
                FaultKind::LossSpike { loss, .. } => loss >= LOSS_FAILURE_THRESHOLD,
                _ => false,
            })
            .map(|r| format!("{} {}", r.kind.label(), r.kind.target()))
    }
}
