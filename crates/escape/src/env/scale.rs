//! Elastic scaling: make-before-break replica migrations and the
//! telemetry-driven autoscaler that requests them.

use super::deploy::{compile_rules, replicas_of};
use super::{DeployedChain, DeployedVnf, Escape, Ingress, Retire, Undo};
use crate::container::VnfContainer;
use crate::error::{AdmissionVerdict, EscapeError, RollbackReport};
use crate::journal::{JournalKind, Severity};
use escape_netem::Time;
use escape_packet::LookupMap;
use escape_scale::{Autoscaler, AutoscalerConfig, MigrationPhase};
use escape_sg::VnfReq;
use escape_telemetry::{Counter, Gauge, Registry};
use std::collections::BTreeSet;

/// Most replicas a single chain VNF may scale to. Replica fan-out is
/// bounded by the 8 pre-provisioned attachment points per
/// container-switch adjacency (each replica consumes one per device).
pub const MAX_REPLICAS: u32 = 8;

/// What [`Escape::scale_chain`] reports: the shape and timing of one
/// make-before-break scaling transaction.
#[derive(Debug, Clone)]
pub struct ScaleReport {
    pub chain: String,
    pub vnf: String,
    /// Replica count before the transaction.
    pub from: u32,
    /// Replica count after it.
    pub to: u32,
    /// Steering rules in the promoted set (the whole chain's).
    pub rules: usize,
    pub started_at: Time,
    /// Virtual instant the staged rules atomically replaced the live set.
    pub promoted_at: Time,
    /// Virtual instant the transaction fully committed (after drain and
    /// retire on scale-in).
    pub committed_at: Time,
}

impl ScaleReport {
    /// Virtual time from the first reservation to the rule cutover — the
    /// window new capacity is being built while old capacity serves.
    pub fn cutover_latency(&self) -> Time {
        Time::from_ns(self.promoted_at.since(self.started_at))
    }
}

/// The autoscaler, its tick bookkeeping and the scaling metric handles.
pub(super) struct Scaling {
    /// Telemetry-driven scaling policy engine; `None` until enabled with
    /// [`Escape::enable_autoscaler`]. Ticked at every sample point.
    autoscaler: Option<Autoscaler>,
    /// Virtual instant of the previous autoscaler tick, for utilization
    /// deltas.
    last_autoscale_ns: u64,
    /// Per-replica cumulative CPU usage (virtual ns) at the previous
    /// autoscaler tick, keyed (container, vnf id).
    replica_usage_last: LookupMap<(String, String), u64>,
    /// Committed scale-out transactions (`escape.scale_outs`).
    scale_outs: Counter,
    /// Committed scale-in transactions (`escape.scale_ins`).
    scale_ins: Counter,
    /// Scale/migration transactions rolled back
    /// (`escape.migration_rollbacks`).
    migration_rollbacks: Counter,
}

impl Scaling {
    pub(super) fn new(telemetry: &Registry) -> Scaling {
        Scaling {
            autoscaler: None,
            last_autoscale_ns: 0,
            replica_usage_last: LookupMap::new(),
            scale_outs: telemetry.counter("escape.scale_outs"),
            scale_ins: telemetry.counter("escape.scale_ins"),
            migration_rollbacks: telemetry.counter("escape.migration_rollbacks"),
        }
    }
}

/// In-flight state of one scaling transaction; what it has done so far
/// lives in its undo log.
struct ScaleTxn {
    chain: String,
    vnf: String,
    cookie: u64,
    container: String,
    /// The VNF's request (type, Click config, per-replica compute), from
    /// the service graph.
    req: VnfReq,
    /// The switches a replica's dev 0 / dev 1 attach to.
    sw_in: String,
    sw_out: String,
    started_at: Time,
    /// Rules in the replacement set.
    rules: usize,
    /// Bucket-rule count per replica index in the replacement set.
    bucket_rules: Vec<u64>,
    /// The pre-scale deployment record, for rule restore on rollback.
    old: DeployedChain,
}

impl Escape {
    /// Enables the telemetry-driven autoscaler. It is ticked at every
    /// sampler boundary (see [`Escape::enable_sampler`] — without a
    /// sampler there are no ticks), reading per-replica utilization,
    /// queue depth and the flight recorder's SLA verdicts, and executes
    /// its decisions through [`Escape::scale_chain`]. Same seed + same
    /// workload ⇒ byte-identical decision and journal streams.
    pub fn enable_autoscaler(&mut self, cfg: AutoscalerConfig, seed: u64) {
        self.scaling.autoscaler = Some(Autoscaler::new(cfg, seed));
        self.scaling.last_autoscale_ns = self.sim.now().as_ns();
    }

    /// The autoscaler, if enabled (tick/decision counters).
    pub fn autoscaler(&self) -> Option<&Autoscaler> {
        self.scaling.autoscaler.as_ref()
    }

    /// Live replica count of a chain VNF (primary included); 0 if the
    /// chain or VNF is unknown.
    pub fn replica_count(&self, chain: &str, vnf: &str) -> u32 {
        self.deployed
            .get(chain)
            .map_or(0, |dc| replicas_of(dc, vnf).len() as u32)
    }

    /// The live replicas of a chain VNF as (replica index, vnf id,
    /// container), primary (index 0) first.
    pub fn replicas(&self, chain: &str, vnf: &str) -> Vec<(u32, String, String)> {
        let Some(dc) = self.deployed.get(chain) else {
            return Vec::new();
        };
        replicas_of(dc, vnf)
            .into_iter()
            .enumerate()
            .map(|(j, v)| (j as u32, v.vnf_id.clone(), v.container.clone()))
            .collect()
    }

    /// Resizes one chain VNF to `to` replicas with a make-before-break
    /// migration:
    ///
    /// 1. **prepare** — reserve compute for each new replica, bring it up
    ///    over NETCONF on the primary's container (own Click router, own
    ///    virtual-CPU process), and stage the chain's *replacement* rule
    ///    set — hash-bucket fan-out across the replicas — in the
    ///    controller's shadow set. Live traffic still rides the old rules.
    /// 2. **promote** — the staged set atomically replaces the live set
    ///    at one flush: every flow is re-hashed onto its bucket with no
    ///    window in which neither rule set answers.
    /// 3. **drain** (scale-in) — one control-latency beat lets in-flight
    ///    frames clear the retiring replicas.
    /// 4. **retire** (scale-in) — surplus replicas are stopped,
    ///    disconnected and their reservations released.
    ///
    /// A failure in prepare or promote rolls the transaction back to the
    /// fingerprint-identical pre-scale state and surfaces as
    /// [`EscapeError::ScaleFailed`] carrying the migration phase. A
    /// disruptive fault landing mid-transaction aborts it the same way
    /// (the fault record is left for the regular healing pass).
    /// Scaling to the current count is a no-op.
    pub fn scale_chain(
        &mut self,
        chain: &str,
        vnf: &str,
        to: u32,
    ) -> Result<ScaleReport, EscapeError> {
        self.scale_chain_tagged(chain, vnf, to, "manual")
    }

    /// [`Escape::scale_chain`] with the decision origin (`manual` or an
    /// autoscaler reason label) stamped into the journal detail.
    fn scale_chain_tagged(
        &mut self,
        chain: &str,
        vnf: &str,
        to: u32,
        why: &str,
    ) -> Result<ScaleReport, EscapeError> {
        if !(1..=MAX_REPLICAS).contains(&to) {
            return Err(EscapeError::Invalid(format!(
                "replica count {to} out of range 1..={MAX_REPLICAS}"
            )));
        }
        let dc = self.live_chain(chain)?;
        let pos = dc
            .mapping
            .placement
            .iter()
            .position(|(n, _)| n == vnf)
            .ok_or_else(|| EscapeError::NotFound(format!("vnf {vnf} in chain {chain}")))?;
        let current: Vec<DeployedVnf> = replicas_of(&dc, vnf).into_iter().cloned().collect();
        let from = current.len() as u32;
        let started_at = self.sim.now();
        if from == to {
            return Ok(ScaleReport {
                chain: chain.to_string(),
                vnf: vnf.to_string(),
                from,
                to,
                rules: dc.rules,
                started_at,
                promoted_at: started_at,
                committed_at: started_at,
            });
        }
        let seg_in = &dc.mapping.segments[pos];
        let seg_out = &dc.mapping.segments[pos + 1];
        if seg_in.nodes.len() < 2 || seg_out.nodes.len() < 2 {
            return Err(EscapeError::Invalid(format!(
                "vnf {vnf} in chain {chain} is co-located (internal bindings); scaling needs fabric-attached devices"
            )));
        }
        let req = self
            .graphs
            .get(chain)
            .and_then(|sg| sg.vnf_named(vnf))
            .cloned()
            .ok_or_else(|| EscapeError::NotFound(format!("service graph vnf {vnf}")))?;
        let txn = ScaleTxn {
            chain: chain.to_string(),
            vnf: vnf.to_string(),
            cookie: dc.cookie,
            container: dc.mapping.placement[pos].1.clone(),
            req,
            sw_in: seg_in.nodes[seg_in.nodes.len() - 2].clone(),
            sw_out: seg_out.nodes[1].clone(),
            started_at,
            rules: 0,
            bucket_rules: Vec::new(),
            old: dc,
        };
        let (kind, ctr) = if to > from {
            (JournalKind::ScaleOut, self.scaling.scale_outs.clone())
        } else {
            (JournalKind::ScaleIn, self.scaling.scale_ins.clone())
        };
        self.journal_note(
            Severity::Info,
            kind,
            format!("chain {chain} vnf {vnf} {from}->{to} ({why})"),
        );
        let sp = self.tracer.enter("scale", self.sim.now().as_ns());
        let result = self.migrate(txn, &current, to);
        self.tracer.exit(sp, self.sim.now().as_ns());
        if let Ok(report) = &result {
            ctr.inc();
            self.journal_note(
                Severity::Info,
                JournalKind::MigrationCommitted,
                format!(
                    "chain {chain} vnf {vnf} {from}->{to} rules {} cutover {}ns",
                    report.rules,
                    report.cutover_latency().as_ns()
                ),
            );
        }
        result
    }

    /// One migration from `current` to `to` replicas: prepare, promote,
    /// and — shrinking — drain and retire the surplus.
    fn migrate(
        &mut self,
        mut txn: ScaleTxn,
        current: &[DeployedVnf],
        to: u32,
    ) -> Result<ScaleReport, EscapeError> {
        let from = current.len() as u32;
        let mut undo = Vec::new();
        // Highest replica indices retire; the primary never does.
        let retired = current.get(to as usize..).unwrap_or_default();
        let prepared = if to > from {
            self.scale_prepare_out(&mut txn, from, to, &mut undo)
        } else {
            self.scale_prepare_in(&mut txn, retired, to, &mut undo)
        };
        let fresh = match prepared {
            Ok(fresh) => fresh,
            Err(cause) => return Err(self.fail_scale(txn, MigrationPhase::Prepare, cause, undo)),
        };
        if let Err((phase, cause)) = self.scale_promote(&txn, &mut undo) {
            return Err(self.fail_scale(txn, phase, cause, undo));
        }
        let promoted_at = self.sim.now();
        // Commit: publish the promoted rule count and the new replicas.
        let dc = self.deployed.get_mut(&txn.chain).expect("chain is live");
        dc.vnfs.extend(fresh);
        dc.rules = txn.rules;
        if !retired.is_empty() {
            // Drain: flows already re-hashed onto survivors; one
            // control-latency beat flushes frames still inside the
            // retiring replicas out to the egress switch.
            self.settle();
        }
        // Retire. Agent-reported errors mean the step was already done
        // (idempotent retry); transport errors abort with the remaining
        // replicas still registered, so a retry can finish the job.
        for v in retired.iter().rev() {
            if let Err(e) = self.retire_vnf(v, Retire::Full) {
                return Err(self.fail_retire(&txn, e));
            }
            self.orch
                .release_replica(&txn.chain, &v.container, txn.req.cpu, txn.req.mem_mb);
            self.deployed
                .get_mut(&txn.chain)
                .expect("chain is live")
                .vnfs
                .retain(|x| x.vnf_id != v.vnf_id);
            self.scaling
                .replica_usage_last
                .remove(&(v.container.clone(), v.vnf_id.clone()));
        }
        self.publish_bucket_gauges(&txn.chain, &txn.vnf, &txn.bucket_rules, from as usize);
        Ok(ScaleReport {
            chain: txn.chain,
            vnf: txn.vnf,
            from,
            to,
            rules: txn.rules,
            started_at: txn.started_at,
            promoted_at,
            committed_at: self.sim.now(),
        })
    }

    /// Scale-out prepare leg: one reservation and one NETCONF bring-up
    /// (initiate, connect dev 0/1 to the fabric, start) per new replica,
    /// then the whole replacement rule set into the shadow set. Returns
    /// the new replicas.
    fn scale_prepare_out(
        &mut self,
        txn: &mut ScaleTxn,
        from: u32,
        to: u32,
        undo: &mut Vec<Undo>,
    ) -> Result<Vec<DeployedVnf>, EscapeError> {
        // Admission gate: growing a chain competes with new deploys for
        // the same compute, so the hard watermark applies here too.
        if let Some(cfg) = self.admission.cfg {
            let utilization = self.orch.cpu_utilization();
            if utilization >= cfg.hard_watermark {
                return Err(EscapeError::Admission(AdmissionVerdict::RejectedHard {
                    utilization,
                    hard_watermark: cfg.hard_watermark,
                }));
            }
        }
        for _ in from..to {
            self.orch
                .reserve_replica(&txn.chain, &txn.container, txn.req.cpu, txn.req.mem_mb)
                .map_err(|e| EscapeError::Invalid(format!("replica reservation: {e}")))?;
            undo.push(Undo::ReleaseReplica {
                chain: txn.chain.clone(),
                vnf: txn.vnf.clone(),
                container: txn.container.clone(),
                cpu: txn.req.cpu,
                mem_mb: txn.req.mem_mb,
            });
        }
        let mut fresh = Vec::new();
        for j in from..to {
            fresh.push(self.bring_up_vnf(
                &txn.container,
                format!("{}#{j}", txn.vnf),
                &txn.req,
                Ingress::Switch(&txn.sw_in),
                Some(&txn.sw_out),
                undo,
            )?);
        }
        let mut candidate = txn.old.clone();
        candidate.vnfs.extend(fresh.iter().cloned());
        self.stage_replacement(txn, &candidate, to, undo)?;
        Ok(fresh)
    }

    /// Scale-in prepare leg: the survivors' rule set into the shadow set.
    /// Brings nothing up.
    fn scale_prepare_in(
        &mut self,
        txn: &mut ScaleTxn,
        retired: &[DeployedVnf],
        to: u32,
        undo: &mut Vec<Undo>,
    ) -> Result<Vec<DeployedVnf>, EscapeError> {
        let retired_ids: BTreeSet<&str> = retired.iter().map(|v| v.vnf_id.as_str()).collect();
        let mut candidate = txn.old.clone();
        candidate
            .vnfs
            .retain(|v| !retired_ids.contains(v.vnf_id.as_str()));
        self.stage_replacement(txn, &candidate, to, undo)?;
        Ok(Vec::new())
    }

    /// Compiles the replacement rule set for `candidate` (hash-bucket
    /// fan-out across its replica sets) and stages it under the chain's
    /// cookie. Also records the per-replica bucket-rule counts for the
    /// telemetry gauges.
    fn stage_replacement(
        &mut self,
        txn: &mut ScaleTxn,
        candidate: &DeployedChain,
        to: u32,
        undo: &mut Vec<Undo>,
    ) -> Result<(), EscapeError> {
        let rules = compile_rules(&self.infra, candidate)?;
        txn.rules = rules.len();
        txn.bucket_rules = (0..to)
            .map(|j| {
                rules
                    .iter()
                    .filter(|r| r.match_.bucket == Some((to as u8, j as u8)))
                    .count() as u64
            })
            .collect();
        self.steering_mut().stage_rules(txn.cookie, rules);
        undo.push(Undo::DiscardRules {
            chain: txn.chain.clone(),
            cookie: txn.cookie,
        });
        Ok(())
    }

    /// Promote: the staged set replaces the live rules at one flush —
    /// the make-before-break cutover — unless a disruptive fault landed
    /// while the replacement was being prepared. From the promote on,
    /// undoing the newest log entry (the staged set) means putting the
    /// pre-scale rules back, so that entry is upgraded where it stands.
    fn scale_promote(
        &mut self,
        txn: &ScaleTxn,
        undo: &mut [Undo],
    ) -> Result<(), (MigrationPhase, EscapeError)> {
        if let Some(fault) = self.disruptive_fault_pending() {
            let cause = EscapeError::Steering(format!("fault {fault} landed mid-migration"));
            return Err((MigrationPhase::Prepare, cause));
        }
        self.steering_mut().promote_staged(txn.cookie);
        *undo.last_mut().expect("replacement is staged") = Undo::RestoreRules {
            old: txn.old.clone(),
        };
        self.flush();
        self.await_steering()
            .map_err(|cause| (MigrationPhase::Promote, cause))
    }

    /// Undoes a failed scaling transaction by unwinding its log: staged
    /// rules discarded (or, post-promote, the pre-scale rules recompiled
    /// and swapped back), new replicas stopped and disconnected, replica
    /// reservations released. Leaves the environment
    /// fingerprint-identical to its pre-scale state.
    fn fail_scale(
        &mut self,
        txn: ScaleTxn,
        phase: MigrationPhase,
        cause: EscapeError,
        undo: Vec<Undo>,
    ) -> EscapeError {
        let rollback = self.unwind(undo);
        self.scaling.migration_rollbacks.inc();
        self.journal_note(
            Severity::Warn,
            JournalKind::MigrationRolledBack,
            format!("chain {} vnf {} in {phase}: {cause}", txn.chain, txn.vnf),
        );
        EscapeError::ScaleFailed {
            chain: txn.chain,
            vnf: txn.vnf,
            phase,
            cause: Box::new(cause),
            rollback,
        }
    }

    /// A transport failure while retiring surplus replicas: the cutover
    /// is already committed (survivor rules live), so nothing is undone —
    /// the not-yet-retired replicas stay registered and reserved, and a
    /// scale retry finishes the job once the agent answers again.
    fn fail_retire(&mut self, txn: &ScaleTxn, cause: EscapeError) -> EscapeError {
        self.scaling.migration_rollbacks.inc();
        self.journal_note(
            Severity::Warn,
            JournalKind::MigrationRolledBack,
            format!(
                "chain {} vnf {} in retire: {cause} (cutover kept; retry to finish)",
                txn.chain, txn.vnf
            ),
        );
        EscapeError::ScaleFailed {
            chain: txn.chain.clone(),
            vnf: txn.vnf.clone(),
            phase: MigrationPhase::Retire,
            cause: Box::new(cause),
            rollback: RollbackReport::default(),
        }
    }

    /// One autoscaler tick: build per-replica-set samples from the
    /// containers' virtual CPU models and the latest SLA verdicts,
    /// publish the per-replica gauges, and execute the policy's
    /// decisions. Failures roll back inside [`Escape::scale_chain`] and
    /// are journaled there; the loop moves on.
    pub(super) fn autoscale_tick(&mut self) {
        if self.scaling.autoscaler.is_none() || self.deployed.is_empty() {
            return;
        }
        let now_ns = self.sim.now().as_ns();
        let interval_ns = now_ns.saturating_sub(self.scaling.last_autoscale_ns).max(1);
        self.scaling.last_autoscale_ns = now_ns;
        let samples = self.replica_samples(interval_ns);
        let decisions = self
            .scaling
            .autoscaler
            .as_mut()
            .expect("checked above")
            .tick(&samples);
        for d in decisions {
            let _ = self.scale_chain_tagged(&d.chain, &d.vnf, d.to, d.reason.label());
        }
    }

    /// One [`escape_scale::VnfSample`] per replica set of every deployed
    /// chain, plus the per-replica utilization and queue-depth gauges.
    /// Utilization is the virtual-CPU busy fraction over the tick
    /// interval; queue depth is the hosting container's output backlog.
    fn replica_samples(&mut self, interval_ns: u64) -> Vec<escape_scale::VnfSample> {
        let mut samples = Vec::new();
        for chain in self.deployed_chains() {
            let dc = &self.deployed[&chain];
            let sla_violated = self.observe.sla_last.get(&chain) == Some(&false);
            for (vnf, _) in &dc.mapping.placement {
                let set = replicas_of(dc, vnf);
                if set.is_empty() {
                    continue;
                }
                let mut util_sum = 0.0;
                let mut queue_max = 0u64;
                let mut drops = 0u64;
                for (j, v) in set.iter().enumerate() {
                    let Some((usage, queue, dropped)) = self
                        .infra
                        .node(&v.container)
                        .and_then(|n| self.sim.peek_node_as::<VnfContainer>(n))
                        .and_then(|c| {
                            let host = c.host();
                            let idx = host.vnf_index(&v.vnf_id)?;
                            let slot = &host.vnfs[idx];
                            Some((
                                host.cpu.process_usage(slot.proc),
                                c.pending_depth() as u64,
                                slot.dropped_not_running,
                            ))
                        })
                    else {
                        continue;
                    };
                    let key = (v.container.clone(), v.vnf_id.clone());
                    let last = self.scaling.replica_usage_last.insert(key, usage);
                    let util = usage.saturating_sub(last.unwrap_or(0)) as f64 / interval_ns as f64;
                    util_sum += util;
                    queue_max = queue_max.max(queue);
                    drops += dropped;
                    let gauge = |name| replica_gauge(&self.telemetry, name, &chain, vnf, j);
                    gauge("escape.replica_utilization_pm").set((util * 1000.0).round() as i64);
                    gauge("escape.replica_queue_depth").set(queue as i64);
                }
                samples.push(escape_scale::VnfSample {
                    chain: chain.clone(),
                    vnf: vnf.clone(),
                    replicas: set.len() as u32,
                    utilization: util_sum / set.len() as f64,
                    queue_depth: queue_max,
                    drops,
                    sla_violated,
                });
            }
        }
        samples
    }

    /// Per-replica steering-bucket gauges
    /// (`escape.steering_bucket_rules{chain,vnf,replica}`): how many
    /// live flow rules fan traffic into each replica's bucket. 0 for an
    /// unscaled (single-replica, unbucketed) set. Replica indexes in
    /// `bucket_rules.len()..prev_replicas` were just retired by a
    /// scale-in; their gauges (bucket rules, utilization, queue depth)
    /// are zeroed rather than left frozen at the last live reading.
    fn publish_bucket_gauges(
        &self,
        chain: &str,
        vnf: &str,
        bucket_rules: &[u64],
        prev_replicas: usize,
    ) {
        for j in 0..bucket_rules.len().max(prev_replicas) {
            let gauge = |name| replica_gauge(&self.telemetry, name, chain, vnf, j);
            match bucket_rules.get(j) {
                Some(count) => gauge("escape.steering_bucket_rules").set(*count as i64),
                None => {
                    gauge("escape.steering_bucket_rules").set(0);
                    gauge("escape.replica_utilization_pm").set(0);
                    gauge("escape.replica_queue_depth").set(0);
                }
            }
        }
    }
}

/// The `name{chain,replica,vnf}` gauge of replica `j` of a chain VNF.
fn replica_gauge(telemetry: &Registry, name: &str, chain: &str, vnf: &str, j: usize) -> Gauge {
    let replica = j.to_string();
    telemetry.gauge_with(
        name,
        &[
            ("chain", chain),
            ("replica", replica.as_str()),
            ("vnf", vnf),
        ],
    )
}
