//! Chain deployment as a staged transaction — plan, prepare, commit —
//! plus checkpoint restore, teardown and the steering-rule compiler.

use super::{Escape, Ingress, Retire, Undo};
use crate::error::{DeployPhase, EscapeError};
use crate::infra::Infra;
use crate::journal::{JournalKind, Severity};
use escape_netem::Time;
use escape_openflow::{Action, Match};
use escape_orch::ChainMapping;
use escape_pox::SteeringRule;
use escape_scale::bucket_plan;
use escape_sg::ServiceGraph;
use escape_telemetry::{Counter, Registry};
use std::collections::BTreeMap;

/// One deployed VNF instance.
#[derive(Debug, Clone)]
pub struct DeployedVnf {
    pub vnf_name: String,
    pub vnf_type: String,
    pub container: String,
    pub vnf_id: String,
    /// VNF device -> switch port it is attached to (as reported by
    /// `connectVNF`).
    pub switch_ports: BTreeMap<u16, u16>,
}

/// A deployed chain: mapping plus live instance handles.
#[derive(Debug, Clone)]
pub struct DeployedChain {
    pub mapping: ChainMapping,
    pub vnfs: Vec<DeployedVnf>,
    pub cookie: u64,
    pub rules: usize,
}

/// What `deploy` reports per service graph — the data behind experiment
/// E1 (chain setup latency, by phase).
#[derive(Debug, Clone)]
pub struct DeploymentReport {
    pub chains: Vec<DeployedChain>,
    /// Virtual time when deployment started.
    pub started_at: Time,
    /// Virtual time after mapping (instantaneous in virtual time).
    pub mapped_at: Time,
    /// Virtual time after all NETCONF RPCs completed.
    pub vnfs_ready_at: Time,
    /// Virtual time after steering rules were flushed to switches.
    pub steered_at: Time,
}

impl DeploymentReport {
    /// Total virtual setup latency.
    pub fn total(&self) -> Time {
        Time::from_ns(self.steered_at.since(self.started_at))
    }

    /// NETCONF (VNF management) phase duration.
    pub fn netconf_phase(&self) -> Time {
        Time::from_ns(self.vnfs_ready_at.since(self.mapped_at))
    }

    /// Steering (flow programming) phase duration.
    pub fn steering_phase(&self) -> Time {
        Time::from_ns(self.steered_at.since(self.vnfs_ready_at))
    }
}

/// Metric handles of the deploy / teardown transactions.
pub(super) struct DeployCounters {
    deploys: Counter,
    deploy_failures: Counter,
    pub(super) chains: Counter,
    teardowns: Counter,
    /// Deploy transactions rolled back (`escape.rollbacks`).
    rollbacks: Counter,
}

impl DeployCounters {
    pub(super) fn new(telemetry: &Registry) -> DeployCounters {
        DeployCounters {
            deploys: telemetry.counter("escape.deploys"),
            deploy_failures: telemetry.counter("escape.deploy_failures"),
            chains: telemetry.counter("escape.chains_deployed"),
            teardowns: telemetry.counter("escape.teardowns"),
            rollbacks: telemetry.counter("escape.rollbacks"),
        }
    }
}

impl Escape {
    /// Deploys a service graph as a staged transaction:
    ///
    /// 1. **plan** — reserve compute and bandwidth in the orchestrator;
    /// 2. **prepare** — initiate/connect/start every VNF over NETCONF and
    ///    stage the compiled steering rules in a shadow set (no flow-mod
    ///    leaves the controller yet);
    /// 3. **commit** — atomically activate the staged rules and publish
    ///    the chains.
    ///
    /// A failure or RPC timeout in prepare/commit rolls back exactly the
    /// completed steps in reverse order — stop started VNFs, disconnect
    /// their ports, discard or delete rules, release every reservation —
    /// and surfaces as [`EscapeError::DeployFailed`] carrying the phase,
    /// the root cause and the rollback report. Plan failures surface as
    /// plain [`EscapeError::MappingFailed`] (nothing to undo beyond the
    /// reservations, which are released inline).
    ///
    /// When admission control is enabled ([`Escape::set_admission`]),
    /// the request is first gated on compute utilization.
    ///
    /// The whole operation is traced in virtual time: a `deploy` span
    /// with `mapping`, one `chain_setup` per chain (its NETCONF leg) and
    /// `steering` children.
    pub fn deploy(&mut self, sg: &ServiceGraph) -> Result<DeploymentReport, EscapeError> {
        if let Some(verdict) = self.admit(sg) {
            return Err(EscapeError::Admission(verdict));
        }
        self.deploy_txn(sg)
    }

    /// One deployment transaction (no admission gate): span, counters,
    /// plan → prepare → commit with rollback.
    pub(super) fn deploy_txn(
        &mut self,
        sg: &ServiceGraph,
    ) -> Result<DeploymentReport, EscapeError> {
        let sp = self.tracer.enter("deploy", self.sim.now().as_ns());
        let result = self.deploy_inner(sg);
        let now = self.sim.now().as_ns();
        self.tracer.exit(sp, now);
        match &result {
            Ok(_) => self.counters.deploys.inc(),
            Err(_) => self.counters.deploy_failures.inc(),
        }
        result
    }

    fn deploy_inner(&mut self, sg: &ServiceGraph) -> Result<DeploymentReport, EscapeError> {
        sg.validate().map_err(EscapeError::Invalid)?;
        let started_at = self.sim.now();

        // ---- plan: reserve every chain's compute and bandwidth ------
        let sp_map = self.tracer.enter("mapping", self.sim.now().as_ns());
        let (mappings, rejected) = self.orch.embed_graph(sg);
        self.tracer.exit(sp_map, self.sim.now().as_ns());
        if !rejected.is_empty() {
            for m in &mappings {
                self.orch.release_chain(&m.chain.name);
            }
            return Err(EscapeError::MappingFailed(rejected));
        }
        let mapped_at = self.sim.now();
        let mut undo: Vec<Undo> = mappings
            .iter()
            .map(|m| Undo::Release {
                chain: m.chain.name.clone(),
            })
            .collect();

        // ---- prepare: VNFs up over NETCONF, rules staged ------------
        let mut chains: Vec<DeployedChain> = Vec::new();
        for mapping in mappings {
            let cookie = self.next_cookie;
            self.next_cookie += 1;
            let sp = self.tracer.enter("chain_setup", self.sim.now().as_ns());
            let res = self.prepare_chain(sg, mapping, cookie, &mut undo);
            self.tracer.exit(sp, self.sim.now().as_ns());
            match res {
                Ok(dc) => chains.push(dc),
                Err(cause) => return Err(self.fail_deploy(DeployPhase::Prepare, cause, undo)),
            }
        }
        let vnfs_ready_at = self.sim.now();

        // ---- commit: activate every staged rule set atomically ------
        if let Err(cause) = self.commit_chains(&chains, &mut undo) {
            return Err(self.fail_deploy(DeployPhase::Commit, cause, undo));
        }
        let steered_at = self.sim.now();

        for dc in &chains {
            self.counters.chains.inc();
            self.journal_note(
                Severity::Info,
                JournalKind::DeployCommitted,
                format!(
                    "chain {} ({} vnfs, {} rules)",
                    dc.mapping.chain.name,
                    dc.vnfs.len(),
                    dc.rules
                ),
            );
            // Remember the source graph so a crash can re-map the chain.
            self.graphs
                .insert(dc.mapping.chain.name.clone(), sg.clone());
            self.go_live(dc.mapping.chain.name.clone(), dc.clone());
        }
        Ok(DeploymentReport {
            chains,
            started_at,
            mapped_at,
            vnfs_ready_at,
            steered_at,
        })
    }

    /// Restores one checkpointed chain verbatim: the recorded mapping
    /// and cookie are committed without re-running the placement
    /// algorithm, so a restarted daemon reproduces the exact pre-crash
    /// placements, cookies and steering rules even though the
    /// algorithm's greedy choices depend on the full deploy history.
    /// Runs the same prepare/commit transaction (and rollback on
    /// failure) as a fresh deploy — recovery is never a special,
    /// less-safe code path. A mapping whose segments do not join its
    /// placed VNFs (one more segment than VNFs) is refused before
    /// anything is reserved.
    pub fn restore_chain(
        &mut self,
        sg: &ServiceGraph,
        mapping: ChainMapping,
        cookie: u64,
    ) -> Result<(), EscapeError> {
        sg.validate().map_err(EscapeError::Invalid)?;
        let name = mapping.chain.name.clone();
        if mapping.segments.len() != mapping.placement.len() + 1 {
            return Err(EscapeError::Invalid(format!(
                "chain {name}: {} segments join {} placed VNFs (want {})",
                mapping.segments.len(),
                mapping.placement.len(),
                mapping.placement.len() + 1
            )));
        }
        self.orch
            .restore_embedding(sg, &mapping)
            .map_err(EscapeError::Invalid)?;
        let mut undo = vec![Undo::Release {
            chain: name.clone(),
        }];
        let dc = match self.prepare_chain(sg, mapping, cookie, &mut undo) {
            Ok(dc) => dc,
            Err(cause) => return Err(self.fail_deploy(DeployPhase::Prepare, cause, undo)),
        };
        if let Err(cause) = self.commit_chains(std::slice::from_ref(&dc), &mut undo) {
            return Err(self.fail_deploy(DeployPhase::Commit, cause, undo));
        }
        self.counters.chains.inc();
        self.journal_note(
            Severity::Info,
            JournalKind::ChainRecovered,
            format!(
                "chain {name} restored from checkpoint (cookie {cookie}, {} rules)",
                dc.rules
            ),
        );
        self.graphs.insert(name.clone(), sg.clone());
        self.go_live(name, dc);
        self.set_next_cookie(cookie + 1);
        Ok(())
    }

    /// Prepare leg for one chain: bring its VNFs up over NETCONF
    /// (every completed step pushing its inverse onto `undo`), then
    /// compile its steering rules into the controller's shadow set.
    fn prepare_chain(
        &mut self,
        sg: &ServiceGraph,
        mapping: ChainMapping,
        cookie: u64,
        undo: &mut Vec<Undo>,
    ) -> Result<DeployedChain, EscapeError> {
        let vnfs = self.prepare_vnfs(sg, &mapping, undo)?;
        let mut dc = DeployedChain {
            mapping,
            vnfs,
            cookie,
            rules: 0,
        };
        let rules = compile_rules(&self.infra, &dc)?;
        dc.rules = rules.len();
        self.steering_mut().stage_rules(cookie, rules);
        undo.push(Undo::DiscardRules {
            chain: dc.mapping.chain.name.clone(),
            cookie,
        });
        Ok(dc)
    }

    /// Commit phase: move every chain's staged rules to the live queue,
    /// flush once, wait for the switches, provision ARP. Each chain's
    /// `DiscardRules` entry becomes `RemoveRules` where it stands, so a
    /// commit-phase rollback still walks rules-then-VNFs per chain.
    fn commit_chains(
        &mut self,
        chains: &[DeployedChain],
        undo: &mut [Undo],
    ) -> Result<(), EscapeError> {
        let st = self.steering_mut();
        for entry in undo.iter_mut() {
            if let Undo::DiscardRules { chain, cookie } = entry {
                st.commit_staged(*cookie);
                *entry = Undo::RemoveRules {
                    chain: std::mem::take(chain),
                    cookie: *cookie,
                };
            }
        }
        self.flush();
        let sp_steer = self.tracer.enter("steering", self.sim.now().as_ns());
        let steer_res = self.await_steering();
        self.tracer.exit(sp_steer, self.sim.now().as_ns());
        steer_res?;

        // Provision static ARP on the SAP endpoints of each chain.
        for dc in chains {
            let hops = &dc.mapping.chain.hops;
            let src = hops.first().expect("a validated chain starts at a SAP");
            let dst = hops.last().expect("a validated chain ends at a SAP");
            self.provision_arp(src, dst)?;
        }
        Ok(())
    }

    /// Undoes a failed deployment transaction: unwinds its log — per
    /// chain, newest first, rules out of the controller (staged sets
    /// discarded, committed sets deleted), started VNFs stopped,
    /// connected ports disconnected — then every reservation the plan
    /// phase made. Steps that fail (an agent that stayed dead) are
    /// recorded as best-effort in the report.
    fn fail_deploy(
        &mut self,
        phase: DeployPhase,
        cause: EscapeError,
        undo: Vec<Undo>,
    ) -> EscapeError {
        let rollback = self.unwind(undo);
        // Sessions that never finished their hello died with the deploy.
        self.rpcs.clients.retain(|_, c| c.ready());
        self.counters.rollbacks.inc();
        self.journal_note(
            Severity::Warn,
            JournalKind::DeployRolledBack,
            format!("{phase} phase: {cause}"),
        );
        EscapeError::DeployFailed {
            phase,
            cause: Box::new(cause),
            rollback,
        }
    }

    /// The NETCONF leg for one chain mapping: every VNF of the placement
    /// brought up in hop order. Recovery reuses it to redeploy a
    /// re-mapped chain.
    pub(super) fn prepare_vnfs(
        &mut self,
        sg: &ServiceGraph,
        mapping: &ChainMapping,
        undo: &mut Vec<Undo>,
    ) -> Result<Vec<DeployedVnf>, EscapeError> {
        let mut vnfs: Vec<DeployedVnf> = Vec::new();
        for (i, (vnf_name, container)) in mapping.placement.iter().enumerate() {
            let req = sg
                .vnf_named(vnf_name)
                .ok_or_else(|| EscapeError::NotFound(format!("vnf {vnf_name}")))?;
            // The target switch is the neighbor along the adjacent
            // segment (hop `i + 1` sits between segments `i` and
            // `i + 1`); same-container neighbors are patched internally
            // instead.
            let seg_in = &mapping.segments[i].nodes;
            let seg_out = &mapping.segments[i + 1].nodes;
            let ingress = if seg_in.len() >= 2 {
                Ingress::Switch(&seg_in[seg_in.len() - 2])
            } else {
                Ingress::Patch(vnfs.last().map(|prev| prev.vnf_id.as_str()))
            };
            let egress = (seg_out.len() >= 2).then(|| seg_out[1].as_str());
            let dv = self.bring_up_vnf(container, vnf_name.clone(), req, ingress, egress, undo)?;
            vnfs.push(dv);
        }
        Ok(vnfs)
    }

    /// Tears down a chain: stop + disconnect its VNFs, delete its rules,
    /// release its resources.
    ///
    /// Teardown is all-or-nothing on the bookkeeping side: if an agent
    /// RPC fails (stalled or dead container) the chain stays *deployed*
    /// — rules installed, resources reserved — and the call returns the
    /// error so the caller can retry once the agent is reachable again.
    /// Already-stopped VNFs stop idempotently on the retry. This is what
    /// keeps the conservation invariants honest: a chain is either fully
    /// live or fully gone, never a half-dismantled leak.
    pub fn teardown(&mut self, chain: &str) -> Result<(), EscapeError> {
        let dc = self.live_chain(chain)?;
        for v in &dc.vnfs {
            self.retire_vnf(v, Retire::Full)?;
        }
        self.forget_chain(chain);
        self.steering_mut().remove_chain(dc.cookie);
        self.flush_and_settle();
        self.orch.release_chain(chain);
        self.graphs.remove(chain);
        self.counters.teardowns.inc();
        self.journal_note(
            Severity::Info,
            JournalKind::Teardown,
            format!("chain {chain}"),
        );
        Ok(())
    }
}

/// The base (hop) name of a VNF instance: replicas are named
/// `{base}#{index}`, the primary keeps the bare base name.
pub(super) fn replica_base(vnf_name: &str) -> &str {
    vnf_name.split('#').next().unwrap_or(vnf_name)
}

/// Replica index of a VNF instance: 0 for the primary, the suffix after
/// `#` for replicas.
fn replica_index(vnf_name: &str) -> u32 {
    vnf_name
        .split_once('#')
        .and_then(|(_, j)| j.parse().ok())
        .unwrap_or(0)
}

/// All live instances of one chain hop (primary + replicas), ordered by
/// replica index.
pub(super) fn replicas_of<'a>(dc: &'a DeployedChain, vnf: &str) -> Vec<&'a DeployedVnf> {
    let mut set: Vec<&DeployedVnf> = dc
        .vnfs
        .iter()
        .filter(|v| replica_base(&v.vnf_name) == vnf)
        .collect();
    set.sort_by_key(|v| replica_index(&v.vnf_name));
    set
}

/// Compiles steering rules for a deployed chain: on every switch of every
/// segment, match the chain's traffic (by destination SAP IP, ingress
/// port, and — absent an upstream NAT — source SAP IP) and forward toward
/// the next node.
///
/// A scaled hop (replica set larger than one) fans traffic out with
/// hash-bucket matches on the switch feeding it — one rule per replica,
/// each claiming bucket `b` of `n` of the flow-key hash space — and fans
/// it back in on the switch draining it (one plain rule per replica
/// ingress port). Every flow sticks to exactly one replica, so per-flow
/// frame order survives scaling.
pub(super) fn compile_rules(
    infra: &Infra,
    dc: &DeployedChain,
) -> Result<Vec<SteeringRule>, EscapeError> {
    let hops = &dc.mapping.chain.hops;
    let [src, .., dst] = hops.as_slice() else {
        return Err(EscapeError::Invalid(format!(
            "chain {:?} needs at least two hops",
            dc.mapping.chain.name
        )));
    };
    let (_, src_ip) = infra.sap(src)?;
    let (_, dst_ip) = infra.sap(dst)?;
    let port = |from: &String, to: &String| {
        infra
            .switch_port
            .get(&(from.clone(), to.clone()))
            .copied()
            .ok_or_else(|| EscapeError::Steering(format!("no port {from} -> {to}")))
    };
    let vnf_port = |v: &DeployedVnf, dev: u16, side: &str| {
        v.switch_ports
            .get(&dev)
            .copied()
            .ok_or_else(|| EscapeError::Steering(format!("{} {side} unbound", v.vnf_name)))
    };

    // Replica sets keyed by hop (base) name, primary first.
    let mut sets: BTreeMap<&str, Vec<&DeployedVnf>> = BTreeMap::new();
    for v in &dc.vnfs {
        sets.entry(replica_base(&v.vnf_name)).or_default().push(v);
    }
    for set in sets.values_mut() {
        set.sort_by_key(|v| replica_index(&v.vnf_name));
    }

    // Does a NAT-ish hop precede segment k? (NAT rewrites nw_src.)
    // Walk placement order, not dc.vnfs — replicas append out of hop
    // order and must not shift the segment indexing.
    let nat_before: Vec<bool> = {
        let mut v = Vec::with_capacity(dc.mapping.segments.len());
        let mut seen_nat = false;
        v.push(seen_nat);
        for (name, _) in &dc.mapping.placement {
            // The hop sits between segment i and i+1 in placement order.
            seen_nat = seen_nat
                || sets
                    .get(name.as_str())
                    .is_some_and(|set| set[0].vnf_type == "nat");
            v.push(seen_nat);
        }
        v
    };

    let mut rules = Vec::new();
    for (k, seg) in dc.mapping.segments.iter().enumerate() {
        if seg.nodes.len() < 3 {
            // [loc] (co-located) or [loc, loc2]? Two-node segments would
            // mean SAP adjacent to container, which Infra::build rejects,
            // so only the co-located single-node case appears here.
            continue;
        }
        let hop_from = &hops[k];
        let hop_to = &hops[k + 1];
        for i in 1..seg.nodes.len() - 1 {
            let sw = &seg.nodes[i];
            let prev = &seg.nodes[i - 1];
            let next = &seg.nodes[i + 1];
            let dpid = *infra
                .dpid
                .get(sw)
                .ok_or_else(|| EscapeError::Invalid(format!("{sw} is not a switch")))?;
            // Fan-in: the first switch of a segment takes frames from
            // every replica of the upstream hop.
            let in_ports: Vec<u16> = match sets.get(hop_from.as_str()) {
                Some(set) if i == 1 => set
                    .iter()
                    .map(|v| vnf_port(v, 1, "egress"))
                    .collect::<Result<_, _>>()?,
                _ => vec![port(sw, prev)?],
            };
            // Fan-out: the last switch of a segment hash-buckets frames
            // across the downstream hop's replicas.
            let outs: Vec<(Option<(u8, u8)>, u16)> = match sets.get(hop_to.as_str()) {
                Some(set) if i == seg.nodes.len() - 2 => {
                    let plan = bucket_plan(set.len() as u32);
                    set.iter()
                        .enumerate()
                        .map(|(j, v)| Ok((plan.get(j).copied(), vnf_port(v, 0, "ingress")?)))
                        .collect::<Result<_, EscapeError>>()?
                }
                _ => vec![(None, port(sw, next)?)],
            };
            for &in_port in &in_ports {
                for &(bucket, out_port) in &outs {
                    let mut m = Match::any()
                        .with_in_port(in_port)
                        .with_dl_type(0x0800)
                        .with_nw_dst(dst_ip, 32);
                    if !nat_before[k] {
                        m = m.with_nw_src(src_ip, 32);
                    }
                    if let Some((n, b)) = bucket {
                        m = m.with_bucket(n, b);
                    }
                    rules.push(SteeringRule {
                        dpid,
                        match_: m,
                        priority: 500,
                        actions: vec![Action::out(out_port)],
                        chain_id: dc.cookie,
                    });
                }
            }
        }
    }
    Ok(rules)
}
