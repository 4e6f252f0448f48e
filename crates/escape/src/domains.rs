//! Multi-domain ESCAPE: one full [`Escape`] environment per
//! infrastructure domain, stitched by a global coordinator.
//!
//! This is the runtime half of the hierarchical orchestration the paper
//! sketches for multi-operator deployments:
//!
//! * [`escape_domain::partition()`] carves the shared topology into local
//!   domains joined by gateway links;
//! * each domain gets its own simulator, POX controller, NETCONF agents
//!   and local orchestrator — a complete single-domain ESCAPE;
//! * the [`escape_domain::GlobalOrchestrator`] plans cross-domain chains
//!   over the aggregated views and delegates per-domain legs to the
//!   local orchestrators;
//! * [`MultiDomainEscape::run_for_ms`] drives all domain simulators in
//!   epoch lockstep, optionally on parallel worker threads, ferrying
//!   packets between gateway SAP pairs at the epoch barriers.
//!
//! # Determinism
//!
//! Domain simulators only interact at epoch barriers, on the coordinator
//! thread, in a fixed order (domain index, then gateway, then arrival
//! time). A handed-off packet is re-injected exactly one [`EPOCH`] after
//! it reached the egress gateway — a fixed, virtual-time handoff cost
//! that stands in for the inter-domain control-plane hop. Worker threads
//! only ever advance *disjoint* simulators between barriers, so the
//! merged event and flight traces are byte-identical for any worker
//! count and across repeated runs with the same seed.
//!
//! # Removal
//!
//! One rule decides when the coordinator lets go of a chain. Its plan
//! enters `plans`, with its global CPU committed, before its first leg
//! deploys; it leaves, its handoffs dropped and its CPU released, only
//! once every leg it names is down. A deploy's rollback, a teardown and a
//! re-stitch all take legs down through one helper, which tries every
//! leg and reports those still up, so a stalled agent keeps the plan:
//!
//! * a re-stitch keeps the chain's graph too, and the next epoch's
//!   lost-chain sweep retries it;
//! * a rollback or a teardown leaves the plan without a graph (the chain
//!   is being removed), and the next [`MultiDomainEscape::teardown`]
//!   finishes it.

#![deny(clippy::let_underscore_must_use)]

use crate::env::Escape;
use crate::error::{DeployPhase, EscapeError, RollbackReport, RollbackStep};
use crate::journal::{Journal, JournalKind, Severity, DEFAULT_JOURNAL_CAP};
use crate::session::algorithm_by_name;
use escape_domain::{ChainLeg, ChainPlan, DomainSpec, GlobalOrchestrator, Partition};
use escape_netem::{LinkState, Time};
use escape_orch::MapError;
use escape_pox::SteeringMode;
use escape_sg::{ResourceTopology, ServiceGraph};
use escape_telemetry::{Counter, Registry, Snapshot};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::net::Ipv4Addr;

/// Epoch length: how far each domain simulator runs between coordinator
/// barriers. Also the fixed virtual cost of a gateway handoff, which
/// guarantees a ferried packet is never injected into a domain's past.
pub const EPOCH: Time = Time::from_us(500);

/// One domain's runtime: its name and its complete ESCAPE environment.
struct DomainRuntime {
    name: String,
    esc: Escape,
    /// `domains.handoffs{from=name}` and
    /// `domains.unroutable_payloads{from=name}`, each looked up at the
    /// domain's first such payload.
    handoffs: Option<Counter>,
    unroutable: Option<Counter>,
}

/// Counts one payload under `series{from=domain}`, looking the series
/// up the first time.
fn count_from(handle: &mut Option<Counter>, registry: &Registry, series: &str, domain: &str) {
    handle
        .get_or_insert_with(|| registry.counter_with(series, &[("from", domain)]))
        .inc();
}

/// First chain-identifying source port handed out by the coordinator.
/// Every leg of a chain — the first (via [`MultiDomainEscape::
/// start_chain_udp`]) and each gateway re-origination — carries the
/// chain's own port, so chains sharing a source SAP or a gateway path
/// stay distinguishable on the wire.
const CHAIN_PORT_BASE: u16 = 41_000;

/// Where payloads surfacing at an egress gateway SAP continue.
#[derive(Debug, Clone)]
struct Handoff {
    chain: String,
    to_domain: usize,
    /// Ingress gateway SAP in the next domain (re-origination point).
    from_sap: String,
    /// The next leg's exit SAP (the new destination address).
    to_sap: String,
    /// The chain's wire-identity port, stamped on the re-originated leg.
    port: u16,
}

/// `(egress domain index, egress gateway SAP, leg source IP, leg source
/// port)` — enough to route a drained payload onto its next leg. The
/// port matters from the second handoff on, where the source IP is the
/// ingress gateway SAP shared by every chain crossing that gateway.
type HandoffKey = (usize, String, Ipv4Addr, u16);

/// The multi-domain environment: per-domain [`Escape`] instances under a
/// global orchestrator and an epoch-stepped coordinator.
pub struct MultiDomainEscape {
    parts: Vec<DomainRuntime>,
    global: GlobalOrchestrator,
    /// Gateway SAPs to drain, in deterministic (domain, gateway) order.
    gw_saps: Vec<(usize, String)>,
    /// Every chain with a leg that may be up (see the module docs).
    plans: BTreeMap<String, ChainPlan>,
    /// Originating service graph per chain, for global re-stitching. A
    /// planned chain without one is being removed.
    graphs: BTreeMap<String, ServiceGraph>,
    handoffs: BTreeMap<HandoffKey, Handoff>,
    /// Chain → wire-identity port. Assigned in deploy order, never
    /// reused, so identical deploy sequences get identical ports.
    ports: BTreeMap<String, u16>,
    next_port: u16,
    workers: usize,
    /// Coordinator-level typed event journal (stitches, escalations,
    /// gateway faults). Per-domain journals live in each [`Escape`];
    /// [`MultiDomainEscape::event_trace`] merges them all.
    journal: Journal,
    /// Coordinator-level metrics (handoffs, re-stitches).
    registry: Registry,
    clock: Time,
}

/// Per-domain seeds must differ (identical seeds would produce eerily
/// synchronized jitter) but derive deterministically from the base seed
/// and the domain *index* — never from worker assignment.
fn domain_seed(seed: u64, index: usize) -> u64 {
    seed.wrapping_add((index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

impl MultiDomainEscape {
    /// Partitions `topo` per `spec` and builds one [`Escape`] per domain,
    /// each local orchestrator running its own instance of the mapping
    /// `algorithm`, named as for [`crate::Session::new`] (an unknown name
    /// fails before any domain is built). `workers` caps the simulator
    /// threads used per epoch (`1` = fully sequential; results are
    /// identical either way).
    pub fn build(
        topo: &ResourceTopology,
        spec: &DomainSpec,
        algorithm: &str,
        mode: SteeringMode,
        seed: u64,
        workers: usize,
    ) -> Result<MultiDomainEscape, EscapeError> {
        let partition = escape_domain::partition(topo, spec).map_err(EscapeError::Invalid)?;
        let mut parts = Vec::with_capacity(partition.domains.len());
        for (i, d) in partition.domains.iter().enumerate() {
            let algorithm = algorithm_by_name(algorithm).map_err(EscapeError::Invalid)?;
            let mut esc = Escape::build(d.topo.clone(), algorithm, mode, domain_seed(seed, i))?;
            for g in &partition.gateways {
                if let Some(sap) = g.sap_in(&d.name) {
                    esc.set_gateway_sap(sap)?;
                }
            }
            parts.push(DomainRuntime {
                name: d.name.clone(),
                esc,
                handoffs: None,
                unroutable: None,
            });
        }
        let mut gw_saps = Vec::new();
        for g in &partition.gateways {
            for domain in [&g.a_domain, &g.b_domain] {
                let di = partition
                    .domain_index(domain)
                    .expect("a gateway joins two partition domains");
                let sap = g.sap_in(domain).expect("a gateway has a SAP in each end");
                gw_saps.push((di, sap.to_string()));
            }
        }
        gw_saps.sort();
        let registry = Registry::new();
        let mut md = MultiDomainEscape {
            global: GlobalOrchestrator::new(partition),
            parts,
            gw_saps,
            plans: BTreeMap::new(),
            graphs: BTreeMap::new(),
            handoffs: BTreeMap::new(),
            ports: BTreeMap::new(),
            next_port: CHAIN_PORT_BASE,
            workers: workers.max(1),
            journal: Journal::new(&registry, DEFAULT_JOURNAL_CAP),
            registry,
            clock: Time::ZERO,
        };
        md.align();
        Ok(md)
    }

    /// The partition this environment runs over.
    pub fn partition(&self) -> &Partition {
        self.global.partition()
    }

    /// One domain's full single-domain environment (inspection only).
    pub fn domain_escape(&self, name: &str) -> Option<&Escape> {
        self.parts
            .iter()
            .find(|rt| rt.name == name)
            .map(|rt| &rt.esc)
    }

    /// Mutable access to one domain's environment — for arming local
    /// fault plans or other domain-scoped interventions. The epoch loop
    /// keeps driving the domain as usual afterwards.
    pub fn domain_escape_mut(&mut self, name: &str) -> Option<&mut Escape> {
        self.parts
            .iter_mut()
            .find(|rt| rt.name == name)
            .map(|rt| &mut rt.esc)
    }

    /// The global plan for a deployed chain.
    pub fn plan(&self, chain: &str) -> Option<&ChainPlan> {
        self.plans.get(chain)
    }

    /// Appends a typed entry to the coordinator journal at the current
    /// coordinator (virtual) time.
    fn journal_event(&mut self, severity: Severity, kind: JournalKind, detail: String) {
        self.journal
            .record(self.clock.as_ns(), severity, kind, detail);
    }

    /// The coordinator's own typed event journal.
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    fn domain_index(&self, name: &str) -> usize {
        self.global
            .partition()
            .domain_index(name)
            .expect("plan legs name partition domains")
    }

    // ---------------- deployment ------------------------------------

    /// Plans every chain globally, deploys each leg through the owning
    /// domain's local orchestrator and wires the gateway handoffs.
    pub fn deploy(&mut self, sg: &ServiceGraph) -> Result<(), EscapeError> {
        sg.validate().map_err(EscapeError::Invalid)?;
        for chain in &sg.chains {
            let plan = self.global.plan_chain(sg, chain).map_err(|e| {
                EscapeError::MappingFailed(vec![(
                    chain.name.clone(),
                    MapError::Infeasible(e.to_string()),
                )])
            })?;
            self.deploy_plan(sg, &plan)?;
            self.journal_event(
                Severity::Info,
                JournalKind::DeployCommitted,
                format!(
                    "chain {} stitched across {:?} ({} legs)",
                    plan.chain,
                    plan.domain_path,
                    plan.legs.len()
                ),
            );
            self.graphs.insert(chain.name.clone(), sg.clone());
        }
        self.align();
        Ok(())
    }

    /// Commits `plan` and enters it in `plans`, then deploys its legs and
    /// wires its handoffs. On a failure the legs come down again; if one
    /// stays up, the plan stays for [`MultiDomainEscape::teardown`] to
    /// finish, and the error's rollback report names the legs left up.
    fn deploy_plan(&mut self, sg: &ServiceGraph, plan: &ChainPlan) -> Result<(), EscapeError> {
        let chain = &plan.chain;
        if self.plans.contains_key(chain) {
            return Err(EscapeError::Invalid(format!("chain {chain} is deployed")));
        }
        self.global.commit(sg, plan);
        self.plans.insert(chain.clone(), plan.clone());
        let placed = plan.legs.iter().try_for_each(|leg| {
            let di = self.domain_index(&leg.domain);
            let leg_sg = leg_service_graph(sg, leg);
            self.parts[di].esc.deploy(&leg_sg).map(drop)
        });
        let Err(cause) = placed.and_then(|()| self.register_handoffs(plan)) else {
            return Ok(());
        };
        let up = self.take_down(chain);
        if up.is_empty() {
            self.forget(chain);
            return Err(cause);
        }
        let steps = up.iter().map(|&(di, _)| RollbackStep {
            action: "teardown-leg",
            target: format!("{chain} in {}", self.parts[di].name),
            ok: false,
        });
        let rollback = RollbackReport {
            steps: steps.collect(),
        };
        Err(EscapeError::DeployFailed {
            phase: DeployPhase::Prepare,
            cause: Box::new(cause),
            rollback,
        })
    }

    /// Takes `chain` down in every domain that still holds it and
    /// returns the domains where it stays up, each with the error that
    /// kept it there.
    fn take_down(&mut self, chain: &str) -> Vec<(usize, EscapeError)> {
        (0..self.parts.len())
            .filter_map(|di| {
                let esc = &mut self.parts[di].esc;
                esc.deployed(chain)?;
                esc.teardown(chain).err().map(|e| (di, e))
            })
            .collect()
    }

    /// Forgets a chain whose legs are all down: its plan and handoffs go,
    /// and its global CPU comes back.
    fn forget(&mut self, chain: &str) {
        self.plans.remove(chain);
        self.handoffs.retain(|_, h| h.chain != chain);
        self.global.release(chain);
    }

    /// Wires the egress-gateway routing table for one plan.
    fn register_handoffs(&mut self, plan: &ChainPlan) -> Result<(), EscapeError> {
        let port = match self.ports.get(&plan.chain) {
            Some(&p) => p,
            None => {
                let p = self.next_port;
                self.next_port = p.checked_add(1).ok_or_else(|| {
                    EscapeError::Invalid(format!(
                        "no chain port left for {}: ports {CHAIN_PORT_BASE}..={p} are taken",
                        plan.chain
                    ))
                })?;
                self.ports.insert(plan.chain.clone(), p);
                p
            }
        };
        for w in plan.legs.windows(2) {
            let (leg, next) = (&w[0], &w[1]);
            let gid = leg.egress_gw.expect("non-final leg has an egress gateway");
            let g = &self.global.partition().gateways[gid];
            let di = self.domain_index(&leg.domain);
            let egress_sap = g
                .sap_in(&leg.domain)
                .expect("a leg's egress gateway touches its domain")
                .to_string();
            let src_sap = &leg.chain.hops[0];
            let src_ip = self.parts[di]
                .esc
                .infra
                .sap_addr
                .get(src_sap)
                .ok_or_else(|| EscapeError::NotFound(format!("sap {src_sap}")))?
                .1;
            let handoff = Handoff {
                chain: plan.chain.clone(),
                to_domain: self.domain_index(&next.domain),
                from_sap: g
                    .sap_in(&next.domain)
                    .expect("the next leg enters through this gateway")
                    .to_string(),
                to_sap: leg_exit(next).to_string(),
                port,
            };
            let key = (di, egress_sap.clone(), src_ip, port);
            if let Some(prev) = self.handoffs.get(&key) {
                if prev.chain != handoff.chain {
                    return Err(EscapeError::Invalid(format!(
                        "ambiguous handoff at {egress_sap}: chains {:?} and {:?} share \
                         source {src_sap} and the same gateway",
                        prev.chain, handoff.chain
                    )));
                }
            }
            self.handoffs.insert(key, handoff);
        }
        Ok(())
    }

    /// Removes a stitched chain everywhere: legs, handoffs, global CPU.
    /// The plan stays until every leg is down, so a teardown that fails
    /// part-way (a stalled agent) can be retried; the retry skips the
    /// legs whose domain no longer holds the chain. Dropping the chain's
    /// graph first keeps the coordinator from re-stitching it meanwhile.
    pub fn teardown(&mut self, chain: &str) -> Result<(), EscapeError> {
        if !self.plans.contains_key(chain) {
            return Err(EscapeError::NotFound(format!("chain {chain}")));
        }
        self.graphs.remove(chain);
        if let Some((_, e)) = self.take_down(chain).into_iter().next() {
            return Err(e);
        }
        self.forget(chain);
        self.journal_event(
            Severity::Info,
            JournalKind::Teardown,
            format!("chain {chain}"),
        );
        self.align();
        Ok(())
    }

    /// Starts paced UDP traffic on a stitched chain: frames enter at the
    /// chain's real source SAP and ride the first leg; gateway handoffs
    /// carry them onward with their birth timestamps intact.
    pub fn start_chain_udp(
        &mut self,
        chain: &str,
        frame_len: usize,
        interval_us: u64,
        count: u64,
    ) -> Result<(), EscapeError> {
        let plan = self
            .plans
            .get(chain)
            .ok_or_else(|| EscapeError::NotFound(format!("chain {chain}")))?;
        let leg = &plan.legs[0];
        let (from, to) = (leg.chain.hops[0].clone(), leg_exit(leg).to_string());
        let di = self.domain_index(&leg.domain);
        let port = *self
            .ports
            .get(chain)
            .ok_or_else(|| EscapeError::NotFound(format!("port for chain {chain}")))?;
        self.parts[di]
            .esc
            .start_udp_with_sport(&from, &to, frame_len, interval_us, count, port)
    }

    // ---------------- the epoch loop --------------------------------

    /// Advances every domain by `ms` virtual milliseconds in epoch
    /// lockstep, exchanging gateway traffic and healing faults at every
    /// barrier.
    pub fn run_for_ms(&mut self, ms: u64) {
        let deadline = self.align() + Time::from_ms(ms);
        while self.clock < deadline {
            let end = (self.clock + EPOCH).min(deadline);
            self.advance_all(end);
            self.clock = end;
            self.exchange(end);
            self.heal_epoch();
            // Recovery RPCs may have pushed some domains past the
            // barrier; bring the rest level before the next epoch.
            self.align();
        }
    }

    /// Marches every domain simulator to `end` — sequentially, or on up
    /// to `workers` threads over disjoint simulator chunks. Simulators
    /// share nothing between barriers, so the thread layout cannot
    /// change any result.
    fn advance_all(&mut self, end: Time) {
        let workers = self.workers.min(self.parts.len()).max(1);
        if workers == 1 {
            for rt in &mut self.parts {
                rt.esc.run_until(end);
            }
        } else {
            let chunk = self.parts.len().div_ceil(workers);
            std::thread::scope(|s| {
                for chunk in self.parts.chunks_mut(chunk) {
                    s.spawn(move || {
                        for rt in chunk {
                            rt.esc.run_until(end);
                        }
                    });
                }
            });
        }
    }

    /// Levels all domain clocks at the maximum and adopts it as the
    /// coordinator clock (sequential — used outside the parallel phase).
    fn align(&mut self) -> Time {
        let m = self
            .parts
            .iter()
            .map(|rt| rt.esc.now())
            .max()
            .unwrap_or(Time::ZERO)
            .max(self.clock);
        for rt in &mut self.parts {
            rt.esc.run_until(m);
        }
        self.clock = m;
        m
    }

    /// Drains every gateway SAP and re-originates each payload on its
    /// next leg, exactly one [`EPOCH`] after it reached the gateway.
    /// Runs on the coordinator thread in deterministic order.
    fn exchange(&mut self, end: Time) {
        let mut arrivals = Vec::new();
        for (di, sap) in self.gw_saps.clone() {
            let rxs = self.parts[di]
                .esc
                .drain_gateway_rx(&sap)
                .unwrap_or_default();
            for rx in rxs {
                arrivals.push((di, sap.clone(), rx));
            }
        }
        // Stable: per-SAP drains are already in arrival order.
        arrivals.sort_by_key(|(di, _, rx)| (rx.at, *di));
        for (di, sap, rx) in arrivals {
            let key = (di, sap.clone(), rx.src, rx.src_port);
            let registry = &self.registry;
            let Some(h) = self.handoffs.get(&key) else {
                // No chain claims this source on this gateway (its chain
                // was torn down or re-stitched with frames in flight).
                let from = &mut self.parts[di];
                let series = "domains.unroutable_payloads";
                count_from(&mut from.unroutable, registry, series, &from.name);
                continue;
            };
            let at = (rx.at + EPOCH).max(end);
            if self.parts[h.to_domain]
                .esc
                .gateway_send(&h.from_sap, &h.to_sap, rx.payload, rx.born_ns, at, h.port)
                .is_ok()
            {
                let from = &mut self.parts[di];
                count_from(&mut from.handoffs, registry, "domains.handoffs", &from.name);
            }
        }
    }

    /// Per-epoch healing: local recovery first in every domain, then a
    /// global sweep for chains whose legs the local layer had to abandon,
    /// or whose plan still crosses a failed gateway (a re-stitch that a
    /// stalled leg held up) — those escalate to a full re-stitch.
    fn heal_epoch(&mut self) {
        for rt in &mut self.parts {
            rt.esc.heal_now();
        }
        let mut broken: Vec<String> = Vec::new();
        for (chain, plan) in &self.plans {
            // A chain being removed has no graph: its teardown's retry
            // finishes it, not a re-stitch.
            let lost = self.graphs.contains_key(chain)
                && plan.legs.iter().any(|leg| {
                    let di = self.domain_index(&leg.domain);
                    self.parts[di].esc.deployed(chain).is_none()
                        || leg.egress_gw.is_some_and(|g| self.global.gateway_failed(g))
                });
            if lost {
                broken.push(chain.clone());
            }
        }
        for chain in broken {
            self.journal_event(
                Severity::Warn,
                JournalKind::HealEscalated,
                format!("chain {chain}: local recovery exhausted"),
            );
            self.restitch(&chain);
        }
    }

    /// Global re-stitch of one chain: tear down surviving legs, re-plan
    /// over the current domain graph (failed gateways excluded, shifted
    /// aggregate capacity), redeploy. A leg that stays up keeps the plan
    /// and the graph, and the next epoch's sweep tries again. Abandons
    /// the chain if the global layer cannot place it.
    fn restitch(&mut self, chain: &str) {
        // No graph: a teardown is under way and owns the plan.
        let Some(sg) = self.graphs.get(chain).cloned() else {
            return;
        };
        if let Some((_, e)) = self.take_down(chain).into_iter().next() {
            let detail = format!("chain {chain}: {e}; re-stitch waits");
            self.journal_event(Severity::Warn, JournalKind::HealFailed, detail);
            return;
        }
        self.forget(chain);
        let Some(c) = sg.chains.iter().find(|c| c.name == chain) else {
            return;
        };
        let outcome = self
            .global
            .plan_chain(&sg, c)
            .map_err(|e| EscapeError::Invalid(e.to_string()))
            .and_then(|plan| self.deploy_plan(&sg, &plan).map(|()| plan));
        match outcome {
            Ok(plan) => {
                self.registry.counter("domains.restitches").inc();
                self.journal_event(
                    Severity::Info,
                    JournalKind::ChainRestitched,
                    format!("chain {chain} across {:?}", plan.domain_path),
                );
            }
            Err(e) => {
                self.registry.counter("domains.restitch_failures").inc();
                self.graphs.remove(chain);
                self.journal_event(
                    Severity::Error,
                    JournalKind::ChainAbandoned,
                    format!("chain {chain}: {e}"),
                );
            }
        }
        self.align();
    }

    // ---------------- faults ----------------------------------------

    /// Fails an inter-domain gateway: both half-links go down in their
    /// simulators, the global orchestrator excludes the gateway, and
    /// every chain riding it is re-stitched over the remaining graph.
    pub fn fail_gateway(&mut self, id: usize) -> Result<(), EscapeError> {
        let gateway = self.set_gateway_links(id, LinkState::Down)?;
        self.global.mark_gateway_failed(id);
        self.journal_event(Severity::Warn, JournalKind::GatewayDown, gateway);
        let affected: Vec<String> = self
            .plans
            .iter()
            .filter(|(_, p)| p.gateways().contains(&id))
            .map(|(c, _)| c.clone())
            .collect();
        for chain in affected {
            self.restitch(&chain);
        }
        Ok(())
    }

    /// Brings a failed gateway back; future plans may use it again
    /// (already re-stitched chains stay on their new paths).
    pub fn restore_gateway(&mut self, id: usize) -> Result<(), EscapeError> {
        let gateway = self.set_gateway_links(id, LinkState::Up)?;
        self.global.mark_gateway_recovered(id);
        self.journal_event(Severity::Info, JournalKind::GatewayRestored, gateway);
        Ok(())
    }

    /// Sets both half-links of gateway `id` in their simulators and
    /// names the gateway as the journal does.
    fn set_gateway_links(&mut self, id: usize, state: LinkState) -> Result<String, EscapeError> {
        let g = self
            .global
            .partition()
            .gateways
            .get(id)
            .cloned()
            .ok_or_else(|| EscapeError::NotFound(format!("gateway {id}")))?;
        for (domain, sap, switch) in [
            (&g.a_domain, &g.a_sap, &g.a_switch),
            (&g.b_domain, &g.b_sap, &g.b_switch),
        ] {
            let di = self.domain_index(domain);
            let sim = &mut self.parts[di].esc.sim;
            for l in sim.find_links(sap, switch) {
                sim.set_link_state(l, state);
            }
        }
        Ok(format!("gateway {id} ({}--{})", g.a_switch, g.b_switch))
    }

    // ---------------- observation -----------------------------------

    /// Receive-side statistics of any SAP in any domain.
    pub fn sap_stats(&self, sap: &str) -> Result<escape_netem::HostStats, EscapeError> {
        for rt in &self.parts {
            if rt.esc.infra.node(sap).is_some() {
                return rt.esc.sap_stats(sap);
            }
        }
        Err(EscapeError::NotFound(format!("sap {sap}")))
    }

    /// Merged metric snapshot: every domain's metrics labelled with a
    /// `domain` dimension, plus the coordinator's own (labelled
    /// `domain="global"`), re-sorted into one deterministic snapshot.
    pub fn metrics(&self) -> Snapshot {
        let mut entries = Vec::new();
        for rt in &self.parts {
            for mut e in rt.esc.metrics().entries {
                e.labels.push(("domain".to_string(), rt.name.clone()));
                e.labels.sort();
                entries.push(e);
            }
        }
        for mut e in self.registry.snapshot().entries {
            e.labels.push(("domain".to_string(), "global".to_string()));
            e.labels.sort();
            entries.push(e);
        }
        entries.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        Snapshot { entries }
    }

    /// The merged journal as text: one `[{ns}ns] [{domain}] {severity}
    /// {kind}: {detail}` line per retained entry of the coordinator
    /// (domain `global`) and of every domain, stably ordered by virtual
    /// timestamp (ties keep global-then-partition order). Worker threads
    /// never touch the order: it is byte-identical across same-seed runs
    /// and any worker count.
    pub fn event_trace(&self) -> Vec<String> {
        let streams = std::iter::once(("global", &self.journal)).chain(
            self.parts
                .iter()
                .map(|rt| (rt.name.as_str(), rt.esc.journal())),
        );
        let mut rows: Vec<_> = streams
            .flat_map(|(domain, journal)| journal.entries().map(move |e| (domain, e)))
            .collect();
        rows.sort_by_key(|(_, e)| e.at_ns); // stable: ties keep stream order
        rows.into_iter()
            .map(|(domain, e)| {
                format!(
                    "[{}ns] [{domain}] {} {}: {}",
                    e.at_ns, e.severity, e.kind, e.detail
                )
            })
            .collect()
    }

    /// Turns on the flight recorder in every domain.
    pub fn enable_flight_recorder(&mut self, cap: usize) {
        for rt in &mut self.parts {
            rt.esc.enable_flight_recorder(cap);
        }
    }

    /// Merged flight-recorder trace: every domain's packet journeys,
    /// each line tagged `[{domain}]`, ordered by (journey start,
    /// domain index, packet id). The cross-worker determinism witness.
    pub fn merged_flight_trace(&self) -> String {
        let mut blocks: Vec<(u64, usize, u64, String)> = Vec::new();
        for (di, rt) in self.parts.iter().enumerate() {
            let fr = rt.esc.flight_record();
            for j in &fr.journeys {
                let tagged: String = fr
                    .timeline(j)
                    .lines()
                    .map(|l| format!("[{}] {l}\n", rt.name))
                    .collect();
                blocks.push((j.started_at().as_ns(), di, j.packet_id, tagged));
            }
        }
        blocks.sort_by_key(|a| (a.0, a.1, a.2));
        blocks.into_iter().map(|(_, _, _, t)| t).collect()
    }

    /// Deterministic rendering of every stitched chain's embedding:
    /// domain path, per-leg hops, placements and path delay. Two runs
    /// with the same seed must produce identical output.
    pub fn embedding_trace(&self) -> String {
        let mut out = String::new();
        for (c, plan) in &self.plans {
            writeln!(
                out,
                "chain {c}: path {:?} inter-domain {}us",
                plan.domain_path, plan.inter_domain_us
            )
            .expect("writing to a String cannot fail");
            for leg in &plan.legs {
                let di = self.domain_index(&leg.domain);
                if let Some(dc) = self.parts[di].esc.deployed(c) {
                    writeln!(
                        out,
                        "  leg {}: hops {:?} placement {:?} delay {}us",
                        leg.domain, leg.chain.hops, dc.mapping.placement, dc.mapping.total_delay_us
                    )
                    .expect("writing to a String cannot fail");
                }
            }
        }
        out
    }
}

/// Where a leg leaves its domain: a gateway SAP, or the chain's exit SAP.
fn leg_exit(leg: &ChainLeg) -> &str {
    leg.chain
        .hops
        .last()
        .expect("a leg runs from an entry SAP to an exit SAP")
}

/// The single-domain service graph a local orchestrator embeds for one
/// leg: the leg chain plus exactly the SAPs and VNFs it references.
fn leg_service_graph(sg: &ServiceGraph, leg: &ChainLeg) -> ServiceGraph {
    let mut saps = vec![leg.chain.hops[0].clone()];
    let exit = leg_exit(leg);
    if exit != saps[0] {
        saps.push(exit.to_string());
    }
    ServiceGraph {
        saps,
        vnfs: leg
            .vnfs
            .iter()
            .filter_map(|v| sg.vnf_named(v).cloned())
            .collect(),
        chains: vec![leg.chain.clone()],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two domains in a line: `sap0 - s0(c0) -[300us]- s1(c1) - sap1`.
    fn line2() -> MultiDomainEscape {
        let mut t = ResourceTopology::new();
        t.add_sap("sap0")
            .add_switch("s0")
            .add_container("c0", 4.0, 2048)
            .add_switch("s1")
            .add_container("c1", 4.0, 2048)
            .add_sap("sap1")
            .add_link("sap0", "s0", 1000.0, 10)
            .add_link("c0", "s0", 1000.0, 20)
            .add_link("s0", "s1", 1000.0, 300)
            .add_link("c1", "s1", 1000.0, 20)
            .add_link("sap1", "s1", 1000.0, 10);
        let spec = DomainSpec::new()
            .domain("d0", &["sap0", "s0", "c0"])
            .domain("d1", &["s1", "c1", "sap1"]);
        MultiDomainEscape::build(&t, &spec, "first_fit", SteeringMode::Proactive, 3, 1)
            .expect("the two-domain line builds")
    }

    #[test]
    fn running_out_of_chain_ports_rolls_every_leg_back() {
        let mut md = line2();
        // f0 fills three of d0's four CPUs, so f1 spills into d1.
        let sg = ServiceGraph::new()
            .sap("sap0")
            .sap("sap1")
            .vnf("f0", "firewall", 3.0, 256)
            .vnf("f1", "monitor", 3.0, 256)
            .chain("c", &["sap0", "f0", "f1", "sap1"], 20.0, None);
        md.next_port = u16::MAX;
        let err = md.deploy(&sg).expect_err("no chain port is left");
        assert!(
            matches!(&err, EscapeError::Invalid(m) if m.starts_with("no chain port left for c")),
            "{err}"
        );
        assert!(md.plan("c").is_none(), "every leg came down");
        assert!(md.handoffs.is_empty() && md.ports.is_empty());
        for rt in &md.parts {
            assert!(rt.esc.deployed("c").is_none(), "{} still holds c", rt.name);
            assert_eq!(
                rt.esc.check_invariants(),
                Vec::<String>::new(),
                "{}",
                rt.name
            );
        }
        // The global CPU came back: the same split fits again.
        md.next_port = CHAIN_PORT_BASE;
        md.deploy(&sg).expect("the chain fits once ports are free");
        let plan = md.plan("c").expect("the chain is planned");
        assert_eq!(
            (&plan.legs[0].vnfs, &plan.legs[1].vnfs),
            (&vec!["f0".to_string()], &vec!["f1".to_string()])
        );
        assert_eq!(md.ports.get("c"), Some(&CHAIN_PORT_BASE));
    }
}
