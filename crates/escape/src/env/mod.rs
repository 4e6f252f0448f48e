//! The ESCAPE environment: build, deploy, steer, generate traffic,
//! monitor.
//!
//! [`Escape`] owns the emulation ([`Sim`]), the infrastructure addressing
//! ([`Infra`]), the orchestrator and one NETCONF client session per VNF
//! container. Deployment is driven the way the real ESCAPE orchestrator
//! drives its agents: every management action is a `vnf_starter` RPC
//! travelling the emulated control network (so chain setup latency is
//! measured in *virtual* time), and steering rules are handed to the POX
//! traffic-steering app.
//!
//! # Shape
//!
//! This file is the core: the [`Escape`] type, its build, its clock (one
//! door, `advance`, that every move of virtual time goes through), the
//! chain registry, and the five primitives every operation is written
//! in — the poll-wait (`poll_until`), the flush-and-settle
//! (`flush_and_settle`), the VNF bring-up (`bring_up_vnf`), the VNF
//! retire (`retire_vnf`) and the undo log (`Undo`, `unwind`). The
//! operations are child modules with their own `impl Escape` blocks,
//! each owning its state and metric handles in one sub-struct of
//! [`Escape`]: `rpc` (NETCONF sessions, retry, reply matching), `deploy`
//! (deploy / restore / teardown transactions, rule compilation),
//! `admission` (watermark gate and retry queue), `heal` (fault plans,
//! re-route, re-map, abandon), `scale` (replica migrations, autoscaler
//! ticks), `observe` (journal, sampler, flight recorder, SLAs), plus the
//! stateless `traffic` (SAP streams, pings, gateway hand-off) and
//! `audit` (invariants, state fingerprint). DESIGN.md §18 has the
//! undo-log contract and its ordering rules.

mod admission;
mod audit;
mod deploy;
mod heal;
mod observe;
mod rpc;
mod scale;
mod traffic;

pub use admission::AdmissionConfig;
pub use deploy::{DeployedChain, DeployedVnf, DeploymentReport};
pub use scale::{ScaleReport, MAX_REPLICAS};

use crate::container::VnfContainer;
use crate::error::{EscapeError, RollbackReport, RollbackStep};
use crate::infra::{Infra, CTRL_LATENCY};
use crate::journal::DEFAULT_JOURNAL_CAP;
use escape_netconf::client::{switch_port_of, vnf_id_of};
use escape_netem::{Sim, Time};
use escape_orch::{MappingAlgorithm, Orchestrator};
use escape_pox::{Controller, SteeringMode, TrafficSteering};
use escape_sg::{ResourceTopology, ServiceGraph, VnfReq};
use escape_telemetry::{Registry, Tracer};
use std::collections::BTreeMap;

/// The prototyping environment. See the crate docs for a quickstart.
pub struct Escape {
    pub sim: Sim,
    pub infra: Infra,
    orch: Orchestrator,
    topo: ResourceTopology,
    mode: SteeringMode,
    deployed: BTreeMap<String, DeployedChain>,
    /// Service graph each deployed chain came from, for crash re-mapping.
    graphs: BTreeMap<String, ServiceGraph>,
    next_cookie: u64,
    /// Simulation-wide metric registry, shared by every subsystem.
    telemetry: Registry,
    /// Virtual-time span tracer (chain setup phases).
    tracer: Tracer,
    rpcs: rpc::RpcPlane,
    counters: deploy::DeployCounters,
    admission: admission::Admission,
    healing: heal::Healing,
    scaling: scale::Scaling,
    observe: observe::Observation,
}

/// How a VNF's ingress device (dev 0) attaches during bring-up.
enum Ingress<'a> {
    /// `connectVNF` to the neighbouring switch along the adjacent
    /// segment.
    Switch(&'a str),
    /// The previous hop is co-located: its egress (named by VNF id) is
    /// patched to us inside the container.
    Patch(Option<&'a str>),
}

/// How far `retire_vnf` takes an instance down.
#[derive(Clone, Copy, PartialEq)]
enum Retire {
    /// `stopVNF`, then `disconnectVNF` for every bound device.
    Full,
    /// `stopVNF` only: the chain's rules are about to be replaced or
    /// deleted, and its container may host the replacements.
    StopOnly,
}

/// Where a move of the virtual clock ends.
enum Stop<'a> {
    /// At this instant.
    At(Time, Pace),
    /// Once the predicate holds, probed every 50 µs of virtual time, or
    /// at the first probe that finds the clock past this deadline. Only
    /// a verb polls, so these moves run at [`Pace::InVerb`].
    Polled(Time, &'a mut dyn FnMut(&mut Escape) -> bool),
}

/// Whether a move of the virtual clock pauses at sampler boundaries.
enum Pace {
    /// Pauses at every boundary to take the sample and run its observers
    /// at the boundary's virtual instant.
    Sampled,
    /// Runs straight past every boundary: a wait inside a verb. The
    /// observers run the autoscaler, whose RPCs wait here, so sampling
    /// inside a verb would re-enter it. A boundary crossed here is
    /// skipped, and the next sample lands off the grid. ROADMAP item
    /// 18(b) deletes this bypass: the door samples every boundary and
    /// defers the observers to the end of the verb.
    InVerb,
}

/// The inverse of one completed forward step of a deploy, restore,
/// re-map or scale. A transaction pushes one entry per step, in forward
/// order; `unwind` pops them, so a failure undoes exactly what happened,
/// newest first.
enum Undo {
    /// A chain's plan-phase reservation.
    Release { chain: String },
    /// One replica's compute reservation (scale-out).
    ReleaseReplica {
        chain: String,
        vnf: String,
        container: String,
        cpu: f64,
        mem_mb: u64,
    },
    /// A completed `connectVNF`.
    Disconnect {
        container: String,
        vnf_id: String,
        dev: u16,
    },
    /// A completed `startVNF`.
    Stop { container: String, vnf_id: String },
    /// Rules staged in the controller's shadow set. Commit and promote
    /// upgrade this entry *in place* (to `RemoveRules` / `RestoreRules`),
    /// so the rules step keeps its position among the chain's VNF steps.
    DiscardRules { chain: String, cookie: u64 },
    /// Staged rules that were committed to the live queue and may have
    /// reached switches.
    RemoveRules { chain: String, cookie: u64 },
    /// A promoted replacement rule set: recompile the pre-scale record's
    /// rules and swap them back.
    RestoreRules { old: DeployedChain },
}

impl Undo {
    /// Performs the inverse step. A step that fails (an agent that
    /// stayed dead) is recorded as best-effort and the unwind moves on.
    fn run(self, env: &mut Escape) -> RollbackStep {
        let (action, target, ok) = match self {
            Undo::Release { chain } => {
                env.orch.release_chain(&chain);
                ("release-reservation", chain, true)
            }
            Undo::ReleaseReplica {
                chain,
                vnf,
                container,
                cpu,
                mem_mb,
            } => {
                let ok = env.orch.release_replica(&chain, &container, cpu, mem_mb);
                ("release-replica", format!("{chain}/{vnf}"), ok)
            }
            Undo::Disconnect {
                container,
                vnf_id,
                dev,
            } => {
                let ok = env.disconnect(&container, &vnf_id, dev).is_ok();
                (
                    "disconnect-vnf",
                    format!("{container}/{vnf_id}:dev{dev}"),
                    ok,
                )
            }
            Undo::Stop { container, vnf_id } => {
                let ok = env.stop(&container, &vnf_id).is_ok();
                ("stop-vnf", format!("{container}/{vnf_id}"), ok)
            }
            Undo::DiscardRules { chain, cookie } => {
                env.steering_mut().discard_staged(cookie);
                ("discard-rules", chain, true)
            }
            Undo::RemoveRules { chain, cookie } => {
                env.steering_mut().remove_chain(cookie);
                ("remove-rules", chain, true)
            }
            Undo::RestoreRules { mut old } => {
                let ok = env.resteer(&mut old).is_ok();
                ("restore-rules", old.mapping.chain.name, ok)
            }
        };
        RollbackStep { action, target, ok }
    }
}

impl Escape {
    /// Builds the full environment over `topo` with the given mapping
    /// algorithm and steering mode. Runs the OpenFlow handshakes so the
    /// network is ready for deployment on return.
    pub fn build(
        topo: ResourceTopology,
        algorithm: Box<dyn MappingAlgorithm>,
        mode: SteeringMode,
        seed: u64,
    ) -> Result<Escape, EscapeError> {
        let telemetry = Registry::new();
        let mut sim = Sim::with_registry(seed, telemetry.clone());
        let infra = Infra::build(&mut sim, &topo, mode, seed).map_err(EscapeError::Invalid)?;
        let orch = Orchestrator::with_registry(topo.clone(), algorithm, &telemetry)
            .map_err(EscapeError::Invalid)?;
        let mut esc = Escape {
            sim,
            infra,
            orch,
            topo,
            mode,
            deployed: BTreeMap::new(),
            graphs: BTreeMap::new(),
            next_cookie: 1,
            tracer: Tracer::new(telemetry.clone(), DEFAULT_JOURNAL_CAP),
            rpcs: rpc::RpcPlane::new(&telemetry, seed),
            counters: deploy::DeployCounters::new(&telemetry),
            admission: admission::Admission::new(&telemetry, seed),
            healing: heal::Healing::new(&telemetry),
            scaling: scale::Scaling::new(&telemetry),
            observe: observe::Observation::new(&telemetry),
            telemetry,
        };
        // Let the OpenFlow handshake and hello exchanges settle.
        esc.advance(Stop::At(esc.sim.now() + Time::from_ms(5), Pace::Sampled));
        Ok(esc)
    }

    // ---------------- clock -----------------------------------------

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.sim.now()
    }

    /// Advances virtual time by `ms` milliseconds. While deploys are
    /// parked on the admission queue, time advances in 1 ms slices so
    /// due retries fire at their scheduled (virtual) moments.
    pub fn run_for_ms(&mut self, ms: u64) {
        let deadline = self.sim.now() + Time::from_ms(ms);
        while self.pending_admissions() > 0 && self.sim.now() < deadline {
            let slice = (self.sim.now() + Time::from_ms(1)).min(deadline);
            self.advance(Stop::At(slice, Pace::Sampled));
            self.pump_admission();
        }
        self.advance(Stop::At(deadline, Pace::Sampled));
    }

    /// Advances virtual time to an absolute instant (no-op if the clock
    /// is already past it). Recovery uses this to catch the restored
    /// environment's clock up to the checkpointed one.
    pub fn run_until_ns(&mut self, ns: u64) {
        if ns > self.sim.now().as_ns() {
            self.advance(Stop::At(Time::from_ns(ns), Pace::Sampled));
        }
    }

    /// Advances virtual time by `ms` milliseconds like
    /// [`Escape::run_for_ms`], but checks for injected faults every
    /// millisecond and runs recovery (re-route / re-map / re-steer) as
    /// soon as one lands.
    pub fn run_with_recovery(&mut self, ms: u64) {
        let deadline = self.sim.now() + Time::from_ms(ms);
        while self.sim.now() < deadline {
            let slice = (self.sim.now() + Time::from_ms(1)).min(deadline);
            self.advance(Stop::At(slice, Pace::Sampled));
            self.heal_now();
            self.pump_admission();
        }
    }

    /// Advances virtual time to an absolute deadline, pausing at every
    /// sampler boundary on the way to take a snapshot (and run the
    /// sample-point observers: SLA flip detection, cache-storm detection,
    /// the autoscaler) at its scheduled virtual instant. The clock lands
    /// exactly on `deadline` even when the event queue drains early. The
    /// multi-domain coordinator calls this directly to march every domain
    /// simulator to the same epoch barrier.
    ///
    /// This and the other public clock calls pause at sampler boundaries.
    /// The waits inside a verb (an RPC, a settle, a steering wait) do not
    /// yet: a boundary that a deploy, scale or teardown crosses is
    /// skipped, and the next sample lands off the grid (ROADMAP item
    /// 18(b)). Both kinds move the clock through the same private door.
    pub fn run_until(&mut self, deadline: Time) {
        self.advance(Stop::At(deadline, Pace::Sampled));
    }

    /// The one door to the virtual clock: nothing else in this crate runs
    /// the simulator. Moves the clock to `stop` and returns whether it
    /// got there: a [`Stop::At`] always does, a [`Stop::Polled`] only if
    /// its predicate held before the deadline ran out. A move at
    /// [`Pace::InVerb`] is the sampler bypass the waits inside a verb
    /// keep until ROADMAP item 18(b) deletes it.
    fn advance(&mut self, stop: Stop<'_>) -> bool {
        match stop {
            Stop::At(deadline, pace) => loop {
                let sampler = self.observe.sampler.as_ref();
                let sampler = sampler.filter(|_| matches!(pace, Pace::Sampled));
                let due = sampler.map(|s| Time::from_ns(s.next_due_ns()));
                let stop = due.map_or(deadline, |due| due.min(deadline));
                if due.is_none() || stop > self.sim.now() {
                    self.sim.run_until(stop);
                }
                let Some(due) = due else { return true };
                if self.sim.now() >= due {
                    self.observe_tick();
                }
                if self.sim.now() >= deadline {
                    return true;
                }
            },
            Stop::Polled(deadline, done) => loop {
                self.advance(Stop::At(self.sim.now().add_ns(50_000), Pace::InVerb));
                let held = done(self);
                if held || self.sim.now() > deadline {
                    return held;
                }
            },
        }
    }

    // ---------------- chain registry --------------------------------

    /// The orchestrator (resource view, mapping algorithm).
    pub fn orchestrator(&self) -> &Orchestrator {
        &self.orch
    }

    /// Mutable orchestrator access.
    pub fn orchestrator_mut(&mut self) -> &mut Orchestrator {
        &mut self.orch
    }

    /// The underlying topology.
    pub fn topology(&self) -> &ResourceTopology {
        &self.topo
    }

    /// Names of all live (fully committed) chains, sorted.
    pub fn deployed_chains(&self) -> Vec<String> {
        self.deployed.keys().cloned().collect()
    }

    /// The deployment record for a live chain, if any.
    pub fn deployed(&self, chain: &str) -> Option<&DeployedChain> {
        self.deployed.get(chain)
    }

    /// The service graph a live chain was deployed from, if any. Crash
    /// recovery checkpoints this alongside the mapping so a restarted
    /// daemon can rebuild the chain without the original deploy text.
    pub fn chain_graph(&self, chain: &str) -> Option<&ServiceGraph> {
        self.graphs.get(chain)
    }

    /// The cookie the next deployed chain will be stamped with.
    pub fn next_cookie(&self) -> u64 {
        self.next_cookie
    }

    /// Restores the cookie allocator after a restart. Cookies tag flow
    /// rules and flight records, so recovery must continue the original
    /// sequence for restored and future chains to stay distinguishable.
    pub fn set_next_cookie(&mut self, next: u64) {
        self.next_cookie = self.next_cookie.max(next);
    }

    /// A clone of a live chain's deployment record, or the typed
    /// not-found error every chain verb answers with.
    fn live_chain(&self, chain: &str) -> Result<DeployedChain, EscapeError> {
        self.deployed
            .get(chain)
            .cloned()
            .ok_or_else(|| EscapeError::NotFound(format!("chain {chain}")))
    }

    // ---------------- primitive: poll-wait --------------------------

    /// Steps virtual time on the 50 µs poll grid until `done` reports
    /// true, or gives up once the clock has passed the RPC deadline
    /// (checked after each probe, so the last probe runs one step past
    /// it). Returns whether `done` was satisfied.
    fn poll_until(&mut self, done: &mut dyn FnMut(&mut Escape) -> bool) -> bool {
        self.advance(Stop::Polled(self.sim.now() + rpc::RPC_TIMEOUT, done))
    }

    // ---------------- primitive: flush-and-settle -------------------

    /// The controller's traffic-steering app.
    fn steering_mut(&mut self) -> &mut TrafficSteering {
        self.sim
            .node_as_mut::<Controller>(self.infra.controller)
            .expect("controller")
            .steering_mut()
    }

    /// Asks the controller to push everything steering has queued
    /// (installs and deletions) to the switches, now.
    fn flush(&mut self) {
        Controller::request_flush(&mut self.sim, self.infra.controller, Time::ZERO);
    }

    /// One control-latency beat plus a millisecond: long enough for
    /// flow-mods already on the wire to land and for frames in flight to
    /// clear what they are about to lose.
    fn settle(&mut self) {
        let at = self.sim.now() + CTRL_LATENCY + Time::from_ms(1);
        self.advance(Stop::At(at, Pace::InVerb));
    }

    /// Flushes queued rule deletions and waits for them to land.
    fn flush_and_settle(&mut self) {
        self.flush();
        self.settle();
    }

    /// Waits (in virtual time) until flushed steering rules reached the
    /// switches (proactive), or gives reactive arming a settle beat.
    fn await_steering(&mut self) -> Result<(), EscapeError> {
        if self.mode != SteeringMode::Proactive {
            self.advance(Stop::At(self.sim.now().add_ns(100_000), Pace::InVerb));
            return Ok(());
        }
        // Wait for the rules to reach the switches.
        let mut pending = 0;
        if !self.poll_until(&mut |env| {
            pending = env.steering_mut().pending();
            pending == 0
        }) {
            return Err(EscapeError::Steering(format!(
                "{pending} rules stuck in the controller queue"
            )));
        }
        // One more control-latency beat for in-flight flow-mods.
        let at = self.sim.now() + CTRL_LATENCY + Time::from_us(10);
        self.advance(Stop::At(at, Pace::InVerb));
        Ok(())
    }

    // ---------------- primitive: VNF bring-up -----------------------

    /// Brings one VNF instance up over NETCONF: `initiateVNF`, attach
    /// dev 0 (ingress) and dev 1 (egress), `startVNF`. Progress is
    /// recorded step by step: every completed `connectVNF` and the
    /// `startVNF` push their inverse onto `undo`, so a failure at any
    /// step leaves exactly what happened in the log. An `egress` of
    /// `None` means the next hop is co-located and patches us itself.
    fn bring_up_vnf(
        &mut self,
        container: &str,
        vnf_name: String,
        req: &VnfReq,
        ingress: Ingress<'_>,
        egress: Option<&str>,
        undo: &mut Vec<Undo>,
    ) -> Result<DeployedVnf, EscapeError> {
        // initiateVNF (raw Click config wins over the catalog type)
        let reply = self.rpc(container, |c| {
            c.initiate_vnf(&req.vnf_type, req.click_config.as_deref(), &req.params)
        })?;
        let vnf_id = vnf_id_of(&reply)
            .ok_or_else(|| EscapeError::Netconf("initiateVNF reply missing vnf-id".into()))?;
        let mut dv = DeployedVnf {
            vnf_name,
            vnf_type: req.vnf_type.clone(),
            container: container.to_string(),
            vnf_id,
            switch_ports: BTreeMap::new(),
        };
        let fabric = match ingress {
            Ingress::Switch(sw) => [Some((0u16, sw)), egress.map(|sw| (1, sw))],
            Ingress::Patch(prev_id) => {
                let prev_id =
                    prev_id.ok_or_else(|| EscapeError::Invalid("co-located first hop".into()))?;
                let node = self.infra.node(container).expect("container node");
                self.sim
                    .node_as_mut::<VnfContainer>(node)
                    .expect("container logic")
                    .host_mut()
                    .bind_internal(prev_id, 1, &dv.vnf_id, 0)
                    .map_err(EscapeError::Netconf)?;
                [None, egress.map(|sw| (1, sw))]
            }
        };
        for (dev, sw) in fabric.into_iter().flatten() {
            let reply = self.rpc(container, |c| c.connect_vnf(&dv.vnf_id, dev, sw))?;
            let sp = switch_port_of(&reply)
                .ok_or_else(|| EscapeError::Netconf("connectVNF reply missing port".into()))?;
            dv.switch_ports.insert(dev, sp);
            undo.push(Undo::Disconnect {
                container: dv.container.clone(),
                vnf_id: dv.vnf_id.clone(),
                dev,
            });
        }
        self.rpc(container, |c| c.start_vnf(&dv.vnf_id))?;
        undo.push(Undo::Stop {
            container: dv.container.clone(),
            vnf_id: dv.vnf_id.clone(),
        });
        Ok(dv)
    }

    // ---------------- primitive: VNF retire -------------------------

    /// `stopVNF` for one instance.
    fn stop(&mut self, container: &str, vnf_id: &str) -> Result<(), EscapeError> {
        self.rpc(container, |c| c.stop_vnf(vnf_id)).map(drop)
    }

    /// `disconnectVNF` for one device of an instance.
    fn disconnect(&mut self, container: &str, vnf_id: &str, dev: u16) -> Result<(), EscapeError> {
        self.rpc(container, |c| c.disconnect_vnf(vnf_id, dev))
            .map(drop)
    }

    /// Takes one VNF instance down: `stopVNF`, then (for
    /// `Retire::Full`) `disconnectVNF` for each bound device in sorted
    /// order. Agent-reported errors (already stopped / already
    /// disconnected) happen when a prior attempt got partway before an
    /// RPC timed out; they mean the step is already done. A transport
    /// error aborts and is returned, so the caller decides whether the
    /// retire is all-or-nothing (teardown, scale-in: propagate it and
    /// stay retryable) or best-effort (re-map, abandon: drop it).
    fn retire_vnf(&mut self, v: &DeployedVnf, how: Retire) -> Result<(), EscapeError> {
        let done = |r: Result<(), EscapeError>| match r {
            Ok(()) | Err(EscapeError::Netconf(_)) => Ok(()),
            Err(e) => Err(e),
        };
        done(self.stop(&v.container, &v.vnf_id))?;
        if how == Retire::Full {
            for &dev in v.switch_ports.keys() {
                done(self.disconnect(&v.container, &v.vnf_id, dev))?;
            }
        }
        Ok(())
    }

    // ---------------- primitive: undo log ---------------------------

    /// Pops `log` empty, newest entry first, and reports every step.
    /// Rule removals are batched: one flush after the last of them and
    /// before the first reservation is released (reservations are the
    /// oldest entries of every log that commits rules), so committed
    /// rules are gone from the switches before their capacity is handed
    /// back.
    fn unwind(&mut self, mut log: Vec<Undo>) -> RollbackReport {
        let mut steps = Vec::new();
        let mut unflushed = false;
        while let Some(undo) = log.pop() {
            if unflushed && matches!(undo, Undo::Release { .. }) {
                // Committed rules may have reached switches: delete them.
                self.flush_and_settle();
                unflushed = false;
            }
            unflushed |= matches!(undo, Undo::RemoveRules { .. });
            steps.push(undo.run(self));
        }
        RollbackReport { steps }
    }
}
