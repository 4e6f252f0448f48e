//! Deterministic, virtual-clock-driven fault injection.
//!
//! A [`FaultPlan`] is a named script of timed fault events — link flaps,
//! loss/delay spikes, VNF container crashes and agent stalls — addressed
//! by *node name* so plans can be written as JSON files before a topology
//! is instantiated. [`FaultInjector::install`] resolves the plan against a
//! live [`Sim`], arms one virtual timer per event and applies each fault
//! exactly when its timer fires. One injector node serves any number of
//! plans: later plans are appended to it, and an applied fault's entry is
//! dropped, so the node holds only what is still scheduled. Because the
//! injector is an ordinary
//! [`NodeLogic`] driven by the event queue, fault application is totally
//! ordered with every other event: two runs with the same seed and plan
//! produce byte-identical histories.
//!
//! Every applied fault increments `faults.injected{kind=...}` in the
//! simulation's telemetry registry and is appended to the injector's
//! record log, which a recovery layer can drain (see
//! [`FaultInjector::take_records`]) to react in (virtual) real time.

use crate::link::{LinkId, LinkState};
use crate::sim::{NodeCtx, NodeId, NodeLogic, Sim};
use crate::time::Time;
use escape_json::wire::{from_json, to_json_pretty, Flat};
use escape_json::{wire_struct, wire_tagged};
use escape_packet::LookupMap;

wire_tagged! {
    /// One kind of fault, addressed by node names (resolved at install
    /// time). Its label is the `"kind"` in JSON and the telemetry label.
    #[derive(Debug, Clone, PartialEq)]
    pub enum FaultKind as "kind" {
        /// Administratively downs every link between `a` and `b`.
        "link_down" => LinkDown { a: String, b: String },
        /// Brings the `a`-`b` links back up.
        "link_up" => LinkUp { a: String, b: String },
        /// Sets random loss on the `a`-`b` links to `loss` (0..=1).
        "loss_spike" => LossSpike { a: String, b: String, loss: f64 },
        /// Restores the `a`-`b` links' loss to its pre-plan value.
        "loss_clear" => LossClear { a: String, b: String },
        /// Sets propagation delay on the `a`-`b` links to `delay_us`.
        "delay_spike" => DelaySpike { a: String, b: String, delay_us: u64 },
        /// Restores the `a`-`b` links' delay to its pre-plan value.
        "delay_clear" => DelayClear { a: String, b: String },
        /// Kills the named node permanently (crashed VNF container).
        "vnf_crash" => VnfCrash { node: String },
        /// Pauses the named node for `for_us`, then resumes it (a hung
        /// process: events addressed to it meanwhile are discarded).
        "vnf_stall" => VnfStall { node: String, for_us: u64 },
        /// Resumes a previously stalled node (also emitted automatically
        /// at the end of a [`FaultKind::VnfStall`]).
        "vnf_resume" => VnfResume { node: String },
    }
}

impl FaultKind {
    /// Human-readable target ("a-b" for links, the node name otherwise).
    pub fn target(&self) -> String {
        match self {
            FaultKind::LinkDown { a, b }
            | FaultKind::LinkUp { a, b }
            | FaultKind::LossSpike { a, b, .. }
            | FaultKind::LossClear { a, b }
            | FaultKind::DelaySpike { a, b, .. }
            | FaultKind::DelayClear { a, b } => format!("{a}-{b}"),
            FaultKind::VnfCrash { node }
            | FaultKind::VnfStall { node, .. }
            | FaultKind::VnfResume { node } => node.clone(),
        }
    }
}

wire_struct! {
    /// One scheduled fault. `at_us` is virtual microseconds after the
    /// plan is installed.
    #[derive(Debug, Clone, PartialEq)]
    pub struct FaultEvent {
        pub at_us: u64,
        pub kind: FaultKind => Flat,
    }
}

wire_struct! {
    /// A named, scriptable fault schedule.
    #[derive(Debug, Clone, PartialEq, Default)]
    pub struct FaultPlan {
        pub name: String,
        pub events: Vec<FaultEvent>,
    }
}

impl FaultPlan {
    /// An empty plan.
    pub fn new(name: impl Into<String>) -> FaultPlan {
        FaultPlan {
            name: name.into(),
            events: Vec::new(),
        }
    }

    /// Builder: schedules `kind` at `ms` virtual milliseconds.
    pub fn at_ms(self, ms: u64, kind: FaultKind) -> FaultPlan {
        self.at_us(ms * 1_000, kind)
    }

    /// Builder: schedules `kind` at `us` virtual microseconds.
    pub fn at_us(mut self, us: u64, kind: FaultKind) -> FaultPlan {
        self.events.push(FaultEvent { at_us: us, kind });
        self
    }

    /// Serializes the plan to pretty JSON.
    pub fn to_json(&self) -> String {
        to_json_pretty(self)
    }

    /// Parses a plan from JSON. Errors name the offending field: a loss
    /// outside 0..=1, or a span in microseconds whose nanoseconds
    /// overflow the virtual clock.
    pub fn from_json(src: &str) -> Result<FaultPlan, String> {
        let plan: FaultPlan = from_json(src)?;
        let max_us = u64::MAX / 1_000;
        for (i, ev) in plan.events.iter().enumerate() {
            let span = match ev.kind {
                FaultKind::LossSpike { loss, .. } if !(0.0..=1.0).contains(&loss) => {
                    return Err(format!("events[{i}]: field \"loss\" must be within 0..=1"));
                }
                FaultKind::DelaySpike { delay_us, .. } => Some(("delay_us", delay_us)),
                FaultKind::VnfStall { for_us, .. } => Some(("for_us", for_us)),
                _ => None,
            };
            for (field, us) in [("at_us", ev.at_us)].into_iter().chain(span) {
                if us > max_us {
                    return Err(format!(
                        "events[{i}]: field \"{field}\" must be at most {max_us}"
                    ));
                }
            }
        }
        Ok(plan)
    }
}

/// A fault plan that references entities missing from the simulation it
/// is installed into. Typed so callers can name the exact offender
/// (plan, event index, entity) instead of string-matching diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultPlanError {
    /// `events[index]` targets a node name absent from the simulation.
    UnknownNode {
        plan: String,
        index: usize,
        node: String,
    },
    /// `events[index]` targets a link with no instance between `a`-`b`.
    UnknownLink {
        plan: String,
        index: usize,
        a: String,
        b: String,
    },
}

impl std::fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultPlanError::UnknownNode { plan, index, node } => {
                write!(
                    f,
                    "plan {plan:?} events[{index}]: no node {node:?} in the simulation"
                )
            }
            FaultPlanError::UnknownLink { plan, index, a, b } => {
                write!(
                    f,
                    "plan {plan:?} events[{index}]: no link {a}-{b} in the simulation"
                )
            }
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// One applied fault, in plan vocabulary (names, not resolved ids).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRecord {
    /// Virtual time the fault was applied.
    pub at: Time,
    pub kind: FaultKind,
}

impl std::fmt::Display for FaultRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}ns] fault {} {}",
            self.at.as_ns(),
            self.kind.label(),
            self.kind.target()
        )
    }
}

/// A fault resolved against a live sim: ids instead of names, originals
/// captured for the restore variants.
enum ResolvedOp {
    SetState(Vec<LinkId>, LinkState),
    SetLoss(Vec<(LinkId, f64)>),
    SetDelay(Vec<(LinkId, Time)>),
    Kill(NodeId),
    Pause(NodeId),
    Resume(NodeId),
}

/// The injector node: a [`NodeLogic`] whose only inputs are its own
/// timers, one per scheduled fault.
#[derive(Default)]
pub struct FaultInjector {
    /// Faults scheduled and not yet applied, by timer token.
    ops: LookupMap<u64, (FaultKind, ResolvedOp)>,
    next_token: u64,
    records: Vec<FaultRecord>,
}

impl FaultInjector {
    /// Resolves `plan` against `sim` (by node name) and arms its timers
    /// on the injector node `into` — or, given `None`, on an injector
    /// node it adds. Returns that node, to pass back in with the next
    /// plan. Event times are relative to now. Fails with a typed
    /// [`FaultPlanError`] naming the exact offending event and entity if
    /// the plan references unknown nodes or links; nothing is armed
    /// then.
    pub fn install(
        sim: &mut Sim,
        into: Option<NodeId>,
        plan: &FaultPlan,
    ) -> Result<NodeId, FaultPlanError> {
        let mut ops: Vec<(Time, FaultKind, ResolvedOp)> = Vec::new();
        let links_of =
            |sim: &Sim, a: &str, b: &str, i: usize| -> Result<Vec<LinkId>, FaultPlanError> {
                let links = sim.find_links(a, b);
                if links.is_empty() {
                    return Err(FaultPlanError::UnknownLink {
                        plan: plan.name.clone(),
                        index: i,
                        a: a.to_string(),
                        b: b.to_string(),
                    });
                }
                Ok(links)
            };
        let node_of = |sim: &Sim, name: &str, i: usize| -> Result<NodeId, FaultPlanError> {
            sim.find_node(name)
                .ok_or_else(|| FaultPlanError::UnknownNode {
                    plan: plan.name.clone(),
                    index: i,
                    node: name.to_string(),
                })
        };
        for (i, ev) in plan.events.iter().enumerate() {
            let at = Time::from_us(ev.at_us);
            let op = match &ev.kind {
                FaultKind::LinkDown { a, b } => {
                    ResolvedOp::SetState(links_of(sim, a, b, i)?, LinkState::Down)
                }
                FaultKind::LinkUp { a, b } => {
                    ResolvedOp::SetState(links_of(sim, a, b, i)?, LinkState::Up)
                }
                FaultKind::LossSpike { a, b, loss } => ResolvedOp::SetLoss(
                    links_of(sim, a, b, i)?
                        .into_iter()
                        .map(|l| (l, *loss))
                        .collect(),
                ),
                FaultKind::LossClear { a, b } => ResolvedOp::SetLoss(
                    links_of(sim, a, b, i)?
                        .into_iter()
                        .map(|l| (l, sim.link_loss(l)))
                        .collect(),
                ),
                FaultKind::DelaySpike { a, b, delay_us } => ResolvedOp::SetDelay(
                    links_of(sim, a, b, i)?
                        .into_iter()
                        .map(|l| (l, Time::from_us(*delay_us)))
                        .collect(),
                ),
                FaultKind::DelayClear { a, b } => ResolvedOp::SetDelay(
                    links_of(sim, a, b, i)?
                        .into_iter()
                        .map(|l| (l, sim.link_delay(l)))
                        .collect(),
                ),
                FaultKind::VnfCrash { node } => ResolvedOp::Kill(node_of(sim, node, i)?),
                FaultKind::VnfStall { node, for_us } => {
                    // Expand the stall into pause now + resume later.
                    let id = node_of(sim, node, i)?;
                    ops.push((at, ev.kind.clone(), ResolvedOp::Pause(id)));
                    ops.push((
                        at.add_ns(for_us * 1_000),
                        FaultKind::VnfResume { node: node.clone() },
                        ResolvedOp::Resume(id),
                    ));
                    continue;
                }
                FaultKind::VnfResume { node } => ResolvedOp::Resume(node_of(sim, node, i)?),
            };
            ops.push((at, ev.kind.clone(), op));
        }
        let node = into.unwrap_or_else(|| {
            sim.add_node("fault-injector", 0, Box::new(FaultInjector::default()))
        });
        let injector = sim
            .node_as_mut::<FaultInjector>(node)
            .expect("`into` names a fault injector");
        let first = injector.next_token;
        let mut due = Vec::with_capacity(ops.len());
        for (at, kind, op) in ops {
            injector.ops.insert(injector.next_token, (kind, op));
            injector.next_token += 1;
            due.push(at);
        }
        for (token, at) in (first..).zip(due) {
            sim.set_timer_for(node, at, token);
        }
        Ok(node)
    }

    /// Drains the applied-fault log (records accumulate until taken).
    pub fn take_records(&mut self) -> Vec<FaultRecord> {
        std::mem::take(&mut self.records)
    }

    /// Applied faults waiting to be taken, without draining them.
    /// Long-running control transactions (chain migration) peek at this
    /// to abort when a fault lands mid-flight, leaving the records for
    /// the regular healing pass.
    pub fn pending_records(&self) -> &[FaultRecord] {
        &self.records
    }
}

impl NodeLogic for FaultInjector {
    fn on_packet(&mut self, _ctx: &mut NodeCtx<'_>, _port: u16, _pkt: escape_packet::Packet) {}

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, token: u64) {
        let Some((kind, op)) = self.ops.remove(&token) else {
            return;
        };
        match op {
            ResolvedOp::SetState(links, state) => {
                for l in links {
                    ctx.set_link_state(l, state);
                }
            }
            ResolvedOp::SetLoss(pairs) => {
                for (l, loss) in pairs {
                    ctx.set_link_loss(l, loss);
                }
            }
            ResolvedOp::SetDelay(pairs) => {
                for (l, d) in pairs {
                    ctx.set_link_delay(l, d);
                }
            }
            ResolvedOp::Kill(n) => {
                ctx.kill_node(n);
            }
            ResolvedOp::Pause(n) => {
                ctx.pause_node(n);
            }
            ResolvedOp::Resume(n) => {
                ctx.resume_node(n);
            }
        }
        ctx.count_fault(kind.label());
        self.records.push(FaultRecord {
            at: ctx.now(),
            kind,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkConfig;
    use bytes::Bytes;
    use escape_packet::Packet;

    /// Forwards every injected frame out of port 0 (onto the link).
    struct Pitcher;
    impl NodeLogic for Pitcher {
        fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, _: u16, pkt: Packet) {
            ctx.send(0, pkt);
        }
    }

    struct Sink;
    impl NodeLogic for Sink {
        fn on_packet(&mut self, _: &mut NodeCtx<'_>, _: u16, _: Packet) {}
    }

    fn two_nodes() -> (Sim, NodeId, NodeId, LinkId) {
        let mut sim = Sim::new(7);
        let a = sim.add_node("a", 1, Box::new(Pitcher));
        let b = sim.add_node("b", 1, Box::new(Sink));
        let l = sim.connect((a, 0), (b, 0), LinkConfig::lan());
        (sim, a, b, l)
    }

    fn flap_plan() -> FaultPlan {
        FaultPlan::new("flap")
            .at_ms(
                1,
                FaultKind::LinkDown {
                    a: "a".into(),
                    b: "b".into(),
                },
            )
            .at_ms(
                3,
                FaultKind::LinkUp {
                    a: "a".into(),
                    b: "b".into(),
                },
            )
    }

    #[test]
    fn plan_round_trips_through_json() {
        let plan = flap_plan()
            .at_us(
                4_500,
                FaultKind::LossSpike {
                    a: "a".into(),
                    b: "b".into(),
                    loss: 0.25,
                },
            )
            .at_ms(5, FaultKind::VnfCrash { node: "c0".into() })
            .at_ms(
                6,
                FaultKind::VnfStall {
                    node: "c1".into(),
                    for_us: 2_000,
                },
            );
        let json = plan.to_json();
        let back = FaultPlan::from_json(&json).unwrap();
        assert_eq!(plan, back);
        // Serialize → parse → serialize is the identity on the text too.
        assert_eq!(json, back.to_json());
    }

    #[test]
    fn malformed_plans_name_the_bad_field() {
        let missing_at = r#"{"name":"x","events":[{"kind":"link_down","a":"a","b":"b"}]}"#;
        let err = FaultPlan::from_json(missing_at).unwrap_err();
        assert!(err.contains("events[0]") && err.contains("at_us"), "{err}");

        let bad_kind = r#"{"name":"x","events":[{"at_us":1,"kind":"meteor"}]}"#;
        let err = FaultPlan::from_json(bad_kind).unwrap_err();
        assert!(err.contains("\"kind\"") && err.contains("meteor"), "{err}");

        let bad_loss = r#"{"name":"x","events":[{"at_us":1,"kind":"loss_spike","a":"a","b":"b","loss":"no"}]}"#;
        let err = FaultPlan::from_json(bad_loss).unwrap_err();
        assert!(err.contains("loss"), "{err}");

        let out_of_range =
            r#"{"name":"x","events":[{"at_us":1,"kind":"loss_spike","a":"a","b":"b","loss":1.5}]}"#;
        let err = FaultPlan::from_json(out_of_range).unwrap_err();
        assert!(err.contains("0..=1"), "{err}");
    }

    #[test]
    fn unknown_entities_fail_at_install() {
        let (mut sim, _, _, _) = two_nodes();
        let plan = FaultPlan::new("bad").at_ms(
            1,
            FaultKind::LinkDown {
                a: "a".into(),
                b: "ghost".into(),
            },
        );
        let err = FaultInjector::install(&mut sim, None, &plan).unwrap_err();
        assert_eq!(
            err,
            FaultPlanError::UnknownLink {
                plan: "bad".into(),
                index: 0,
                a: "a".into(),
                b: "ghost".into(),
            }
        );
        assert!(err.to_string().contains("a-ghost"), "{err}");
        let plan = FaultPlan::new("bad2")
            .at_ms(
                0,
                FaultKind::LinkUp {
                    a: "a".into(),
                    b: "b".into(),
                },
            )
            .at_ms(
                1,
                FaultKind::VnfCrash {
                    node: "nope".into(),
                },
            );
        let err = FaultInjector::install(&mut sim, None, &plan).unwrap_err();
        assert_eq!(
            err,
            FaultPlanError::UnknownNode {
                plan: "bad2".into(),
                index: 1,
                node: "nope".into(),
            }
        );
        assert!(err.to_string().contains("events[1]"), "{err}");
        // A failed install arms nothing: no injector node was added.
        assert!(sim.find_node("fault-injector").is_none());
    }

    #[test]
    fn link_flap_applies_at_scheduled_times() {
        let (mut sim, a, _, _) = two_nodes();
        let inj = FaultInjector::install(&mut sim, None, &flap_plan()).unwrap();
        // Frame during the outage is dropped; after recovery it passes.
        sim.inject(a, 0, Bytes::from(vec![0u8; 60]), Time::from_ms(2));
        sim.inject(a, 0, Bytes::from(vec![0u8; 60]), Time::from_ms(4));
        sim.run_until(Time::from_ms(10));
        assert_eq!(sim.stats().drops_link_down, 1);
        assert_eq!(sim.stats().frames_sent, 2);
        let recs = sim
            .node_as_mut::<FaultInjector>(inj)
            .unwrap()
            .take_records();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].at, Time::from_ms(1));
        assert_eq!(recs[0].kind.label(), "link_down");
        assert_eq!(recs[1].at, Time::from_ms(3));
        let snap = sim.telemetry().snapshot();
        assert_eq!(
            snap.counter("faults.injected", &[("kind", "link_down")]),
            Some(1)
        );
        assert_eq!(
            snap.counter("faults.injected", &[("kind", "link_up")]),
            Some(1)
        );
        // A later plan lands on the same injector node, times relative
        // to now; applied faults leave nothing behind on it.
        assert_eq!(
            FaultInjector::install(&mut sim, Some(inj), &flap_plan()),
            Ok(inj)
        );
        assert_eq!(sim.node_count(), 3, "one injector node, not one a plan");
        sim.run_until(Time::from_ms(20));
        let fi = sim.node_as_mut::<FaultInjector>(inj).unwrap();
        let at: Vec<Time> = fi.take_records().iter().map(|r| r.at).collect();
        assert_eq!(at, vec![Time::from_ms(11), Time::from_ms(13)]);
        assert!(fi.ops.is_empty());
    }

    #[test]
    fn stall_pauses_then_resumes_a_node() {
        let (mut sim, a, b, _) = two_nodes();
        let plan = FaultPlan::new("stall").at_ms(
            1,
            FaultKind::VnfStall {
                node: "b".into(),
                for_us: 2_000,
            },
        );
        let inj = FaultInjector::install(&mut sim, None, &plan).unwrap();
        // During the stall, frames to b are discarded (not delivered to
        // logic); after resume, node_as works again.
        sim.inject(a, 0, Bytes::from(vec![0u8; 60]), Time::from_us(1_500));
        sim.run_until(Time::from_ms(10));
        assert!(sim.node_as::<Sink>(b).is_some(), "resumed");
        let recs = sim
            .node_as_mut::<FaultInjector>(inj)
            .unwrap()
            .take_records();
        let labels: Vec<&str> = recs.iter().map(|r| r.kind.label()).collect();
        assert_eq!(labels, vec!["vnf_stall", "vnf_resume"]);
        assert_eq!(recs[1].at, Time::from_ms(3));
    }

    #[test]
    fn same_plan_same_seed_is_deterministic() {
        let run = || {
            let (mut sim, a, _, _) = two_nodes();
            let plan = flap_plan().at_us(
                1_500,
                FaultKind::LossSpike {
                    a: "a".into(),
                    b: "b".into(),
                    loss: 0.5,
                },
            );
            let inj = FaultInjector::install(&mut sim, None, &plan).unwrap();
            for i in 0..50 {
                sim.inject(a, 0, Bytes::from(vec![0u8; 60]), Time::from_us(i * 100));
            }
            sim.run_until(Time::from_ms(10));
            let recs = sim
                .node_as_mut::<FaultInjector>(inj)
                .unwrap()
                .take_records();
            let log: Vec<String> = recs.iter().map(|r| r.to_string()).collect();
            (log.join("\n"), sim.stats())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn spans_that_overflow_the_clock_are_rejected_naming_the_field() {
        let max = u64::MAX / 1_000;
        let plan = |at_us: u64, kind: &str| {
            format!(r#"{{"name": "p", "events": [{{"at_us": {at_us}, {kind}}}]}}"#)
        };
        let down = r#""kind": "link_down", "a": "s1", "b": "s2""#;
        let delay =
            |us: u64| format!(r#""kind": "delay_spike", "a": "s1", "b": "s2", "delay_us": {us}"#);
        let stall = |us: u64| format!(r#""kind": "vnf_stall", "node": "c1", "for_us": {us}"#);
        for (src, field) in [
            (plan(max + 1, down), "at_us"),
            (plan(0, &delay(max + 1)), "delay_us"),
            (plan(0, &stall(max + 1)), "for_us"),
        ] {
            let want = format!("events[0]: field \"{field}\" must be at most {max}");
            assert_eq!(FaultPlan::from_json(&src), Err(want));
        }
        // The bound itself still fits in the clock.
        for src in [plan(max, down), plan(0, &delay(max)), plan(0, &stall(max))] {
            assert!(FaultPlan::from_json(&src).is_ok(), "{src}");
        }
    }
}
