//! Packet flight recorder: hop-by-hop journey reconstruction.
//!
//! The netem trace is a flat stream of per-node [`TraceRecord`]s. This
//! module correlates them by packet id into end-to-end [`Journey`]s: an
//! ordered list of node visits ([`Hop`]s) with arrival/departure virtual
//! timestamps, the flow rule or Click elements that handled the packet at
//! each hop, and — for lost packets — the exact node and typed
//! [`DropReason`] where the journey ended. Journeys are attributed to
//! deployed chains through the steering cookie carried on
//! [`HopDetail::FlowMatch`] records, which makes per-chain latency
//! aggregation and [SLA](escape_sg::Sla) verdicts possible after a
//! traffic run.

use escape_netem::{DropReason, HopDetail, NodeId, Time, TraceDir, TraceRecord};
use escape_packet::LookupMap;
use escape_sg::Sla;
use escape_telemetry::{ChromeEvent, Counter, Histogram, Registry, DURATION_BOUNDS_NS};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// What role a visited node plays in the emulated network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// A SAP host (traffic source or sink).
    Host,
    /// An OpenFlow switch.
    Switch,
    /// A VNF container.
    Container,
    /// Anything else (controller, manager relay, raw nodes).
    Other,
}

impl NodeKind {
    /// Short lowercase label for rendering.
    pub fn label(self) -> &'static str {
        match self {
            NodeKind::Host => "host",
            NodeKind::Switch => "switch",
            NodeKind::Container => "container",
            NodeKind::Other => "node",
        }
    }
}

/// One node visit within a journey.
#[derive(Debug, Clone)]
pub struct Hop {
    /// Node name (topology name where known, emulator name otherwise).
    pub node: String,
    pub kind: NodeKind,
    /// When the packet arrived here (for the origin host: when it was
    /// transmitted).
    pub arrived: Time,
    /// When the packet left; `None` if it was consumed or dropped here.
    pub departed: Option<Time>,
    /// What handled the packet here (flow match, table miss, VNF path).
    pub details: Vec<HopDetail>,
    /// Set when the packet died at this hop.
    pub drop: Option<DropReason>,
}

impl Hop {
    /// Virtual ns spent at this node, if the packet left again.
    pub fn dwell_ns(&self) -> Option<u64> {
        self.departed.map(|d| d.since(self.arrived))
    }
}

/// How a journey ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Reached a host that consumed it.
    Delivered { at: Time },
    /// Died mid-path.
    Dropped { node: String, reason: DropReason },
    /// Still queued or in transit when the trace was cut.
    InFlight,
}

/// One packet's reconstructed end-to-end path.
#[derive(Debug, Clone)]
pub struct Journey {
    pub packet_id: u64,
    /// Deployed chain this packet was steered by, if any hop matched a
    /// steering rule whose cookie belongs to a deployed chain.
    pub chain: Option<String>,
    /// The first steering cookie observed along the path.
    pub cookie: Option<u64>,
    /// Node visits in virtual-time order.
    pub hops: Vec<Hop>,
    pub outcome: Outcome,
}

impl Journey {
    /// When the packet first entered the network.
    pub fn started_at(&self) -> Time {
        self.hops.first().map(|h| h.arrived).unwrap_or(Time::ZERO)
    }

    /// End-to-end latency in virtual ns, for delivered packets.
    pub fn e2e_latency_ns(&self) -> Option<u64> {
        match self.outcome {
            Outcome::Delivered { at } => Some(at.since(self.started_at())),
            _ => None,
        }
    }
}

/// The full set of journeys reconstructed from one trace.
#[derive(Debug, Clone, Default)]
pub struct FlightRecord {
    /// Journeys ordered by packet id.
    pub journeys: Vec<Journey>,
}

/// Correlates a flat trace into journeys.
///
/// `resolve` maps emulator node ids to display names and kinds;
/// `chains` maps steering cookies to deployed chain names. Records must
/// arrive in virtual-time order (the trace ring preserves it).
pub fn reconstruct<'a>(
    records: impl Iterator<Item = &'a TraceRecord>,
    resolve: impl Fn(NodeId) -> (String, NodeKind),
    chains: &BTreeMap<u64, String>,
) -> FlightRecord {
    // Group by packet id; BTreeMap keeps journey order deterministic.
    let mut by_packet: BTreeMap<u64, Vec<&TraceRecord>> = BTreeMap::new();
    for r in records {
        by_packet.entry(r.packet_id).or_default().push(r);
    }
    let journeys = by_packet
        .into_iter()
        .map(|(packet_id, recs)| build_journey(packet_id, &recs, &resolve, chains))
        .collect();
    FlightRecord { journeys }
}

fn build_journey(
    packet_id: u64,
    recs: &[&TraceRecord],
    resolve: &impl Fn(NodeId) -> (String, NodeKind),
    chains: &BTreeMap<u64, String>,
) -> Journey {
    let mut hops: Vec<Hop> = Vec::new();
    let mut outcome = Outcome::InFlight;
    for r in recs {
        let (node, kind) = resolve(r.node);
        let last = hops
            .last()
            .map(|h| (&h.node, h.departed.is_some(), h.drop.is_some()));
        match lands(r.dir, &node, last) {
            Landing::Opens { departed } => hops.push(Hop {
                node,
                kind,
                arrived: r.time,
                departed: departed.then_some(r.time),
                details: Vec::new(),
                drop: None,
            }),
            Landing::Continues { departs: true } => {
                hops.last_mut().expect("a continued visit exists").departed = Some(r.time);
            }
            Landing::Continues { departs: false } => {}
        }
        let h = hops.last_mut().expect("every record lands on a visit");
        match r.dir {
            TraceDir::Hop => h.details.extend(r.hop.clone()),
            TraceDir::Drop => {
                h.drop = r.drop;
                if let Some(reason) = r.drop {
                    outcome = Outcome::Dropped {
                        node: h.node.clone(),
                        reason,
                    };
                }
            }
            TraceDir::Rx | TraceDir::Tx => {}
        }
    }
    if outcome == Outcome::InFlight {
        if let Some(last) = hops
            .last()
            .filter(|h| delivered(h.kind, h.departed.is_some(), h.drop.is_some()))
        {
            outcome = Outcome::Delivered { at: last.arrived };
        }
    }
    // Chain attribution: first steering cookie seen along the path.
    let cookie = hops.iter().flat_map(|h| &h.details).find_map(flow_cookie);
    let chain = cookie.and_then(|c| chains.get(&c).cloned());
    Journey {
        packet_id,
        chain,
        cookie,
        hops,
        outcome,
    }
}

// ---------------- visit rules -------------------------------------------
//
// `build_journey` and `PacketFold::step` both follow a packet's records
// through these three functions, so the journeys and the SLA counts
// cannot drift apart.

/// Where one record lands in its packet's visit list.
#[derive(Clone, Copy)]
enum Landing {
    /// A new visit arriving at the record's time; `departed` when it
    /// leaves at once (an origin send).
    Opens { departed: bool },
    /// The latest visit; `departs` when the record is its transmit.
    Continues { departs: bool },
}

/// The visit rule: `Rx` opens a visit; `Hop`, `Tx` and `Drop` continue
/// the latest one only if it is at the same node *name* and has neither
/// departed nor dropped; an unmatched `Tx` is an origin send. `last` is
/// the latest visit as (node, departed, dropped).
fn lands<N: PartialEq>(dir: TraceDir, node: &N, last: Option<(&N, bool, bool)>) -> Landing {
    let open = last.is_some_and(|(n, departed, dropped)| n == node && !departed && !dropped);
    match dir {
        TraceDir::Rx => Landing::Opens { departed: false },
        TraceDir::Hop | TraceDir::Drop if open => Landing::Continues { departs: false },
        TraceDir::Hop | TraceDir::Drop => Landing::Opens { departed: false },
        TraceDir::Tx if open => Landing::Continues { departs: true },
        // Origin host: the first record is the transmit itself.
        TraceDir::Tx => Landing::Opens { departed: true },
    }
}

/// A journey that no drop ended is delivered when its last visit is a
/// host that kept the packet (neither departed nor dropped there).
fn delivered(kind: NodeKind, departed: bool, dropped: bool) -> bool {
    kind == NodeKind::Host && !departed && !dropped
}

/// The steering cookie a hop detail carries, if it is a flow match.
fn flow_cookie(d: &HopDetail) -> Option<u64> {
    match d {
        HopDetail::FlowMatch { cookie, .. } => Some(*cookie),
        _ => None,
    }
}

// ---------------- SLA tallies -------------------------------------------

/// One chain's journey outcomes over the packets a trace holds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub delivered: u64,
    pub dropped: u64,
    pub in_flight: u64,
    /// Worst end-to-end latency among delivered packets (virtual ns).
    pub max_latency_ns: Option<u64>,
}

mod live;

#[cfg(test)]
pub(crate) use live::tallies;
pub(crate) use live::LiveFold;

impl FlightRecord {
    /// The journey of one packet.
    pub fn journey(&self, packet_id: u64) -> Option<&Journey> {
        self.journeys.iter().find(|j| j.packet_id == packet_id)
    }

    /// Publishes per-chain aggregates into the registry: delivered and
    /// dropped counters (`chain.delivered`, `chain.dropped{reason=…}`),
    /// in-flight counts, and an end-to-end latency histogram
    /// (`chain.e2e_latency_ns`). Unattributed journeys land under
    /// `chain="unattributed"`.
    pub fn aggregate(&self, registry: &Registry) {
        // A series is looked up at its first journey, not at every one.
        let mut counters: LookupMap<(&str, &str, Option<DropReason>), Counter> = LookupMap::new();
        let mut latencies: LookupMap<&str, Histogram> = LookupMap::new();
        for j in &self.journeys {
            let chain = j.chain.as_deref().unwrap_or("unattributed");
            let (name, reason) = match &j.outcome {
                Outcome::Delivered { .. } => ("chain.delivered", None),
                Outcome::Dropped { reason, .. } => ("chain.dropped", Some(*reason)),
                Outcome::InFlight => ("chain.in_flight", None),
            };
            counters
                .entry((name, chain, reason))
                .or_insert_with(|| {
                    let mut labels = vec![("chain", chain)];
                    labels.extend(reason.map(|r| ("reason", r.label())));
                    registry.counter_with(name, &labels)
                })
                .inc();
            if let (Outcome::Delivered { .. }, Some(ns)) = (&j.outcome, j.e2e_latency_ns()) {
                latencies
                    .entry(chain)
                    .or_insert_with(|| {
                        let labels = [("chain", chain)];
                        registry.histogram_with("chain.e2e_latency_ns", &labels, DURATION_BOUNDS_NS)
                    })
                    .observe(ns);
            }
        }
    }

    /// Human-readable timeline of one journey.
    pub fn timeline(&self, j: &Journey) -> String {
        let mut out = String::new();
        let start = j.started_at();
        let chain = j.chain.as_deref().unwrap_or("-");
        let verdict = match &j.outcome {
            Outcome::Delivered { at } => {
                format!("delivered in {}", Time::from_ns(at.since(start)))
            }
            Outcome::Dropped { node, reason } => format!("DROPPED at {node} ({reason})"),
            Outcome::InFlight => "in flight".to_string(),
        };
        let _ = writeln!(out, "packet {} chain={chain} {verdict}", j.packet_id);
        for h in &j.hops {
            let rel = Time::from_ns(h.arrived.since(start));
            let dwell = match h.dwell_ns() {
                Some(ns) => format!(" dwell {}", Time::from_ns(ns)),
                None => String::new(),
            };
            let _ = writeln!(out, "  +{rel:<12} {} [{}]{dwell}", h.node, h.kind.label());
            for d in &h.details {
                let _ = writeln!(out, "      {d}");
            }
            if let Some(reason) = h.drop {
                let _ = writeln!(out, "      dropped: {reason}");
            }
        }
        out
    }

    /// Timelines for every journey, in packet-id order.
    pub fn timelines(&self) -> String {
        self.journeys.iter().map(|j| self.timeline(j)).collect()
    }

    /// Converts journeys to Chrome trace events: one lane (tid) per node,
    /// a complete event per traversed hop, an instant event per drop.
    /// Order is (packet id, hop index) — fully deterministic.
    pub fn chrome_events(&self) -> Vec<ChromeEvent> {
        // Stable node -> tid assignment across the whole record.
        let nodes: BTreeSet<&str> = self
            .journeys
            .iter()
            .flat_map(|j| j.hops.iter().map(|h| h.node.as_str()))
            .collect();
        let tid_of: BTreeMap<&str, u64> = nodes
            .into_iter()
            .enumerate()
            .map(|(i, n)| (n, i as u64 + 1))
            .collect();
        let mut events = Vec::new();
        for j in &self.journeys {
            let cat = j.chain.clone().unwrap_or_else(|| "unattributed".into());
            for h in &j.hops {
                let mut args = vec![
                    ("packet".to_string(), j.packet_id.to_string()),
                    ("kind".to_string(), h.kind.label().to_string()),
                ];
                // One arg: the export keeps only the last value of a
                // repeated key.
                if !h.details.is_empty() {
                    let details: Vec<String> = h.details.iter().map(|d| d.to_string()).collect();
                    args.push(("detail".to_string(), details.join("; ")));
                }
                events.push(ChromeEvent {
                    name: format!("{} #{}", h.node, j.packet_id),
                    cat: cat.clone(),
                    ts_us: h.arrived.as_us(),
                    // A consumed/dropped packet still gets a sliver so the
                    // visit is visible; dwell otherwise.
                    dur_us: Some(h.dwell_ns().map(|ns| ns / 1_000).unwrap_or(0).max(1)),
                    pid: 1,
                    tid: tid_of[h.node.as_str()],
                    args,
                });
                if let Some(reason) = h.drop {
                    events.push(ChromeEvent {
                        name: format!("drop: {reason}"),
                        cat: cat.clone(),
                        ts_us: h.arrived.as_us(),
                        dur_us: None,
                        pid: 1,
                        tid: tid_of[h.node.as_str()],
                        args: vec![("packet".to_string(), j.packet_id.to_string())],
                    });
                }
            }
        }
        events
    }

    /// The Chrome trace-event JSON document for the whole record.
    pub fn chrome_json(&self) -> String {
        escape_telemetry::chrome::render(&self.chrome_events())
    }
}

/// Post-run verdict of one chain's SLA against recorded traffic.
#[derive(Debug, Clone)]
pub struct SlaVerdict {
    pub chain: String,
    pub delivered: u64,
    pub dropped: u64,
    pub in_flight: u64,
    /// Worst end-to-end latency among delivered packets (virtual ns).
    pub max_latency_ns: Option<u64>,
    /// Observed loss ratio over finished journeys.
    pub loss: f64,
    pub pass: bool,
    /// One line per violated objective; empty when passing.
    pub violations: Vec<String>,
}

impl std::fmt::Display for SlaVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "chain {} {}: {} delivered, {} dropped (loss {:.1}%), max latency {}",
            self.chain,
            if self.pass { "PASS" } else { "FAIL" },
            self.delivered,
            self.dropped,
            self.loss * 100.0,
            self.max_latency_ns
                .map(|ns| Time::from_ns(ns).to_string())
                .unwrap_or_else(|| "-".into()),
        )?;
        for v in &self.violations {
            write!(f, "\n  violation: {v}")?;
        }
        Ok(())
    }
}

/// Checks `sla` against one chain's tally.
pub fn evaluate_sla(chain: &str, sla: &Sla, tally: Tally) -> SlaVerdict {
    let Tally {
        delivered,
        dropped,
        in_flight,
        max_latency_ns,
    } = tally;
    let finished = delivered + dropped;
    let loss = if finished == 0 {
        0.0
    } else {
        dropped as f64 / finished as f64
    };
    let mut violations = Vec::new();
    if let (Some(budget_us), Some(worst)) = (sla.max_latency_us, max_latency_ns) {
        let budget_ns = budget_us * 1_000;
        if worst > budget_ns {
            violations.push(format!(
                "max latency {} exceeds sla {}",
                Time::from_ns(worst),
                Time::from_us(budget_us)
            ));
        }
    }
    if let Some(max_loss) = sla.max_loss {
        if loss > max_loss {
            violations.push(format!(
                "loss {:.1}% exceeds sla {:.1}%",
                loss * 100.0,
                max_loss * 100.0
            ));
        }
    }
    SlaVerdict {
        chain: chain.to_string(),
        delivered,
        dropped,
        in_flight,
        max_latency_ns,
        loss,
        pass: violations.is_empty(),
        violations,
    }
}

/// The journey fold `evaluate_sla` ran before [`tallies`] existed: the
/// reference `tallies` is tested against.
#[cfg(test)]
pub(crate) fn journey_tallies(fr: &FlightRecord) -> BTreeMap<String, Tally> {
    let mut out: BTreeMap<String, Tally> = BTreeMap::new();
    for j in &fr.journeys {
        let Some(chain) = &j.chain else { continue };
        let t = out.entry(chain.clone()).or_default();
        match &j.outcome {
            Outcome::Delivered { .. } => {
                t.delivered += 1;
                if let Some(ns) = j.e2e_latency_ns() {
                    t.max_latency_ns = Some(t.max_latency_ns.unwrap_or(0).max(ns));
                }
            }
            Outcome::Dropped { .. } => t.dropped += 1,
            Outcome::InFlight => t.in_flight += 1,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use escape_netem::{Trace, VnfPath};
    use proptest::prelude::*;
    use std::sync::Arc;

    fn rec(time_us: u64, node: u32, dir: TraceDir) -> TraceRecord {
        TraceRecord::wire(Time::from_us(time_us), NodeId(node), 0, dir, 64, 7)
    }

    /// Nodes 4 and 5 share a name with nodes 1 and 3 (the first under
    /// another kind), as an emulator fallback name can.
    fn role(n: NodeId) -> (&'static str, NodeKind) {
        match n.0 {
            0 => ("sap0", NodeKind::Host),
            1 => ("s0", NodeKind::Switch),
            2 => ("c0", NodeKind::Container),
            3 => ("sap1", NodeKind::Host),
            4 => ("s0", NodeKind::Other),
            _ => ("sap1", NodeKind::Host),
        }
    }

    fn resolve(n: NodeId) -> (String, NodeKind) {
        let (name, kind) = role(n);
        (name.to_string(), kind)
    }

    fn chains() -> BTreeMap<u64, String> {
        BTreeMap::from([(9, "demo".to_string())])
    }

    fn delivered_trace() -> Vec<TraceRecord> {
        let mut v = vec![rec(0, 0, TraceDir::Tx), rec(10, 1, TraceDir::Rx)];
        let mut m = rec(10, 1, TraceDir::Hop);
        m.hop = Some(HopDetail::FlowMatch {
            dpid: 1,
            cookie: 9,
            priority: 500,
        });
        v.push(m);
        v.extend([
            rec(12, 1, TraceDir::Tx),
            rec(20, 2, TraceDir::Rx),
            rec(25, 2, TraceDir::Tx),
            rec(30, 1, TraceDir::Rx),
            rec(31, 1, TraceDir::Tx),
            rec(40, 3, TraceDir::Rx),
        ]);
        v
    }

    #[test]
    fn delivered_journey_reconstructs_hops_and_latency() {
        let trace = delivered_trace();
        let fr = reconstruct(trace.iter(), resolve, &chains());
        assert_eq!(fr.journeys.len(), 1);
        let j = &fr.journeys[0];
        assert_eq!(j.chain.as_deref(), Some("demo"));
        assert_eq!(j.cookie, Some(9));
        let names: Vec<&str> = j.hops.iter().map(|h| h.node.as_str()).collect();
        assert_eq!(names, ["sap0", "s0", "c0", "s0", "sap1"]);
        assert_eq!(
            j.outcome,
            Outcome::Delivered {
                at: Time::from_us(40)
            }
        );
        assert_eq!(j.e2e_latency_ns(), Some(40_000));
        assert_eq!(j.hops[1].dwell_ns(), Some(2_000));
        // Arrival times are monotonic.
        assert!(j.hops.windows(2).all(|w| w[0].arrived <= w[1].arrived));
    }

    #[test]
    fn dropped_journey_points_at_the_right_hop() {
        let mut trace = delivered_trace();
        trace.truncate(4); // up to the first switch Tx
        let mut d = rec(12, 1, TraceDir::Drop);
        d.drop = Some(DropReason::LinkDown);
        trace.push(d);
        let fr = reconstruct(trace.iter(), resolve, &chains());
        let j = &fr.journeys[0];
        assert_eq!(
            j.outcome,
            Outcome::Dropped {
                node: "s0".into(),
                reason: DropReason::LinkDown
            }
        );
        assert_eq!(j.e2e_latency_ns(), None);
        // The drop is pinned on the switch visit (departed already set, so
        // a fresh terminal hop carries it).
        let last = j.hops.last().unwrap();
        assert_eq!(last.node, "s0");
        assert_eq!(last.drop, Some(DropReason::LinkDown));
    }

    #[test]
    fn aggregate_publishes_chain_metrics() {
        let trace = delivered_trace();
        let fr = reconstruct(trace.iter(), resolve, &chains());
        let reg = Registry::new();
        fr.aggregate(&reg);
        let snap = reg.snapshot();
        assert_eq!(
            snap.counter("chain.delivered", &[("chain", "demo")]),
            Some(1)
        );
        let h = snap
            .histogram("chain.e2e_latency_ns", &[("chain", "demo")])
            .unwrap();
        assert_eq!(h.count, 1);
        assert_eq!(h.sum, 40_000);
    }

    #[test]
    fn sla_verdicts_pass_and_fail() {
        let trace = delivered_trace();
        let loose = Sla {
            max_latency_us: Some(1_000),
            max_loss: Some(0.5),
        };
        let tally = tallies(trace.iter(), role, &BTreeMap::from([(9, "demo")]))["demo"];
        let v = evaluate_sla("demo", &loose, tally);
        assert!(v.pass, "loose sla should pass: {v}");
        let tight = Sla {
            max_latency_us: Some(10),
            max_loss: None,
        };
        let v = evaluate_sla("demo", &tight, tally);
        assert!(!v.pass);
        assert_eq!(v.violations.len(), 1);
        assert!(v.to_string().contains("FAIL"));
    }

    #[test]
    fn timeline_and_chrome_export_cover_the_journey() {
        let trace = delivered_trace();
        let fr = reconstruct(trace.iter(), resolve, &chains());
        let text = fr.timelines();
        assert!(text.contains("packet 7 chain=demo delivered"));
        assert!(text.contains("flow-match"));
        let doc = fr.chrome_json();
        let v = escape_json::Value::parse(&doc).unwrap();
        let events = v.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 5); // one complete event per hop
        assert_eq!(fr.chrome_json(), doc); // deterministic
    }

    #[test]
    fn chrome_export_names_every_detail_of_a_hop() {
        let details = vec![
            HopDetail::FlowMatch {
                dpid: 1,
                cookie: 9,
                priority: 500,
            },
            HopDetail::TableMiss { dpid: 1 },
        ];
        let fr = FlightRecord {
            journeys: vec![Journey {
                packet_id: 7,
                chain: None,
                cookie: None,
                hops: vec![Hop {
                    node: "s0".into(),
                    kind: NodeKind::Switch,
                    arrived: Time::from_us(1),
                    departed: Some(Time::from_us(2)),
                    details: details.clone(),
                    drop: None,
                }],
                outcome: Outcome::InFlight,
            }],
        };
        let doc = fr.chrome_json();
        let v = escape_json::Value::parse(&doc).unwrap();
        let events = v.get("traceEvents").unwrap().as_arr().unwrap();
        let args = events[0].get("args").unwrap();
        let joined = format!("{}; {}", details[0], details[1]);
        assert_eq!(args.get("detail").unwrap().as_str(), Some(joined.as_str()));
    }

    const DIRS: [TraceDir; 4] = [TraceDir::Tx, TraceDir::Rx, TraceDir::Hop, TraceDir::Drop];

    /// A record from drawn fields. Drop reasons and hop details are drawn
    /// for every direction, since both folds must ignore them off their
    /// own; cookies 9 and 10 are deployed chains, 11 is not.
    fn drawn(
        time_us: u64,
        (node, dir, packet, drop, hop): (u32, usize, u64, u8, u8),
    ) -> TraceRecord {
        let mut r = TraceRecord::wire(
            Time::from_us(time_us),
            NodeId(node),
            0,
            DIRS[dir],
            64,
            packet,
        );
        r.drop = [
            None,
            Some(DropReason::LinkDown),
            Some(DropReason::QueueFull),
        ][usize::from(drop)];
        r.hop = match hop {
            0 => None,
            1..=3 => Some(HopDetail::FlowMatch {
                dpid: 1,
                cookie: 8 + u64::from(hop),
                priority: 500,
            }),
            4 => Some(HopDetail::TableMiss { dpid: 1 }),
            _ => Some(HopDetail::VnfPath(Arc::new(VnfPath {
                vnf: "fw".into(),
                elements: vec!["in".into(), "out".into()],
            }))),
        };
        r
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `tallies` counts what folding `reconstruct`'s journeys counts,
        /// on every suffix of a stream: a suffix is what eviction leaves,
        /// cutting journeys at any record.
        #[test]
        fn tallies_equal_the_journey_fold(
            steps in prop::collection::vec((0u64..3, (0u32..6, 0usize..4, 0u64..5, 0u8..3, 0u8..6)), 0..40)
        ) {
            let mut time_us = 0;
            let records: Vec<TraceRecord> = steps
                .into_iter()
                .map(|(dt, fields)| {
                    time_us += dt;
                    drawn(time_us, fields)
                })
                .collect();
            let chains = BTreeMap::from([(9, "demo".to_string()), (10, "other".to_string())]);
            let cookies: BTreeMap<u64, &str> = chains.iter().map(|(&c, n)| (c, n.as_str())).collect();
            for from in 0..=records.len() {
                let suffix = &records[from..];
                let folded: BTreeMap<String, Tally> = tallies(suffix.iter(), role, &cookies)
                    .into_iter()
                    .map(|(chain, t)| (chain.to_string(), t))
                    .collect();
                let reference = journey_tallies(&reconstruct(suffix.iter(), resolve, &chains));
                prop_assert_eq!(folded, reference, "suffix from record {}", from);
            }
        }

        /// The live fold counts what one pass over the ring counts, at
        /// every query, while the drawn records wrap a small ring and,
        /// once, a new ring replaces it, and a query names every cookie
        /// whose tally moved since the previous one. Queries are drawn,
        /// so between two of them the ring may have turned over entirely.
        #[test]
        fn the_live_fold_equals_the_batch_fold(
            cap in 1usize..16,
            steps in prop::collection::vec(
                (0u64..3, (0u32..6, 0usize..4, 0u64..5, 0u8..3, 0u8..6), any::<bool>()),
                0..60,
            ),
            new_ring_at in 0usize..60,
        ) {
            // Keyed per cookie: 9 and 10 are deployed chains, 11 is not.
            let cookies: BTreeMap<u64, u64> = [9, 10, 11].map(|c| (c, c)).into();
            let mut live = LiveFold::default();
            let (mut trace, mut epoch) = (Trace::with_capacity(cap), 0);
            prop_assert_eq!(live.fold(epoch, None, role), Some(Vec::new()));
            // The tallies at the previous query.
            let mut answered: BTreeMap<u64, Tally> = BTreeMap::new();
            let mut time_us = 0;
            for (i, (dt, fields, query)) in steps.into_iter().enumerate() {
                if i == new_ring_at {
                    (trace, epoch) = (Trace::with_capacity(cap), epoch + 1);
                }
                time_us += dt;
                trace.record(drawn(time_us, fields));
                if query {
                    let batch = tallies(trace.records(), role, &cookies);
                    let moved = live.fold(epoch, Some(&trace), role);
                    for cookie in [9, 10, 11] {
                        let tally = live.tally(cookie);
                        let want = batch.get(&cookie).copied().unwrap_or_default();
                        prop_assert_eq!(tally, want, "cookie {} after record {}", cookie, i);
                        if moved.as_ref().is_some_and(|m| !m.contains(&cookie)) {
                            let before = answered.get(&cookie).copied().unwrap_or_default();
                            prop_assert_eq!(tally, before, "unnamed cookie {} moved at {}", cookie, i);
                        }
                        answered.insert(cookie, tally);
                    }
                }
            }
        }
    }
}
