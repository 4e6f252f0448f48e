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

use escape_netem::{DropReason, HopDetail, NodeId, Time, Trace, TraceDir, TraceRecord};
use escape_packet::FxBuildHasher;
use escape_sg::Sla;
use escape_telemetry::{ChromeEvent, Counter, Histogram, Registry, DURATION_BOUNDS_NS};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
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
    chains: &HashMap<u64, String>,
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
    chains: &HashMap<u64, String>,
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

/// A packet's latest visit, as [`PacketFold`] keeps it.
#[derive(Clone, Copy)]
struct LastVisit {
    /// Interned node name.
    node: u32,
    kind: NodeKind,
    arrived: Time,
    departed: bool,
    dropped: bool,
}

/// What the SLA fold remembers of one packet: its first time and cookie,
/// whether it dropped, and its latest visit. It is a left fold over the
/// packet's records, so it can be continued at any record.
#[derive(Clone, Copy)]
struct PacketFold {
    /// The first retained record's time: where latency starts.
    started: Time,
    /// The first steering cookie seen.
    cookie: Option<u64>,
    /// A drop record with a reason was seen.
    dropped: bool,
    last: Option<LastVisit>,
}

impl PacketFold {
    /// A packet whose first record is at `started`.
    fn new(started: Time) -> PacketFold {
        PacketFold {
            started,
            cookie: None,
            dropped: false,
            last: None,
        }
    }

    /// Folds in the packet's next record, at the interned `node`.
    fn step(&mut self, r: &TraceRecord, node: u32, kind: NodeKind) {
        let last = self.last.as_ref().map(|v| (&v.node, v.departed, v.dropped));
        match lands(r.dir, &node, last) {
            Landing::Opens { departed } => {
                self.last = Some(LastVisit {
                    node,
                    kind,
                    arrived: r.time,
                    departed,
                    dropped: false,
                });
            }
            Landing::Continues { departs: true } => {
                if let Some(v) = self.last.as_mut() {
                    v.departed = true;
                }
            }
            Landing::Continues { departs: false } => {}
        }
        match r.dir {
            TraceDir::Hop if self.cookie.is_none() => {
                self.cookie = r.hop.as_ref().and_then(flow_cookie);
            }
            TraceDir::Drop => {
                if let Some(v) = self.last.as_mut() {
                    v.dropped = r.drop.is_some();
                }
                self.dropped |= r.drop.is_some();
            }
            _ => {}
        }
    }

    /// Counts the packet's outcome so far into its chain's tally.
    fn count(&self, t: &mut Tally) {
        let last = self
            .last
            .filter(|v| delivered(v.kind, v.departed, v.dropped));
        if self.dropped {
            t.dropped += 1;
        } else if let Some(v) = last {
            t.delivered += 1;
            let ns = v.arrived.since(self.started);
            t.max_latency_ns = Some(t.max_latency_ns.map_or(ns, |m| m.max(ns)));
        } else {
            t.in_flight += 1;
        }
    }
}

/// Node id -> (interned name, kind). Visits match by name, and two nodes
/// may share one. `resolve` is asked once per node id.
#[derive(Default)]
struct NodeTable {
    nodes: Vec<Option<(u32, NodeKind)>>,
    names: HashMap<String, u32>,
}

impl NodeTable {
    fn get<'n>(
        &mut self,
        id: NodeId,
        resolve: &mut impl FnMut(NodeId) -> (&'n str, NodeKind),
    ) -> (u32, NodeKind) {
        let i = id.0 as usize;
        if self.nodes.len() <= i {
            self.nodes.resize(i + 1, None);
        }
        *self.nodes[i].get_or_insert_with(|| {
            let (name, kind) = resolve(id);
            let next = self.names.len() as u32;
            (*self.names.entry(name.to_string()).or_insert(next), kind)
        })
    }
}

/// Packets by id. The lookup per record is the fold's inner loop, so it
/// hashes with the dataplane's fixed hasher; the one walk over it is a
/// sum, so its order cannot leak.
type PacketMap<V> = HashMap<u64, V, FxBuildHasher>;

/// A packet in the [`LiveFold`].
struct Folded {
    /// Ring position of the packet's newest folded record.
    last_seq: u64,
    fold: PacketFold,
}

/// Per-cookie [`Tally`]s over the records a trace ring holds, kept
/// between calls: each call folds only the records appended and evicted
/// since the previous one. Appending continues a packet's fold; a packet
/// the eviction horizon cut at the head is folded again from its oldest
/// retained record; one the horizon passed is forgotten. The counts are
/// exactly what one pass over the retained records counts.
#[derive(Default)]
pub(crate) struct LiveFold {
    nodes: NodeTable,
    packets: PacketMap<Folded>,
    /// (ring position of the oldest retained record, packet id) of every
    /// packet, in position order: the packets the horizon reaches first
    /// are at the front.
    by_first: VecDeque<(u64, u64)>,
    /// `Sim::trace_epoch` of the ring folded: a re-enabled recorder is a
    /// new ring whose positions start again at zero.
    epoch: u64,
    /// Ring position one past the newest folded record.
    folded_to: u64,
    /// The tallies by steering cookie as of `folded_to`, once asked for.
    per_cookie: Option<BTreeMap<u64, Tally>>,
}

impl LiveFold {
    /// Tallies by steering cookie over the records `trace` holds; no
    /// trace counts as an empty ring. `epoch` numbers the trace, and
    /// `resolve` must name a node id the same way on every call.
    pub(crate) fn tallies<'n>(
        &mut self,
        epoch: u64,
        trace: Option<&Trace>,
        mut resolve: impl FnMut(NodeId) -> (&'n str, NodeKind),
    ) -> &BTreeMap<u64, Tally> {
        let (horizon, end) = trace.map_or((0, 0), |t| (t.evicted(), t.seq_end()));
        if epoch != self.epoch || horizon > self.folded_to {
            // Another ring, or one that evicted every folded record and
            // more since the last call: nothing folded is retained.
            self.packets.clear();
            self.by_first.clear();
            (self.epoch, self.folded_to, self.per_cookie) = (epoch, horizon, None);
        }
        // The ring only changes by appending, and evicts only to append.
        if let Some(trace) = trace.filter(|_| end != self.folded_to) {
            self.per_cookie = None;
            self.evict(trace, &mut resolve);
            for (seq, r) in (self.folded_to..).zip(trace.since(self.folded_to)) {
                self.push(seq, r, &mut resolve);
            }
            self.folded_to = end;
        }
        self.per_cookie.get_or_insert_with(|| {
            // Sums and a max only, so the map's order cannot leak into a
            // count.
            let mut out = BTreeMap::new();
            for p in self.packets.values() {
                if let Some(cookie) = p.fold.cookie {
                    p.fold.count(out.entry(cookie).or_default());
                }
            }
            out
        })
    }

    /// Forgets the packets the eviction horizon passed, and folds the
    /// ones it cut at the head again from their oldest retained record.
    fn evict<'n>(
        &mut self,
        trace: &Trace,
        resolve: &mut impl FnMut(NodeId) -> (&'n str, NodeKind),
    ) {
        let horizon = trace.evicted();
        let mut cut: HashSet<u64, FxBuildHasher> = HashSet::default();
        let mut scan_to = horizon;
        while let Some((_, id)) = self
            .by_first
            .pop_front_if(|&mut (first, _)| first < horizon)
        {
            let p = self
                .packets
                .remove(&id)
                .expect("an indexed packet is folded");
            if p.last_seq >= horizon {
                cut.insert(id);
                scan_to = scan_to.max(p.last_seq + 1);
            }
        }
        // Every record of a cut packet is behind `folded_to`, so the
        // append that follows continues these folds.
        for (seq, r) in (horizon..scan_to).zip(trace.since(horizon)) {
            if cut.contains(&r.packet_id) {
                self.push(seq, r, resolve);
            }
        }
    }

    /// Folds the record at ring position `seq` into its packet.
    fn push<'n>(
        &mut self,
        seq: u64,
        r: &TraceRecord,
        resolve: &mut impl FnMut(NodeId) -> (&'n str, NodeKind),
    ) {
        let (node, kind) = self.nodes.get(r.node, resolve);
        let by_first = &mut self.by_first;
        let p = self.packets.entry(r.packet_id).or_insert_with(|| {
            // Behind the back only while a cut packet is folded again.
            let at = by_first.partition_point(|&(first, _)| first < seq);
            by_first.insert(at, (seq, r.packet_id));
            Folded {
                last_seq: seq,
                fold: PacketFold::new(r.time),
            }
        });
        p.last_seq = seq;
        p.fold.step(r, node, kind);
    }
}

/// Counts, per chain, the journeys [`reconstruct`] would build from the
/// same records, in one pass and without building them: the [`LiveFold`]
/// without its memory, and the reference it is tested against. `cookies`
/// maps steering cookies to chains; a packet with no known cookie counts
/// nowhere.
#[cfg(test)]
pub(crate) fn tallies<'a, 'n, C: Copy + Eq + std::hash::Hash>(
    records: impl Iterator<Item = &'a TraceRecord>,
    mut resolve: impl FnMut(NodeId) -> (&'n str, NodeKind),
    cookies: &HashMap<u64, C>,
) -> HashMap<C, Tally> {
    let mut nodes = NodeTable::default();
    let mut packets: PacketMap<PacketFold> = HashMap::default();
    for r in records {
        let (node, kind) = nodes.get(r.node, &mut resolve);
        packets
            .entry(r.packet_id)
            .or_insert_with(|| PacketFold::new(r.time))
            .step(r, node, kind);
    }
    let mut out = HashMap::new();
    for p in packets.values() {
        if let Some(&chain) = p.cookie.and_then(|c| cookies.get(&c)) {
            p.count(out.entry(chain).or_default());
        }
    }
    out
}

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
        let mut counters: HashMap<(&str, &str, Option<DropReason>), Counter> = HashMap::new();
        let mut latencies: HashMap<&str, Histogram> = HashMap::new();
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
        let tid_of: HashMap<&str, u64> = nodes
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
                for d in &h.details {
                    args.push(("detail".to_string(), d.to_string()));
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
pub(crate) fn journey_tallies(fr: &FlightRecord) -> HashMap<String, Tally> {
    let mut out: HashMap<String, Tally> = HashMap::new();
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
    use escape_netem::VnfPath;
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

    fn chains() -> HashMap<u64, String> {
        HashMap::from([(9, "demo".to_string())])
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
        let tally = tallies(trace.iter(), role, &HashMap::from([(9, "demo")]))["demo"];
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
            let chains = HashMap::from([(9, "demo".to_string()), (10, "other".to_string())]);
            let cookies: HashMap<u64, &str> = chains.iter().map(|(&c, n)| (c, n.as_str())).collect();
            for from in 0..=records.len() {
                let suffix = &records[from..];
                let folded: HashMap<String, Tally> = tallies(suffix.iter(), role, &cookies)
                    .into_iter()
                    .map(|(chain, t)| (chain.to_string(), t))
                    .collect();
                let reference = journey_tallies(&reconstruct(suffix.iter(), resolve, &chains));
                prop_assert_eq!(folded, reference, "suffix from record {}", from);
            }
        }

        /// The live fold counts what one pass over the ring counts, at
        /// every query, while the drawn records wrap a small ring and,
        /// once, a new ring replaces it. Queries are drawn, so between
        /// two of them the ring may have turned over entirely.
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
            let cookies: HashMap<u64, u64> = [9, 10, 11].map(|c| (c, c)).into();
            let mut live = LiveFold::default();
            let (mut trace, mut epoch) = (Trace::with_capacity(cap), 0);
            prop_assert!(live.tallies(epoch, None, role).is_empty());
            let mut time_us = 0;
            for (i, (dt, fields, query)) in steps.into_iter().enumerate() {
                if i == new_ring_at {
                    (trace, epoch) = (Trace::with_capacity(cap), epoch + 1);
                }
                time_us += dt;
                trace.record(drawn(time_us, fields));
                if query {
                    let batch: BTreeMap<u64, Tally> =
                        tallies(trace.records(), role, &cookies).into_iter().collect();
                    let folded = live.tallies(epoch, Some(&trace), role);
                    prop_assert_eq!(folded, &batch, "after record {}", i);
                }
            }
        }
    }
}
