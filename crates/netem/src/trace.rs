//! Packet tracing — the emulator's stand-in for pcap dumps, and the raw
//! feed of the flight recorder (`escape::flight`).
//!
//! Three record kinds share one stream, ordered by virtual time:
//! - `Tx`/`Rx`: wire events recorded by the kernel on transmit/arrive.
//! - `Drop`: a frame lost, with a typed [`DropReason`] naming why.
//! - `Hop`: an in-node annotation ([`HopDetail`]) recorded by node logic
//!   — which flow rule a switch matched, which Click elements a VNF ran
//!   the frame through.

use crate::sim::NodeId;
use crate::time::Time;
use bytes::Bytes;
use escape_telemetry::Ring;
use std::collections::VecDeque;
use std::sync::Arc;

/// Direction of a traced frame relative to the node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceDir {
    Tx,
    Rx,
    Drop,
    /// In-node processing annotation (no frame movement).
    Hop,
}

impl std::fmt::Display for TraceDir {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            TraceDir::Tx => "tx",
            TraceDir::Rx => "rx",
            TraceDir::Drop => "drop",
            TraceDir::Hop => "hop",
        })
    }
}

/// Why a frame was dropped. Carried on `Drop` records and counted
/// per-reason under `netem.drops{reason=...}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DropReason {
    /// Random loss on a link.
    RandomLoss,
    /// The link was administratively down.
    LinkDown,
    /// The egress queue was at capacity (tail drop).
    QueueFull,
    /// No forwarding state: unwired port or unbound VNF device.
    NoRoute,
    /// Flow-table miss with nowhere to punt (no controller, or the
    /// buffered packet was evicted before a verdict arrived).
    TableMissPolicy,
    /// The VNF process was not running.
    VnfDown,
    /// A Click element intentionally discarded the frame (e.g. a
    /// firewall deny rule).
    Filtered,
    /// The frame could not be parsed into a flow key.
    Malformed,
}

impl DropReason {
    /// Stable label used as the telemetry `reason` tag.
    pub fn label(&self) -> &'static str {
        match self {
            DropReason::RandomLoss => "random_loss",
            DropReason::LinkDown => "link_down",
            DropReason::QueueFull => "queue_full",
            DropReason::NoRoute => "no_route",
            DropReason::TableMissPolicy => "table_miss_policy",
            DropReason::VnfDown => "vnf_down",
            DropReason::Filtered => "filtered",
            DropReason::Malformed => "malformed",
        }
    }

    /// All reasons, for exhaustive reporting.
    pub fn all() -> &'static [DropReason] {
        &[
            DropReason::RandomLoss,
            DropReason::LinkDown,
            DropReason::QueueFull,
            DropReason::NoRoute,
            DropReason::TableMissPolicy,
            DropReason::VnfDown,
            DropReason::Filtered,
            DropReason::Malformed,
        ]
    }
}

impl std::fmt::Display for DropReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The Click elements a frame ran through inside one VNF container, in
/// traversal order. Built once per distinct path and shared by every
/// frame that takes it.
#[derive(Debug, PartialEq, Eq)]
pub struct VnfPath {
    /// The VNF the frame entered.
    pub vnf: String,
    /// Element names; those of co-located VNFs the frame was chained into
    /// carry their VNF id as a prefix (`{id}:{name}`).
    pub elements: Vec<String>,
}

impl std::fmt::Display for VnfPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "vnf {} [{}]", self.vnf, self.elements.join(" -> "))
    }
}

/// What happened to a frame inside a node — recorded as `Hop` records by
/// the node logic itself (switch, VNF container).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HopDetail {
    /// A switch matched a flow entry; the cookie is the steering chain
    /// identity.
    FlowMatch {
        dpid: u64,
        cookie: u64,
        priority: u16,
    },
    /// A switch missed its flow table and punted the frame to the
    /// controller as a packet-in.
    TableMiss { dpid: u64 },
    /// A VNF ran the frame through these Click elements, in traversal
    /// order.
    VnfPath(Arc<VnfPath>),
}

impl std::fmt::Display for HopDetail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HopDetail::FlowMatch {
                dpid,
                cookie,
                priority,
            } => {
                write!(f, "flow-match dpid={dpid} cookie={cookie} prio={priority}")
            }
            HopDetail::TableMiss { dpid } => write!(f, "table-miss dpid={dpid}"),
            HopDetail::VnfPath(path) => path.fmt(f),
        }
    }
}

/// One traced event. It owns no heap data: a VNF hop shares its path,
/// and captured frame bytes live beside the ring (see
/// [`Trace::record_wire`]).
#[derive(Debug, Clone)]
pub struct TraceRecord {
    pub time: Time,
    pub node: NodeId,
    pub port: u16,
    pub dir: TraceDir,
    pub len: usize,
    pub packet_id: u64,
    /// Why the frame was dropped (`dir == Drop`).
    pub drop: Option<DropReason>,
    /// In-node processing detail (`dir == Hop`).
    pub hop: Option<HopDetail>,
}

impl TraceRecord {
    /// A bare wire event; `Drop`/`Hop` details are attached by the
    /// kernel/node helpers.
    pub fn wire(time: Time, node: NodeId, port: u16, dir: TraceDir, len: usize, id: u64) -> Self {
        TraceRecord {
            time,
            node,
            port,
            dir,
            len,
            packet_id: id,
            drop: None,
            hop: None,
        }
    }
}

// A 65 536-slot ring is the default recorder: every byte here is 64 KiB.
const _: () = assert!(std::mem::size_of::<TraceRecord>() <= 56);

/// An in-memory packet trace. Recording every frame in a large run is
/// expensive, so tracing is opt-in per [`crate::Sim`]. At capacity the
/// trace behaves as a ring buffer: the oldest records are evicted so the
/// tail of the run is always retained.
#[derive(Debug)]
pub struct Trace {
    records: Ring<TraceRecord>,
    /// When true, frame bytes are kept so the trace can be exported as a
    /// real pcap file.
    pub capture_payloads: bool,
    /// Captured frames as (ring sequence number, time, bytes), oldest
    /// first, none older than the ring's eviction horizon. Empty unless
    /// `capture_payloads` was on.
    payloads: VecDeque<(u64, Time, Bytes)>,
}

impl Trace {
    /// A trace bounded to `cap` records; a capacity of 0 records nothing.
    pub fn with_capacity(cap: usize) -> Self {
        Trace {
            records: Ring::new(cap),
            capture_payloads: false,
            payloads: VecDeque::new(),
        }
    }

    /// Records an event, evicting the oldest record once the cap is
    /// reached (ring-buffer semantics).
    pub fn record(&mut self, rec: TraceRecord) {
        if self.records.capacity() > 0 {
            self.push(rec);
        }
    }

    /// Records a wire event (`Tx`/`Rx`) of the frame `data`. While
    /// payload capture is on, the bytes are kept for [`Trace::to_pcap`]
    /// for as long as the record stays in the ring.
    pub fn record_wire(&mut self, rec: TraceRecord, data: &Bytes) {
        if self.records.capacity() == 0 {
            return;
        }
        if self.capture_payloads {
            self.payloads
                .push_back((self.records.seq_end(), rec.time, data.clone()));
        }
        self.push(rec);
    }

    /// Pushes onto the ring, and lets go of the bytes of what it evicts.
    fn push(&mut self, rec: TraceRecord) {
        self.records.push(rec);
        let horizon = self.records.evicted();
        while self.payloads.front().is_some_and(|p| p.0 < horizon) {
            self.payloads.pop_front();
        }
    }

    /// All retained records in time order.
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.records.iter()
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing has been recorded (or everything was evicted).
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The `i`-th retained record (0 = oldest).
    pub fn get(&self, i: usize) -> Option<&TraceRecord> {
        self.records.iter().nth(i)
    }

    /// Records evicted because the capacity was reached.
    pub fn evicted(&self) -> u64 {
        self.records.evicted()
    }

    /// Sequence number one past the newest record, over the trace's
    /// whole life: it moves on every record and on nothing else.
    pub fn seq_end(&self) -> u64 {
        self.records.seq_end()
    }

    /// Retained records numbered `seq` and after, the way
    /// [`Ring::since`] reads its entries: a cursor behind the eviction
    /// horizon gets everything retained.
    pub fn since(&self, seq: u64) -> impl Iterator<Item = &TraceRecord> {
        self.records.since(seq)
    }

    /// Records matching a node.
    pub fn for_node(&self, node: NodeId) -> impl Iterator<Item = &TraceRecord> {
        self.records.iter().filter(move |r| r.node == node)
    }

    /// Records matching a packet id, in time order.
    pub fn for_packet(&self, packet_id: u64) -> impl Iterator<Item = &TraceRecord> {
        self.records
            .iter()
            .filter(move |r| r.packet_id == packet_id)
    }

    /// Counts records with the given direction.
    pub fn count(&self, dir: TraceDir) -> usize {
        self.records.iter().filter(|r| r.dir == dir).count()
    }

    /// Serializes the trace as a classic libpcap file (magic 0xa1b2c3d4,
    /// microsecond timestamps, Ethernet link type) — open it in Wireshark.
    /// It holds the retained wire records whose bytes were captured
    /// (payload capture on); drop and hop records carry none.
    pub fn to_pcap(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(24 + self.records.len() * 80);
        // Global header.
        out.extend_from_slice(&0xa1b2_c3d4u32.to_le_bytes()); // magic
        out.extend_from_slice(&2u16.to_le_bytes()); // version major
        out.extend_from_slice(&4u16.to_le_bytes()); // version minor
        out.extend_from_slice(&0i32.to_le_bytes()); // thiszone
        out.extend_from_slice(&0u32.to_le_bytes()); // sigfigs
        out.extend_from_slice(&65_535u32.to_le_bytes()); // snaplen
        out.extend_from_slice(&1u32.to_le_bytes()); // linktype: Ethernet
        for (_, time, data) in &self.payloads {
            let secs = (time.as_ns() / 1_000_000_000) as u32;
            let usecs = ((time.as_ns() % 1_000_000_000) / 1_000) as u32;
            out.extend_from_slice(&secs.to_le_bytes());
            out.extend_from_slice(&usecs.to_le_bytes());
            out.extend_from_slice(&(data.len() as u32).to_le_bytes());
            out.extend_from_slice(&(data.len() as u32).to_le_bytes());
            out.extend_from_slice(data);
        }
        out
    }

    /// Renders the trace as a tcpdump-ish text listing.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for r in self.records.iter() {
            out.push_str(&format!(
                "{:>14} node{} port{} {} len={} id={}",
                r.time.to_string(),
                r.node.0,
                r.port,
                r.dir,
                r.len,
                r.packet_id
            ));
            if let Some(reason) = r.drop {
                out.push_str(&format!(" reason={reason}"));
            }
            if let Some(hop) = &r.hop {
                out.push_str(&format!(" {hop}"));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(t: u64, dir: TraceDir) -> TraceRecord {
        TraceRecord::wire(Time::from_ns(t), NodeId(1), 0, dir, 60, t)
    }

    #[test]
    fn capacity_evicts_oldest_not_newest() {
        let mut tr = Trace::with_capacity(2);
        tr.record(rec(1, TraceDir::Tx));
        tr.record(rec(2, TraceDir::Rx));
        tr.record(rec(3, TraceDir::Rx));
        assert_eq!(tr.len(), 2);
        // Ring buffer: record 1 was evicted, 2 and 3 retained.
        assert_eq!(tr.get(0).unwrap().time.as_ns(), 2);
        assert_eq!(tr.get(1).unwrap().time.as_ns(), 3);
        assert_eq!(tr.evicted(), 1);
    }

    #[test]
    fn zero_capacity_records_nothing() {
        let mut tr = Trace::with_capacity(0);
        tr.record(rec(1, TraceDir::Tx));
        assert!(tr.is_empty());
        assert_eq!(tr.evicted(), 0);
    }

    /// `Sim::enable_trace(0)` leaves tracing off, so node logic builds
    /// no hop annotation that a zero ring would throw away.
    #[test]
    fn a_zero_capacity_trace_is_off() {
        use crate::sim::{NodeCtx, NodeLogic, Sim};
        use escape_packet::Packet;
        use std::sync::{Arc, Mutex};
        struct Probe(Arc<Mutex<Vec<bool>>>);
        impl NodeLogic for Probe {
            fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, _port: u16, _pkt: Packet) {
                self.0.lock().unwrap().push(ctx.tracing());
            }
        }
        let seen = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Sim::new(0);
        let a = sim.add_node("a", 1, Box::new(Probe(Arc::clone(&seen))));
        sim.enable_trace(0);
        assert!(sim.trace.is_none());
        assert_eq!(sim.trace_epoch(), 1);
        sim.inject(a, 0, Bytes::from(vec![0u8; 60]), Time::ZERO);
        sim.run(10);
        assert_eq!(*seen.lock().unwrap(), [false]);
    }

    #[test]
    fn counting_and_filtering() {
        let mut tr = Trace::with_capacity(100);
        tr.record(rec(1, TraceDir::Tx));
        tr.record(rec(2, TraceDir::Drop));
        tr.record(rec(3, TraceDir::Drop));
        assert_eq!(tr.count(TraceDir::Drop), 2);
        assert_eq!(tr.count(TraceDir::Tx), 1);
        assert_eq!(tr.for_node(NodeId(1)).count(), 3);
        assert_eq!(tr.for_node(NodeId(2)).count(), 0);
        assert_eq!(tr.for_packet(2).count(), 1);
    }

    #[test]
    fn drop_reason_display_matches_stable_label() {
        // The Display string doubles as the telemetry `reason` tag, so it
        // must stay a stable snake_case identifier for every variant.
        let want = [
            (DropReason::RandomLoss, "random_loss"),
            (DropReason::LinkDown, "link_down"),
            (DropReason::QueueFull, "queue_full"),
            (DropReason::NoRoute, "no_route"),
            (DropReason::TableMissPolicy, "table_miss_policy"),
            (DropReason::VnfDown, "vnf_down"),
            (DropReason::Filtered, "filtered"),
            (DropReason::Malformed, "malformed"),
        ];
        assert_eq!(DropReason::all().len(), want.len());
        for (reason, label) in want {
            assert_eq!(reason.to_string(), label);
            assert_eq!(reason.label(), label);
        }
    }

    #[test]
    fn pcap_export_is_well_formed() {
        let mut tr = Trace::with_capacity(10);
        tr.capture_payloads = true;
        let frame = Bytes::from_static(&[0xaa; 60]);
        tr.record_wire(rec(1_500_000, TraceDir::Rx), &frame); // t = 1.5 ms
        tr.record(rec(2, TraceDir::Drop)); // no bytes: skipped in export
        let pcap = tr.to_pcap();
        // Global header 24 B + one record header 16 B + 60 B frame.
        assert_eq!(pcap.len(), 24 + 16 + 60);
        assert_eq!(&pcap[0..4], &0xa1b2_c3d4u32.to_le_bytes());
        assert_eq!(&pcap[20..24], &1u32.to_le_bytes()); // Ethernet
                                                        // Timestamp: 0 s, 1500 µs.
        assert_eq!(&pcap[24..28], &0u32.to_le_bytes());
        assert_eq!(&pcap[28..32], &1500u32.to_le_bytes());
        // Lengths.
        assert_eq!(&pcap[32..36], &60u32.to_le_bytes());
    }

    #[test]
    fn pcap_holds_the_frames_of_retained_records_only() {
        let mut tr = Trace::with_capacity(2);
        tr.capture_payloads = true;
        for t in 1..=3u8 {
            tr.record_wire(rec(u64::from(t), TraceDir::Rx), &Bytes::from(vec![t; 60]));
        }
        // Record 1 was evicted, and its bytes with it.
        let pcap = tr.to_pcap();
        assert_eq!(pcap.len(), 24 + 2 * (16 + 60));
        assert_eq!(pcap[24 + 16], 2);
        // A hop record pushes record 2 out without queueing bytes.
        tr.record(rec(4, TraceDir::Hop));
        let pcap = tr.to_pcap();
        assert_eq!(pcap.len(), 24 + 16 + 60);
        assert_eq!(pcap[24 + 16], 3);
        // Capture off: wire records keep no bytes.
        tr.capture_payloads = false;
        tr.record_wire(rec(5, TraceDir::Tx), &Bytes::from(vec![5; 60]));
        assert_eq!(tr.to_pcap().len(), 24);
    }

    #[test]
    fn dump_contains_direction_id_and_reason() {
        let mut tr = Trace::with_capacity(10);
        tr.record(rec(42, TraceDir::Tx));
        let mut d = rec(43, TraceDir::Drop);
        d.drop = Some(DropReason::LinkDown);
        tr.record(d);
        let mut h = rec(44, TraceDir::Hop);
        h.hop = Some(HopDetail::FlowMatch {
            dpid: 7,
            cookie: 3,
            priority: 500,
        });
        tr.record(h);
        let text = tr.dump();
        assert!(text.contains("tx"));
        assert!(text.contains("id=42"));
        assert!(text.contains("reason=link_down"));
        assert!(text.contains("cookie=3"));
    }

    #[test]
    fn drop_reason_labels_are_stable_and_unique() {
        let labels: Vec<&str> = DropReason::all().iter().map(|r| r.label()).collect();
        let mut dedup = labels.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len(), "duplicate labels: {labels:?}");
        assert!(labels.contains(&"link_down"));
        assert!(labels.contains(&"random_loss"));
    }
}
