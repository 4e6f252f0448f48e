//! The SLA fold: per-cookie [`Tally`]s over the records a trace ring
//! holds, kept live between calls by [`LiveFold`], and the batch fold
//! it is tested against.

use super::{delivered, flow_cookie, lands, Landing, NodeKind, Tally};
use escape_netem::{NodeId, Time, Trace, TraceDir, TraceRecord};
use escape_packet::LookupMap;
#[cfg(test)]
use std::collections::BTreeMap;
use std::collections::VecDeque;

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

/// A packet's outcome so far, as its cookie's tally counts it.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Share {
    /// Delivered, this many virtual ns after its first retained record.
    Delivered(u64),
    Dropped,
    InFlight,
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

    /// The cookie whose tally counts the packet, and the packet's outcome
    /// so far; a packet no steering rule matched counts nowhere.
    fn counted(&self) -> Option<(u64, Share)> {
        let cookie = self.cookie?;
        let last = self
            .last
            .filter(|v| delivered(v.kind, v.departed, v.dropped));
        let share = if self.dropped {
            Share::Dropped
        } else if let Some(v) = last {
            Share::Delivered(v.arrived.since(self.started))
        } else {
            Share::InFlight
        };
        Some((cookie, share))
    }
}

/// A [`Tally`] that packets can leave again: the delivered ones are
/// counted per latency, so the worst survives the eviction of any other.
#[derive(Debug, Default)]
struct LiveTally {
    dropped: u64,
    in_flight: u64,
    delivered: u64,
    /// Delivered packets by end-to-end latency (virtual ns). Only its
    /// largest key is ever read.
    latencies: LookupMap<u64, u64>,
    /// The largest key of `latencies`.
    max_latency_ns: Option<u64>,
    /// The cookie is on [`CookieTallies::touched`].
    listed: bool,
}

impl LiveTally {
    fn add(&mut self, share: Share) {
        match share {
            Share::Delivered(ns) => {
                self.delivered += 1;
                *self.latencies.entry(ns).or_default() += 1;
                self.max_latency_ns = self.max_latency_ns.max(Some(ns));
            }
            Share::Dropped => self.dropped += 1,
            Share::InFlight => self.in_flight += 1,
        }
    }

    /// Takes out a share [`LiveTally::add`] counted.
    fn take(&mut self, share: Share) {
        match share {
            Share::Delivered(ns) => {
                self.delivered -= 1;
                let n = self
                    .latencies
                    .get_mut(&ns)
                    .expect("a share is taken out only after it was added");
                *n -= 1;
                if *n == 0 {
                    self.latencies.remove(&ns);
                    if self.max_latency_ns == Some(ns) {
                        // The worst packet left: the next worst is among
                        // the latencies still counted.
                        self.max_latency_ns = self.latencies.max_key().copied();
                    }
                }
            }
            Share::Dropped => self.dropped -= 1,
            Share::InFlight => self.in_flight -= 1,
        }
    }

    fn is_empty(&self) -> bool {
        self.delivered + self.dropped + self.in_flight == 0
    }

    fn tally(&self) -> Tally {
        Tally {
            delivered: self.delivered,
            dropped: self.dropped,
            in_flight: self.in_flight,
            max_latency_ns: self.max_latency_ns,
        }
    }
}

/// Node id -> (interned name, kind). Visits match by name, and two nodes
/// may share one. `resolve` is asked once per node id.
#[derive(Default)]
struct NodeTable {
    nodes: Vec<Option<(u32, NodeKind)>>,
    names: LookupMap<String, u32>,
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

/// A packet in the [`LiveFold`].
struct Folded {
    /// Ring position of the packet's newest folded record.
    last_seq: u64,
    fold: PacketFold,
}

/// The live tallies by steering cookie, and the cookies whose tally
/// moved since the fold last reported them. A shift is two lookups at
/// most and never searches the list: a tally's `listed` flag says its
/// cookie is on it.
#[derive(Default)]
struct CookieTallies {
    /// A cookie no retained packet counts in has no entry.
    live: LookupMap<u64, LiveTally>,
    /// The cookies whose tally moved, in the order they first moved. A
    /// tally that emptied and came back within one call lists its
    /// cookie twice.
    touched: Vec<u64>,
}

impl CookieTallies {
    /// Moves one packet's count from what it was to what it is.
    fn shift(&mut self, was: Option<(u64, Share)>, is: Option<(u64, Share)>) {
        if was == is {
            return;
        }
        if let Some((cookie, share)) = was {
            let t = self
                .live
                .get_mut(&cookie)
                .expect("a counted packet's cookie has a tally");
            t.take(share);
            list(&mut self.touched, cookie, t);
            if let Some((_, share)) = is.filter(|&(c, _)| c == cookie) {
                // The packet's outcome moved within its cookie's tally.
                t.add(share);
                return;
            }
            if t.is_empty() {
                self.live.remove(&cookie);
            }
        }
        if let Some((cookie, share)) = is {
            let t = self.live.entry(cookie).or_default();
            t.add(share);
            list(&mut self.touched, cookie, t);
        }
    }

    /// The cookies whose tally moved since the last call, in cookie
    /// order.
    fn take_touched(&mut self) -> Vec<u64> {
        let mut touched = std::mem::take(&mut self.touched);
        for cookie in &touched {
            if let Some(t) = self.live.get_mut(cookie) {
                t.listed = false;
            }
        }
        touched.sort_unstable();
        touched.dedup();
        touched
    }
}

/// Puts `cookie` on the `touched` list unless its tally `t` is there.
fn list(touched: &mut Vec<u64>, cookie: u64, t: &mut LiveTally) {
    if !t.listed {
        t.listed = true;
        touched.push(cookie);
    }
}

/// Per-cookie [`Tally`]s over the records a trace ring holds, kept
/// between calls: each call folds only the records appended and evicted
/// since the previous one. Appending continues a packet's fold; a packet
/// the eviction horizon cut at the head is folded again from its oldest
/// retained record; one the horizon passed is forgotten. Each of these
/// steps takes the packet's old count out of its cookie's tally and puts
/// the new one in, so the tallies are exactly what one pass over the
/// retained records counts, and a call names the cookies it moved.
#[derive(Default)]
pub(crate) struct LiveFold {
    nodes: NodeTable,
    /// Packets by id. The lookup per record is the fold's inner loop,
    /// and nothing walks them.
    packets: LookupMap<u64, Folded>,
    /// (ring position of the oldest retained record, packet id) of every
    /// packet, in position order: the packets the horizon reaches first
    /// are at the front.
    by_first: VecDeque<(u64, u64)>,
    /// `Sim::trace_epoch` of the ring folded: a re-enabled recorder is a
    /// new ring whose positions start again at zero.
    epoch: u64,
    /// Ring position one past the newest folded record.
    folded_to: u64,
    tallies: CookieTallies,
}

impl LiveFold {
    /// Folds what `trace` appended and evicted since the previous call;
    /// no trace counts as an empty ring. `epoch` numbers the trace, and
    /// `resolve` must name a node id the same way on every call. Returns
    /// the cookies whose tally moved since the previous call, in order,
    /// or `None` when the fold started over and any tally may have moved.
    pub(crate) fn fold<'n>(
        &mut self,
        epoch: u64,
        trace: Option<&Trace>,
        mut resolve: impl FnMut(NodeId) -> (&'n str, NodeKind),
    ) -> Option<Vec<u64>> {
        let (horizon, end) = trace.map_or((0, 0), |t| (t.evicted(), t.seq_end()));
        let restart = epoch != self.epoch || horizon > self.folded_to;
        if restart {
            // Another ring, or one that evicted every folded record and
            // more since the last call: nothing folded is retained.
            self.packets.clear();
            self.by_first.clear();
            self.tallies = CookieTallies::default();
            (self.epoch, self.folded_to) = (epoch, horizon);
        }
        // The ring only changes by appending, and evicts only to append.
        if let Some(trace) = trace.filter(|_| end != self.folded_to) {
            self.evict(trace, &mut resolve);
            for (seq, r) in (self.folded_to..).zip(trace.since(self.folded_to)) {
                self.push(seq, r, &mut resolve);
            }
            self.folded_to = end;
        }
        let touched = self.tallies.take_touched();
        (!restart).then_some(touched)
    }

    /// The tally of `cookie`'s packets as of the last [`LiveFold::fold`].
    pub(crate) fn tally(&self, cookie: u64) -> Tally {
        self.tallies
            .live
            .get(&cookie)
            .map_or_else(Tally::default, LiveTally::tally)
    }

    /// Forgets the packets the eviction horizon passed, and folds the
    /// ones it cut at the head again from their oldest retained record.
    fn evict<'n>(
        &mut self,
        trace: &Trace,
        resolve: &mut impl FnMut(NodeId) -> (&'n str, NodeKind),
    ) {
        let horizon = trace.evicted();
        let mut cut: LookupMap<u64, ()> = LookupMap::new();
        let mut scan_to = horizon;
        while let Some((_, id)) = self
            .by_first
            .pop_front_if(|&mut (first, _)| first < horizon)
        {
            let p = self
                .packets
                .remove(&id)
                .expect("an indexed packet is folded");
            self.tallies.shift(p.fold.counted(), None);
            if p.last_seq >= horizon {
                cut.insert(id, ());
                scan_to = scan_to.max(p.last_seq + 1);
            }
        }
        // Every record of a cut packet is behind `folded_to`, so the
        // append that follows continues these folds.
        for (seq, r) in (horizon..scan_to).zip(trace.since(horizon)) {
            if cut.get(&r.packet_id).is_some() {
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
            match by_first.back() {
                Some(&(last, _)) if last > seq => {
                    let at = by_first.partition_point(|&(first, _)| first < seq);
                    by_first.insert(at, (seq, r.packet_id));
                }
                _ => by_first.push_back((seq, r.packet_id)),
            }
            Folded {
                last_seq: seq,
                fold: PacketFold::new(r.time),
            }
        });
        p.last_seq = seq;
        let was = p.fold.counted();
        p.fold.step(r, node, kind);
        self.tallies.shift(was, p.fold.counted());
    }
}

/// Counts, per chain, the journeys [`reconstruct`] would build from the
/// same records, in one pass and without building them: the [`LiveFold`]
/// without its memory, and the reference it is tested against. `cookies`
/// maps steering cookies to chains; a packet with no known cookie counts
/// nowhere.
#[cfg(test)]
pub(crate) fn tallies<'a, 'n, C: Copy + Ord>(
    records: impl Iterator<Item = &'a TraceRecord>,
    mut resolve: impl FnMut(NodeId) -> (&'n str, NodeKind),
    cookies: &BTreeMap<u64, C>,
) -> BTreeMap<C, Tally> {
    let mut nodes = NodeTable::default();
    let mut packets: BTreeMap<u64, PacketFold> = BTreeMap::new();
    for r in records {
        let (node, kind) = nodes.get(r.node, &mut resolve);
        packets
            .entry(r.packet_id)
            .or_insert_with(|| PacketFold::new(r.time))
            .step(r, node, kind);
    }
    let mut out: BTreeMap<C, LiveTally> = BTreeMap::new();
    for p in packets.values() {
        if let Some((cookie, share)) = p.counted() {
            if let Some(&chain) = cookies.get(&cookie) {
                out.entry(chain).or_default().add(share);
            }
        }
    }
    out.into_iter().map(|(c, t)| (c, t.tally())).collect()
}
