//! The discrete-event simulation kernel.
//!
//! A [`Sim`] owns the topology (nodes, links, control channels), the event
//! queue and the virtual clock. Node behaviour is injected through the
//! [`NodeLogic`] trait; during an event dispatch the node receives a
//! [`NodeCtx`] through which it can transmit frames, arm timers and talk on
//! control channels. Event ordering is strictly deterministic: ties in
//! virtual time break on a monotone sequence number, and all randomness
//! (link loss) comes from one seeded RNG.
//!
//! The kernel is split by concern: `kernel` holds the event loop —
//! dispatch, transmission and the retirement of transmit completions,
//! the whole per-frame path in one module; `node` holds what node logic
//! sees ([`NodeLogic`], the ids, and [`NodeCtx`]'s trace and fault
//! hooks); `drops` holds the drop accounting. This module holds the
//! kernel's state and the topology it is built from.

mod drops;
mod kernel;
mod node;

pub use node::{AsAny, CtrlId, NodeCtx, NodeId, NodeLogic};

use crate::link::{Link, LinkConfig, LinkId, LinkState};
use crate::queue::EventQueue;
use crate::stats::SimStats;
use crate::time::Time;
use crate::trace::{DropReason, Trace};
use escape_telemetry::{Counter, Gauge, Registry};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Cached handles into the telemetry [`Registry`] for the kernel's hot
/// paths — one atomic increment per event, no lookups.
struct SimCounters {
    events: Counter,
    timers: Counter,
    ctrl_messages: Counter,
    frames_sent: Counter,
    frames_delivered: Counter,
    drops_queue: Counter,
    drops_loss: Counter,
    drops_link_down: Counter,
    /// Frames sitting in egress queues right now, across all links.
    queued_frames: Gauge,
    /// High-water mark of `queued_frames`.
    queued_frames_max: Gauge,
}

impl SimCounters {
    fn new(r: &Registry) -> SimCounters {
        SimCounters {
            events: r.counter("netem.events"),
            timers: r.counter("netem.timers"),
            ctrl_messages: r.counter("netem.ctrl_messages"),
            frames_sent: r.counter("netem.frames_sent"),
            frames_delivered: r.counter("netem.frames_delivered"),
            drops_queue: r.counter("netem.drops.queue"),
            drops_loss: r.counter("netem.drops.loss"),
            drops_link_down: r.counter("netem.drops.link_down"),
            queued_frames: r.gauge("netem.queued_frames"),
            queued_frames_max: r.gauge("netem.queued_frames.max"),
        }
    }

    fn enqueue(&self) {
        self.queued_frames.add(1);
        let depth = self.queued_frames.get();
        if depth > self.queued_frames_max.get() {
            self.queued_frames_max.set(depth);
        }
    }
}

struct NodeSlot {
    name: String,
    logic: Option<Box<dyn NodeLogic>>,
    /// Logic parked by [`Sim::pause_node`] (a stalled process): events
    /// are discarded until [`Sim::resume_node`] moves it back.
    parked: Option<Box<dyn NodeLogic>>,
    /// port index -> (link index, our direction on that link)
    ports: Vec<Option<(u32, u8)>>,
}

struct Ctrl {
    ends: [u32; 2],
    latency: Time,
}

/// The simulation kernel. See the module docs.
pub struct Sim {
    clock: Time,
    queue: EventQueue,
    nodes: Vec<NodeSlot>,
    links: Vec<Link>,
    ctrls: Vec<Ctrl>,
    rng: SmallRng,
    next_packet_id: u64,
    telemetry: Registry,
    counters: SimCounters,
    /// Per-link drop counters (`netem.link_drops{link="a-b"}`), parallel
    /// to `links`.
    link_drops: Vec<Counter>,
    /// `netem.drops{reason=...}` by `DropReason as usize`, each looked up
    /// at its first drop so an unseen reason has no series.
    drops_by_reason: Vec<Option<Counter>>,
    /// Link directions (link index, direction) holding queued frames.
    busy: Vec<(u32, u8)>,
    /// Key of the event being (or last) dispatched: transmit completions
    /// keyed before it are due.
    cursor: (Time, u64),
    /// Optional packet trace (pcap stand-in).
    pub trace: Option<Trace>,
    /// Traces started by [`Sim::enable_trace`] so far.
    trace_epoch: u64,
}

impl Sim {
    /// Creates an empty simulation with the given RNG seed. Two sims with
    /// the same seed, topology and workload produce identical runs.
    pub fn new(seed: u64) -> Self {
        Sim::with_registry(seed, Registry::new())
    }

    /// Like [`Sim::new`], but recording telemetry into a shared registry
    /// (so the whole stack — kernel, controller, orchestrator — lands in
    /// one snapshot).
    pub fn with_registry(seed: u64, telemetry: Registry) -> Self {
        let counters = SimCounters::new(&telemetry);
        Sim {
            clock: Time::ZERO,
            queue: EventQueue::default(),
            nodes: Vec::new(),
            links: Vec::new(),
            ctrls: Vec::new(),
            rng: SmallRng::seed_from_u64(seed),
            next_packet_id: 1,
            telemetry,
            counters,
            link_drops: Vec::new(),
            drops_by_reason: vec![None; DropReason::all().len()],
            busy: Vec::new(),
            cursor: (Time::ZERO, 0),
            trace: None,
            trace_epoch: 0,
        }
    }

    /// The telemetry registry this simulation records into.
    pub fn telemetry(&self) -> &Registry {
        &self.telemetry
    }

    /// Aggregate counters for the run, read back from the telemetry
    /// registry (compatibility view; the registry is the single source
    /// of truth).
    pub fn stats(&self) -> SimStats {
        SimStats {
            events: self.counters.events.get(),
            frames_sent: self.counters.frames_sent.get(),
            frames_delivered: self.counters.frames_delivered.get(),
            drops_queue: self.counters.drops_queue.get(),
            drops_loss: self.counters.drops_loss.get(),
            drops_link_down: self.counters.drops_link_down.get(),
            ctrl_messages: self.counters.ctrl_messages.get(),
            timers: self.counters.timers.get(),
        }
    }

    /// Enables packet tracing, keeping at most `cap` records; 0 is off.
    pub fn enable_trace(&mut self, cap: usize) {
        self.trace = (cap > 0).then(|| Trace::with_capacity(cap));
        self.trace_epoch += 1;
    }

    /// Bumped by every [`Sim::enable_trace`], whose new trace numbers its
    /// records from zero: (epoch, [`Trace::seq_end`]) names one content.
    pub fn trace_epoch(&self) -> u64 {
        self.trace_epoch
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.clock
    }

    /// Adds a node; `ports` is the number of dataplane ports it exposes.
    pub fn add_node(
        &mut self,
        name: impl Into<String>,
        ports: u16,
        logic: Box<dyn NodeLogic>,
    ) -> NodeId {
        let id = self.nodes.len() as u32;
        self.nodes.push(NodeSlot {
            name: name.into(),
            logic: Some(logic),
            parked: None,
            ports: vec![None; ports as usize],
        });
        NodeId(id)
    }

    /// Finds a node by name (first match).
    pub fn find_node(&self, name: &str) -> Option<NodeId> {
        self.nodes
            .iter()
            .position(|n| n.name == name)
            .map(|i| NodeId(i as u32))
    }

    /// Every link whose endpoints are the named nodes, in either order
    /// (parallel links between the same pair are all returned).
    pub fn find_links(&self, a: &str, b: &str) -> Vec<LinkId> {
        let (Some(na), Some(nb)) = (self.find_node(a), self.find_node(b)) else {
            return Vec::new();
        };
        let key = if na.0 <= nb.0 {
            [na.0, nb.0]
        } else {
            [nb.0, na.0]
        };
        self.links
            .iter()
            .enumerate()
            .filter(|(_, l)| {
                let mut ends = [l.ends[0].0, l.ends[1].0];
                ends.sort_unstable();
                ends == key
            })
            .map(|(i, _)| LinkId(i as u32))
            .collect()
    }

    /// Node count.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// A node's name.
    pub fn node_name(&self, node: NodeId) -> &str {
        &self.nodes[node.0 as usize].name
    }

    /// Mutable access to a node's concrete logic type. Panics if the node
    /// is currently being dispatched. Returns `None` on a type mismatch.
    pub fn node_as_mut<T: NodeLogic + 'static>(&mut self, node: NodeId) -> Option<&mut T> {
        self.nodes[node.0 as usize]
            .logic
            .as_deref_mut()
            .expect("node is being dispatched")
            .as_any_mut()
            .downcast_mut::<T>()
    }

    /// Shared access to a node's concrete logic type.
    pub fn node_as<T: NodeLogic + 'static>(&self, node: NodeId) -> Option<&T> {
        self.nodes[node.0 as usize]
            .logic
            .as_deref()
            .expect("node is being dispatched")
            .as_any()
            .downcast_ref::<T>()
    }

    /// Shared access to a node's concrete logic type that tolerates the
    /// node being parked (paused) or dead: observers (invariant checks,
    /// state fingerprints) may inspect a stalled node's state, and get
    /// `None` for a killed node instead of a panic.
    pub fn peek_node_as<T: NodeLogic + 'static>(&self, node: NodeId) -> Option<&T> {
        let slot = &self.nodes[node.0 as usize];
        slot.logic
            .as_deref()
            .or(slot.parked.as_deref())?
            .as_any()
            .downcast_ref::<T>()
    }

    /// Connects `a.0` port `a.1` to `b.0` port `b.1` with a full-duplex
    /// link. Panics if a port is out of range or already wired.
    pub fn connect(&mut self, a: (NodeId, u16), b: (NodeId, u16), cfg: LinkConfig) -> LinkId {
        let id = self.links.len() as u32;
        for (end, (node, port)) in [(0u8, a), (1u8, b)] {
            let slot = &mut self.nodes[node.0 as usize];
            let p = slot
                .ports
                .get_mut(port as usize)
                .unwrap_or_else(|| panic!("node {} has no port {}", node.0, port));
            assert!(p.is_none(), "node {} port {} already wired", node.0, port);
            *p = Some((id, end));
        }
        let label = format!(
            "{}-{}",
            self.nodes[a.0 .0 as usize].name, self.nodes[b.0 .0 as usize].name
        );
        self.link_drops.push(
            self.telemetry
                .counter_with("netem.link_drops", &[("link", &label)]),
        );
        self.links.push(Link {
            cfg,
            state: LinkState::Up,
            ends: [(a.0 .0, a.1), (b.0 .0, b.1)],
            tx: Default::default(),
        });
        LinkId(id)
    }

    /// Number of links created so far (link ids are dense from 0).
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Administratively flips a link (fault injection).
    pub fn set_link_state(&mut self, link: LinkId, state: LinkState) {
        self.links[link.0 as usize].state = state;
    }

    /// Changes a link's random loss probability (fault injection).
    pub fn set_link_loss(&mut self, link: LinkId, loss: f64) {
        assert!((0.0..=1.0).contains(&loss));
        self.links[link.0 as usize].cfg.loss = loss;
    }

    /// A link's current loss probability.
    pub fn link_loss(&self, link: LinkId) -> f64 {
        self.links[link.0 as usize].cfg.loss
    }

    /// Changes a link's propagation delay (fault injection).
    pub fn set_link_delay(&mut self, link: LinkId, delay: Time) {
        self.links[link.0 as usize].cfg.delay = delay;
    }

    /// A link's current propagation delay.
    pub fn link_delay(&self, link: LinkId) -> Time {
        self.links[link.0 as usize].cfg.delay
    }

    /// Creates a control channel between two nodes: reliable, ordered,
    /// fixed-latency message delivery in both directions. This models the
    /// paper's dedicated control network (NETCONF sessions, the OpenFlow
    /// control channel).
    pub fn ctrl_connect(&mut self, a: NodeId, b: NodeId, latency: Time) -> CtrlId {
        let id = self.ctrls.len() as u32;
        self.ctrls.push(Ctrl {
            ends: [a.0, b.0],
            latency,
        });
        CtrlId(id)
    }

    /// Allocates a fresh packet id (for nodes that originate traffic).
    pub fn alloc_packet_id(&mut self) -> u64 {
        let id = self.next_packet_id;
        self.next_packet_id += 1;
        id
    }

    /// Removes a node's logic entirely — events addressed to it are
    /// discarded from then on. Models a crashed VNF container.
    pub fn kill_node(&mut self, node: NodeId) -> Option<Box<dyn NodeLogic>> {
        let slot = &mut self.nodes[node.0 as usize];
        slot.parked = None;
        slot.logic.take()
    }

    /// Parks a node's logic: events addressed to it are discarded until
    /// [`Sim::resume_node`]. Models a stalled (hung but alive) process.
    /// Returns false if the node is already paused or dead.
    pub fn pause_node(&mut self, node: NodeId) -> bool {
        let slot = &mut self.nodes[node.0 as usize];
        match slot.logic.take() {
            Some(l) => {
                slot.parked = Some(l);
                true
            }
            None => false,
        }
    }

    /// Un-parks a paused node. Returns false if it was not paused (e.g.
    /// it was killed in the meantime).
    pub fn resume_node(&mut self, node: NodeId) -> bool {
        let slot = &mut self.nodes[node.0 as usize];
        match slot.parked.take() {
            Some(l) => {
                slot.logic = Some(l);
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkConfig;
    use crate::trace::{HopDetail, TraceDir};
    use bytes::Bytes;
    use escape_packet::Packet;

    /// Echoes every frame back out the port it came in on.
    struct Reflector;
    impl NodeLogic for Reflector {
        fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, port: u16, pkt: Packet) {
            ctx.send(port, pkt);
        }
    }

    /// Counts frames and remembers arrival times.
    #[derive(Default)]
    struct Counter {
        rx: Vec<(Time, u64)>,
    }
    impl NodeLogic for Counter {
        fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, _port: u16, pkt: Packet) {
            self.rx.push((ctx.now(), pkt.id));
        }
    }

    fn two_node_sim(cfg: LinkConfig) -> (Sim, NodeId, NodeId) {
        let mut sim = Sim::new(1);
        let a = sim.add_node("a", 1, Box::new(Reflector));
        let b = sim.add_node("b", 1, Box::new(Counter::default()));
        sim.connect((a, 0), (b, 0), cfg);
        (sim, a, b)
    }

    #[test]
    fn frame_crosses_link_with_correct_latency() {
        let cfg = LinkConfig::lan(); // 1 Gbps, 50 us
        let (mut sim, a, b) = two_node_sim(cfg);
        let id = sim.inject(a, 0, Bytes::from(vec![0u8; 125]), Time::ZERO);
        sim.run(1000);
        let c = sim.node_as::<Counter>(b).unwrap();
        assert_eq!(c.rx.len(), 1);
        // Reflector forwards instantly at t=0; 125 B at 1 Gbps = 1 µs
        // serialization + 50 µs propagation.
        assert_eq!(c.rx[0].0, Time::from_us(51));
        assert_eq!(c.rx[0].1, id);
    }

    #[test]
    fn queueing_adds_serialization_backlog() {
        let cfg = LinkConfig::lan(); // 1 µs per 125 B
        let (mut sim, a, b) = two_node_sim(cfg);
        for _ in 0..3 {
            sim.inject(a, 0, Bytes::from(vec![0u8; 125]), Time::ZERO);
        }
        sim.run(1000);
        let c = sim.node_as::<Counter>(b).unwrap();
        let times: Vec<u64> = c.rx.iter().map(|(t, _)| t.as_us()).collect();
        assert_eq!(times, vec![51, 52, 53]); // 1 µs apart behind one transmitter
    }

    #[test]
    fn full_queue_tail_drops() {
        let cfg = LinkConfig::lan().with_queue(2);
        let (mut sim, a, _b) = two_node_sim(cfg);
        for _ in 0..5 {
            sim.inject(a, 0, Bytes::from(vec![0u8; 1500]), Time::ZERO);
        }
        sim.run(1000);
        assert_eq!(sim.stats().drops_queue, 3);
        assert_eq!(sim.stats().frames_delivered, 5 + 2); // 5 injected + 2 forwarded
    }

    #[test]
    fn lossy_link_drops_statistically() {
        let cfg = LinkConfig::lan().with_loss(0.5);
        let (mut sim, a, _b) = two_node_sim(cfg);
        for i in 0..1000 {
            sim.inject(a, 0, Bytes::from(vec![0u8; 60]), Time::from_us(i * 100));
        }
        sim.run(100_000);
        let lost = sim.stats().drops_loss;
        assert!((300..700).contains(&lost), "loss {lost} wildly off 50%");
    }

    #[test]
    fn link_down_drops_everything() {
        let (mut sim, a, b) = two_node_sim(LinkConfig::lan());
        sim.set_link_state(LinkId(0), LinkState::Down);
        sim.inject(a, 0, Bytes::from(vec![0u8; 60]), Time::ZERO);
        sim.run(100);
        assert_eq!(sim.stats().drops_link_down, 1);
        assert_eq!(sim.node_as::<Counter>(b).unwrap().rx.len(), 0);
    }

    #[test]
    fn identical_seeds_produce_identical_runs() {
        let mk = || {
            let cfg = LinkConfig::lan().with_loss(0.3);
            let (mut sim, a, _) = two_node_sim(cfg);
            for i in 0..200 {
                sim.inject(a, 0, Bytes::from(vec![0u8; 100]), Time::from_us(i * 7));
            }
            sim.run(10_000);
            sim.stats()
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn timers_fire_in_order() {
        struct T {
            fired: Vec<u64>,
        }
        impl NodeLogic for T {
            fn on_packet(&mut self, _: &mut NodeCtx<'_>, _: u16, _: Packet) {}
            fn on_timer(&mut self, _: &mut NodeCtx<'_>, token: u64) {
                self.fired.push(token);
            }
        }
        let mut sim = Sim::new(0);
        let n = sim.add_node("t", 0, Box::new(T { fired: vec![] }));
        sim.set_timer_for(n, Time::from_ms(3), 3);
        sim.set_timer_for(n, Time::from_ms(1), 1);
        sim.set_timer_for(n, Time::from_ms(2), 2);
        sim.run(10);
        assert_eq!(sim.node_as::<T>(n).unwrap().fired, vec![1, 2, 3]);
        assert_eq!(sim.stats().timers, 3);
    }

    #[test]
    fn ctrl_channel_delivers_with_latency() {
        struct Recv {
            got: Vec<(Time, Vec<u8>)>,
        }
        impl NodeLogic for Recv {
            fn on_packet(&mut self, _: &mut NodeCtx<'_>, _: u16, _: Packet) {}
            fn on_ctrl(&mut self, ctx: &mut NodeCtx<'_>, _c: CtrlId, msg: Vec<u8>) {
                self.got.push((ctx.now(), msg));
            }
        }
        let mut sim = Sim::new(0);
        let a = sim.add_node("a", 0, Box::new(Recv { got: vec![] }));
        let b = sim.add_node("b", 0, Box::new(Recv { got: vec![] }));
        let c = sim.ctrl_connect(a, b, Time::from_ms(1));
        sim.ctrl_send_from(a, c, b"hello".to_vec());
        sim.run(10);
        let rb = sim.node_as::<Recv>(b).unwrap();
        assert_eq!(rb.got.len(), 1);
        assert_eq!(rb.got[0].0, Time::from_ms(1));
        assert_eq!(rb.got[0].1, b"hello");
        assert!(sim.node_as::<Recv>(a).unwrap().got.is_empty());
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let (mut sim, a, _b) = two_node_sim(LinkConfig::lan());
        sim.inject(a, 0, Bytes::from(vec![0u8; 60]), Time::from_ms(10));
        let n = sim.run_until(Time::from_ms(1));
        assert_eq!(n, 0);
        assert_eq!(sim.now(), Time::from_ms(1));
        sim.run_until(Time::from_ms(20));
        assert!(sim.stats().frames_delivered > 0);
    }

    #[test]
    fn killed_node_discards_events() {
        let (mut sim, a, b) = two_node_sim(LinkConfig::lan());
        sim.inject(a, 0, Bytes::from(vec![0u8; 60]), Time::ZERO);
        sim.kill_node(b);
        sim.run(100); // must not panic
        assert!(sim.nodes[b.0 as usize].logic.is_none());
    }

    #[test]
    #[should_panic(expected = "already wired")]
    fn double_wiring_a_port_panics() {
        let mut sim = Sim::new(0);
        let a = sim.add_node("a", 1, Box::new(Reflector));
        let b = sim.add_node("b", 2, Box::new(Reflector));
        sim.connect((a, 0), (b, 0), LinkConfig::lan());
        sim.connect((a, 0), (b, 1), LinkConfig::lan());
    }

    #[test]
    fn unwired_port_send_is_silent() {
        let mut sim = Sim::new(0);
        let a = sim.add_node("a", 3, Box::new(Reflector));
        sim.inject(a, 2, Bytes::from(vec![0u8; 60]), Time::ZERO);
        sim.run(10); // Reflector sends back out port 2, which is unwired
        assert_eq!(sim.stats().frames_sent, 0);
        // The frame never hit the wire, but the drop is still attributed.
        let snap = sim.telemetry().snapshot();
        assert_eq!(
            snap.counter("netem.drops", &[("reason", "no_route")]),
            Some(1)
        );
    }

    #[test]
    fn drops_are_counted_per_reason() {
        // Queue overflow.
        let cfg = LinkConfig::lan().with_queue(1);
        let (mut sim, a, _b) = two_node_sim(cfg);
        for _ in 0..3 {
            sim.inject(a, 0, Bytes::from(vec![0u8; 1500]), Time::ZERO);
        }
        sim.run(1000);
        let snap = sim.telemetry().snapshot();
        assert_eq!(
            snap.counter("netem.drops", &[("reason", "queue_full")]),
            Some(2)
        );

        // Link down.
        let (mut sim, a, _b) = two_node_sim(LinkConfig::lan());
        sim.enable_trace(100);
        sim.set_link_state(LinkId(0), LinkState::Down);
        sim.inject(a, 0, Bytes::from(vec![0u8; 60]), Time::ZERO);
        sim.run(100);
        let snap = sim.telemetry().snapshot();
        assert_eq!(
            snap.counter("netem.drops", &[("reason", "link_down")]),
            Some(1)
        );
        // And the trace record carries the typed reason.
        let tr = sim.trace.as_ref().unwrap();
        let drop = tr.records().find(|r| r.dir == TraceDir::Drop).unwrap();
        assert_eq!(drop.drop, Some(DropReason::LinkDown));
    }

    #[test]
    fn a_drop_reason_registers_once_and_counts_every_drop() {
        let (mut sim, a, _b) = two_node_sim(LinkConfig::lan());
        sim.set_link_state(LinkId(0), LinkState::Down);
        let link_down = |sim: &Sim| {
            let snap = sim.telemetry().snapshot();
            let n = snap.counter("netem.drops", &[("reason", "link_down")]);
            (n, snap.entries.len())
        };
        let (none, before) = link_down(&sim);
        assert_eq!(none, None, "no series before the first drop");
        let mut after_first = 0;
        for i in 0..1_000u64 {
            sim.inject(a, 0, Bytes::from(vec![0u8; 60]), Time::from_ns(i));
            sim.run(10);
            if i == 0 {
                after_first = link_down(&sim).1;
                assert!(after_first > before);
            }
        }
        assert_eq!(link_down(&sim), (Some(1_000), after_first));
        // The handle table is indexed by the enum's discriminant.
        for (i, reason) in DropReason::all().iter().enumerate() {
            assert_eq!(*reason as usize, i);
        }
    }

    #[test]
    fn node_ctx_hop_and_drop_annotations() {
        /// Annotates every arriving frame with a flow-match hop, then
        /// discards it with a typed reason.
        struct Annotator;
        impl NodeLogic for Annotator {
            fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, port: u16, pkt: Packet) {
                assert!(ctx.tracing());
                ctx.trace_hop(
                    pkt.id,
                    pkt.len(),
                    port,
                    HopDetail::FlowMatch {
                        dpid: 9,
                        cookie: 77,
                        priority: 500,
                    },
                );
                ctx.trace_drop(pkt.id, pkt.len(), port, DropReason::Filtered);
            }
        }
        let mut sim = Sim::new(0);
        let a = sim.add_node("a", 1, Box::new(Annotator));
        sim.enable_trace(100);
        let id = sim.inject(a, 0, Bytes::from(vec![0u8; 60]), Time::ZERO);
        sim.run(10);
        let tr = sim.trace.as_ref().unwrap();
        let recs: Vec<_> = tr.for_packet(id).collect();
        assert_eq!(recs.len(), 3); // Rx, Hop, Drop
        assert_eq!(recs[1].dir, TraceDir::Hop);
        assert_eq!(
            recs[1].hop,
            Some(HopDetail::FlowMatch {
                dpid: 9,
                cookie: 77,
                priority: 500
            })
        );
        assert_eq!(recs[2].drop, Some(DropReason::Filtered));
        let snap = sim.telemetry().snapshot();
        assert_eq!(
            snap.counter("netem.drops", &[("reason", "filtered")]),
            Some(1)
        );
    }

    #[test]
    fn telemetry_registry_sees_kernel_counters() {
        let reg = escape_telemetry::Registry::new();
        let mut sim = Sim::with_registry(1, reg.clone());
        let a = sim.add_node("a", 1, Box::new(Reflector));
        let b = sim.add_node("b", 1, Box::new(Counter::default()));
        sim.connect((a, 0), (b, 0), LinkConfig::lan().with_queue(2));
        for _ in 0..5 {
            sim.inject(a, 0, Bytes::from(vec![0u8; 1500]), Time::ZERO);
        }
        sim.run(1000);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("netem.drops.queue", &[]), Some(3));
        assert_eq!(
            snap.counter("netem.link_drops", &[("link", "a-b")]),
            Some(3)
        );
        assert_eq!(snap.counter("netem.events", &[]), Some(sim.stats().events));
        assert!(snap.gauge("netem.queued_frames.max", &[]).unwrap() >= 1);
        assert_eq!(
            snap.gauge("netem.queued_frames", &[]),
            Some(0),
            "queues drained"
        );
    }

    #[test]
    fn trace_records_tx_rx() {
        let (mut sim, a, _b) = two_node_sim(LinkConfig::lan());
        sim.enable_trace(100);
        sim.inject(a, 0, Bytes::from(vec![0u8; 60]), Time::ZERO);
        sim.run(100);
        let tr = sim.trace.as_ref().unwrap();
        assert!(tr.count(TraceDir::Rx) >= 2); // at a (inject) and at b
        assert_eq!(tr.count(TraceDir::Tx), 1); // reflector's forward
    }
}
