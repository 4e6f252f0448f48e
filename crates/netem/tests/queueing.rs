//! Queueing corpus: what the kernel's link model does with bursts, ties
//! and boundaries, pinned line by line in `queueing.txt`.
//!
//! Each scenario is a small seeded topology driven by timer bursts:
//! drop-tail queues of capacity 1–3, zero-serialisation hops with many
//! events at one timestamp (a node sending twice out of one port in a
//! single dispatch among them), `run_until` deadlines landing exactly on
//! and 1 ns before a serialisation end, a link going down and loss
//! changing mid-burst, and both directions of one link busy at once. The
//! corpus lists every arrival (time, node, port, packet id) and, at every
//! `run_until` boundary and after the final drain, the queue gauges, the
//! event count, the frames sent and the drops by reason. A change to the
//! kernel that is meant to be invisible leaves the file untouched; on a
//! mismatch the current corpus is written to the target tmp dir as
//! `queueing.actual.txt`, ready to diff.
//!
//! A proptest over random topologies checks the event-count law at every
//! boundary: each model event is an arrival, a transmit completion, a
//! timer or a control delivery, and a completion is owed for every frame
//! that entered a queue and has left it.

use bytes::Bytes;
use escape_netem::{CtrlId, DropReason, LinkConfig, LinkState, NodeCtx, NodeId};
use escape_netem::{NodeLogic, Sim, Time};
use escape_packet::Packet;
use proptest::prelude::*;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

const CORPUS: &str = include_str!("queueing.txt");

/// SplitMix64: a fixed sequence on every toolchain.
struct Seq(u64);

impl Seq {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `lo..=hi`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }
}

type Log = Arc<Mutex<String>>;

/// Timer token for a burst of `count` frames of `len` bytes out of `port`.
fn burst(port: u16, count: u16, len: u16) -> u64 {
    (u64::from(port) << 32) | (u64::from(count) << 16) | u64::from(len)
}

/// Logs every arrival, forwards it by in-port (sending `copies` frames
/// per arrival, all in the one dispatch), and sends timer bursts.
struct Node {
    name: &'static str,
    log: Log,
    /// In-port → out-port; `None` sinks the frame.
    route: Vec<Option<u16>>,
    copies: u8,
}

impl NodeLogic for Node {
    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, port: u16, pkt: Packet) {
        let line = format!(
            "{} arrive {} port {} id {}",
            ctx.now().as_ns(),
            self.name,
            port,
            pkt.id
        );
        writeln!(self.log.lock().expect("log"), "{line}").expect("write");
        let Some(out) = self.route.get(usize::from(port)).copied().flatten() else {
            return;
        };
        for _ in 1..self.copies {
            let copy = ctx.new_packet(pkt.data.clone());
            ctx.send(out, copy);
        }
        ctx.send(out, pkt);
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, token: u64) {
        let port = (token >> 32) as u16;
        let len = usize::from(token as u16);
        for _ in 0..(token >> 16) as u16 {
            let pkt = ctx.new_packet(Bytes::from(vec![0u8; len]));
            ctx.send(port, pkt);
        }
    }
}

/// One scenario under construction: the sim, the shared log and the
/// boundary reports.
struct Rig {
    sim: Sim,
    log: Log,
}

impl Rig {
    fn new(name: &str, seed: u64) -> Rig {
        let log = Log::default();
        writeln!(log.lock().expect("log"), "== {name} seed {seed}").expect("write");
        Rig {
            sim: Sim::new(seed),
            log,
        }
    }

    fn node(&mut self, name: &'static str, route: &[Option<u16>], copies: u8) -> NodeId {
        let logic = Node {
            name,
            log: self.log.clone(),
            route: route.to_vec(),
            copies,
        };
        self.sim.add_node(name, route.len() as u16, Box::new(logic))
    }

    /// Arms a burst at absolute time `at_ns` (not before now).
    fn burst_at(&mut self, node: NodeId, at_ns: u64, port: u16, count: u16, len: u16) {
        let delay = Time::from_ns(at_ns).since(self.sim.now());
        self.sim
            .set_timer_for(node, Time::from_ns(delay), burst(port, count, len));
    }

    fn until(&mut self, deadline_ns: u64) {
        self.sim.run_until(Time::from_ns(deadline_ns));
        self.report(&format!("until {deadline_ns}"));
    }

    fn drain(&mut self) -> String {
        self.sim.run(u64::MAX);
        self.report("drain");
        std::mem::take(&mut *self.log.lock().expect("log"))
    }

    fn report(&self, what: &str) {
        let snap = self.sim.telemetry().snapshot();
        let gauge = |name| snap.gauge(name, &[]).unwrap_or(0);
        let counter = |name| snap.counter(name, &[]).unwrap_or(0);
        let mut line = format!(
            "{} {what}: queued {} max {} events {} sent {} drops",
            self.sim.now().as_ns(),
            gauge("netem.queued_frames"),
            gauge("netem.queued_frames.max"),
            counter("netem.events"),
            counter("netem.frames_sent"),
        );
        for reason in DropReason::all() {
            if let Some(n) = snap.counter("netem.drops", &[("reason", reason.label())]) {
                write!(line, " {}={n}", reason.label()).expect("write");
            }
        }
        writeln!(self.log.lock().expect("log"), "{line}").expect("write");
    }
}

/// A host bursting into a switch that forwards to a sink, both hops
/// queue-limited to `cap` frames and slower than the bursts.
fn bursts_into_small_queues(cap: usize) -> String {
    let seed = 10 + cap as u64;
    let mut r = Rig::new(&format!("bursts_cap{cap}"), seed);
    let h = r.node("h", &[None], 1);
    let s = r.node("s", &[Some(1), None], 1);
    let k = r.node("k", &[None], 1);
    let first = LinkConfig::lan()
        .with_bandwidth(10_000_000)
        .with_delay(Time::from_us(20))
        .with_queue(cap);
    let second = first
        .with_bandwidth(5_000_000)
        .with_delay(Time::from_us(10));
    r.sim.connect((h, 0), (s, 0), first);
    r.sim.connect((s, 1), (k, 0), second);
    let mut rng = Seq(seed);
    for i in 0..6 {
        let at = i * 150_000 + rng.range(0, 50_000);
        let count = rng.range(1, 5) as u16;
        let len = rng.range(60, 400) as u16;
        r.burst_at(h, at, 0, count, len);
    }
    for t in (100_000..=1_200_000).step_by(100_000) {
        r.until(t);
    }
    r.drain()
}

/// Zero-serialisation hops with everything at a few timestamps: two hosts
/// burst at the same instants into a switch that sends two copies of every
/// arrival out of one port, onto an ideal link holding `cap` frames.
fn ideal_ties(cap: usize) -> String {
    let mut r = Rig::new(&format!("ideal_ties_cap{cap}"), 20 + cap as u64);
    let h0 = r.node("h0", &[None], 1);
    let h1 = r.node("h1", &[None], 1);
    let s = r.node("s", &[Some(2), Some(2), None], 2);
    let k = r.node("k", &[None], 1);
    r.sim.connect((h0, 0), (s, 0), LinkConfig::ideal());
    r.sim.connect((h1, 0), (s, 1), LinkConfig::ideal());
    r.sim
        .connect((s, 2), (k, 0), LinkConfig::ideal().with_queue(cap));
    for (at, count) in [(1_000, 2), (1_000, 1), (2_000, 3)] {
        r.burst_at(h0, at, 0, count, 64);
        r.burst_at(h1, at, 0, count, 64);
    }
    r.until(999);
    r.until(1_000);
    r.burst_at(h1, 1_000, 0, 2, 64);
    r.until(1_000);
    r.until(1_500);
    r.until(2_000);
    r.drain()
}

/// 125-byte frames at 1 Gbit/s serialise in 1 µs, so the completions land
/// on whole microseconds; the deadlines sit on them and 1 ns before. The
/// second hop has no propagation delay, so each arrival ties with the
/// completion that released it.
fn deadlines_on_serialisation_ends() -> String {
    let mut r = Rig::new("deadline_edges", 30);
    let h = r.node("h", &[None], 1);
    let s = r.node("s", &[Some(1), None], 1);
    let k = r.node("k", &[None], 1);
    r.sim
        .connect((h, 0), (s, 0), LinkConfig::lan().with_queue(3));
    let second = LinkConfig::lan().with_delay(Time::ZERO).with_queue(2);
    r.sim.connect((s, 1), (k, 0), second);
    r.burst_at(h, 0, 0, 4, 125);
    for t in [999, 1_000, 1_999, 2_000] {
        r.until(t);
    }
    // A burst at a boundary joins a queue whose head just completed.
    r.burst_at(h, 2_000, 0, 2, 125);
    for t in [2_000, 2_999, 3_000, 3_999, 4_000, 4_999, 5_000] {
        r.until(t);
    }
    for t in [51_999, 52_000, 52_999, 53_000, 53_999, 54_000, 55_000] {
        r.until(t);
    }
    r.drain()
}

/// Bursts across a lossy first hop; the second hop goes down with frames
/// in flight and comes back, and the first hop's loss changes mid-burst.
fn faults_mid_burst() -> String {
    let mut r = Rig::new("faults_mid_burst", 40);
    let h = r.node("h", &[None], 1);
    let s = r.node("s", &[Some(1), None], 1);
    let k = r.node("k", &[None], 1);
    let cfg = LinkConfig::lan()
        .with_bandwidth(10_000_000)
        .with_delay(Time::from_us(20));
    let lossy = r
        .sim
        .connect((h, 0), (s, 0), cfg.with_loss(0.25).with_queue(3));
    let down = r.sim.connect((s, 1), (k, 0), cfg.with_queue(2));
    let mut rng = Seq(40);
    for i in 0..10 {
        let at = i * 90_000 + rng.range(0, 30_000);
        r.burst_at(h, at, 0, rng.range(2, 4) as u16, rng.range(80, 300) as u16);
    }
    for t in (100_000..=1_100_000).step_by(100_000) {
        r.until(t);
        match t {
            300_000 => r.sim.set_link_state(down, LinkState::Down),
            600_000 => r.sim.set_link_state(down, LinkState::Up),
            700_000 => r.sim.set_link_loss(lossy, 0.6),
            900_000 => r.sim.set_link_loss(lossy, 0.0),
            _ => {}
        }
    }
    r.until(1_200_000);
    r.drain()
}

/// Two hosts burst at each other through a switch, so both directions of
/// both links are busy at once, some bursts starting at the same instant.
fn both_directions_busy() -> String {
    let mut r = Rig::new("both_directions", 50);
    let a = r.node("a", &[None], 1);
    let s = r.node("s", &[Some(1), Some(0)], 1);
    let b = r.node("b", &[None], 1);
    let cfg = LinkConfig::lan()
        .with_bandwidth(10_000_000)
        .with_delay(Time::from_us(15));
    r.sim.connect((a, 0), (s, 0), cfg.with_queue(2));
    r.sim.connect((s, 1), (b, 0), cfg.with_queue(3));
    let mut rng = Seq(50);
    for i in 0..6 {
        let at = i * 120_000 + rng.range(0, 40_000);
        r.burst_at(a, at, 0, rng.range(1, 4) as u16, rng.range(60, 250) as u16);
        let at = if i % 2 == 0 {
            at
        } else {
            at + rng.range(0, 40_000)
        };
        r.burst_at(b, at, 0, rng.range(1, 4) as u16, rng.range(60, 250) as u16);
    }
    for t in (50_000..=800_000).step_by(50_000) {
        r.until(t);
    }
    r.drain()
}

/// A seeded line of 3–5 nodes with mixed links (infinite bandwidth and
/// zero delay among them), traffic both ways from both ends, and random
/// deadlines.
fn seeded_line(seed: u64) -> String {
    const NAMES: [&str; 5] = ["n0", "n1", "n2", "n3", "n4"];
    let mut r = Rig::new("seeded_line", seed);
    let mut rng = Seq(seed);
    let n = rng.range(3, 5) as usize;
    let nodes: Vec<NodeId> = (0..n)
        .map(|i| match i {
            0 => r.node(NAMES[i], &[None], 1),
            i if i == n - 1 => r.node(NAMES[i], &[None], 1),
            _ => r.node(NAMES[i], &[Some(1), Some(0)], rng.range(1, 2) as u8),
        })
        .collect();
    for i in 0..n - 1 {
        let bw = [u64::MAX, 1_000_000_000, 20_000_000, 5_000_000][rng.range(0, 3) as usize];
        let cfg = LinkConfig::lan()
            .with_bandwidth(bw)
            .with_delay(Time::from_us(rng.range(0, 2) * 10))
            .with_loss([0.0, 0.0, 0.2][rng.range(0, 2) as usize])
            .with_queue(rng.range(1, 4) as usize);
        let a_port = if i == 0 { 0 } else { 1 };
        r.sim.connect((nodes[i], a_port), (nodes[i + 1], 0), cfg);
    }
    for _ in 0..12 {
        let end = if rng.range(0, 1) == 0 {
            nodes[0]
        } else {
            nodes[n - 1]
        };
        let at = rng.range(0, 40) * 10_000;
        r.burst_at(
            end,
            at,
            0,
            rng.range(1, 4) as u16,
            rng.range(60, 500) as u16,
        );
    }
    let mut deadlines: Vec<u64> = (0..10).map(|_| rng.range(0, 600_000)).collect();
    deadlines.sort_unstable();
    for t in deadlines {
        r.until(t);
    }
    r.drain()
}

fn corpus() -> String {
    let mut out = String::new();
    for cap in 1..=3 {
        out += &bursts_into_small_queues(cap);
    }
    for cap in 1..=2 {
        out += &ideal_ties(cap);
    }
    out += &deadlines_on_serialisation_ends();
    out += &faults_mid_burst();
    out += &both_directions_busy();
    for seed in 1..=4 {
        out += &seeded_line(seed);
    }
    out
}

#[test]
fn queueing_corpus_is_unchanged() {
    let actual = corpus();
    if actual == CORPUS {
        return;
    }
    let first = actual
        .lines()
        .zip(CORPUS.lines())
        .position(|(x, y)| x != y)
        .map_or_else(
            || "a missing or extra line".to_string(),
            |i| format!("line {}", i + 1),
        );
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("queueing.actual.txt");
    std::fs::write(&path, &actual).expect("writing the actual corpus");
    panic!(
        "queueing differs from crates/netem/tests/queueing.txt, first at {first}; \
         current corpus written to {}",
        path.display()
    );
}

/// Forwards each frame while its first byte (a hop budget) lasts, out of
/// a port picked by id and budget; timers send bursts, and every burst
/// also sends a control message, whose delivery sends one frame.
struct Walker {
    ports: u16,
    ctrl: Option<CtrlId>,
}

impl Walker {
    fn frame(ctx: &mut NodeCtx<'_>, hops: u8, len: usize) -> Packet {
        let mut data = vec![0u8; len.max(1)];
        data[0] = hops;
        ctx.new_packet(Bytes::from(data))
    }
}

impl NodeLogic for Walker {
    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, _port: u16, pkt: Packet) {
        let hops = pkt.data.first().copied().unwrap_or(0);
        if hops == 0 || self.ports == 0 {
            return;
        }
        let mut data = pkt.data.to_vec();
        data[0] = hops - 1;
        let out = ((pkt.id + u64::from(hops)) % u64::from(self.ports)) as u16;
        ctx.send(
            out,
            Packet {
                data: Bytes::from(data),
                ..pkt
            },
        );
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, token: u64) {
        for i in 0..(token >> 16) as u16 {
            let pkt = Walker::frame(ctx, 3, usize::from(token as u16));
            ctx.send(i % self.ports.max(1), pkt);
        }
        if let Some(conn) = self.ctrl {
            ctx.ctrl_send(conn, vec![1]);
        }
    }

    fn on_ctrl(&mut self, ctx: &mut NodeCtx<'_>, _conn: CtrlId, _msg: Vec<u8>) {
        if self.ports > 0 {
            let pkt = Walker::frame(ctx, 2, 64);
            ctx.send(0, pkt);
        }
    }
}

/// `netem.events` equals the model events the counters imply: arrivals,
/// completions (frames that entered a queue less the ones still in it),
/// timers and control deliveries.
fn event_count_law(sim: &Sim) {
    let snap = sim.telemetry().snapshot();
    let counter = |name| snap.counter(name, &[]).unwrap_or(0);
    let queued = snap.gauge("netem.queued_frames", &[]).unwrap_or(0);
    prop_assert!(queued >= 0, "queued_frames {queued}");
    let implied = counter("netem.frames_delivered") + counter("netem.frames_sent")
        - counter("netem.drops.queue")
        - counter("netem.drops.loss")
        - counter("netem.drops.link_down")
        - queued as u64
        + counter("netem.timers")
        + counter("netem.ctrl_messages");
    prop_assert_eq!(counter("netem.events"), implied, "at {}", sim.now());
}

/// One random link: (from node, to node, bandwidth pick, delay µs, loss
/// pick, queue capacity).
type LinkSpec = (usize, usize, usize, u64, usize, usize);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The event-count law holds at every `run_until` boundary and after
    /// the drain, while links flip down and up between boundaries.
    #[test]
    fn events_are_arrivals_completions_timers_and_control(
        n in 2usize..6,
        links in prop::collection::vec((0usize..6, 0usize..6, 0usize..4, 0u64..3, 0usize..3, 1usize..4), 1..8),
        bursts in prop::collection::vec((0usize..6, 0u64..300, 1u16..4, 60u16..400), 1..12),
        deadlines in prop::collection::vec(0u64..400, 1..8),
        flips in prop::collection::vec(any::<bool>(), 8),
        seed in any::<u64>(),
    ) {
        let links: Vec<LinkSpec> = links;
        let mut ports = vec![0u16; n];
        let mut wires = Vec::new();
        for (a, b, bw, delay, loss, cap) in links {
            let (a, b) = (a % n, b % n);
            if a == b {
                continue;
            }
            let cfg = LinkConfig::lan()
                .with_bandwidth([u64::MAX, 1_000_000_000, 20_000_000, 5_000_000][bw])
                .with_delay(Time::from_us(delay * 10))
                .with_loss([0.0, 0.0, 0.3][loss])
                .with_queue(cap);
            wires.push(((a, ports[a]), (b, ports[b]), cfg));
            ports[a] += 1;
            ports[b] += 1;
        }
        let mut sim = Sim::new(seed);
        let ids: Vec<NodeId> = (0..n)
            .map(|i| {
                let logic = Walker { ports: ports[i], ctrl: None };
                sim.add_node(format!("n{i}"), ports[i], Box::new(logic))
            })
            .collect();
        let mut link_ids = Vec::new();
        for ((a, pa), (b, pb), cfg) in wires {
            link_ids.push(sim.connect((ids[a], pa), (ids[b], pb), cfg));
        }
        let conn = sim.ctrl_connect(ids[0], ids[n - 1], Time::from_us(7));
        for &id in &ids {
            if let Some(w) = sim.node_as_mut::<Walker>(id) {
                w.ctrl = Some(conn).filter(|_| id == ids[0] || id == ids[n - 1]);
            }
        }
        for (node, at_us, count, len) in bursts {
            let token = (u64::from(count) << 16) | u64::from(len);
            sim.set_timer_for(ids[node % n], Time::from_us(at_us), token);
        }
        let mut deadlines = deadlines;
        deadlines.sort_unstable();
        for (i, at_us) in deadlines.into_iter().enumerate() {
            sim.run_until(Time::from_us(at_us));
            event_count_law(&sim);
            if let Some(&link) = link_ids.get(i % link_ids.len().max(1)) {
                let state = if flips[i] { LinkState::Down } else { LinkState::Up };
                sim.set_link_state(link, state);
            }
        }
        sim.run(u64::MAX);
        event_count_law(&sim);
        let snap = sim.telemetry().snapshot();
        prop_assert_eq!(snap.gauge("netem.queued_frames", &[]).unwrap_or(0), 0);
    }
}
