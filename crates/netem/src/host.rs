//! A simple end host: ICMP echo responder, UDP traffic source/sink.
//!
//! Hosts play the role of Mininet's `h1`, `h2`, ... — the endpoints the
//! demo's step (4) uses to "send and inspect live traffic". A host owns one
//! interface (port 0), answers ping, can originate paced UDP streams and
//! pings, and keeps receive-side statistics including end-to-end latency
//! (computed from each packet's birth timestamp).
//!
//! Like the paper's hosts under Mininet's `--arp`, a host resolves
//! addresses only from static neighbour entries ([`Host::static_arp`]).
//! A stream or ping reads its peer's MAC once, when it is registered, and
//! a stream builds its frame then too: every tick sends a refcount clone
//! of that frame.

use crate::sim::{NodeCtx, NodeLogic};
use crate::time::Time;
use bytes::Bytes;
use escape_packet::{
    EtherType, EthernetHeader, IcmpPacket, IcmpType, IpProtocol, Ipv4Header, LookupMap, MacAddr,
    Packet, PacketBuilder, UdpHeader,
};
use std::net::Ipv4Addr;

/// Receive/transmit statistics of a host.
#[derive(Debug, Clone, Default)]
pub struct HostStats {
    pub udp_rx: u64,
    pub udp_tx: u64,
    pub bytes_rx: u64,
    pub icmp_echo_rx: u64,
    pub icmp_reply_rx: u64,
    /// Sum of end-to-end latencies (ns) of received UDP packets with a
    /// birth timestamp.
    pub latency_sum_ns: u64,
    /// Count of latency samples.
    pub latency_samples: u64,
    /// Maximum observed latency (ns).
    pub latency_max_ns: u64,
}

impl HostStats {
    /// Mean end-to-end latency over received UDP packets.
    pub fn mean_latency(&self) -> Option<Time> {
        self.latency_sum_ns
            .checked_div(self.latency_samples)
            .map(Time::from_ns)
    }
}

/// An active outgoing UDP stream.
#[derive(Debug)]
struct Stream {
    /// The frame every tick sends, built at registration. A stream's
    /// inputs are fixed for its life, so the frame cannot go stale; a
    /// tick costs a refcount clone, not a layered encode.
    frame: Bytes,
    interval: Time,
    remaining: u64,
    /// Whether [`Host::start_streams`] has armed this stream's timer
    /// chain. Guards against double-arming: a second kick would fork a
    /// parallel timer chain and send the stream at a multiple of its
    /// configured rate.
    started: bool,
    /// The stream's last timer has fired: nothing refers to its slot any
    /// more, so [`Host::add_stream`] may hand the slot to a new stream.
    /// (`remaining == 0` alone is not enough — a zero-count stream still
    /// has its first timer in flight.)
    finished: bool,
}

/// An active ping schedule.
#[derive(Debug)]
struct PingJob {
    dst_ip: Ipv4Addr,
    dst_mac: MacAddr,
    interval: Time,
    remaining: u64,
    seq: u16,
    /// See [`Stream::started`].
    started: bool,
}

/// Timer tokens `PING_TOKEN_BASE + k` drive ping job `k`; smaller tokens
/// drive UDP stream `k`.
const PING_TOKEN_BASE: u64 = 1 << 32;

/// Timer token that flushes frames queued with [`Host::queue_frame`].
const FLUSH_TOKEN: u64 = 1 << 33;

/// One UDP payload captured by a gateway host (a multi-domain boundary
/// SAP): everything the coordinator needs to re-originate the packet in
/// the next domain while preserving its end-to-end birth timestamp.
#[derive(Debug, Clone)]
pub struct GatewayRx {
    /// Virtual arrival time at the gateway.
    pub at: Time,
    /// Source IP of the captured datagram (identifies the flow).
    pub src: Ipv4Addr,
    /// UDP source port. Re-originated cross-domain legs carry a
    /// chain-specific port, so two chains arriving from the same
    /// upstream gateway stay distinguishable.
    pub src_port: u16,
    /// Birth timestamp carried by the frame (0 if unset). Forward this
    /// into [`Host::queue_frame`] so cross-domain latency stays end to
    /// end.
    pub born_ns: u64,
    /// The UDP payload.
    pub payload: Vec<u8>,
}

/// The host node. See the module docs.
pub struct Host {
    pub mac: MacAddr,
    pub ip: Ipv4Addr,
    pub stats: HostStats,
    /// Static neighbour entries: the MAC each peer IP is reached at.
    arp_table: LookupMap<Ipv4Addr, MacAddr>,
    streams: Vec<Stream>,
    pings: Vec<PingJob>,
    /// Last payloads received, newest last (bounded, for demo inspection).
    pub inbox: Vec<Vec<u8>>,
    /// Gateway mode: received UDP payloads are captured into
    /// [`Host::gw_rx`] (with arrival time and birth timestamp) instead of
    /// the inbox, for cross-domain handoff.
    gateway: bool,
    /// Captured gateway arrivals, oldest first. Drained by the
    /// multi-domain coordinator between epochs.
    pub gw_rx: Vec<GatewayRx>,
    /// Frames queued by [`Host::queue_frame`] for transmission at the
    /// next [`Host::flush_queued`] timer, with an optional birth
    /// timestamp override.
    queued_tx: Vec<(Bytes, u64)>,
}

/// Timer token namespace: stream k fires with token k.
const INBOX_CAP: usize = 64;

impl Host {
    /// Creates a host with the given addresses.
    pub fn new(mac: MacAddr, ip: Ipv4Addr) -> Self {
        Host {
            mac,
            ip,
            stats: HostStats::default(),
            arp_table: LookupMap::new(),
            streams: Vec::new(),
            pings: Vec::new(),
            inbox: Vec::new(),
            gateway: false,
            gw_rx: Vec::new(),
            queued_tx: Vec::new(),
        }
    }

    /// Flips gateway mode: received UDP payloads are captured into
    /// [`Host::gw_rx`] for cross-domain handoff.
    pub fn set_gateway(&mut self, on: bool) {
        self.gateway = on;
    }

    /// Queues a ready-made Ethernet frame for transmission at the next
    /// [`Host::flush_queued`] timer. `born_ns` (when non-zero) overrides
    /// the packet's birth timestamp so end-to-end latency measured at the
    /// final sink spans domain boundaries.
    pub fn queue_frame(&mut self, frame: Bytes, born_ns: u64) {
        self.queued_tx.push((frame, born_ns));
    }

    /// Arms the flush timer that transmits every queued frame `delay`
    /// from now.
    pub fn flush_queued(sim: &mut crate::sim::Sim, me: crate::sim::NodeId, delay: Time) {
        sim.set_timer_for(me, delay, FLUSH_TOKEN);
    }

    /// Adds a static neighbour entry: `ip` is reached at `mac` (like
    /// Mininet's `--arp` static mode). Streams and pings registered
    /// afterwards toward `ip` address their frames to `mac`.
    pub fn static_arp(&mut self, ip: Ipv4Addr, mac: MacAddr) {
        self.arp_table.insert(ip, mac);
    }

    /// Registers a paced UDP stream: `count` frames of `frame_len` bytes,
    /// one every `interval`, to `dst_ip`, and returns its slot. Kick it
    /// off with [`Host::start_streams`]. Returns `None`, registering
    /// nothing, when `dst_ip` has no static entry.
    pub fn add_stream(
        &mut self,
        dst_ip: Ipv4Addr,
        sport: u16,
        dport: u16,
        frame_len: usize,
        interval: Time,
        count: u64,
    ) -> Option<usize> {
        let &dst_mac = self.arp_table.get(&dst_ip)?;
        let frame = PacketBuilder::udp_with_len(
            self.mac, dst_mac, self.ip, dst_ip, sport, dport, frame_len,
        );
        let stream = Stream {
            frame,
            interval,
            remaining: count,
            started: false,
            finished: false,
        };
        // A finished stream leaves only its slot behind. Reuse the slot so
        // a long-lived host does not grow with every stream it ever sent.
        Some(match self.streams.iter().position(|s| s.finished) {
            Some(k) => {
                self.streams[k] = stream;
                k
            }
            None => {
                self.streams.push(stream);
                self.streams.len() - 1
            }
        })
    }

    /// Registers a paced ping schedule: `count` echo requests to
    /// `dst_ip`, one every `interval`, and returns its slot. Returns
    /// `None`, registering nothing, when `dst_ip` has no static entry.
    pub fn add_ping(&mut self, dst_ip: Ipv4Addr, interval: Time, count: u64) -> Option<usize> {
        let &dst_mac = self.arp_table.get(&dst_ip)?;
        self.pings.push(PingJob {
            dst_ip,
            dst_mac,
            interval,
            remaining: count,
            seq: 0,
            started: false,
        });
        Some(self.pings.len() - 1)
    }

    /// Arms the first timer of every registered stream and ping job that
    /// has not been started yet; already-running streams are untouched,
    /// so the call is safe to repeat as more streams are registered
    /// (re-arming a live stream would fork a second timer chain and send
    /// it at a multiple of the configured rate). `sim` must be the
    /// simulation this host lives in and `me` this host's node id.
    pub fn start_streams(sim: &mut crate::sim::Sim, me: crate::sim::NodeId, at: Time) {
        let (fresh, p) = {
            let h = sim.node_as_mut::<Host>(me).expect("node is not a Host");
            let fresh: Vec<u64> = h
                .streams
                .iter_mut()
                .enumerate()
                .filter(|(_, s)| !s.started)
                .map(|(k, s)| {
                    s.started = true;
                    k as u64
                })
                .collect();
            let fresh_pings: Vec<u64> = h
                .pings
                .iter_mut()
                .enumerate()
                .filter(|(_, j)| !j.started)
                .map(|(k, j)| {
                    j.started = true;
                    PING_TOKEN_BASE + k as u64
                })
                .collect();
            (fresh, fresh_pings)
        };
        for k in fresh.into_iter().chain(p) {
            sim.set_timer_for(me, at, k);
        }
    }

    fn emit_ping(&mut self, ctx: &mut NodeCtx<'_>, k: usize) {
        let job = &mut self.pings[k];
        if job.remaining == 0 {
            return;
        }
        job.remaining -= 1;
        job.seq = job.seq.wrapping_add(1);
        let frame = PacketBuilder::icmp_echo_request(
            self.mac,
            job.dst_mac,
            self.ip,
            job.dst_ip,
            1,
            job.seq,
        );
        let pkt = ctx.new_packet(frame);
        ctx.send(0, pkt);
        if job.remaining > 0 {
            ctx.set_timer(job.interval, PING_TOKEN_BASE + k as u64);
        }
    }

    fn emit_udp(&mut self, ctx: &mut NodeCtx<'_>, k: usize) {
        let s = &mut self.streams[k];
        if s.remaining == 0 {
            s.finished = true;
            return;
        }
        s.remaining -= 1;
        let pkt = ctx.new_packet(s.frame.clone());
        self.stats.udp_tx += 1;
        ctx.send(0, pkt);
        if s.remaining > 0 {
            ctx.set_timer(s.interval, k as u64);
        } else {
            s.finished = true;
        }
    }

    fn handle_ipv4(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        pkt: &Packet,
        eth: &EthernetHeader,
        payload: &[u8],
    ) {
        let Ok((ip, l4)) = Ipv4Header::parse(payload) else {
            return;
        };
        if ip.dst != self.ip {
            return; // not for us (hosts don't forward)
        }
        match ip.protocol {
            IpProtocol::Udp => {
                if let Ok((udp, data)) = UdpHeader::parse(l4, ip.src, ip.dst) {
                    self.stats.udp_rx += 1;
                    self.stats.bytes_rx += pkt.len() as u64;
                    if pkt.born_ns != 0 {
                        let lat = ctx.now().as_ns().saturating_sub(pkt.born_ns);
                        self.stats.latency_sum_ns += lat;
                        self.stats.latency_samples += 1;
                        self.stats.latency_max_ns = self.stats.latency_max_ns.max(lat);
                    }
                    if self.gateway {
                        self.gw_rx.push(GatewayRx {
                            at: ctx.now(),
                            src: ip.src,
                            src_port: udp.src_port,
                            born_ns: pkt.born_ns,
                            payload: data.to_vec(),
                        });
                    } else if self.inbox.len() < INBOX_CAP {
                        self.inbox.push(data.to_vec());
                    }
                }
            }
            IpProtocol::Icmp => {
                if let Ok(icmp) = IcmpPacket::decode(l4) {
                    match icmp.icmp_type {
                        IcmpType::EchoRequest => {
                            self.stats.icmp_echo_rx += 1;
                            let rep = IcmpPacket::echo_reply(&icmp).encode();
                            let back = Ipv4Header::new(self.ip, ip.src, IpProtocol::Icmp);
                            let frame = PacketBuilder::ipv4(self.mac, eth.src, back, &rep);
                            let out = ctx.new_packet(frame);
                            ctx.send(0, out);
                        }
                        IcmpType::EchoReply => {
                            self.stats.icmp_reply_rx += 1;
                        }
                        _ => {}
                    }
                }
            }
            _ => {}
        }
    }
}

impl NodeLogic for Host {
    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, _port: u16, pkt: Packet) {
        let Ok((eth, payload)) = EthernetHeader::parse(&pkt.data) else {
            return;
        };
        if eth.dst != self.mac && !eth.dst.is_broadcast() {
            return; // promiscuous filtering off
        }
        if eth.ethertype == EtherType::Ipv4 {
            self.handle_ipv4(ctx, &pkt, &eth, payload);
        }
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, token: u64) {
        if token == FLUSH_TOKEN {
            for (frame, born_ns) in std::mem::take(&mut self.queued_tx) {
                let mut pkt = ctx.new_packet(frame);
                if born_ns != 0 {
                    pkt.born_ns = born_ns;
                }
                self.stats.udp_tx += 1;
                ctx.send(0, pkt);
            }
            return;
        }
        if token >= PING_TOKEN_BASE {
            let k = (token - PING_TOKEN_BASE) as usize;
            if k < self.pings.len() {
                self.emit_ping(ctx, k);
            }
            return;
        }
        let k = token as usize;
        if k < self.streams.len() {
            self.emit_udp(ctx, k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkConfig;
    use crate::sim::Sim;

    fn hosts_back_to_back() -> (Sim, crate::sim::NodeId, crate::sim::NodeId) {
        let mut sim = Sim::new(7);
        let a = Host::new(MacAddr::from_id(1), Ipv4Addr::new(10, 0, 0, 1));
        let b = Host::new(MacAddr::from_id(2), Ipv4Addr::new(10, 0, 0, 2));
        let na = sim.add_node("h1", 1, Box::new(a));
        let nb = sim.add_node("h2", 1, Box::new(b));
        sim.connect((na, 0), (nb, 0), LinkConfig::lan());
        (sim, na, nb)
    }

    #[test]
    fn streams_and_pings_need_a_static_entry() {
        let dst = Ipv4Addr::new(10, 0, 0, 2);
        let (mut sim, na, nb) = hosts_back_to_back();
        let register = |sim: &mut Sim| {
            let ha = sim.node_as_mut::<Host>(na).unwrap();
            let stream = ha.add_stream(dst, 5000, 9000, 100, Time::from_us(100), 50);
            (stream, ha.add_ping(dst, Time::from_us(100), 5))
        };
        assert_eq!(register(&mut sim), (None, None));
        Host::start_streams(&mut sim, na, Time::ZERO);
        sim.run(100_000);
        assert_eq!(sim.stats().frames_sent, 0, "nothing was armed");

        sim.node_as_mut::<Host>(na)
            .unwrap()
            .static_arp(dst, MacAddr::from_id(2));
        assert_eq!(register(&mut sim), (Some(0), Some(0)));
        let now = sim.now();
        Host::start_streams(&mut sim, na, now);
        sim.run(100_000);
        let hb = sim.node_as::<Host>(nb).unwrap();
        assert_eq!((hb.stats.udp_rx, hb.stats.icmp_echo_rx), (50, 5));
        assert!(hb.stats.mean_latency().unwrap() >= Time::from_us(50)); // at least propagation
        let ha = sim.node_as::<Host>(na).unwrap();
        assert_eq!((ha.stats.udp_tx, ha.stats.icmp_reply_rx), (50, 5));
    }

    #[test]
    fn restarting_streams_does_not_fork_timer_chains() {
        // Register stream A, start, register stream B, start again (the
        // incremental pattern start_udp uses). The second kick must arm
        // only B: a re-armed A would run two interleaved timer chains
        // and send at twice its configured rate.
        let (mut sim, na, _nb) = hosts_back_to_back();
        {
            let ha = sim.node_as_mut::<Host>(na).unwrap();
            ha.static_arp(Ipv4Addr::new(10, 0, 0, 2), MacAddr::from_id(2));
            ha.add_stream(
                Ipv4Addr::new(10, 0, 0, 2),
                5000,
                9000,
                100,
                Time::from_us(100),
                1_000,
            )
            .unwrap();
        }
        Host::start_streams(&mut sim, na, Time::ZERO);
        sim.node_as_mut::<Host>(na)
            .unwrap()
            .add_stream(
                Ipv4Addr::new(10, 0, 0, 2),
                5001,
                9000,
                100,
                Time::from_us(100),
                1_000,
            )
            .unwrap();
        Host::start_streams(&mut sim, na, Time::ZERO);
        // 1 ms = 10 intervals: ~10 frames per stream (+1 initial each),
        // far below the 1000 registered — a forked chain for A would
        // roughly double its share.
        sim.run_until(Time::from_ms(1));
        let tx = sim.node_as::<Host>(na).unwrap().stats.udp_tx;
        assert!(
            (20..=22).contains(&tx),
            "expected ~2 streams x ~10 paced frames, got {tx}"
        );
    }

    #[test]
    fn static_arp_skips_resolution() {
        let (mut sim, na, nb) = hosts_back_to_back();
        {
            let ha = sim.node_as_mut::<Host>(na).unwrap();
            ha.static_arp(Ipv4Addr::new(10, 0, 0, 2), MacAddr::from_id(2));
            ha.add_stream(Ipv4Addr::new(10, 0, 0, 2), 1, 2, 64, Time::from_us(10), 3);
        }
        Host::start_streams(&mut sim, na, Time::ZERO);
        sim.run(10_000);
        // The stream's three frames are all that crosses the link.
        assert_eq!(sim.stats().frames_sent, 3);
        assert_eq!(sim.node_as::<Host>(nb).unwrap().stats.udp_rx, 3);
    }

    #[test]
    fn stream_frames_are_pooled_after_first_build() {
        // Keeps every frame it receives.
        #[derive(Default)]
        struct Sink(Vec<Bytes>);
        impl NodeLogic for Sink {
            fn on_packet(&mut self, _: &mut NodeCtx<'_>, _: u16, pkt: Packet) {
                self.0.push(pkt.data);
            }
        }
        let mut sim = Sim::new(7);
        let mut a = Host::new(MacAddr::from_id(1), Ipv4Addr::new(10, 0, 0, 1));
        a.static_arp(Ipv4Addr::new(10, 0, 0, 2), MacAddr::from_id(2));
        a.add_stream(Ipv4Addr::new(10, 0, 0, 2), 1, 2, 64, Time::from_us(10), 20);
        let na = sim.add_node("h1", 1, Box::new(a));
        let nb = sim.add_node("sink", 1, Box::new(Sink::default()));
        sim.connect((na, 0), (nb, 0), LinkConfig::lan());
        Host::start_streams(&mut sim, na, Time::ZERO);
        sim.run(100_000);
        let built = sim.node_as::<Host>(na).unwrap().streams[0].frame.as_ptr();
        let rx = &sim.node_as::<Sink>(nb).unwrap().0;
        assert_eq!(rx.len(), 20);
        assert!(
            rx.iter().all(|f| f.as_ptr() == built),
            "one layered encode, every frame a refcount clone of it"
        );
    }

    #[test]
    fn finished_stream_slot_is_reused_with_its_own_frame() {
        let dst = Ipv4Addr::new(10, 0, 0, 2);
        // Sends `streams` (source port, frame length, count) one after
        // the other from one host; returns the slot each took, the length
        // of each frame the host still holds, and [udp_tx, udp_rx,
        // bytes_rx].
        let run = |streams: &[(u16, usize, u64)]| {
            let (mut sim, na, nb) = hosts_back_to_back();
            let ha = sim.node_as_mut::<Host>(na).unwrap();
            ha.static_arp(dst, MacAddr::from_id(2));
            let mut slots = Vec::new();
            for &(sport, len, count) in streams {
                let ha = sim.node_as_mut::<Host>(na).unwrap();
                slots.push(ha.add_stream(dst, sport, 9000, len, Time::from_us(10), count));
                Host::start_streams(&mut sim, na, Time::ZERO);
                sim.run(100_000);
            }
            let (ha, hb) = (
                sim.node_as::<Host>(na).unwrap(),
                sim.node_as::<Host>(nb).unwrap(),
            );
            let counts = [ha.stats.udp_tx, hb.stats.udp_rx, hb.stats.bytes_rx];
            let frames: Vec<usize> = ha.streams.iter().map(|s| s.frame.len()).collect();
            (slots, frames, counts)
        };
        let (first, second) = ((5000, 100, 5), (6000, 300, 7));
        let (slots, frames, both) = run(&[first, second]);
        assert_eq!(
            slots,
            [Some(0), Some(0)],
            "the finished stream's slot is reused"
        );
        assert_eq!(frames, [300], "the old stream's frame went with it");
        // The second stream sent its own bytes, not the frame built for
        // its slot's last owner: counts and bytes match each stream alone
        // on a fresh host.
        let (one, two) = (run(&[first]).2, run(&[second]).2);
        assert_eq!(both, [one[0] + two[0], one[1] + two[1], one[2] + two[2]]);

        // A zero-count stream is free only once its one timer has fired.
        let (mut sim, na, _) = hosts_back_to_back();
        let add = |sim: &mut Sim| {
            let ha = sim.node_as_mut::<Host>(na).unwrap();
            ha.static_arp(dst, MacAddr::from_id(2));
            ha.add_stream(dst, 1, 2, 64, Time::from_us(10), 0)
        };
        assert_eq!(add(&mut sim), Some(0));
        Host::start_streams(&mut sim, na, Time::ZERO);
        assert_eq!(add(&mut sim), Some(1), "slot 0's timer is still in flight");
        sim.run(100);
        assert_eq!(add(&mut sim), Some(0));
    }

    #[test]
    fn ping_round_trip() {
        let (mut sim, na, nb) = hosts_back_to_back();
        // Drive the ping from a timer-like injection: build the echo frame
        // directly and inject it at b-side port of a's interface.
        let frame = PacketBuilder::icmp_echo_request(
            MacAddr::from_id(1),
            MacAddr::from_id(2),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            1,
            1,
        );
        sim.inject(nb, 0, frame, Time::ZERO);
        sim.run(1000);
        assert_eq!(sim.node_as::<Host>(nb).unwrap().stats.icmp_echo_rx, 1);
        assert_eq!(sim.node_as::<Host>(na).unwrap().stats.icmp_reply_rx, 1);
    }

    #[test]
    fn frames_for_other_macs_are_ignored() {
        let (mut sim, _na, nb) = hosts_back_to_back();
        let frame = PacketBuilder::udp(
            MacAddr::from_id(9),
            MacAddr::from_id(77), // not b's MAC
            Ipv4Addr::new(10, 0, 0, 9),
            Ipv4Addr::new(10, 0, 0, 2),
            1,
            2,
            Bytes::from_static(b"not-mine"),
        );
        sim.inject(nb, 0, frame, Time::ZERO);
        sim.run(100);
        assert_eq!(sim.node_as::<Host>(nb).unwrap().stats.udp_rx, 0);
    }

    #[test]
    fn inbox_captures_payloads() {
        let (mut sim, na, nb) = hosts_back_to_back();
        sim.node_as_mut::<Host>(na)
            .unwrap()
            .static_arp(Ipv4Addr::new(10, 0, 0, 2), MacAddr::from_id(2));
        let frame = PacketBuilder::udp(
            MacAddr::from_id(1),
            MacAddr::from_id(2),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            1234,
            80,
            Bytes::from_static(b"inspect me"),
        );
        sim.inject(nb, 0, frame, Time::ZERO);
        sim.run(100);
        let hb = sim.node_as::<Host>(nb).unwrap();
        assert_eq!(hb.inbox.len(), 1);
        assert_eq!(hb.inbox[0], b"inspect me");
    }
}
