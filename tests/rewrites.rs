//! Rewrite corpus: the exact bytes every header rewrite and every frame
//! builder writes over a fixed input set, pinned in `rewrites.txt`.
//!
//! The inputs are the builder's UDP, TCP and ICMP frames and an ARP
//! request, variants of them that sit on an edge of the rewrite rules (a
//! zero or bad transport checksum, TCP and IP options, Ethernet padding,
//! TTL 0–2, a fragment, IP version 6, truncations, a non-IP ethertype),
//! seeded single-byte mutations with the IP header checksum re-fixed, and
//! seeded byte soup. Every OpenFlow set-field action runs on each through
//! a switch's packet-out, each action list with its one `Output` last;
//! so do `DecIPTTL`, `SetIPDSCP(46)`, `IPRewriter` in both directions and
//! `FlowKey::extract`. Each line is one op on one input: the output
//! frame in hex, `=` when it is the input unchanged, or `drop`.
//!
//! A change meant to be invisible leaves the file untouched. On a
//! mismatch the current corpus is written to the target tmp dir as
//! `rewrites.actual.txt`, ready to diff.

use bytes::Bytes;
use escape_click::{Registry, Router};
use escape_netem::{CtrlId, LinkConfig, NodeCtx, NodeId, NodeLogic, Sim, Time};
use escape_openflow::switch::{Switch, NO_BUFFER};
use escape_openflow::{port, Action, OfMessage};
use escape_packet::{checksum, EtherType, FlowKey, MacAddr, Packet, PacketBuilder};
use std::fmt::Write as _;
use std::net::Ipv4Addr;
use std::path::PathBuf;

const CORPUS: &str = include_str!("rewrites.txt");

const MAC_A: MacAddr = MacAddr([2, 0, 0, 0, 0, 1]);
const MAC_B: MacAddr = MacAddr([2, 0, 0, 0, 0, 2]);
const IP_A: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 10);
const IP_B: Ipv4Addr = Ipv4Addr::new(8, 8, 8, 8);
const NAT_EXTERNAL: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 1);
/// The first port a fresh `IPRewriter` hands out.
const NAT_FIRST_PORT: u16 = 40_000;

/// Offsets into a frame built without IP options.
const IP: usize = 14;
const L4: usize = IP + 20;

/// SplitMix64: a fixed sequence on every toolchain, no dependency.
struct Seq(u64);

impl Seq {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn bytes(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| self.next() as u8).collect()
    }

    fn mac(&mut self) -> MacAddr {
        let mut m = [0u8; 6];
        m.copy_from_slice(&self.bytes(6));
        MacAddr(m)
    }

    fn ip(&mut self) -> Ipv4Addr {
        Ipv4Addr::from(self.next() as u32)
    }

    fn port(&mut self) -> u16 {
        self.next() as u16
    }
}

fn hex(data: &[u8]) -> String {
    data.iter()
        .fold(String::with_capacity(data.len() * 2), |mut s, b| {
            let _ = write!(s, "{b:02x}");
            s
        })
}

/// The IHL of the IPv4 header at `IP`, in bytes, if the frame holds it.
fn ihl(f: &[u8]) -> Option<usize> {
    let ihl = usize::from(*f.get(IP)? & 0x0f) * 4;
    (ihl >= 20 && f.len() >= IP + ihl).then_some(ihl)
}

/// Recomputes the IPv4 header checksum, when the frame holds a header.
fn fix_ip_sum(f: &mut [u8]) {
    if let Some(ihl) = ihl(f) {
        f[IP + 10..IP + 12].fill(0);
        let c = checksum::checksum(&f[IP..IP + ihl]);
        f[IP + 10..IP + 12].copy_from_slice(&c.to_be_bytes());
    }
}

/// Recomputes the TCP checksum of an option-less-IP frame over the rest
/// of the frame.
fn fix_tcp_sum(f: &mut [u8]) {
    let src = Ipv4Addr::new(f[IP + 12], f[IP + 13], f[IP + 14], f[IP + 15]);
    let dst = Ipv4Addr::new(f[IP + 16], f[IP + 17], f[IP + 18], f[IP + 19]);
    f[L4 + 16..L4 + 18].fill(0);
    let c = checksum::pseudo_header_checksum(src, dst, 6, &f[L4..]);
    f[L4 + 16..L4 + 18].copy_from_slice(&c.to_be_bytes());
}

/// Sets the IPv4 total length to what follows the Ethernet header.
fn fit_total_len(f: &mut [u8]) {
    let len = (f.len() - IP) as u16;
    f[IP + 2..IP + 4].copy_from_slice(&len.to_be_bytes());
}

/// Inserts one word of IP options (which no transport checksum covers).
fn with_ip_options(frame: &[u8]) -> Vec<u8> {
    let mut f = frame[..L4].to_vec();
    f.extend_from_slice(&[0x94, 0x04, 0x00, 0x00]); // router alert
    f.extend_from_slice(&frame[L4..]);
    f[IP] = 0x46;
    fit_total_len(&mut f);
    fix_ip_sum(&mut f);
    f
}

fn edited(frame: &[u8], edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut f = frame.to_vec();
    edit(&mut f);
    f
}

/// The named input frames, in corpus order.
fn inputs() -> Vec<(String, Vec<u8>)> {
    let udp = PacketBuilder::udp(
        MAC_A,
        MAC_B,
        IP_A,
        IP_B,
        1111,
        2222,
        Bytes::from_static(b"udp payload"),
    )
    .to_vec();
    let syn = PacketBuilder::tcp_syn(MAC_A, MAC_B, IP_A, IP_B, 5000, 80).to_vec();
    let ack = PacketBuilder::tcp(
        MAC_A,
        MAC_B,
        IP_A,
        IP_B,
        51000,
        443,
        0x18,
        Bytes::from_static(b"tls bytes"),
    )
    .to_vec();
    let icmp = PacketBuilder::icmp_echo_request(MAC_A, MAC_B, IP_A, IP_B, 7, 1).to_vec();
    // An ARP request from A for B's address.
    let arp = PacketBuilder::ethernet(MAC_A, MacAddr::BROADCAST, EtherType::Arp, |b| {
        b.extend_from_slice(&[0, 1, 8, 0, 6, 4, 0, 1]);
        b.extend_from_slice(&MAC_A.0);
        b.extend_from_slice(&IP_A.octets());
        b.extend_from_slice(&[0; 6]);
        b.extend_from_slice(&IP_B.octets());
    })
    .to_vec();
    let builder = [
        ("udp", &udp),
        ("tcp_syn", &syn),
        ("tcp_ack", &ack),
        ("icmp_echo", &icmp),
        ("arp", &arp),
    ];

    let mut v: Vec<(String, Vec<u8>)> = builder
        .iter()
        .map(|(n, f)| (n.to_string(), f.to_vec()))
        .collect();
    let mut add = |name: &str, f: Vec<u8>| v.push((name.to_string(), f));
    add("udp_zero_sum", edited(&udp, |f| f[L4 + 6..L4 + 8].fill(0)));
    add("udp_bad_sum", edited(&udp, |f| f[L4 + 7] ^= 0x5a));
    add("tcp_bad_sum", edited(&ack, |f| f[L4 + 17] ^= 0x5a));
    add(
        "tcp_options",
        edited(&syn, |f| {
            f[L4 + 12] = 6 << 4;
            f.extend_from_slice(&[1, 1, 1, 1]); // NOPs
            fit_total_len(f);
            fix_ip_sum(f);
            fix_tcp_sum(f);
        }),
    );
    add("ip_options_udp", with_ip_options(&udp));
    add("ip_options_tcp", with_ip_options(&ack));
    add(
        "ip_options_udp_zero_sum",
        with_ip_options(&edited(&udp, |f| f[L4 + 6..L4 + 8].fill(0))),
    );
    add(
        "ip_options_udp_bad_sum",
        with_ip_options(&edited(&udp, |f| f[L4 + 7] ^= 0x5a)),
    );
    add("padded_udp", edited(&udp, |f| f.resize(f.len() + 10, 0)));
    add("padded_tcp", edited(&ack, |f| f.resize(f.len() + 6, 0xee)));
    add(
        "padded_udp_zero_sum",
        edited(&udp, |f| {
            f[L4 + 6..L4 + 8].fill(0);
            f.resize(f.len() + 10, 0);
        }),
    );
    add(
        "udp_trailer",
        edited(&udp, |f| {
            // Four bytes inside the IP total length, past the UDP length.
            f.extend_from_slice(&[0xab; 4]);
            fit_total_len(f);
            fix_ip_sum(f);
        }),
    );
    for ttl in [0u8, 1, 2] {
        add(
            &format!("ttl{ttl}"),
            edited(&udp, |f| {
                f[IP + 8] = ttl;
                fix_ip_sum(f);
            }),
        );
    }
    add(
        "ip_reserved_flag",
        edited(&udp, |f| {
            f[IP + 6] |= 0x80;
            fix_ip_sum(f);
        }),
    );
    add(
        "ip_ecn",
        edited(&udp, |f| {
            f[IP + 1] = 0x03;
            fix_ip_sum(f);
        }),
    );
    add(
        "fragment",
        edited(&udp, |f| {
            f[IP + 6] |= 0x20;
            fix_ip_sum(f);
        }),
    );
    add(
        "ip_version_6",
        edited(&udp, |f| {
            f[IP] = 0x65;
            fix_ip_sum(f);
        }),
    );
    for n in [13usize, 33, 41] {
        add(&format!("truncated{n}"), udp[..n].to_vec());
    }
    add(
        "lldp",
        edited(&udp, |f| f[12..14].copy_from_slice(&[0x88, 0xcc])),
    );

    let mut seq = Seq(0x5eed_0001);
    for (name, frame) in builder {
        for i in 0..8 {
            let mut f = frame.to_vec();
            let at = seq.below(f.len());
            f[at] ^= (seq.below(255) + 1) as u8;
            if f[12..14] == [0x08, 0x00] {
                fix_ip_sum(&mut f);
            }
            add(&format!("{name}_mut{i}@{at}"), f);
        }
    }
    for i in 0..12 {
        let len = seq.below(96);
        add(&format!("soup{i}"), seq.bytes(len));
    }
    // Soup behind a valid IPv4 header: the transport layer is garbage.
    for i in 0..9 {
        let len = IP + 20 + seq.below(40);
        let mut f = seq.bytes(len);
        f[12..14].copy_from_slice(&[0x08, 0x00]);
        f[IP] = 0x45;
        f[IP + 6] &= 0x40; // no fragment
        f[IP + 7] = 0;
        f[IP + 9] = [6, 17, 1][i % 3];
        fit_total_len(&mut f);
        fix_ip_sum(&mut f);
        add(&format!("ip_soup{i}"), f);
    }
    v
}

/// One op's result on one input.
fn render(input: &[u8], out: Option<&[u8]>) -> String {
    match out {
        None => "drop".to_string(),
        Some(o) if o == input => "=".to_string(),
        Some(o) => hex(o),
    }
}

/// Records every frame it receives.
#[derive(Default)]
struct Sink {
    rx: Vec<Bytes>,
}

impl NodeLogic for Sink {
    fn on_packet(&mut self, _: &mut NodeCtx<'_>, _: u16, pkt: Packet) {
        self.rx.push(pkt.data);
    }
}

/// Answers nothing: the far end of the switch's control channel.
struct Quiet;

impl NodeLogic for Quiet {
    fn on_packet(&mut self, _: &mut NodeCtx<'_>, _: u16, _: Packet) {}
}

/// A switch with a sink on port 1, driven by packet-outs.
struct SwitchRig {
    sim: Sim,
    ctrl: NodeId,
    conn: CtrlId,
    sink: NodeId,
    xid: u32,
}

impl SwitchRig {
    fn new() -> SwitchRig {
        let mut sim = Sim::new(1);
        let sw = sim.add_node("s1", 2, Box::new(Switch::new(1, 2)));
        let sink = sim.add_node("h1", 1, Box::new(Sink::default()));
        sim.connect((sw, 1), (sink, 0), LinkConfig::ideal());
        let ctrl = sim.add_node("c0", 0, Box::new(Quiet));
        let conn = sim.ctrl_connect(sw, ctrl, Time::from_us(10));
        SwitchRig {
            sim,
            ctrl,
            conn,
            sink,
            xid: 0,
        }
    }

    /// The frames port 1 sends after `actions` run on `frame`.
    fn run(&mut self, actions: &[Action], frame: &[u8]) -> Vec<Bytes> {
        self.xid += 1;
        let po = OfMessage::PacketOut {
            buffer_id: NO_BUFFER,
            in_port: port::NONE,
            actions: actions.to_vec(),
            data: Bytes::copy_from_slice(frame),
        };
        self.sim
            .ctrl_send_from(self.ctrl, self.conn, po.encode(self.xid));
        self.sim.run(1_000);
        let sink = self.sim.node_as_mut::<Sink>(self.sink).expect("sink");
        std::mem::take(&mut sink.rx)
    }
}

/// The OpenFlow ops: every set-field action alone, then three lists of
/// several, each followed by one `Output` to port 1.
fn of_ops() -> Vec<(&'static str, Vec<Action>)> {
    let mac = MacAddr([0x0a, 0xbb, 0xcc, 0xdd, 0xee, 0x0f]);
    let nw = Ipv4Addr::new(172, 16, 0, 9);
    let lists = vec![
        ("of.set_dl_src", vec![Action::SetDlSrc(mac)]),
        ("of.set_dl_dst", vec![Action::SetDlDst(mac)]),
        ("of.set_nw_src", vec![Action::SetNwSrc(nw)]),
        ("of.set_nw_dst", vec![Action::SetNwDst(nw)]),
        ("of.set_nw_tos", vec![Action::SetNwTos(46 << 2)]),
        ("of.set_tp_src", vec![Action::SetTpSrc(7777)]),
        ("of.set_tp_dst", vec![Action::SetTpDst(53)]),
        (
            "of.dl_nw_tp_dst",
            vec![
                Action::SetDlDst(mac),
                Action::SetNwDst(nw),
                Action::SetTpDst(53),
            ],
        ),
        (
            "of.nw_src_tos_tp",
            vec![
                Action::SetNwSrc(nw),
                Action::SetNwTos(0x28),
                Action::SetTpSrc(7777),
                Action::SetTpDst(8888),
            ],
        ),
        (
            "of.tp_before_nw",
            vec![
                Action::SetTpSrc(1),
                Action::SetNwSrc(nw),
                Action::SetDlSrc(mac),
                Action::SetNwDst(Ipv4Addr::new(10, 9, 8, 7)),
            ],
        ),
    ];
    lists
        .into_iter()
        .map(|(name, mut acts)| {
            acts.push(Action::out(1));
            (name, acts)
        })
        .collect()
}

/// The one frame a one-element pipeline lets through, if any.
fn click(config: &str, frame: &[u8]) -> Option<Vec<u8>> {
    let mut r = Router::from_config(config, &Registry::standard(), 0).expect("config compiles");
    let out = r.push_external(
        0,
        Packet::from_bytes(Bytes::copy_from_slice(frame)),
        Time::ZERO,
    );
    assert!(out.external.len() <= 1, "{config} duplicated a frame");
    out.external.first().map(|(_, p)| p.data.to_vec())
}

const NAT: &str = "FromDevice(0) -> [0] nat :: IPRewriter(203.0.113.1); nat [0] -> ToDevice(1);\n\
                   FromDevice(1) -> [1] nat; nat [1] -> ToDevice(0);";

/// Overwrites the 16-bit word at `at` and patches, RFC 1624 style, each
/// checksum at `sums` (a zero UDP checksum, "not computed", stays zero),
/// so a valid checksum stays valid and a bad one stays bad.
fn set_word(f: &mut [u8], at: usize, new: u16, sums: &[(usize, bool)]) {
    let old = u16::from_be_bytes([f[at], f[at + 1]]);
    f[at..at + 2].copy_from_slice(&new.to_be_bytes());
    for &(s, udp) in sums {
        if s + 2 > f.len() {
            continue;
        }
        let c = u16::from_be_bytes([f[s], f[s + 1]]);
        if udp && c == 0 {
            continue;
        }
        let mut sum = u32::from(!c) + u32::from(!old) + u32::from(new);
        while sum > 0xffff {
            sum = (sum & 0xffff) + (sum >> 16);
        }
        f[s..s + 2].copy_from_slice(&(!(sum as u16)).to_be_bytes());
    }
}

/// The reply a server would send to `frame` after the NAT mapped its
/// source to the external address and `NAT_FIRST_PORT`: MACs, addresses
/// and ports swapped, the destination set to the mapping. Everything else
/// (options, padding, a zero or bad checksum) stays as it was. Frames
/// too short to hold ports come back unchanged.
fn nat_reply(frame: &[u8]) -> Vec<u8> {
    let mut f = frame.to_vec();
    let Some(ihl) = ihl(&f) else {
        return f;
    };
    let l4 = IP + ihl;
    if f[12..14] != [0x08, 0x00] || f.len() < l4 + 4 {
        return f;
    }
    let (dst_mac, src_mac) = (frame[0..6].to_vec(), frame[6..12].to_vec());
    f[0..6].copy_from_slice(&src_mac);
    f[6..12].copy_from_slice(&dst_mac);
    let word = |at: usize| u16::from_be_bytes([frame[at], frame[at + 1]]);
    let l4_sum = match f[IP + 9] {
        17 => Some((l4 + 6, true)),
        6 => Some((l4 + 16, false)),
        _ => None,
    };
    let ip_sum = (IP + 10, false);
    let both: Vec<(usize, bool)> = std::iter::once(ip_sum).chain(l4_sum).collect();
    let l4_only: Vec<(usize, bool)> = l4_sum.into_iter().collect();
    let ext = NAT_EXTERNAL.octets();
    // New source: the old destination; new destination: the mapping.
    set_word(&mut f, IP + 12, word(IP + 16), &both);
    set_word(&mut f, IP + 14, word(IP + 18), &both);
    set_word(&mut f, IP + 16, u16::from_be_bytes([ext[0], ext[1]]), &both);
    set_word(&mut f, IP + 18, u16::from_be_bytes([ext[2], ext[3]]), &both);
    set_word(&mut f, l4, word(l4 + 2), &l4_only);
    set_word(&mut f, l4 + 2, NAT_FIRST_PORT, &l4_only);
    f
}

/// `IPRewriter` outbound on `frame`, then inbound on the reply to it,
/// through one fresh NAT.
fn nat(frame: &[u8]) -> (Option<Vec<u8>>, Vec<u8>, Option<Vec<u8>>) {
    let mut r = Router::from_config(NAT, &Registry::standard(), 0).expect("config compiles");
    let mut push = |dev: u16, f: &[u8]| {
        let out = r.push_external(
            dev,
            Packet::from_bytes(Bytes::copy_from_slice(f)),
            Time::ZERO,
        );
        assert!(out.external.len() <= 1, "the NAT duplicated a frame");
        out.external.first().map(|(_, p)| p.data.to_vec())
    };
    let outbound = push(0, frame);
    let reply = nat_reply(frame);
    let inbound = push(1, &reply);
    (outbound, reply, inbound)
}

/// Every builder function over seeded arguments.
fn builder_lines(out: &mut String) {
    let mut s = Seq(0x5eed_0002);
    for i in 0..6 {
        let len = s.below(24);
        let payload = Bytes::from(s.bytes(len));
        let (em, dm, si, di) = (s.mac(), s.mac(), s.ip(), s.ip());
        let (sp, dp) = (s.port(), s.port());
        let f = PacketBuilder::udp(em, dm, si, di, sp, dp, payload.clone());
        let _ = writeln!(out, "build.udp {i} {}", hex(&f));
        let flags = (s.next() & 0x3f) as u8;
        let f = PacketBuilder::tcp(em, dm, si, di, sp, dp, flags, payload);
        let _ = writeln!(out, "build.tcp {i} {}", hex(&f));
        let f = PacketBuilder::tcp_syn(em, dm, si, di, sp, dp);
        let _ = writeln!(out, "build.tcp_syn {i} {}", hex(&f));
        let f = PacketBuilder::icmp_echo_request(em, dm, si, di, s.port(), s.port());
        let _ = writeln!(out, "build.icmp_echo_request {i} {}", hex(&f));
        let len = 42 + s.below(100);
        let f = PacketBuilder::udp_with_len(em, dm, si, di, sp, dp, len);
        let _ = writeln!(out, "build.udp_with_len {i} {}", hex(&f));
    }
}

fn corpus() -> String {
    let inputs = inputs();
    let mut out = String::new();
    for (i, (name, f)) in inputs.iter().enumerate() {
        let _ = writeln!(out, "in {i} {name} {}", hex(f));
    }
    let mut rig = SwitchRig::new();
    for (op, actions) in of_ops() {
        for (i, (_, f)) in inputs.iter().enumerate() {
            let sent = rig.run(&actions, f);
            assert!(sent.len() <= 1, "{op} sent {} frames", sent.len());
            let _ = writeln!(out, "{op} {i} {}", render(f, sent.first().map(|b| &b[..])));
        }
    }
    let elements = [
        (
            "click.dec_ip_ttl",
            "FromDevice(0) -> DecIPTTL -> ToDevice(0);",
        ),
        (
            "click.set_ip_dscp",
            "FromDevice(0) -> SetIPDSCP(46) -> ToDevice(0);",
        ),
    ];
    for (op, config) in elements {
        for (i, (_, f)) in inputs.iter().enumerate() {
            let _ = writeln!(out, "{op} {i} {}", render(f, click(config, f).as_deref()));
        }
    }
    for (i, (_, f)) in inputs.iter().enumerate() {
        let (outbound, reply, inbound) = nat(f);
        let _ = writeln!(out, "nat.out {i} {}", render(f, outbound.as_deref()));
        let _ = writeln!(out, "nat.reply {i} {}", render(f, Some(&reply)));
        let _ = writeln!(out, "nat.in {i} {}", render(&reply, inbound.as_deref()));
    }
    for (i, (_, f)) in inputs.iter().enumerate() {
        let _ = writeln!(out, "flow_key {i} {:?}", FlowKey::extract(f));
    }
    builder_lines(&mut out);
    out
}

#[test]
fn rewrite_corpus_is_unchanged() {
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
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("rewrites.actual.txt");
    std::fs::write(&path, &actual).expect("writing the actual corpus");
    panic!(
        "rewrites differ from tests/rewrites.txt, first at {first}; \
         current corpus written to {}",
        path.display()
    );
}
