//! Property tests for the Click engine: parser robustness, generated
//! config round trips, classifier semantics, element invariants.

use escape_click::{parse_config, Registry, Router};
use escape_netem::Time;
use escape_packet::Packet;
use proptest::prelude::*;

/// Generates syntactically valid Click configs: a random linear pipeline
/// of transparent elements between FromDevice(0) and ToDevice(0).
fn arb_pipeline() -> impl Strategy<Value = String> {
    let stage = prop_oneof![
        Just("Counter".to_string()),
        Just("Tee(1)".to_string()),
        (1u32..64).prop_map(|n| format!("Queue({n}) -> Unqueue")),
        Just("CheckIPHeader".to_string()),
        Just("DecIPTTL".to_string()),
        (0u8..64).prop_map(|d| format!("SetIPDSCP({d})")),
        Just("RandomSample(1.0)".to_string()),
    ];
    proptest::collection::vec(stage, 0..6).prop_map(|stages| {
        let mut cfg = String::from("FromDevice(0)");
        for s in &stages {
            cfg.push_str(" -> ");
            cfg.push_str(s);
        }
        cfg.push_str(" -> ToDevice(0);");
        cfg
    })
}

fn udp_packet() -> Packet {
    let data = escape_packet::PacketBuilder::udp(
        escape_packet::MacAddr::from_id(1),
        escape_packet::MacAddr::from_id(2),
        std::net::Ipv4Addr::new(10, 0, 0, 1),
        std::net::Ipv4Addr::new(10, 0, 0, 2),
        100,
        200,
        bytes::Bytes::from_static(b"prop"),
    );
    Packet {
        data,
        id: 1,
        born_ns: 0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The parser never panics on arbitrary input.
    #[test]
    fn parser_never_panics(src in "\\PC{0,200}") {
        let _ = parse_config(&src);
    }

    /// The parser never panics on inputs biased toward Click syntax.
    #[test]
    fn parser_never_panics_clicky(src in "[a-zA-Z0-9_:;()\\[\\]>, \\n/*-]{0,200}") {
        let _ = parse_config(&src);
    }

    /// Every generated pipeline compiles, and a valid UDP frame pushed
    /// in either exits exactly once on device 0 or is absorbed by a
    /// pacing element — never duplicated.
    #[test]
    fn pipelines_conserve_packets(cfg in arb_pipeline()) {
        let mut r = Router::from_config(&cfg, &Registry::standard(), 1).unwrap();
        let mut emitted = r.push_external(0, udp_packet(), Time::ZERO).external.len();
        // Drain any pacing elements.
        let mut guard = 0;
        while let Some(w) = r.next_wake() {
            emitted += r.tick(w).external.len();
            guard += 1;
            if guard > 100 { break; }
        }
        prop_assert!(emitted <= 1, "duplicated packet in {cfg}");
        // With all-transparent stages (our generator picks only pass
        // elements and RandomSample(1.0)), it must come out.
        prop_assert_eq!(emitted, 1, "lost packet in {}", cfg);
    }

    /// A parsed config's connections only reference declared elements.
    #[test]
    fn parsed_connections_are_closed(cfg in arb_pipeline()) {
        let parsed = parse_config(&cfg).unwrap();
        for c in &parsed.conns {
            prop_assert!(parsed.decls.iter().any(|d| d.name == c.from));
            prop_assert!(parsed.decls.iter().any(|d| d.name == c.to));
        }
    }

    /// Counter's byte_count equals packets * frame length for uniform
    /// traffic, regardless of count.
    #[test]
    fn counter_arithmetic(n in 1usize..50) {
        let mut r = Router::from_config(
            "FromDevice(0) -> c :: Counter -> ToDevice(0);",
            &Registry::standard(),
            0,
        )
        .unwrap();
        let pkt = udp_packet();
        let len = pkt.len();
        for _ in 0..n {
            r.push_external(0, pkt.clone(), Time::ZERO);
        }
        prop_assert_eq!(r.read_handler("c.count").unwrap(), n.to_string());
        prop_assert_eq!(r.read_handler("c.byte_count").unwrap(), (n * len).to_string());
    }

    /// Queue never exceeds its capacity and never loses count of drops.
    #[test]
    fn queue_capacity_invariant(cap in 1usize..32, n in 1usize..100) {
        let mut r = Router::from_config(
            &format!("FromDevice(0) -> q :: Queue({cap}); q -> RatedUnqueue(1) -> ToDevice(0);"),
            &Registry::standard(),
            0,
        )
        .unwrap();
        for _ in 0..n {
            r.push_external(0, udp_packet(), Time::ZERO);
        }
        let len: usize = r.read_handler("q.length").unwrap().parse().unwrap();
        let drops: usize = r.read_handler("q.drops").unwrap().parse().unwrap();
        prop_assert!(len <= cap);
        prop_assert_eq!(len + drops, n);
    }
}

const NAT_EXTERNAL: std::net::Ipv4Addr = std::net::Ipv4Addr::new(203, 0, 113, 1);

/// An arbitrary UDP-in-IPv4 frame: `options` after the 20-byte IP header
/// (whole words), the UDP checksum zeroed ("not computed") when
/// `zero_sum` is set, and `pad` bytes of Ethernet padding past the IP
/// total length.
#[allow(clippy::too_many_arguments)]
fn raw_udp_frame(
    eth: [u8; 12],
    ip: ([u8; 4], [u8; 4], u8, u16, bool, u8),
    options: &[u8],
    sport: u16,
    dport: u16,
    payload: Vec<u8>,
    zero_sum: bool,
    pad: usize,
) -> Vec<u8> {
    let (src, dst, tos, ident, df, ttl) = ip;
    let (src, dst) = (std::net::Ipv4Addr::from(src), std::net::Ipv4Addr::from(dst));
    let mut udp = escape_packet::UdpDatagram::new(sport, dport, payload.into())
        .encode(src, dst)
        .to_vec();
    if zero_sum {
        udp[6] = 0;
        udp[7] = 0;
    }
    let ihl = 20 + options.len();
    let mut hdr = vec![0x40 | (ihl / 4) as u8, tos];
    hdr.extend_from_slice(&((ihl + udp.len()) as u16).to_be_bytes());
    hdr.extend_from_slice(&ident.to_be_bytes());
    hdr.extend_from_slice(&[if df { 0x40 } else { 0 }, 0, ttl, 17, 0, 0]);
    hdr.extend_from_slice(&src.octets());
    hdr.extend_from_slice(&dst.octets());
    hdr.extend_from_slice(options);
    let sum = escape_packet::checksum::checksum(&hdr);
    hdr[10..12].copy_from_slice(&sum.to_be_bytes());
    let mut frame = eth.to_vec();
    frame.extend_from_slice(&[0x08, 0x00]);
    frame.extend_from_slice(&hdr);
    frame.extend_from_slice(&udp);
    frame.resize(frame.len() + pad, 0);
    frame
}

/// What `IPRewriter` wrote before it read headers in place: every layer
/// decoded, the addresses and ports rewritten, every layer encoded.
fn reference_rewrite(
    frame: &[u8],
    f: impl FnOnce(&mut escape_packet::Ipv4Packet, &mut escape_packet::UdpDatagram),
) -> Vec<u8> {
    use escape_packet::{EthernetFrame, Ipv4Packet, UdpDatagram};
    let eth = EthernetFrame::decode(frame).unwrap();
    let mut ip = Ipv4Packet::decode(&eth.payload).unwrap();
    let mut udp = UdpDatagram::decode(&ip.payload, ip.src, ip.dst).unwrap();
    f(&mut ip, &mut udp);
    ip.payload = udp.encode(ip.src, ip.dst);
    EthernetFrame::new(eth.dst, eth.src, eth.ethertype, ip.encode())
        .encode()
        .to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `IPRewriter` writes, byte for byte, what decode → rewrite → encode
    /// writes, in both directions: IP options are dropped, a zero UDP
    /// checksum is computed, and Ethernet padding is trimmed, as `encode`
    /// does.
    #[test]
    fn ip_rewriter_writes_what_reencoding_writes(
        eth in any::<[u8; 12]>(),
        ip in (
            any::<[u8; 4]>(), any::<[u8; 4]>(), any::<u8>(),
            any::<u16>(), any::<bool>(), any::<u8>(),
        ),
        option_words in 0usize..11,
        option_byte in any::<u8>(),
        sport in any::<u16>(),
        reply_sport in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..64),
        zero_sum in any::<bool>(),
        pad in 0usize..24,
    ) {
        let mut r = Router::from_config(
            "FromDevice(0) -> [0] nat :: IPRewriter(203.0.113.1); nat [0] -> ToDevice(1);\n\
             FromDevice(1) -> [1] nat; nat [1] -> ToDevice(0);",
            &Registry::standard(),
            0,
        )
        .unwrap();
        let options = vec![option_byte; option_words * 4];
        let out_frame =
            raw_udp_frame(eth, ip, &options, sport, 53, payload.clone(), zero_sum, pad);
        let expected = reference_rewrite(&out_frame, |ip, udp| {
            ip.src = NAT_EXTERNAL;
            udp.src_port = 40_000;
        });
        let out = r.push_external(0, Packet::from_bytes(out_frame.into()), Time::ZERO);
        prop_assert_eq!(out.external.len(), 1);
        prop_assert_eq!(&out.external[0].1.data[..], &expected[..]);

        // The reply comes back to the external address and port.
        let (src, _, tos, ident, df, ttl) = ip;
        let back = ([9, 9, 9, 9], NAT_EXTERNAL.octets(), tos, ident, df, ttl);
        let in_frame =
            raw_udp_frame(eth, back, &options, reply_sport, 40_000, payload, zero_sum, pad);
        let expected = reference_rewrite(&in_frame, |ip, udp| {
            ip.dst = std::net::Ipv4Addr::from(src);
            udp.dst_port = sport;
        });
        let out = r.push_external(1, Packet::from_bytes(in_frame.into()), Time::ZERO);
        prop_assert_eq!(out.external.len(), 1);
        prop_assert_eq!(&out.external[0].1.data[..], &expected[..]);
    }
}
