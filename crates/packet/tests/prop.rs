//! Property tests: every wire format's encode/decode pair is an exact
//! inverse for arbitrary field values, decoders never panic on arbitrary
//! byte soup, and each in-place `parse` reads exactly what its `decode`
//! reads.

use bytes::Bytes;
use escape_packet::*;
use proptest::prelude::*;
use std::net::Ipv4Addr;

fn arb_mac() -> impl Strategy<Value = MacAddr> {
    any::<[u8; 6]>().prop_map(MacAddr)
}

fn arb_ip() -> impl Strategy<Value = Ipv4Addr> {
    any::<u32>().prop_map(Ipv4Addr::from)
}

fn arb_payload(max: usize) -> impl Strategy<Value = Bytes> {
    proptest::collection::vec(any::<u8>(), 0..max).prop_map(Bytes::from)
}

proptest! {
    #[test]
    fn ethernet_roundtrip(dst in arb_mac(), src in arb_mac(), et in any::<u16>(), payload in arb_payload(256)) {
        let f = EthernetFrame::new(dst, src, EtherType::from_u16(et), payload);
        let g = EthernetFrame::decode(&f.encode()).unwrap();
        prop_assert_eq!(f, g);
    }

    #[test]
    fn ipv4_roundtrip(
        src in arb_ip(), dst in arb_ip(), proto in any::<u8>(),
        dscp in 0u8..64, ecn in 0u8..4, ident in any::<u16>(), df in any::<bool>(),
        ttl in 1u8..=255, payload in arb_payload(512),
    ) {
        let mut p = Ipv4Packet::new(src, dst, IpProtocol::from_u8(proto), payload);
        p.dscp = dscp;
        p.ecn = ecn;
        p.identification = ident;
        p.dont_fragment = df;
        p.ttl = ttl;
        let q = Ipv4Packet::decode(&p.encode()).unwrap();
        prop_assert_eq!(p, q);
    }

    #[test]
    fn udp_roundtrip(src in arb_ip(), dst in arb_ip(), sp in any::<u16>(), dp in any::<u16>(), payload in arb_payload(512)) {
        let d = UdpDatagram::new(sp, dp, payload);
        let e = UdpDatagram::decode(&d.encode(src, dst), src, dst).unwrap();
        prop_assert_eq!(d, e);
    }

    #[test]
    fn tcp_roundtrip(
        src in arb_ip(), dst in arb_ip(), sp in any::<u16>(), dp in any::<u16>(),
        seq in any::<u32>(), ack in any::<u32>(), fl in 0u8..64, win in any::<u16>(),
        payload in arb_payload(512),
    ) {
        let mut s = TcpSegment::new(sp, dp, seq, ack, fl, payload);
        s.window = win;
        let t = TcpSegment::decode(&s.encode(src, dst), src, dst).unwrap();
        prop_assert_eq!(s, t);
    }

    #[test]
    fn arp_roundtrip(smac in arb_mac(), sip in arb_ip(), tmac in arb_mac(), tip in arb_ip(), req in any::<bool>()) {
        let p = ArpPacket {
            operation: if req { ArpOperation::Request } else { ArpOperation::Reply },
            sender_mac: smac,
            sender_ip: sip,
            target_mac: tmac,
            target_ip: tip,
        };
        let q = ArpPacket::decode(&p.encode()).unwrap();
        prop_assert_eq!(p, q);
    }

    #[test]
    fn icmp_echo_roundtrip(ident in any::<u16>(), seq in any::<u16>(), payload in arb_payload(128)) {
        let p = IcmpPacket::echo_request(ident, seq, payload);
        let q = IcmpPacket::decode(&p.encode()).unwrap();
        prop_assert_eq!(p, q);
    }

    // Decoders must reject or accept arbitrary bytes without panicking.
    #[test]
    fn decoders_never_panic(data in proptest::collection::vec(any::<u8>(), 0..128)) {
        let _ = EthernetFrame::decode(&data);
        let _ = Ipv4Packet::decode(&data);
        let _ = ArpPacket::decode(&data);
        let _ = IcmpPacket::decode(&data);
        let a = Ipv4Addr::new(1, 2, 3, 4);
        let _ = UdpDatagram::decode(&data, a, a);
        let _ = TcpSegment::decode(&data, a, a);
        let _ = FlowKey::extract(&data);
    }

    // A frame built by PacketBuilder always yields a complete UDP flow key.
    #[test]
    fn builder_frames_always_classify(
        smac in arb_mac(), dmac in arb_mac(), sip in arb_ip(), dip in arb_ip(),
        sp in any::<u16>(), dp in any::<u16>(),
    ) {
        let f = PacketBuilder::udp(smac, dmac, sip, dip, sp, dp, Bytes::from_static(b"k"));
        let key = FlowKey::extract(&f).unwrap();
        prop_assert_eq!(key.ip_src, Some(sip));
        prop_assert_eq!(key.ip_dst, Some(dip));
        prop_assert_eq!(key.tp_src, Some(sp));
        prop_assert_eq!(key.tp_dst, Some(dp));
    }
}

/// `FlowKey::extract` as it read before the in-place parsers: every layer
/// through its owned decoder.
fn reference_key(frame: &[u8]) -> Result<FlowKey, ParseError> {
    let eth = EthernetFrame::decode(frame)?;
    let mut key = FlowKey {
        eth_src: eth.src,
        eth_dst: eth.dst,
        eth_type: eth.ethertype.to_u16(),
        vlan_id: None,
        ip_src: None,
        ip_dst: None,
        ip_proto: None,
        ip_dscp: None,
        tp_src: None,
        tp_dst: None,
    };
    if eth.ethertype == EtherType::Ipv4 {
        if let Ok(ip) = Ipv4Packet::decode(&eth.payload) {
            key.ip_src = Some(ip.src);
            key.ip_dst = Some(ip.dst);
            key.ip_proto = Some(ip.protocol.to_u8());
            key.ip_dscp = Some(ip.dscp);
            let p = &ip.payload;
            match ip.protocol {
                IpProtocol::Udp | IpProtocol::Tcp if p.len() >= 4 => {
                    key.tp_src = Some(u16::from_be_bytes([p[0], p[1]]));
                    key.tp_dst = Some(u16::from_be_bytes([p[2], p[3]]));
                }
                IpProtocol::Icmp if p.len() >= 2 => {
                    key.tp_src = Some(p[0] as u16);
                    key.tp_dst = Some(p[1] as u16);
                }
                _ => {}
            }
        }
    }
    Ok(key)
}

/// Asserts that one layer's `parse` and `decode` agree: the same header
/// and payload, or the same error. Returns what `parse` read.
fn agree<H: PartialEq + std::fmt::Debug>(
    parsed: Result<(H, &[u8]), ParseError>,
    decoded: Result<(H, Bytes), ParseError>,
) -> Option<(H, &[u8])> {
    match (parsed, decoded) {
        (Ok((h, payload)), Ok((dh, dpayload))) => {
            assert_eq!(h, dh);
            assert_eq!(payload, &dpayload[..]);
            Some((h, payload))
        }
        (Err(a), Err(b)) => {
            assert_eq!(a, b);
            None
        }
        (a, b) => panic!("parse read {a:?} where decode read {b:?}"),
    }
}

/// Checks every layer of `frame` as deep as it parses.
fn frame_layers_agree(frame: &[u8]) {
    let eth = agree(
        EthernetHeader::parse(frame),
        EthernetFrame::decode(frame).map(|d| (d.header(), d.payload)),
    );
    if let Some((_, payload)) = eth {
        ip_layers_agree(payload);
    }
}

/// Checks the IPv4 layer of `data` and, under it, the UDP layer.
fn ip_layers_agree(data: &[u8]) {
    let ip = agree(
        Ipv4Header::parse(data),
        Ipv4Packet::decode(data).map(|d| (d.header(), d.payload)),
    );
    if let Some((ip, payload)) = ip {
        agree(
            UdpHeader::parse(payload, ip.src, ip.dst),
            UdpDatagram::decode(payload, ip.src, ip.dst).map(|d| (d.header(), d.payload)),
        );
    }
}

/// The option-less IPv4 header length.
const HEADER_MIN: usize = 20;

/// Makes arbitrary bytes a plausible IPv4 header: version 4, the given
/// IHL, and a valid header checksum, so the parsers get past their first
/// checks; with `fit`, also a total length that fits the buffer and no
/// fragmentation, so they reach the payload.
fn plausible_ipv4(mut data: Vec<u8>, ihl_words: u8, fit: bool) -> Vec<u8> {
    let ihl = usize::from(ihl_words) * 4;
    data.resize(data.len().max(ihl).max(HEADER_MIN), 0);
    data[0] = 0x40 | ihl_words;
    if fit {
        let len = data.len() as u16;
        data[2..4].copy_from_slice(&len.to_be_bytes());
        data[6] &= 0x40;
        data[7] = 0;
    }
    data[10] = 0;
    data[11] = 0;
    let c = checksum::checksum(&data[..ihl]);
    data[10..12].copy_from_slice(&c.to_be_bytes());
    data
}

proptest! {
    // Over byte soup, each in-place parser reads what its decoder reads.
    #[test]
    fn parse_matches_decode_on_arbitrary_bytes(data in proptest::collection::vec(any::<u8>(), 0..128)) {
        frame_layers_agree(&data);
        ip_layers_agree(&data);
        let a = Ipv4Addr::new(1, 2, 3, 4);
        agree(
            UdpHeader::parse(&data, a, a),
            UdpDatagram::decode(&data, a, a).map(|d| (d.header(), d.payload)),
        );
        prop_assert_eq!(FlowKey::extract(&data), reference_key(&data));
    }

    // Headers that pass the version and checksum checks reach the length,
    // fragment and transport checks, where parse and decode must agree too.
    #[test]
    fn parse_matches_decode_on_plausible_ipv4(
        data in proptest::collection::vec(any::<u8>(), 0..128),
        ihl_words in 0u8..16,
        fit in any::<bool>(),
        udp in any::<bool>(),
        eth in proptest::collection::vec(any::<u8>(), 14),
    ) {
        let mut ip = plausible_ipv4(data, ihl_words, fit);
        if udp {
            ip[9] = 17;
            ip = plausible_ipv4(ip, ihl_words, fit);
        }
        ip_layers_agree(&ip);
        let mut frame = eth;
        frame[12..14].copy_from_slice(&[0x08, 0x00]);
        frame.extend_from_slice(&ip);
        frame_layers_agree(&frame);
        prop_assert_eq!(FlowKey::extract(&frame), reference_key(&frame));
    }

    // On well-formed frames, parse, decode and the reference key agree,
    // with and without Ethernet padding past the IP total length.
    #[test]
    fn parse_matches_decode_on_builder_frames(
        smac in arb_mac(), dmac in arb_mac(), sip in arb_ip(), dip in arb_ip(),
        sp in any::<u16>(), dp in any::<u16>(), payload in arb_payload(64),
        tcp in any::<bool>(), pad in 0usize..16,
    ) {
        let f = if tcp {
            PacketBuilder::tcp(smac, dmac, sip, dip, sp, dp, 0x18, payload)
        } else {
            PacketBuilder::udp(smac, dmac, sip, dip, sp, dp, payload)
        };
        let mut f = f.to_vec();
        f.resize(f.len() + pad, 0);
        frame_layers_agree(&f);
        prop_assert_eq!(FlowKey::extract(&f), reference_key(&f));
    }

    // `put` is the writer `encode` uses: one header written by hand and
    // one encoded are the same bytes.
    #[test]
    fn put_writes_what_encode_writes(
        src in arb_ip(), dst in arb_ip(), sp in any::<u16>(), dp in any::<u16>(),
        payload in arb_payload(64), ttl in any::<u8>(), dscp in 0u8..64,
    ) {
        let mut ip = Ipv4Packet::new(src, dst, IpProtocol::Udp, Bytes::new());
        ip.ttl = ttl;
        ip.dscp = dscp;
        let udp = UdpDatagram::new(sp, dp, payload.clone());
        ip.payload = udp.encode(src, dst);
        let mut buf = Vec::new();
        ip.header().put(&mut buf, ip.payload.len());
        udp.header().put(&mut buf, src, dst, &payload);
        prop_assert_eq!(&buf[..], &ip.encode()[..]);
    }
}
