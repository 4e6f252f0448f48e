//! Property tests: every header's `put` and `parse` are exact inverses
//! for arbitrary field values, no parser and no `rewrite` panics on
//! arbitrary byte soup and all of them read the same fields there, and
//! what `rewrite` writes parses back with the edit applied. The exact
//! bytes every rewrite writes are pinned by the workspace's rewrite
//! corpus (`tests/rewrites.txt`).

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

/// One header edit: an opcode (taken modulo the number of edits) and a
/// value (truncated to the field).
type Edit = (u8, u32);

fn arb_edits() -> impl Strategy<Value = Vec<Edit>> {
    proptest::collection::vec((any::<u8>(), any::<u32>()), 0..6)
}

/// Applies `edits` to `h` in order: each sets one field, or only reads.
fn apply(edits: &[Edit], h: &mut Headers) {
    for &(op, v) in edits {
        match op % 9 {
            0 => h.eth.src = MacAddr::from_id(v.into()),
            1 => h.eth.dst = MacAddr::from_id(v.into()),
            2 => h.ip_mut().into_iter().for_each(|ip| ip.src = v.into()),
            3 => h.ip_mut().into_iter().for_each(|ip| ip.dst = v.into()),
            4 => h
                .ip_mut()
                .into_iter()
                .for_each(|ip| ip.dscp = (v % 64) as u8),
            5 => h.ip_mut().into_iter().for_each(|ip| ip.ttl = v as u8),
            6 => h.ports_mut().into_iter().for_each(|(s, _)| *s = v as u16),
            7 => h.ports_mut().into_iter().for_each(|(_, d)| *d = v as u16),
            _ => {
                let _ = (h.ip(), h.ports());
            }
        }
    }
}

proptest! {
    #[test]
    fn ethernet_roundtrip(dst in arb_mac(), src in arb_mac(), et in any::<u16>(), payload in arb_payload(256)) {
        let h = EthernetHeader { dst, src, ethertype: EtherType::from_u16(et) };
        let mut wire = Vec::new();
        h.put(&mut wire);
        wire.extend_from_slice(&payload);
        let (back, rest) = EthernetHeader::parse(&wire).unwrap();
        prop_assert_eq!(back, h);
        prop_assert_eq!(rest, &payload[..]);
    }

    #[test]
    fn ipv4_roundtrip(
        src in arb_ip(), dst in arb_ip(), proto in any::<u8>(),
        dscp in 0u8..64, ecn in 0u8..4, ident in any::<u16>(), df in any::<bool>(),
        ttl in any::<u8>(), payload in arb_payload(512),
    ) {
        let mut h = Ipv4Header::new(src, dst, IpProtocol::from_u8(proto));
        h.dscp = dscp;
        h.ecn = ecn;
        h.identification = ident;
        h.dont_fragment = df;
        h.ttl = ttl;
        let mut wire = Vec::new();
        h.put(&mut wire, payload.len());
        wire.extend_from_slice(&payload);
        let (back, rest) = Ipv4Header::parse(&wire).unwrap();
        prop_assert_eq!(back, h);
        prop_assert_eq!(rest, &payload[..]);
    }

    #[test]
    fn udp_roundtrip(src in arb_ip(), dst in arb_ip(), sp in any::<u16>(), dp in any::<u16>(), payload in arb_payload(512)) {
        let h = UdpHeader { src_port: sp, dst_port: dp };
        let mut wire = Vec::new();
        h.put(&mut wire, src, dst, &payload);
        let (back, rest) = UdpHeader::parse(&wire, src, dst).unwrap();
        prop_assert_eq!(back, h);
        prop_assert_eq!(rest, &payload[..]);
    }

    #[test]
    fn tcp_roundtrip(
        src in arb_ip(), dst in arb_ip(), sp in any::<u16>(), dp in any::<u16>(),
        seq in any::<u32>(), ack in any::<u32>(), fl in 0u8..64, win in any::<u16>(),
        payload in arb_payload(512),
    ) {
        let h = TcpHeader { src_port: sp, dst_port: dp, seq, ack, flags: fl, window: win };
        let mut wire = Vec::new();
        h.put(&mut wire, src, dst, &payload);
        let (back, rest) = TcpHeader::parse(&wire, src, dst).unwrap();
        prop_assert_eq!(back, h);
        prop_assert_eq!(rest, &payload[..]);
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

    // Parsers and `rewrite` reject or accept arbitrary bytes without
    // panicking.
    #[test]
    fn decoders_never_panic(data in proptest::collection::vec(any::<u8>(), 0..128), edits in arb_edits()) {
        let _ = EthernetHeader::parse(&data);
        let _ = Ipv4Header::parse(&data);
        let _ = ArpPacket::decode(&data);
        let _ = IcmpPacket::decode(&data);
        let a = Ipv4Addr::new(1, 2, 3, 4);
        let _ = UdpHeader::parse(&data, a, a);
        let _ = TcpHeader::parse(&data, a, a);
        let _ = FlowKey::extract(&data);
        let _ = rewrite(&data, &mut Vec::new(), |h| apply(&edits, h));
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

/// Every layer of `frame` down to UDP or TCP, which must parse.
fn layers(frame: &[u8]) -> (EthernetHeader, Ipv4Header, (u16, u16), Vec<u8>) {
    let (eth, l3) = EthernetHeader::parse(frame).unwrap();
    let (ip, l4) = Ipv4Header::parse(l3).unwrap();
    let (ports, payload) = match ip.protocol {
        IpProtocol::Udp => {
            let (u, p) = UdpHeader::parse(l4, ip.src, ip.dst).unwrap();
            ((u.src_port, u.dst_port), p)
        }
        IpProtocol::Tcp => {
            let (t, p) = TcpHeader::parse(l4, ip.src, ip.dst).unwrap();
            ((t.src_port, t.dst_port), p)
        }
        other => panic!("not UDP or TCP: {other:?}"),
    };
    (eth, ip, ports, payload.to_vec())
}

proptest! {
    // Over byte soup, the layer parsers, the headers `rewrite` hands its
    // edit and `FlowKey::extract` read the same fields or fail alike, and
    // an edit that touches nothing copies the frame. Half the frames are
    // marked IPv4, so the IPv4 parser sees them too.
    #[test]
    fn parse_matches_decode_on_arbitrary_bytes(
        mut data in proptest::collection::vec(any::<u8>(), 0..128),
        ipv4 in any::<bool>(),
    ) {
        if ipv4 && data.len() >= 14 {
            data[12..14].copy_from_slice(&[0x08, 0x00]);
        }
        let mut out = Vec::new();
        let seen = rewrite(&data, &mut out, |h| (h.eth, h.ip(), h.ports()));
        let key = FlowKey::extract(&data);
        match EthernetHeader::parse(&data) {
            Err(e) => {
                prop_assert_eq!(seen, Err(e.clone()));
                prop_assert_eq!(key, Err(e));
            }
            Ok((eth, l3)) => {
                let (seen_eth, seen_ip, seen_ports) = seen.unwrap();
                let key = key.unwrap();
                prop_assert_eq!(&out, &data);
                prop_assert_eq!(seen_eth, eth);
                prop_assert_eq!(
                    (key.eth_src, key.eth_dst, key.eth_type),
                    (eth.src, eth.dst, eth.ethertype.to_u16())
                );
                let ip = match eth.ethertype {
                    EtherType::Ipv4 => Ipv4Header::parse(l3).ok(),
                    _ => None,
                };
                prop_assert_eq!(seen_ip, ip.map(|(h, _)| h));
                prop_assert_eq!(key.ip_src, seen_ip.map(|h| h.src));
                prop_assert_eq!(key.ip_dst, seen_ip.map(|h| h.dst));
                prop_assert_eq!(key.ip_proto, seen_ip.map(|h| h.protocol.to_u8()));
                prop_assert_eq!(key.ip_dscp, seen_ip.map(|h| h.dscp));
                let ports = ip.and_then(|(h, l4)| match h.protocol {
                    IpProtocol::Udp => UdpHeader::parse(l4, h.src, h.dst)
                        .ok()
                        .map(|(u, _)| (u.src_port, u.dst_port)),
                    IpProtocol::Tcp => TcpHeader::parse(l4, h.src, h.dst)
                        .ok()
                        .map(|(t, _)| (t.src_port, t.dst_port)),
                    _ => None,
                });
                prop_assert_eq!(seen_ports, ports);
                if let Some((sp, dp)) = ports {
                    prop_assert_eq!((key.tp_src, key.tp_dst), (Some(sp), Some(dp)));
                }
            }
        }
    }

    // Headers that pass the version and checksum checks reach the length,
    // fragment and transport checks: `rewrite` never panics there, and an
    // edit that touches nothing copies the frame.
    #[test]
    fn rewrite_never_panics_on_plausible_ipv4(
        data in proptest::collection::vec(any::<u8>(), 0..128),
        ihl_words in 0u8..16,
        fit in any::<bool>(),
        proto in prop_oneof![Just(6u8), Just(17u8), any::<u8>()],
        eth in proptest::collection::vec(any::<u8>(), 14),
        edits in arb_edits(),
    ) {
        let mut ip = plausible_ipv4(data, ihl_words, fit);
        ip[9] = proto;
        let ip = plausible_ipv4(ip, ihl_words, fit);
        let mut frame = eth;
        frame[12..14].copy_from_slice(&[0x08, 0x00]);
        frame.extend_from_slice(&ip);
        let mut out = Vec::new();
        rewrite(&frame, &mut out, |h| apply(&edits, h)).unwrap();
        rewrite(&frame, &mut out, |_| {}).unwrap();
        prop_assert_eq!(&out, &frame);
    }

    // On well-formed frames, with and without Ethernet padding past the
    // IP total length, what `rewrite` writes parses at every layer and
    // carries exactly the edited header values and the old payload.
    #[test]
    fn rewrite_writes_frames_that_parse(
        smac in arb_mac(), dmac in arb_mac(), sip in arb_ip(), dip in arb_ip(),
        sp in any::<u16>(), dp in any::<u16>(), payload in arb_payload(64),
        tcp in any::<bool>(), pad in 0usize..16, edits in arb_edits(),
    ) {
        let f = if tcp {
            PacketBuilder::tcp(smac, dmac, sip, dip, sp, dp, 0x18, payload.clone())
        } else {
            PacketBuilder::udp(smac, dmac, sip, dip, sp, dp, payload.clone())
        };
        let mut f = f.to_vec();
        f.resize(f.len() + pad, 0);
        let mut out = Vec::new();
        let seen = rewrite(&f, &mut out, |h| {
            apply(&edits, h);
            (h.eth, h.ip().unwrap(), h.ports().unwrap())
        })
        .unwrap();
        let (eth, ip, ports, rest) = layers(&out);
        prop_assert_eq!((eth, ip, ports), seen);
        prop_assert_eq!(&rest[..], &payload[..]);
        prop_assert_eq!(FlowKey::extract(&out).unwrap().tp_src, Some(ports.0));
    }
}
