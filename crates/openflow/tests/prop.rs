//! Property tests for OpenFlow: wire round trips under arbitrary field
//! values, decoder robustness, match/table invariants.

use escape_netem::Time;
use escape_openflow::table::FlowEntry;
use escape_openflow::{port, Action, FlowModCommand, FlowTable, Match, OfMessage, PacketInReason};
use escape_packet::{FlowKey, MacAddr, PacketBuilder};
use escape_telemetry::Registry;
use proptest::prelude::*;
use std::net::Ipv4Addr;

fn arb_mac() -> impl Strategy<Value = MacAddr> {
    any::<[u8; 6]>().prop_map(MacAddr)
}

fn arb_ip() -> impl Strategy<Value = Ipv4Addr> {
    any::<u32>().prop_map(Ipv4Addr::from)
}

fn arb_match() -> impl Strategy<Value = Match> {
    (
        proptest::option::of(any::<u16>()),
        proptest::option::of(arb_mac()),
        proptest::option::of(arb_mac()),
        proptest::option::of(any::<u16>()),
        proptest::option::of((arb_ip(), 0u8..=32)),
        proptest::option::of((arb_ip(), 0u8..=32)),
        proptest::option::of(any::<u16>()),
        proptest::option::of(any::<u16>()),
        proptest::option::of(any::<u8>()),
        proptest::option::of((1u8..=16, 0u8..=15).prop_filter("bucket < n", |(n, b)| b < n)),
    )
        .prop_map(
            |(
                in_port,
                dl_src,
                dl_dst,
                dl_type,
                nw_src,
                nw_dst,
                tp_src,
                tp_dst,
                nw_proto,
                bucket,
            )| {
                Match {
                    in_port,
                    dl_src,
                    dl_dst,
                    dl_vlan: None,
                    dl_type,
                    nw_tos: None,
                    nw_proto,
                    nw_src,
                    nw_dst,
                    tp_src,
                    tp_dst,
                    bucket,
                }
            },
        )
}

fn arb_actions() -> impl Strategy<Value = Vec<Action>> {
    proptest::collection::vec(
        prop_oneof![
            any::<u16>().prop_map(Action::out),
            arb_mac().prop_map(Action::SetDlSrc),
            arb_mac().prop_map(Action::SetDlDst),
            arb_ip().prop_map(Action::SetNwSrc),
            arb_ip().prop_map(Action::SetNwDst),
            any::<u16>().prop_map(Action::SetTpDst),
        ],
        0..6,
    )
}

/// A nw_src/nw_dst prefix of length 0 is semantically fully wildcarded
/// and decodes as `None`; normalize for round-trip comparison.
fn normalize(mut m: Match) -> Match {
    if matches!(m.nw_src, Some((_, 0))) {
        m.nw_src = None;
    }
    if matches!(m.nw_dst, Some((_, 0))) {
        m.nw_dst = None;
    }
    // Address bits outside the prefix are not carried by the wire
    // format's wildcard semantics; mask them for comparison.
    let mask_net = |o: Option<(Ipv4Addr, u8)>| {
        o.map(|(a, l)| {
            let mask = if l == 0 {
                0
            } else {
                u32::MAX << (32 - l as u32)
            };
            (Ipv4Addr::from(u32::from(a) & mask), l)
        })
    };
    m.nw_src = mask_net(m.nw_src);
    m.nw_dst = mask_net(m.nw_dst);
    m
}

/// One step of the differential cache-vs-walk exercise. Ports and
/// priorities are drawn from small ranges so lookups repeat (exercising
/// cache hits) and flow-mods actually touch installed entries.
#[derive(Debug, Clone)]
enum TableOp {
    Lookup {
        dport: u16,
        in_port: u16,
    },
    Add {
        dport: u16,
        in_port: Option<u16>,
        prio: u16,
        cookie: u64,
    },
    Modify {
        dport: u16,
        prio: u16,
        strict: bool,
        out: u16,
    },
    Delete {
        dport: u16,
        prio: u16,
        strict: bool,
        cookie: u64,
    },
}

fn arb_table_op() -> impl Strategy<Value = TableOp> {
    // The lookup arm repeats so op streams are lookup-heavy (the
    // vendored prop_oneof! has no weights): repeats are what exercise
    // cache hits between the mutating ops.
    let lookup =
        || (0u16..8, 0u16..4).prop_map(|(dport, in_port)| TableOp::Lookup { dport, in_port });
    prop_oneof![
        lookup(),
        lookup(),
        lookup(),
        lookup(),
        (0u16..8, proptest::option::of(0u16..4), 0u16..8, 0u64..4).prop_map(
            |(dport, in_port, prio, cookie)| TableOp::Add {
                dport,
                in_port,
                prio,
                cookie
            }
        ),
        (0u16..8, 0u16..8, any::<bool>(), any::<u16>()).prop_map(|(dport, prio, strict, out)| {
            TableOp::Modify {
                dport,
                prio,
                strict,
                out,
            }
        }),
        (0u16..8, 0u16..8, any::<bool>(), 0u64..4).prop_map(|(dport, prio, strict, cookie)| {
            TableOp::Delete {
                dport,
                prio,
                strict,
                cookie,
            }
        }),
    ]
}

/// An IPv4/UDP match on destination port `dport` (and optionally the
/// ingress port) — shaped so the generated lookup frames can hit it.
fn match_for(dport: u16, in_port: Option<u16>) -> Match {
    let mut m = Match::any().with_dl_type(0x0800);
    m.tp_dst = Some(dport);
    m.in_port = in_port;
    m
}

fn entry_for(dport: u16, in_port: Option<u16>, prio: u16, cookie: u64) -> FlowEntry {
    let mut e = FlowEntry::new(
        match_for(dport, in_port),
        prio,
        vec![Action::out(1)],
        Time::ZERO,
    );
    e.cookie = cookie;
    e
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn match_wire_roundtrip(m in arb_match()) {
        let m = normalize(m);
        let mut buf = Vec::new();
        m.encode(&mut buf);
        let (back, used) = Match::decode(&buf).unwrap();
        prop_assert_eq!(used, 40);
        prop_assert_eq!(normalize(back), m);
    }

    #[test]
    fn flow_mod_wire_roundtrip(
        m in arb_match(),
        actions in arb_actions(),
        cookie in any::<u64>(),
        prio in any::<u16>(),
        idle in any::<u16>(),
        hard in any::<u16>(),
        xid in any::<u32>(),
    ) {
        let msg = OfMessage::FlowMod {
            match_: normalize(m),
            cookie,
            command: FlowModCommand::Add,
            idle_timeout: idle,
            hard_timeout: hard,
            priority: prio,
            buffer_id: 0xffff_ffff,
            out_port: 0xffff,
            flags: 0,
            actions,
        };
        let wire = msg.encode(xid);
        let (back, back_xid) = OfMessage::decode(&wire).unwrap();
        prop_assert_eq!(back_xid, xid);
        match (msg, back) {
            (
                OfMessage::FlowMod { match_: m1, actions: a1, cookie: c1, .. },
                OfMessage::FlowMod { match_: m2, actions: a2, cookie: c2, .. },
            ) => {
                prop_assert_eq!(normalize(m1), normalize(m2));
                prop_assert_eq!(a1, a2);
                prop_assert_eq!(c1, c2);
            }
            _ => prop_assert!(false, "variant changed in roundtrip"),
        }
    }

    #[test]
    fn packet_in_roundtrip(
        buffer_id in any::<u32>(),
        in_port in any::<u16>(),
        data in proptest::collection::vec(any::<u8>(), 0..256),
        xid in any::<u32>(),
    ) {
        let msg = OfMessage::PacketIn {
            buffer_id,
            total_len: data.len() as u16,
            in_port,
            reason: PacketInReason::NoMatch,
            data: bytes::Bytes::from(data),
        };
        let wire = msg.encode(xid);
        let (back, _) = OfMessage::decode(&wire).unwrap();
        prop_assert_eq!(back, msg);
    }

    /// The decoder never panics on arbitrary bytes.
    #[test]
    fn decoder_never_panics(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = OfMessage::decode(&data);
        let _ = Match::decode(&data);
        let _ = Action::decode_list(&data);
    }

    /// Corrupting any single byte of an encoded message never panics the
    /// decoder.
    #[test]
    fn bitflip_robustness(
        m in arb_match(),
        pos_frac in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let msg = OfMessage::FlowMod {
            match_: m,
            cookie: 1,
            command: FlowModCommand::Add,
            idle_timeout: 0,
            hard_timeout: 0,
            priority: 1,
            buffer_id: 0xffff_ffff,
            out_port: 0xffff,
            flags: 0,
            actions: vec![Action::out(1)],
        };
        let mut wire = msg.encode(1);
        let pos = ((wire.len() - 1) as f64 * pos_frac) as usize;
        wire[pos] ^= flip;
        let _ = OfMessage::decode(&wire);
    }

    /// `Match::exact_from_key` always matches its own source frame, and
    /// `matches` is consistent with `is_subset_of`: if a ⊆ b and a
    /// matches a frame... then b matches it too.
    #[test]
    fn subset_implies_match_superset(
        sport in any::<u16>(),
        dport in any::<u16>(),
        in_port in any::<u16>(),
        src in arb_ip(),
        dst in arb_ip(),
    ) {
        let frame = PacketBuilder::udp(
            MacAddr::from_id(1),
            MacAddr::from_id(2),
            src,
            dst,
            sport,
            dport,
            bytes::Bytes::from_static(b"p"),
        );
        let key = FlowKey::extract(&frame).unwrap();
        let exact = Match::exact_from_key(&key, in_port);
        prop_assert!(exact.matches(&key, in_port));
        let broader = Match::any().with_dl_type(0x0800).with_nw_dst(dst, 32);
        prop_assert!(exact.is_subset_of(&broader));
        prop_assert!(broader.matches(&key, in_port), "superset must match too");
    }

    /// Differential: a cache-enabled table and a cache-disabled table fed
    /// the *same* randomized op sequence — lookups interleaved with
    /// add/modify/delete flow-mods — agree on every lookup result (same
    /// winning entry index into identically-ordered tables) and end with
    /// byte-equal entries, per-entry packet/byte counters included. The
    /// registry the cached table was built on counts every lookup once,
    /// as a hit or a miss, and every cached entry a flush drops.
    #[test]
    fn cached_lookup_is_equivalent_to_full_walk(
        seeds in proptest::collection::vec(
            (0u16..8, proptest::option::of(0u16..4), 0u16..8, 0u64..4),
            0..12,
        ),
        ops in proptest::collection::vec(arb_table_op(), 1..80),
    ) {
        let reg = Registry::new();
        let mut cached = FlowTable::with_registry(&reg);
        let mut walked = FlowTable::new();
        walked.set_cache_enabled(false);
        let (mut lookups, mut dropped) = (0u64, 0u64);
        for (dport, in_port, prio, cookie) in seeds {
            cached.add(entry_for(dport, in_port, prio, cookie));
            walked.add(entry_for(dport, in_port, prio, cookie));
        }
        for op in ops {
            // Every mutation flushes the cache wholesale.
            if !matches!(op, TableOp::Lookup { .. }) {
                dropped += cached.cache().len() as u64;
            }
            match op {
                TableOp::Lookup { dport, in_port } => {
                    let frame = PacketBuilder::udp(
                        MacAddr::from_id(1),
                        MacAddr::from_id(2),
                        Ipv4Addr::new(10, 0, 0, 1),
                        Ipv4Addr::new(10, 0, 0, 2),
                        7,
                        dport,
                        bytes::Bytes::from_static(b"x"),
                    );
                    let key = FlowKey::extract(&frame).unwrap();
                    let a = cached.lookup_idx(&key, in_port, 60, Time::ZERO);
                    let b = walked.lookup_idx(&key, in_port, 60, Time::ZERO);
                    prop_assert_eq!(a, b, "cached and walked lookups disagree");
                    lookups += 1;
                }
                TableOp::Add { dport, in_port, prio, cookie } => {
                    cached.add(entry_for(dport, in_port, prio, cookie));
                    walked.add(entry_for(dport, in_port, prio, cookie));
                }
                TableOp::Modify { dport, prio, strict, out } => {
                    let m = match_for(dport, None);
                    let actions = vec![Action::out(out)];
                    let a = cached.modify(&m, prio, strict, &actions);
                    let b = walked.modify(&m, prio, strict, &actions);
                    prop_assert_eq!(a, b);
                }
                TableOp::Delete { dport, prio, strict, cookie } => {
                    let m = match_for(dport, None);
                    let a = cached.delete(&m, prio, strict, port::NONE, cookie);
                    let b = walked.delete(&m, prio, strict, port::NONE, cookie);
                    prop_assert_eq!(a.len(), b.len());
                }
            }
        }
        prop_assert_eq!(cached.matched, walked.matched);
        prop_assert_eq!(cached.missed, walked.missed);
        let total = |name| reg.counter_total(name);
        prop_assert_eq!(total("openflow.cache_hits") + total("openflow.cache_misses"), lookups);
        prop_assert_eq!(total("openflow.cache_invalidations"), dropped);
        prop_assert_eq!(cached.len(), walked.len());
        for (a, b) in cached.entries().iter().zip(walked.entries()) {
            prop_assert_eq!(&a.match_, &b.match_);
            prop_assert_eq!(a.priority, b.priority);
            prop_assert_eq!(a.cookie, b.cookie);
            prop_assert_eq!(&a.actions, &b.actions);
            prop_assert_eq!(a.packet_count, b.packet_count, "per-entry packet counters diverged");
            prop_assert_eq!(a.byte_count, b.byte_count, "per-entry byte counters diverged");
        }
    }

    /// Flow-table counters: matched + missed equals total lookups.
    #[test]
    fn table_lookup_accounting(
        entries in proptest::collection::vec((arb_match(), any::<u16>()), 0..20),
        lookups in proptest::collection::vec((any::<u16>(), any::<u16>()), 1..50),
    ) {
        let mut t = FlowTable::new();
        for (m, p) in entries {
            t.add(FlowEntry::new(m, p, vec![Action::out(1)], Time::ZERO));
        }
        for (dport, in_port) in &lookups {
            let frame = PacketBuilder::udp(
                MacAddr::from_id(1),
                MacAddr::from_id(2),
                Ipv4Addr::new(10, 0, 0, 1),
                Ipv4Addr::new(10, 0, 0, 2),
                7,
                *dport,
                bytes::Bytes::from_static(b"x"),
            );
            let key = FlowKey::extract(&frame).unwrap();
            let _ = t.lookup(&key, *in_port, 60, Time::ZERO);
        }
        prop_assert_eq!(t.matched + t.missed, lookups.len() as u64);
    }
}
