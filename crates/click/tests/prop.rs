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
