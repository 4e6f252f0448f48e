//! Property tests for the Click engine: parser robustness, generated
//! config round trips, element invariants, and factories and the
//! compiler under adversarial arguments.

use escape_click::{parse_config, Registry, Router};
use escape_netem::Time;
use escape_packet::Packet;
use proptest::prelude::*;

/// Every class `Registry::standard()` holds (the registry's unit test pins
/// the same set).
const STANDARD_CLASSES: [&str; 15] = [
    "FromDevice",
    "ToDevice",
    "Counter",
    "Discard",
    "Tee",
    "IPFilter",
    "StringMatcher",
    "IPRewriter",
    "HashSwitch",
    "BandwidthShaper",
    "DelayShaper",
    "RandomSample",
    "CheckIPHeader",
    "DecIPTTL",
    "SetIPDSCP",
];

/// Arguments that break careless factories: zero, one, negative, the
/// largest `u64`, not-a-number, empty and non-numeric text (one of them an
/// address, so `IPRewriter` compiles too).
const ADVERSARIAL_ARGS: [&str; 9] = [
    "0",
    "1",
    "-1",
    "18446744073709551615",
    "NaN",
    "",
    "allow all",
    "x",
    "10.0.0.1",
];

/// One wiring of an element `e :: Class(args)`, for every standard class
/// in `STANDARD_CLASSES` order, together with the arguments:
/// `FromDevice(0)` feeds input `in_port` of `e` (or a `Discard` when
/// `feed` is false), and outputs `0..outs` of `e` go to `ToDevice`s.
fn arb_adversarial_wiring() -> impl Strategy<Value = (Vec<&'static str>, Vec<String>)> {
    (
        proptest::collection::vec(0usize..ADVERSARIAL_ARGS.len(), 0..3),
        any::<bool>(),
        0usize..2,
        0usize..4,
    )
        .prop_map(|(args, feed, in_port, outs)| {
            let args: Vec<&str> = args.iter().map(|&i| ADVERSARIAL_ARGS[i]).collect();
            let joined = args.join(", ");
            let cfgs = STANDARD_CLASSES
                .iter()
                .map(|class| {
                    let mut cfg = format!("src :: FromDevice(0); e :: {class}({joined});\n");
                    if feed {
                        cfg.push_str(&format!("src -> [{in_port}] e;\n"));
                    } else {
                        cfg.push_str("src -> Discard;\n");
                    }
                    for p in 0..outs {
                        cfg.push_str(&format!("e [{p}] -> ToDevice({p});\n"));
                    }
                    cfg
                })
                .collect();
            (args, cfgs)
        })
}

/// Generates syntactically valid Click configs: a random linear pipeline
/// of transparent elements between FromDevice(0) and ToDevice(0).
fn arb_pipeline() -> impl Strategy<Value = String> {
    let stage = prop_oneof![
        Just("Counter".to_string()),
        Just("Tee(1)".to_string()),
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

    /// Every standard class, under adversarial arguments and any wiring,
    /// either compiles or returns a `ConfigError`; a router that compiles
    /// survives a pushed frame and three rounds of its own wake-ups. What
    /// compiles used every argument it was given: a `StringMatcher` takes
    /// one, and a `BandwidthShaper` has room for a frame.
    #[test]
    fn every_standard_class_compiles_or_errors((args, cfgs) in arb_adversarial_wiring()) {
        for (class, cfg) in STANDARD_CLASSES.iter().zip(&cfgs) {
            let Ok(mut r) = Router::from_config(cfg, &Registry::standard(), 1) else {
                continue;
            };
            match *class {
                "StringMatcher" => prop_assert_eq!(args.len(), 1, "{}", cfg),
                "BandwidthShaper" => prop_assert_ne!(args.get(1), Some(&"0"), "{}", cfg),
                _ => {}
            }
            r.push_external(0, udp_packet(), Time::ZERO);
            for _ in 0..3 {
                if let Some(w) = r.next_wake() {
                    r.tick(w);
                }
            }
        }
    }
}
