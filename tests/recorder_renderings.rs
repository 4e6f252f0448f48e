//! Every rendering of a wrapping, capturing flight recorder, pinned by
//! hash across builds.
//!
//! `cli.txt` pins timelines on a ring that never wraps; this test pins
//! what a 300-record ring that has evicted most of a 40-frame run still
//! renders: the text dump, the pcap bytes (payload capture on), the
//! journey timelines, the Chrome trace and the SLA verdicts. A change to
//! how records or payloads are stored must leave every hash unmoved.

use escape::env::Escape;
use escape_netem::LinkState;
use escape_orch::NearestNeighbor;
use escape_pox::SteeringMode;
use escape_sg::{topo::builders, ServiceGraph, Sla};

/// FNV-1a, 64 bit: no dependency, and the same on every toolchain.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The fw+monitor chain of `tests/flight.rs` on `linear(3)`, which
/// co-locates both VNFs in one container, under a budget that the
/// link cut makes it fail.
fn run() -> Escape {
    let topo = builders::linear(3, 4.0);
    let mut esc =
        Escape::build(topo, Box::new(NearestNeighbor), SteeringMode::Proactive, 7).unwrap();
    let sg = ServiceGraph::new()
        .sap("sap0")
        .sap("sap1")
        .vnf("fw", "firewall", 1.0, 256)
        .vnf("mon", "monitor", 0.5, 64)
        .chain("demo", &["sap0", "fw", "mon", "sap1"], 100.0, Some(50_000))
        .with_sla(Sla {
            max_latency_us: Some(5_000),
            max_loss: Some(0.05),
        });
    esc.deploy(&sg).unwrap();
    esc.enable_flight_recorder(300);
    esc.sim.trace.as_mut().unwrap().capture_payloads = true;
    esc.start_udp("sap0", "sap1", 128, 200, 40).unwrap();
    // Frames 0..=19 cross an intact fabric; the trunk is down for the
    // next ten, then back for the rest.
    esc.run_for_ms(4);
    let trunk = esc.sim.find_links("s1", "s2");
    assert!(!trunk.is_empty(), "linear topo has an s1-s2 trunk");
    for &l in &trunk {
        esc.sim.set_link_state(l, LinkState::Down);
    }
    esc.run_for_ms(2);
    for &l in &trunk {
        esc.sim.set_link_state(l, LinkState::Up);
    }
    esc.run_for_ms(50);
    esc
}

#[test]
fn a_wrapping_capturing_recorder_renders_the_same_bytes() {
    let esc = run();
    let trace = esc.sim.trace.as_ref().expect("recorder on");
    assert_eq!(trace.len(), 300, "the ring is full");
    assert!(trace.evicted() > 300, "the ring wrapped more than once");
    let fr = esc.flight_record();
    let verdicts: String = esc
        .sla_verdicts()
        .iter()
        .map(|v| format!("{v}\n"))
        .collect();
    assert!(verdicts.contains("FAIL"), "the cut fails the budget");
    let got = [
        ("dump", fnv(trace.dump().as_bytes())),
        ("pcap", fnv(&trace.to_pcap())),
        ("timelines", fnv(fr.timelines().as_bytes())),
        ("chrome", fnv(fr.chrome_json().as_bytes())),
        ("sla", fnv(verdicts.as_bytes())),
    ];
    let want: [(&str, u64); 5] = [
        ("dump", 0xcbda_1811_da84_1235),
        ("pcap", 0x07a3_6cee_1a17_594d),
        ("timelines", 0x88e5_0fe4_6415_3081),
        ("chrome", 0x4733_6380_a75a_247b),
        ("sla", 0xe1a2_6e90_6b7a_5565),
    ];
    let moved: Vec<String> = got
        .iter()
        .zip(&want)
        .filter(|(g, w)| g.1 != w.1)
        .map(|(g, w)| format!("{}: got {:#018x}, pinned {:#018x}", g.0, g.1, w.1))
        .collect();
    assert!(moved.is_empty(), "renderings moved:\n{}", moved.join("\n"));
}
