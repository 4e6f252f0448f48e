//! Dataplane fast-path witnesses: the exact-match flow cache is an
//! *invisible* optimisation. A full-stack run with the cache on must be
//! observably identical — event trace, per-packet flight-recorder
//! journeys, SLA verdicts, delivery counts — to the same-seed run with
//! the cache off (every lookup walking the priority table, the seed
//! behaviour). Only the `openflow.cache_*` telemetry series may differ.
//!
//! Also covered: same-seed determinism of the cached fast path itself
//! (two cache-on runs render byte-identical metrics documents) and a
//! chaos scenario where a link flap forces a mid-stream resteer, so the
//! cache gets invalidated and repopulated while traffic is in flight.

use escape::env::Escape;
use escape_netem::{FaultKind, FaultPlan};
use escape_orch::GreedyFirstFit;
use escape_pox::SteeringMode;
use escape_sg::topo::builders;
use escape_sg::{ResourceTopology, ServiceGraph};

/// Everything observable about one run, for cross-run comparison.
struct Outcome {
    /// Virtual-timestamped fault/recovery event log.
    events: Vec<String>,
    /// Rendered per-packet journey timelines from the flight recorder.
    timelines: String,
    /// SLA verdicts, Debug-rendered.
    sla: String,
    /// Frames the destination SAP received.
    rx: u64,
    /// Flow-cache telemetry at the end of the run.
    cache_hits: u64,
    cache_misses: u64,
    cache_invalidations: u64,
    /// Full metrics document (Prometheus text) for determinism checks.
    metrics_text: String,
}

/// The one metric family that may legitimately differ between a cache-on
/// and a cache-off run is `openflow.cache_*`; the ones that differ
/// between otherwise identical runs live under the reserved `wallclock.`
/// namespace. Strip both for byte comparisons.
fn scrub(doc: &str) -> String {
    doc.lines()
        .filter(|l| !l.contains("openflow_cache_") && !l.contains("wallclock_"))
        .collect::<Vec<_>>()
        .join("\n")
}

fn monitor_chain() -> ServiceGraph {
    ServiceGraph::new()
        .sap("sap0")
        .sap("sap1")
        .vnf("mon", "monitor", 0.5, 64)
        .chain("c1", &["sap0", "mon", "sap1"], 50.0, None)
}

/// Deploys a one-VNF chain on a linear substrate, runs a 40-frame UDP
/// stream through it and collects every observable artifact.
fn plain_run(seed: u64, cache_on: bool) -> Outcome {
    let topo = builders::linear(2, 4.0);
    let mut esc = Escape::build(
        topo,
        Box::new(GreedyFirstFit),
        SteeringMode::Proactive,
        seed,
    )
    .unwrap();
    esc.set_flow_cache(cache_on);
    esc.enable_flight_recorder(65_536);
    esc.deploy(&monitor_chain()).unwrap();
    esc.start_udp("sap0", "sap1", 128, 200, 40).unwrap();
    esc.run_for_ms(100);
    collect(esc)
}

fn collect(esc: Escape) -> Outcome {
    let m = esc.metrics();
    Outcome {
        events: esc.event_trace().to_vec(),
        timelines: esc.flight_record().timelines(),
        sla: format!("{:?}", esc.sla_verdicts()),
        rx: esc.sap_stats("sap1").unwrap().udp_rx,
        cache_hits: m.counter_total("openflow.cache_hits"),
        cache_misses: m.counter_total("openflow.cache_misses"),
        cache_invalidations: m.counter_total("openflow.cache_invalidations"),
        metrics_text: m.prometheus(),
    }
}

#[test]
fn cache_on_and_off_are_observably_identical() {
    let on = plain_run(11, true);
    let off = plain_run(11, false);

    assert_eq!(on.rx, 40, "all frames delivered with the cache on");
    assert_eq!(off.rx, 40, "all frames delivered with the cache off");
    assert_eq!(on.events, off.events, "event traces diverged");
    assert_eq!(on.timelines, off.timelines, "packet journeys diverged");
    assert_eq!(on.sla, off.sla, "SLA verdicts diverged");
    assert_eq!(
        scrub(&on.metrics_text),
        scrub(&off.metrics_text),
        "non-cache metrics diverged"
    );

    // The cache actually worked on the fast-path run and stayed cold on
    // the reference run — visible through the environment registry
    // without any bench harness (`escape metrics` exposure).
    // (Invalidations stay 0 here: the proactive flow-mods all land
    // before traffic, so every flush finds an empty cache. The resteer
    // witness below covers warm-cache invalidation.)
    assert!(on.cache_hits > 0, "repeat flows must hit the cache");
    assert_eq!(off.cache_hits, 0, "disabled cache must not serve hits");
    assert_eq!(off.cache_misses, 0, "disabled cache must not count misses");
}

#[test]
fn same_seed_cached_runs_are_byte_identical() {
    let a = plain_run(23, true);
    let b = plain_run(23, true);
    assert_eq!(a.events, b.events);
    assert_eq!(a.timelines, b.timelines);
    assert_eq!(a.sla, b.sla);
    // Full document this time, cache series included: the fast path is
    // itself deterministic.
    let strip_wall = |doc: &str| {
        doc.lines()
            .filter(|l| !l.contains("wallclock_"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(strip_wall(&a.metrics_text), strip_wall(&b.metrics_text));
}

/// A redundant triangle (same shape as the chaos harness): the direct
/// s0-s1 link has a two-hop backup via s2.
fn triangle() -> ResourceTopology {
    let mut t = ResourceTopology::new();
    t.add_sap("sap0").add_sap("sap1");
    t.add_switch("s0").add_switch("s1").add_switch("s2");
    t.add_container("c0", 4.0, 2048);
    t.add_link("sap0", "s0", 1000.0, 10);
    t.add_link("s0", "c0", 1000.0, 20);
    t.add_link("s0", "s1", 1000.0, 50);
    t.add_link("s0", "s2", 1000.0, 100);
    t.add_link("s2", "s1", 1000.0, 100);
    t.add_link("sap1", "s1", 1000.0, 10);
    t
}

/// Chaos witness: the primary link dies *mid-stream*, recovery resteers
/// the chain onto the backup path (deleting and reinstalling flows under
/// live traffic, invalidating the cache), and the link comes back. The
/// cached run must still be observably identical to the walked run.
fn flap_run(seed: u64, cache_on: bool) -> Outcome {
    let mut esc = Escape::build(
        triangle(),
        Box::new(GreedyFirstFit),
        SteeringMode::Proactive,
        seed,
    )
    .unwrap();
    esc.set_flow_cache(cache_on);
    esc.enable_flight_recorder(262_144);
    let sg = ServiceGraph::new()
        .sap("sap0")
        .sap("sap1")
        .vnf("fw", "firewall", 1.0, 256)
        .chain("c1", &["sap0", "fw", "sap1"], 20.0, None);
    esc.deploy(&sg).unwrap();
    let plan = FaultPlan::new("mid-stream-flap")
        .at_ms(
            10,
            FaultKind::LinkDown {
                a: "s0".into(),
                b: "s1".into(),
            },
        )
        .at_ms(
            60,
            FaultKind::LinkUp {
                a: "s0".into(),
                b: "s1".into(),
            },
        );
    esc.load_fault_plan(&plan).unwrap();
    // Traffic spans the fault window: the resteer happens under load.
    esc.start_udp("sap0", "sap1", 128, 400, 120).unwrap();
    esc.run_with_recovery(120);
    collect(esc)
}

#[test]
fn resteer_under_load_is_cache_transparent() {
    let on = flap_run(31, true);
    let off = flap_run(31, false);

    assert!(
        on.events
            .iter()
            .any(|l| l.contains("heal-recovered: chain c1 ")),
        "the flap must force a mid-stream resteer: {:?}",
        on.events
    );
    assert_eq!(on.events, off.events, "fault/recovery traces diverged");
    assert_eq!(on.timelines, off.timelines, "packet journeys diverged");
    assert_eq!(on.rx, off.rx, "delivery counts diverged");
    assert!(on.rx > 0, "traffic survives the flap");
    assert!(
        on.cache_hits > 0 && on.cache_invalidations > 0,
        "resteer must invalidate a warm cache (hits={} invalidations={})",
        on.cache_hits,
        on.cache_invalidations
    );
}
