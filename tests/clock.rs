//! The sampler grid around the environment's one clock door.
//!
//! Every public way to advance the clock pauses at each sampler
//! boundary, so with no verb in between the series lands on the grid
//! with no gap. A verb's own waits run straight past the boundaries
//! today; the second test pins the gap a deploy leaves.

use escape::session::demo_topology;
use escape::{Session, SessionConfig};
use escape_json::Value;
use escape_netem::Time;
use escape_telemetry::SamplerConfig;

const PERIOD_NS: u64 = 1_000_000;

/// A session over the demo substrate with a 1 ms sampler.
fn session() -> Session {
    let cfg = SessionConfig {
        sampler: Some(SamplerConfig {
            period_ns: PERIOD_NS,
            retention: 64,
        }),
        ..SessionConfig::default()
    };
    Session::new(demo_topology(), cfg).expect("demo session builds")
}

/// The `at_ns` list of the session's series document.
fn at_ns(s: &Session) -> Vec<u64> {
    let doc = Value::parse(&s.series_json()).expect("series document parses");
    assert_eq!(
        doc.get("period_ns").and_then(Value::as_u64),
        Some(PERIOD_NS)
    );
    doc.get("at_ns")
        .and_then(Value::as_arr)
        .expect("at_ns array")
        .iter()
        .map(|v| v.as_u64().expect("at_ns entry"))
        .collect()
}

#[test]
fn public_clock_calls_sample_every_boundary() {
    let mut s = session();
    s.escape_mut().run_for_ms(3);
    s.run_for_ms(3); // Escape::run_with_recovery
    let t = s.escape().now() + Time::from_ms(2);
    s.escape_mut().run_until(t);
    let ns = s.escape().now().as_ns() + 2 * PERIOD_NS;
    s.escape_mut().run_until_ns(ns);
    let at = at_ns(&s);
    assert!(
        at.iter().all(|t| t % PERIOD_NS == 0),
        "off the grid: {at:?}"
    );
    assert!(
        at.windows(2).all(|w| w[1] - w[0] == PERIOD_NS),
        "gap in the grid: {at:?}"
    );
    // The handshake ends at 5 ms, where the first sample is taken.
    let want: Vec<u64> = (5..=15).map(|ms| ms * PERIOD_NS).collect();
    assert_eq!(at, want);
}

#[test]
fn a_deploy_skips_the_boundaries_it_crosses() {
    let mut s = session();
    s.run_for_ms(2);
    let sg = include_str!("../examples/data/demo.sg");
    s.deploy_text(sg, escape::session::InputFormat::Dsl)
        .expect("demo deploys");
    s.run_for_ms(3);
    // The deploy runs from 7 ms to 10.06 ms on waits that do not sample:
    // the 8, 9 and 10 ms samples are missing, and the next one lands off
    // the grid at the deploy's end. ROADMAP item 18(b) samples inside
    // verbs and flips this to 5..=13 ms with no gap.
    assert_eq!(
        at_ns(&s),
        [5_000_000, 6_000_000, 7_000_000, 10_060_000, 11_000_000, 12_000_000, 13_000_000]
    );
}
