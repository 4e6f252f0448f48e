//! The sampler's series document, byte for byte: a wrapped ring with
//! counters, a gauge that goes negative, a histogram, a series that
//! registers inside the window, one that never moves and label values
//! that need escaping. `series.txt` holds the rendering; a mismatch
//! writes the current one to
//! `target/tmp/witness/crates/telemetry/tests/series.txt`, which
//! `scripts/rerecord.sh` copies over.

use escape_telemetry::{Registry, Sampler, SamplerConfig};

fn wrapped_sampler_document() -> String {
    let r = Registry::new();
    let rx = r.counter_with("pkts.rx", &[("port", "s0-eth1"), ("dir", "in")]);
    let tx = r.counter_with("pkts.rx", &[("port", "s1 \"q\"\\é\t")]);
    let depth = r.gauge("queue.depth");
    let lat = r.histogram_with("lat_us", &[("chain", "demo")], &[10, 100, 1000]);
    let _idle = r.counter("never.moves");
    let mut s = Sampler::new(
        &r,
        SamplerConfig {
            period_ns: 1_000,
            retention: 6,
        },
    );
    let mut late = None;
    for i in 0..15u64 {
        rx.add(i % 3);
        if i % 4 == 0 {
            tx.inc();
        }
        depth.set(i as i64 % 5 - 2);
        if i % 2 == 1 {
            lat.observe(i * 37);
        }
        if i == 11 {
            late = Some(r.counter_with("late.joiner", &[("at", "11")]));
        }
        if let Some(c) = &late {
            c.add(i);
        }
        s.record(i * 1_000 + i % 2 * 300);
    }
    s.series_json()
}

#[test]
fn wrapped_sampler_document_is_pinned() {
    escape_witness::corpus!("series.txt").check(&wrapped_sampler_document());
}
