//! Differential property test for the two things that relate a registry
//! to itself at two points in time: the sampler's delta-encoded series
//! document and the watch plane's metrics-delta list.
//!
//! The reference implementations below are the pre-slot code, kept on
//! purpose: a ring of full [`Snapshot`]s rendered by re-finding every
//! series by `(name, labels)`, and `Snapshot::diff` as the publisher
//! mapped it onto the wire. The system under test is whatever the crate
//! does today. Both see the same registry at the same instants under a
//! seeded random interleaving of register / `inc` / `add` / `set` /
//! `observe` / sample / publish; documents must be equal as strings and
//! delta lists element for element.

use escape_json::Value;
use escape_telemetry::{
    delta, Labels, MetricValue, Registry, Sampler, SamplerConfig, Scalar, Snapshot,
};
use escape_witness::SplitMix64;
use std::collections::VecDeque;

/// One element of a metrics-delta frame: name, labels, kind, value.
type Delta = (String, Labels, &'static str, f64);

// ---------------- system under test -----------------------------------

struct Sut {
    registry: Registry,
    sampler: Sampler,
    published: Vec<Scalar>,
}

impl Sut {
    fn new(registry: &Registry, cfg: SamplerConfig) -> Sut {
        Sut {
            registry: registry.clone(),
            sampler: Sampler::new(registry, cfg),
            published: registry.values(),
        }
    }

    fn record(&mut self, now_ns: u64) {
        self.sampler.record(now_ns);
    }

    fn series(&self) -> String {
        self.sampler.series_json()
    }

    /// What a `metrics-deltas` subscriber is sent for everything since
    /// the previous call (`ctl::server::watch::Publisher::publish`).
    fn publish(&mut self) -> Vec<Delta> {
        let values = self.registry.values();
        let mut deltas: Vec<Delta> = delta(&self.published, &values)
            .into_iter()
            .map(|(slot, value)| {
                let (name, labels) = self.registry.key(slot);
                (name, labels, values[slot].kind(), value)
            })
            .collect();
        deltas.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
        self.published = values;
        deltas
    }
}

// ---------------- reference: the snapshot ring ------------------------

struct ReferenceSampler {
    period_ns: u64,
    retention: usize,
    samples: VecDeque<(u64, Snapshot)>,
    evicted: u64,
}

impl ReferenceSampler {
    fn record(&mut self, now_ns: u64, snapshot: Snapshot) {
        if self.samples.len() == self.retention {
            self.samples.pop_front();
            self.evicted += 1;
        }
        self.samples.push_back((now_ns, snapshot));
    }

    fn series(&self) -> String {
        let at_ns: Vec<u64> = self.samples.iter().map(|s| s.0).collect();
        let mut series = Vec::new();
        if let Some((_, last)) = self.samples.back() {
            for e in &last.entries {
                let kind = match e.value {
                    MetricValue::Counter(_) => "counter",
                    MetricValue::Gauge(_) => "gauge",
                    MetricValue::Histogram(_) => "histogram",
                };
                let mut points: Vec<f64> = Vec::with_capacity(self.samples.len());
                let mut prev: Option<f64> = None;
                let mut moved = false;
                for (_, snapshot) in &self.samples {
                    let abs = match snapshot
                        .entries
                        .iter()
                        .find(|c| c.name == e.name && c.labels == e.labels)
                        .map(|c| &c.value)
                    {
                        Some(MetricValue::Counter(v)) => *v as f64,
                        Some(MetricValue::Gauge(v)) => *v as f64,
                        Some(MetricValue::Histogram(h)) => h.count as f64,
                        None => 0.0,
                    };
                    if let Some(p) = prev {
                        let point = match e.value {
                            MetricValue::Gauge(_) => abs,
                            _ => abs - p,
                        };
                        if abs != p {
                            moved = true;
                        }
                        points.push(point);
                    }
                    prev = Some(abs);
                }
                if !moved {
                    continue;
                }
                let labels = Value::Obj(
                    e.labels
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
                        .collect(),
                );
                series.push(
                    Value::obj()
                        .set("name", e.name.as_str())
                        .set("labels", labels)
                        .set("kind", kind)
                        .set("points", points),
                );
            }
        }
        Value::obj()
            .set("period_ns", self.period_ns)
            .set("evicted", self.evicted)
            .set("at_ns", at_ns)
            .set("series", Value::Arr(series))
            .to_string_pretty()
    }
}

// ---------------- reference: Snapshot::diff on the wire ---------------

/// `Snapshot::diff` followed by the publisher's `metric_delta` mapping:
/// counters as increments, gauges as the new absolute value, histograms
/// as new observations; a series the earlier snapshot lacks counts from
/// zero; unchanged series are omitted; order is the later snapshot's
/// (name, then labels).
fn reference_diff(before: &Snapshot, after: &Snapshot) -> Vec<Delta> {
    let mut out = Vec::new();
    for e in &after.entries {
        let was = before
            .entries
            .iter()
            .find(|b| b.name == e.name && b.labels == e.labels)
            .map(|b| &b.value);
        let changed = match (&e.value, was) {
            (MetricValue::Counter(now), was) => {
                let was = match was {
                    Some(MetricValue::Counter(w)) => *w,
                    _ => 0,
                };
                (*now != was).then(|| ("counter", now.saturating_sub(was) as f64))
            }
            (MetricValue::Gauge(now), was) => {
                let was = match was {
                    Some(MetricValue::Gauge(w)) => *w,
                    _ => 0,
                };
                (*now != was).then_some(("gauge", *now as f64))
            }
            (MetricValue::Histogram(now), was) => {
                let was = match was {
                    Some(MetricValue::Histogram(w)) => w.count,
                    _ => 0,
                };
                (now.count != was).then(|| ("histogram", (now.count - was) as f64))
            }
        };
        if let Some((kind, value)) = changed {
            out.push((e.name.clone(), e.labels.clone(), kind, value));
        }
    }
    out
}

// ---------------- the random program -----------------------------------

#[derive(Clone, Copy)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

type Series = (&'static str, &'static [(&'static str, &'static str)], Kind);

/// The series a program may touch. A name keeps one kind (re-registering
/// under another panics by contract) and label sets share names, so the
/// key order interleaves kinds and labelled with unlabelled series.
const POOL: &[Series] = &[
    ("net.frames", &[], Kind::Counter),
    ("net.drops", &[("reason", "link_down")], Kind::Counter),
    ("net.drops", &[("reason", "queue_full")], Kind::Counter),
    (
        "net.drops",
        &[("link", "a-b"), ("reason", "loss")],
        Kind::Counter,
    ),
    ("a.first", &[], Kind::Counter),
    ("queue.depth", &[], Kind::Gauge),
    ("queue.depth", &[("port", "1")], Kind::Gauge),
    (
        "replica.rules",
        &[("chain", "demo"), ("replica", "0")],
        Kind::Gauge,
    ),
    (
        "replica.rules",
        &[("chain", "demo"), ("replica", "1")],
        Kind::Gauge,
    ),
    ("rpc.latency_ns", &[], Kind::Histogram),
    ("span.duration_ns", &[("span", "deploy")], Kind::Histogram),
    ("z.last", &[], Kind::Histogram),
];

/// Touches one pool series the way the stack does: look the handle up
/// (registering on first use) and move it — or only register it.
fn touch(r: &Registry, rng: &mut SplitMix64) {
    let (name, labels, kind) = POOL[rng.below(POOL.len())];
    let only_register = rng.below(6) == 0;
    match kind {
        Kind::Counter => {
            let c = r.counter_with(name, labels);
            match (only_register, rng.below(2)) {
                (true, _) => {}
                (false, 0) => c.inc(),
                (false, _) => c.add(rng.below(1_000) as u64),
            }
        }
        Kind::Gauge => {
            let g = r.gauge_with(name, labels);
            // A small value set, zero included, so gauges keep returning
            // to where a window (or the registry) started.
            let v = [0, 0, 1, 2, -3, 7][rng.below(6)];
            match (only_register, rng.below(3)) {
                (true, _) => {}
                (false, 0) => g.add(v),
                (false, _) => g.set(v),
            }
        }
        Kind::Histogram => {
            let h = r.histogram_with(name, labels, &[10, 100, 1_000]);
            if !only_register {
                h.observe(rng.below(5_000) as u64);
            }
        }
    }
}

fn run_program(seed: u64, retention: usize, steps: usize) {
    let mut rng = SplitMix64(seed);
    let r = Registry::new();
    // Some series exist before the sampler does, most register later.
    for _ in 0..rng.below(4) {
        touch(&r, &mut rng);
    }
    let cfg = SamplerConfig {
        period_ns: 1_000,
        retention,
    };
    let mut sut = Sut::new(&r, cfg);
    let mut reference = ReferenceSampler {
        period_ns: cfg.period_ns,
        retention,
        samples: VecDeque::new(),
        evicted: 0,
    };
    let mut published = r.snapshot();
    let mut now_ns = 0u64;
    let mut samples = 0usize;
    for step in 0..steps {
        match rng.below(10) {
            0..=5 => touch(&r, &mut rng),
            6..=8 => {
                // The reference reads the registry first: the sampler
                // counts its own eviction in `telemetry.samples_evicted`
                // only after it has read the registry.
                reference.record(now_ns, r.snapshot());
                sut.record(now_ns);
                samples += 1;
                assert_eq!(
                    sut.series(),
                    reference.series(),
                    "seed {seed} retention {retention} step {step}: series document"
                );
                // Mostly one period ahead, sometimes an overshoot.
                now_ns += 1_000 + (rng.below(3) / 2 * rng.below(2_500)) as u64;
            }
            _ => {
                let snap = r.snapshot();
                let want = reference_diff(&published, &snap);
                published = snap;
                assert_eq!(
                    sut.publish(),
                    want,
                    "seed {seed} retention {retention} step {step}: metrics-delta list"
                );
            }
        }
    }
    assert!(
        samples > 3 * retention,
        "seed {seed}: the ring wrapped several times ({samples} samples, retention {retention})"
    );
}

#[test]
fn random_interleavings_match_the_snapshot_reference() {
    for seed in 0..32 {
        for retention in [1, 2, 5, 16] {
            run_program(seed, retention, 400);
        }
    }
}

/// The cases a slot-based sampler can get wrong, spelled out: a series
/// that registers inside the retained window reads 0 before it existed,
/// a gauge that comes back to its first value still counts as moved, and
/// a gauge set to 0 at registration is flat.
#[test]
fn mid_window_registration_and_returning_gauges() {
    let r = Registry::new();
    let early = r.counter("early");
    let cfg = SamplerConfig {
        period_ns: 1_000,
        retention: 4,
    };
    let mut sut = Sut::new(&r, cfg);
    let mut reference = ReferenceSampler {
        period_ns: 1_000,
        retention: 4,
        samples: VecDeque::new(),
        evicted: 0,
    };
    let mut published = r.snapshot();
    let mut tick = |now_ns: u64, sut: &mut Sut| {
        reference.record(now_ns, r.snapshot());
        sut.record(now_ns);
        assert_eq!(sut.series(), reference.series(), "at {now_ns}");
        let snap = r.snapshot();
        let want = reference_diff(&published, &snap);
        published = snap;
        assert_eq!(sut.publish(), want, "at {now_ns}");
    };
    early.inc();
    tick(0, &mut sut);
    tick(1_000, &mut sut);
    // Registered between two samples, already moved at the next one.
    let late = r.counter_with("late", &[("why", "mid-window")]);
    late.add(5);
    let level = r.gauge("level");
    level.set(3);
    let flat = r.gauge("flat");
    flat.set(0);
    tick(2_000, &mut sut);
    let doc = sut.series();
    assert!(doc.contains("\"late\"") && doc.contains("\"level\""));
    assert!(
        !doc.contains("\"flat\""),
        "a gauge that stays 0 never moved"
    );
    level.set(0);
    tick(3_000, &mut sut);
    level.set(3);
    tick(4_000, &mut sut);
    // Wrap until the registration instant has left the window.
    for i in 5..12 {
        early.inc();
        tick(i * 1_000, &mut sut);
    }
}
