//! # escape-telemetry
//!
//! Metrics and span tracing for the whole ESCAPE-RS stack.
//!
//! * [`Registry`] — a named-metric registry handing out lock-free
//!   [`Counter`] / [`Gauge`] / [`Histogram`] handles. Registration takes
//!   a mutex once; the handles themselves are plain atomics, so the hot
//!   paths (the netem event loop, the POX packet-in path) pay one
//!   `fetch_add` per event. Metrics carry optional labels, e.g.
//!   `steering.flow_mods{dpid="3"}`.
//! * [`Tracer`] — lightweight spans ([`Tracer::enter`] / [`Tracer::exit`])
//!   with parent/child nesting. Timestamps are supplied by the caller
//!   (the netem virtual clock, in nanoseconds), so traces are fully
//!   deterministic for a fixed seed. Every finished span feeds a
//!   duration histogram named `span.<name>.duration_ns`.
//! * Exposition — [`Snapshot`] renders as Prometheus text
//!   ([`Snapshot::prometheus`]) or JSON ([`Snapshot::to_json`]).
//! * Two points in time — a series keeps one slot in the registry for
//!   the registry's life, [`Registry::values`] reads every slot into a
//!   vector of [`Scalar`]s, and [`delta`] of two such vectors is what
//!   changed between them. The [`Sampler`]'s series document and the
//!   watch plane's metrics-delta frames are both that one delta.
//! * [`Ring`] — the bounded history under the sampler, the span trace,
//!   the event journal and the packet trace.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use escape_json::Writer;

pub mod chrome;
mod ring;
pub mod sampler;
mod span;
pub use chrome::ChromeEvent;
pub use ring::Ring;
pub use sampler::{Sampler, SamplerConfig};
pub use span::{SpanHandle, SpanRecord, Tracer};

/// Label set attached to a metric: sorted `(key, value)` pairs.
pub type Labels = Vec<(String, String)>;

fn normalize_labels(labels: &[(&str, &str)]) -> Labels {
    let mut l: Labels = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    l.sort();
    l
}

/// A monotonically increasing counter.
#[derive(Clone, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Counter").field(&self.get()).finish()
    }
}

impl Counter {
    pub fn inc(&self) {
        self.cell.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A value that can go up and down (queue depths, utilization).
#[derive(Clone, Default)]
pub struct Gauge {
    cell: Arc<AtomicI64>,
}

impl Gauge {
    pub fn set(&self, v: i64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    pub fn add(&self, n: i64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    pub fn sub(&self, n: i64) {
        self.cell.fetch_sub(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// Fixed-bucket histogram over `u64` observations (typically
/// nanoseconds). Buckets are cumulative-upper-bound style like
/// Prometheus: `bounds[i]` is the inclusive upper edge of bucket `i`,
/// with an implicit `+Inf` bucket at the end.
#[derive(Clone)]
pub struct Histogram {
    core: Arc<HistogramCore>,
}

struct HistogramCore {
    bounds: Vec<u64>,
    buckets: Vec<AtomicU64>, // len = bounds.len() + 1 (overflow)
    count: AtomicU64,
    sum: AtomicU64,
}

/// Default duration buckets: 1µs → 10s, one per decade plus midpoints.
pub const DURATION_BOUNDS_NS: &[u64] = &[
    1_000,
    5_000,
    10_000,
    50_000,
    100_000,
    500_000,
    1_000_000,
    5_000_000,
    10_000_000,
    50_000_000,
    100_000_000,
    500_000_000,
    1_000_000_000,
    5_000_000_000,
    10_000_000_000,
];

impl Histogram {
    pub fn observe(&self, v: u64) {
        let idx = self.core.bounds.partition_point(|&b| b < v);
        self.core.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.core.count.fetch_add(1, Ordering::Relaxed);
        self.core.sum.fetch_add(v, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.core.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.core.sum.load(Ordering::Relaxed)
    }

    fn data(&self) -> HistogramData {
        HistogramData {
            bounds: self.core.bounds.clone(),
            counts: self
                .core
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count(),
            sum: self.sum(),
        }
    }
}

/// Immutable histogram contents as captured in a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramData {
    pub bounds: Vec<u64>,
    /// Per-bucket (non-cumulative) counts; one longer than `bounds`
    /// (the final entry is the overflow bucket).
    pub counts: Vec<u64>,
    pub count: u64,
    pub sum: u64,
}

impl HistogramData {
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimated quantile (`q` in 0.0..=1.0) by linear interpolation
    /// inside the containing bucket. Observations past the last bound
    /// report the last bound (the histogram cannot see further).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= target {
                if i >= self.bounds.len() {
                    return *self.bounds.last().unwrap_or(&0);
                }
                let lower = if i == 0 { 0 } else { self.bounds[i - 1] };
                let upper = self.bounds[i];
                let into = (target - seen) as f64 / c as f64;
                return lower + ((upper - lower) as f64 * into) as u64;
            }
            seen += c;
        }
        *self.bounds.last().unwrap_or(&0)
    }
}

#[derive(Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

#[derive(PartialEq, Eq, Hash, PartialOrd, Ord)]
struct MetricKey {
    name: String,
    labels: Labels,
}

/// The current value of one series, as much of it as a delta needs: a
/// counter's total, a gauge's level, a histogram's observation count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scalar {
    Counter(u64),
    Gauge(i64),
    Histogram(u64),
}

impl Scalar {
    /// `"counter"`, `"gauge"` or `"histogram"`.
    pub fn kind(&self) -> &'static str {
        match self {
            Scalar::Counter(_) => "counter",
            Scalar::Gauge(_) => "gauge",
            Scalar::Histogram(_) => "histogram",
        }
    }

    fn level(self) -> i128 {
        match self {
            Scalar::Counter(v) | Scalar::Histogram(v) => v.into(),
            Scalar::Gauge(v) => v.into(),
        }
    }

    /// The one delta encoding: what this value reports against `was`,
    /// the same series earlier, or `None` when it has not moved. A
    /// counter reports its increment, a histogram its new observations,
    /// a gauge its new level. A series that did not exist yet (`None`)
    /// counts from zero, which is exact because every metric is born at
    /// zero.
    pub fn since(self, was: Option<Scalar>) -> Option<f64> {
        let (now, was) = (self.level(), was.map_or(0, Scalar::level));
        (now != was).then(|| match self {
            Scalar::Gauge(_) => now as f64,
            _ => (now - was).max(0) as f64,
        })
    }
}

/// What changed between two [`Registry::values`] vectors of one
/// registry: `(slot, value)` per moved series in slot order, each value
/// encoded by [`Scalar::since`]. `newer` may be longer than `older`
/// (series registered in between); slots never disappear.
pub fn delta(older: &[Scalar], newer: &[Scalar]) -> Vec<(usize, f64)> {
    newer
        .iter()
        .enumerate()
        .filter_map(|(slot, now)| Some((slot, now.since(older.get(slot).copied())?)))
        .collect()
}

/// Registering one name + labels under two types is a bug in this
/// program.
fn type_mismatch(name: &str) -> ! {
    panic!("metric {name:?} already registered with a different type")
}

/// The series table: a series' slot is its index in `slots`, assigned
/// at registration and kept for the registry's life (nothing
/// unregisters). The index and the slot share one copy of each key;
/// the index walks the keys in (name, labels) order.
#[derive(Default)]
struct Table {
    index: BTreeMap<Arc<MetricKey>, usize>,
    slots: Vec<(Arc<MetricKey>, Metric)>,
}

/// The process-wide metric registry. Cheap to clone (all clones share
/// state); each subsystem holds its own clone plus cached handles.
#[derive(Clone, Default)]
pub struct Registry {
    table: Arc<Mutex<Table>>,
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    fn lock(&self) -> MutexGuard<'_, Table> {
        // Nothing panics under this lock short of a slot index no value
        // vector of this registry could have produced.
        self.table
            .lock()
            .expect("a thread panicked while it held the registry lock")
    }

    /// The one registration body: the series at `name` + `labels`,
    /// which `make` builds on first use.
    fn register(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Metric,
    ) -> Metric {
        let key = MetricKey {
            name: name.to_string(),
            labels: normalize_labels(labels),
        };
        let mut t = self.lock();
        if let Some(&slot) = t.index.get(&key) {
            return t.slots[slot].1.clone();
        }
        let metric = make();
        let slot = t.slots.len();
        let key = Arc::new(key);
        t.index.insert(Arc::clone(&key), slot);
        t.slots.push((key, metric.clone()));
        metric
    }

    /// Counter without labels.
    pub fn counter(&self, name: &str) -> Counter {
        self.counter_with(name, &[])
    }

    /// Counter with labels, e.g.
    /// `counter_with("steering.flow_mods", &[("dpid", "3")])`.
    /// Registering the same name+labels twice returns the same cell.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        match self.register(name, labels, || Metric::Counter(Counter::default())) {
            Metric::Counter(c) => c,
            _ => type_mismatch(name),
        }
    }

    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauge_with(name, &[])
    }

    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.register(name, labels, || Metric::Gauge(Gauge::default())) {
            Metric::Gauge(g) => g,
            _ => type_mismatch(name),
        }
    }

    /// Histogram with the default duration buckets ([`DURATION_BOUNDS_NS`]).
    pub fn histogram(&self, name: &str) -> Histogram {
        self.histogram_with(name, &[], DURATION_BOUNDS_NS)
    }

    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)], bounds: &[u64]) -> Histogram {
        assert!(
            !bounds.is_empty() && bounds.windows(2).all(|w| w[0] < w[1]),
            "bounds must be sorted and non-empty"
        );
        let make = || {
            Metric::Histogram(Histogram {
                core: Arc::new(HistogramCore {
                    bounds: bounds.to_vec(),
                    buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
                    count: AtomicU64::new(0),
                    sum: AtomicU64::new(0),
                }),
            })
        };
        match self.register(name, labels, make) {
            Metric::Histogram(h) => h,
            _ => type_mismatch(name),
        }
    }

    /// Point-in-time copy of every registered metric, sorted by name
    /// then labels.
    pub fn snapshot(&self) -> Snapshot {
        let t = self.lock();
        let entries = t
            .index
            .iter()
            .map(|(key, &slot)| MetricSnapshot {
                name: key.name.clone(),
                labels: key.labels.clone(),
                value: match &t.slots[slot].1 {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram(h.data()),
                },
            })
            .collect();
        Snapshot { entries }
    }

    /// The current value of every series, by slot. A vector taken
    /// earlier is a prefix-by-length of one taken later.
    pub fn values(&self) -> Vec<Scalar> {
        let t = self.lock();
        t.slots
            .iter()
            .map(|(_, metric)| match metric {
                Metric::Counter(c) => Scalar::Counter(c.get()),
                Metric::Gauge(g) => Scalar::Gauge(g.get()),
                Metric::Histogram(h) => Scalar::Histogram(h.count()),
            })
            .collect()
    }

    /// Name and labels of the series in `slot`. Panics on a slot no
    /// [`Registry::values`] vector of this registry has.
    pub fn key(&self, slot: usize) -> (String, Labels) {
        let key = &self.lock().slots[slot].0;
        (key.name.clone(), key.labels.clone())
    }

    /// Sum of a counter across all label sets, read from the cells.
    pub fn counter_total(&self, name: &str) -> u64 {
        let t = self.lock();
        t.slots
            .iter()
            .filter(|(key, _)| key.name == name)
            .filter_map(|(_, metric)| match metric {
                Metric::Counter(c) => Some(c.get()),
                _ => None,
            })
            .sum()
    }
}

/// One metric as captured in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSnapshot {
    pub name: String,
    pub labels: Labels,
    pub value: MetricValue,
}

#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    Counter(u64),
    Gauge(i64),
    Histogram(HistogramData),
}

/// Point-in-time copy of a [`Registry`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    pub entries: Vec<MetricSnapshot>,
}

/// `{k="v",...}` — nothing for an empty set. `le` is a histogram
/// bucket's upper edge, appended after the series' own labels.
fn push_labels(out: &mut String, labels: &Labels, le: Option<&str>) {
    let pairs = labels
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .chain(le.map(|le| ("le", le)));
    for (i, (k, v)) in pairs.enumerate() {
        let _ = write!(out, "{}{k}={v:?}", if i == 0 { '{' } else { ',' });
    }
    if !labels.is_empty() || le.is_some() {
        out.push('}');
    }
}

/// Prometheus metric names allow `[a-zA-Z0-9_:]`; our dotted names map
/// dots to underscores.
fn prom_name(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// A label set as a JSON object.
pub(crate) fn write_labels(w: &mut Writer, labels: &Labels) {
    w.begin_object();
    for (k, v) in labels {
        w.key(k).str(v);
    }
    w.end_object();
}

impl MetricValue {
    fn kind(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram(_) => "histogram",
        }
    }
}

impl Snapshot {
    fn find(&self, name: &str, labels: &[(&str, &str)]) -> Option<&MetricValue> {
        let labels = normalize_labels(labels);
        self.entries
            .iter()
            .find(|e| e.name == name && e.labels == labels)
            .map(|e| &e.value)
    }

    /// Counter value by name and labels (test/report convenience).
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        match self.find(name, labels)? {
            MetricValue::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// Sum of a counter across all label sets.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.entries
            .iter()
            .filter(|e| e.name == name)
            .filter_map(|e| match &e.value {
                MetricValue::Counter(v) => Some(*v),
                _ => None,
            })
            .sum()
    }

    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<i64> {
        match self.find(name, labels)? {
            MetricValue::Gauge(v) => Some(*v),
            _ => None,
        }
    }

    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&HistogramData> {
        match self.find(name, labels)? {
            MetricValue::Histogram(h) => Some(h),
            _ => None,
        }
    }

    /// Prometheus text exposition format.
    pub fn prometheus(&self) -> String {
        fn sample(
            out: &mut String,
            (name, suffix): (&str, &str),
            labels: &Labels,
            le: Option<&str>,
            value: impl std::fmt::Display,
        ) {
            out.push_str(name);
            out.push_str(suffix);
            push_labels(out, labels, le);
            let _ = writeln!(out, " {value}");
        }
        let mut out = String::new();
        let mut last_typed = String::new();
        for e in &self.entries {
            let pname = prom_name(&e.name);
            if last_typed != pname {
                let _ = writeln!(out, "# TYPE {pname} {}", e.value.kind());
                last_typed.clone_from(&pname);
            }
            match &e.value {
                MetricValue::Counter(v) => sample(&mut out, (&pname, ""), &e.labels, None, v),
                MetricValue::Gauge(v) => sample(&mut out, (&pname, ""), &e.labels, None, v),
                MetricValue::Histogram(h) => {
                    let mut cum = 0u64;
                    for (i, &c) in h.counts.iter().enumerate() {
                        cum += c;
                        let le = h.bounds.get(i).map_or("+Inf".into(), u64::to_string);
                        sample(&mut out, (&pname, "_bucket"), &e.labels, Some(&le), cum);
                    }
                    sample(&mut out, (&pname, "_sum"), &e.labels, None, h.sum);
                    sample(&mut out, (&pname, "_count"), &e.labels, None, h.count);
                }
            }
        }
        out
    }

    /// JSON exposition: `{"metrics": [...]}`, one object per series.
    pub fn write_json(&self, w: &mut Writer) {
        let uints = |w: &mut Writer, key: &str, xs: &[u64]| {
            w.key(key).begin_array();
            for &x in xs {
                w.uint(x);
            }
            w.end_array();
        };
        w.begin_object();
        w.key("metrics").begin_array();
        for e in &self.entries {
            w.begin_object();
            w.key("name").str(&e.name);
            w.key("type").str(e.value.kind());
            write_labels(w.key("labels"), &e.labels);
            match &e.value {
                MetricValue::Counter(c) => w.key("value").uint(*c),
                MetricValue::Gauge(g) => w.key("value").float(*g as f64),
                MetricValue::Histogram(h) => {
                    w.key("count").uint(h.count);
                    w.key("sum").uint(h.sum);
                    w.key("mean").float(h.mean());
                    w.key("p50").uint(h.quantile(0.50));
                    w.key("p99").uint(h.quantile(0.99));
                    uints(w, "bounds", &h.bounds);
                    uints(w, "buckets", &h.counts);
                }
            }
            w.end_object();
        }
        w.end_array();
        w.end_object();
    }

    pub fn to_json(&self) -> String {
        let mut w = Writer::pretty();
        self.write_json(&mut w);
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_share_cells_and_labels_separate_them() {
        let r = Registry::new();
        let a = r.counter("x.events");
        let b = r.counter("x.events");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);

        let l1 = r.counter_with("x.drops", &[("link", "a-b")]);
        let l2 = r.counter_with("x.drops", &[("link", "b-c")]);
        l1.inc();
        l1.inc();
        l2.inc();
        let snap = r.snapshot();
        assert_eq!(snap.counter("x.drops", &[("link", "a-b")]), Some(2));
        assert_eq!(snap.counter("x.drops", &[("link", "b-c")]), Some(1));
        assert_eq!(snap.counter_total("x.drops"), 3);
        // The registry sums the same cells without copying itself.
        assert_eq!(r.counter_total("x.drops"), 3);
        assert_eq!(r.counter_total("x.events"), 3);
        assert_eq!(r.counter_total("never.registered"), 0);
    }

    #[test]
    fn histogram_bucketing_is_inclusive_upper_bound() {
        let r = Registry::new();
        let h = r.histogram_with("h", &[], &[10, 20, 30]);
        for v in [5, 10, 11, 20, 25, 31, 1000] {
            h.observe(v);
        }
        let d = r.snapshot().histogram("h", &[]).unwrap().clone();
        // buckets: <=10 -> {5,10}, <=20 -> {11,20}, <=30 -> {25}, +Inf -> {31,1000}
        assert_eq!(d.counts, vec![2, 2, 1, 2]);
        assert_eq!(d.count, 7);
        assert_eq!(d.sum, 5 + 10 + 11 + 20 + 25 + 31 + 1000);
    }

    #[test]
    fn quantile_interpolates_and_clamps() {
        let r = Registry::new();
        let h = r.histogram_with("q", &[], &[100, 200, 300]);
        for _ in 0..50 {
            h.observe(50); // first bucket
        }
        for _ in 0..50 {
            h.observe(250); // third bucket
        }
        let d = r.snapshot().histogram("q", &[]).unwrap().clone();
        let p25 = d.quantile(0.25);
        assert!(p25 <= 100, "p25 {p25} should fall in the first bucket");
        let p75 = d.quantile(0.75);
        assert!(
            (200..=300).contains(&p75),
            "p75 {p75} should fall in the third bucket"
        );
        // Overflow observations clamp to the last bound.
        h.observe(10_000);
        let d = r.snapshot().histogram("q", &[]).unwrap().clone();
        assert_eq!(d.quantile(1.0), 300);
        // Empty histogram.
        let e = r.histogram_with("empty", &[], &[1]);
        let _ = e;
        assert_eq!(
            r.snapshot().histogram("empty", &[]).unwrap().quantile(0.5),
            0
        );
    }

    #[test]
    fn quantile_edge_cases() {
        // Empty histogram: every quantile is 0, including the extremes.
        let r = Registry::new();
        let _h = r.histogram_with("edge.empty", &[], &[10, 20]);
        let d = r.snapshot().histogram("edge.empty", &[]).unwrap().clone();
        assert_eq!(d.quantile(0.0), 0);
        assert_eq!(d.quantile(0.5), 0);
        assert_eq!(d.quantile(1.0), 0);

        // Single bucket holding every observation: all quantiles land
        // inside [0, bound], and q=1.0 reaches the bound.
        let h = r.histogram_with("edge.single", &[], &[100]);
        for _ in 0..10 {
            h.observe(50);
        }
        let d = r.snapshot().histogram("edge.single", &[]).unwrap().clone();
        assert!(d.quantile(0.0) <= 100);
        assert_eq!(d.quantile(1.0), 100);

        // q=0 and q=1 on a two-bucket spread: q=0 stays in the first
        // occupied bucket, q=1 in the last. Out-of-range q clamps.
        let h = r.histogram_with("edge.spread", &[], &[10, 20]);
        h.observe(5);
        h.observe(15);
        let d = r.snapshot().histogram("edge.spread", &[]).unwrap().clone();
        assert!(d.quantile(0.0) <= 10, "q=0 must stay in the first bucket");
        assert!(
            (10..=20).contains(&d.quantile(1.0)),
            "q=1 must land in the last occupied bucket"
        );
        assert_eq!(d.quantile(-3.0), d.quantile(0.0));
        assert_eq!(d.quantile(7.0), d.quantile(1.0));
    }

    #[test]
    fn prometheus_label_values_escape_specials() {
        let r = Registry::new();
        r.counter_with("esc.count", &[("msg", "say \"hi\" \\ line1\nline2")])
            .inc();
        let text = r.snapshot().prometheus();
        // Quotes, backslashes and newlines must come out escaped, or the
        // exposition line would be unparseable (a raw newline splits it).
        assert!(
            text.contains(r#"esc_count{msg="say \"hi\" \\ line1\nline2"} 1"#),
            "escaped label value missing from:\n{text}"
        );
        for line in text.lines() {
            assert!(
                !line.is_empty() || text.ends_with('\n'),
                "raw newline leaked into an exposition line"
            );
        }
    }

    #[test]
    fn replica_label_set_escapes_hostile_names() {
        // The per-replica scaling gauges carry operator-supplied chain
        // and VNF names in their {chain,replica,vnf} label set; quotes,
        // backslashes and newlines in those names must not break the
        // exposition.
        let r = Registry::new();
        r.gauge_with(
            "escape.replica_utilization_pm",
            &[
                ("chain", "de\"mo\\prod"),
                ("replica", "0"),
                ("vnf", "fw\nedge"),
            ],
        )
        .set(750);
        let text = r.snapshot().prometheus();
        assert!(
            text.contains(
                r#"escape_replica_utilization_pm{chain="de\"mo\\prod",replica="0",vnf="fw\nedge"} 750"#
            ),
            "escaped replica label set missing from:\n{text}"
        );
        assert_eq!(
            text.lines().filter(|l| !l.starts_with('#')).count(),
            1,
            "a raw newline split the exposition line:\n{text}"
        );
    }

    #[test]
    fn quantile_of_uniform_stream_is_roughly_linear() {
        let r = Registry::new();
        let bounds: Vec<u64> = (1..=100).map(|i| i * 10).collect();
        let h = r.histogram_with("u", &[], &bounds);
        for v in 1..=1000u64 {
            h.observe(v);
        }
        let d = r.snapshot().histogram("u", &[]).unwrap().clone();
        for (q, expect) in [(0.1, 100), (0.5, 500), (0.9, 900)] {
            let got = d.quantile(q);
            let err = (got as i64 - expect).unsigned_abs();
            assert!(err <= 20, "q{q}: got {got}, want ~{expect}");
        }
        assert!((d.mean() - 500.5).abs() < 1.0);
    }

    #[test]
    fn prometheus_text_format_shape() {
        let r = Registry::new();
        r.counter_with("net.drops", &[("link", "a-b")]).add(4);
        r.gauge("net.queue_depth").set(7);
        let h = r.histogram_with("rpc.latency_ns", &[], &[1000, 2000]);
        h.observe(500);
        h.observe(1500);
        h.observe(9999);
        let text = r.snapshot().prometheus();
        assert!(text.contains("# TYPE net_drops counter"));
        assert!(text.contains("net_drops{link=\"a-b\"} 4"));
        assert!(text.contains("# TYPE net_queue_depth gauge"));
        assert!(text.contains("net_queue_depth 7"));
        assert!(text.contains("rpc_latency_ns_bucket{le=\"1000\"} 1"));
        assert!(text.contains("rpc_latency_ns_bucket{le=\"2000\"} 2"));
        assert!(text.contains("rpc_latency_ns_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("rpc_latency_ns_sum 11999"));
        assert!(text.contains("rpc_latency_ns_count 3"));
    }

    #[test]
    fn json_snapshot_parses_and_carries_values() {
        let r = Registry::new();
        r.counter("a.count").add(5);
        r.histogram_with("a.lat", &[], &[10, 20]).observe(15);
        let snap = r.snapshot();
        let parsed = escape_json::Value::parse(&snap.to_json()).unwrap();
        let metrics = parsed.get("metrics").unwrap().as_arr().unwrap();
        assert_eq!(metrics.len(), 2);
        let counter = metrics
            .iter()
            .find(|m| m.get("type").unwrap().as_str() == Some("counter"))
            .unwrap();
        assert_eq!(counter.get("value").unwrap().as_u64(), Some(5));
        let hist = metrics
            .iter()
            .find(|m| m.get("type").unwrap().as_str() == Some("histogram"))
            .unwrap();
        assert_eq!(hist.get("count").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn a_series_keeps_its_slot_and_values_are_read_by_slot() {
        let r = Registry::new();
        let c = r.counter("work.done");
        let g = r.gauge_with("depth", &[("q", "1")]);
        c.add(2);
        let before = r.values();
        assert_eq!(before, [Scalar::Counter(2), Scalar::Gauge(0)]);
        // Looking a series up again registers nothing; a new one lands
        // behind the others whatever its name sorts like.
        r.counter("work.done").add(3);
        g.set(5);
        let h = r.histogram_with("a.lat", &[], &[100]);
        h.observe(50);
        h.observe(150);
        let (after, h) = (r.values(), Scalar::Histogram(2));
        assert_eq!(after, [Scalar::Counter(5), Scalar::Gauge(5), h]);
        assert_eq!(r.key(1), ("depth".into(), normalize_labels(&[("q", "1")])));
        assert_eq!(r.key(2).0, "a.lat");
        // Counters as increments, gauges absolute, histograms as new
        // observations; the slot the older vector lacks counts from 0.
        assert_eq!(delta(&before, &after), [(0, 3.0), (1, 5.0), (2, 2.0)]);
        assert!(delta(&after, &after).is_empty());
        // A gauge back at its old level has not moved.
        g.set(0);
        assert_eq!(delta(&before, &r.values()), [(0, 3.0), (2, 2.0)]);
    }

    #[test]
    #[should_panic(expected = "already registered with a different type")]
    fn one_name_under_two_types_is_refused() {
        let r = Registry::new();
        r.counter("x");
        r.gauge("x");
    }
}
