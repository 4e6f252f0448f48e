//! Lightweight span tracing.
//!
//! A [`Tracer`] records named spans with explicit, caller-supplied
//! timestamps — in ESCAPE-RS that is the netem virtual clock, so traces
//! of a simulation are bit-identical across runs with the same seed.
//! Spans nest: the span open at `enter` time becomes the parent. Every
//! finished span feeds two registry metrics,
//! `span.duration_ns{span="<name>"}` (histogram) and
//! `span.count{span="<name>"}` (counter), so snapshots and reports see
//! span activity without walking the trace.
//!
//! The trace is a bounded history: the newest `cap` spans are retained
//! and what falls off is counted (`telemetry.spans_evicted`, registered
//! on the first eviction). A span's index is its all-time sequence
//! number, so `parent` may name a span that is no longer retained, and
//! a span evicted while open still feeds the two metrics when it exits.

use crate::{Counter, Histogram, Registry, Ring, DURATION_BOUNDS_NS};
use escape_json::Writer;
use std::collections::BTreeMap;

/// One span in a [`Tracer`]'s trace buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    pub name: String,
    /// All-time index of the parent span, if nested.
    pub parent: Option<usize>,
    pub start_ns: u64,
    /// `None` while the span is still open.
    pub end_ns: Option<u64>,
}

impl SpanRecord {
    pub fn duration_ns(&self) -> Option<u64> {
        self.end_ns.map(|e| e.saturating_sub(self.start_ns))
    }
}

/// Handle returned by [`Tracer::enter`]; pass back to [`Tracer::exit`].
/// Deliberately not `Copy`/`Clone`: each span ends exactly once. It
/// carries what `exit` needs even when the record has been evicted.
#[derive(Debug)]
#[must_use = "exit the span with Tracer::exit"]
pub struct SpanHandle {
    idx: usize,
    name: String,
    start_ns: u64,
}

/// Span recorder; one per simulation environment.
pub struct Tracer {
    registry: Registry,
    records: Ring<SpanRecord>,
    stack: Vec<usize>,
    /// Per span name, the metric pair its exits feed — looked up once,
    /// on the name's first exit, so a span that never finished has no
    /// series.
    metrics: BTreeMap<String, (Histogram, Counter)>,
    evicted_ctr: Option<Counter>,
}

impl Tracer {
    /// A tracer retaining the newest `cap` spans.
    pub fn new(registry: Registry, cap: usize) -> Tracer {
        assert!(cap > 0, "span history capacity must be positive");
        Tracer {
            registry,
            records: Ring::new(cap),
            stack: Vec::new(),
            metrics: BTreeMap::new(),
            evicted_ctr: None,
        }
    }

    /// Opens a span at `now_ns`, nested under the currently open span.
    pub fn enter(&mut self, name: &str, now_ns: u64) -> SpanHandle {
        let idx = self.records.seq_end() as usize;
        let evicted = self.records.push(SpanRecord {
            name: name.to_string(),
            parent: self.stack.last().copied(),
            start_ns: now_ns,
            end_ns: None,
        });
        if evicted.is_some() {
            self.evicted_ctr
                .get_or_insert_with(|| self.registry.counter("telemetry.spans_evicted"))
                .inc();
        }
        self.stack.push(idx);
        SpanHandle {
            idx,
            name: name.to_string(),
            start_ns: now_ns,
        }
    }

    /// Closes a span at `now_ns` and records its duration metrics.
    /// Spans may be exited out of LIFO order (interleaved operations);
    /// parentage is decided at `enter` time.
    pub fn exit(&mut self, handle: SpanHandle, now_ns: u64) {
        if let Some(pos) = self.stack.iter().rposition(|&i| i == handle.idx) {
            self.stack.remove(pos);
        }
        let end_ns = now_ns.max(handle.start_ns);
        if let Some(rec) = self.records.get_mut(handle.idx as u64) {
            debug_assert!(rec.end_ns.is_none(), "span {:?} exited twice", rec.name);
            rec.end_ns = Some(end_ns);
        }
        let registry = &self.registry;
        let metrics = self.metrics.entry(handle.name);
        let (duration, count) = metrics.or_insert_with_key(|name| {
            let span = [("span", name.as_str())];
            (
                registry.histogram_with("span.duration_ns", &span, DURATION_BOUNDS_NS),
                registry.counter_with("span.count", &span),
            )
        });
        duration.observe(end_ns - handle.start_ns);
        count.inc();
    }

    /// Retained spans (open and closed), in enter order.
    pub fn records(&self) -> impl Iterator<Item = &SpanRecord> {
        self.records.iter()
    }

    /// Retained closed spans with the given name.
    pub fn finished<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a SpanRecord> + 'a {
        self.records()
            .filter(move |r| r.name == name && r.end_ns.is_some())
    }

    /// Nesting depth of the currently open span chain.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// JSON dump of the retained trace, `{"spans": [...]}`: one object
    /// per span with name, parent index, timestamps and duration.
    pub fn write_json(&self, w: &mut Writer) {
        let opt = |w: &mut Writer, key: &str, x: Option<u64>| match x {
            Some(x) => w.key(key).uint(x),
            None => w.key(key).null(),
        };
        w.begin_object();
        w.key("spans").begin_array();
        for r in self.records() {
            w.begin_object();
            w.key("name").str(&r.name);
            opt(w, "parent", r.parent.map(|p| p as u64));
            w.key("start_ns").uint(r.start_ns);
            opt(w, "end_ns", r.end_ns);
            opt(w, "duration_ns", r.duration_ns());
            w.end_object();
        }
        w.end_array();
        w.end_object();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_record_durations() {
        let reg = Registry::new();
        let mut t = Tracer::new(reg.clone(), 64);

        let outer = t.enter("chain_setup", 1_000);
        assert_eq!(t.depth(), 1);
        let inner = t.enter("mapping", 2_000);
        assert_eq!(t.records().nth(1).unwrap().parent, Some(0));
        t.exit(inner, 5_000);
        let inner2 = t.enter("netconf", 5_000);
        t.exit(inner2, 9_000);
        t.exit(outer, 10_000);
        assert_eq!(t.depth(), 0);

        assert_eq!(t.finished("chain_setup").count(), 1);
        let spans: Vec<&SpanRecord> = t.records().collect();
        assert_eq!(spans[0].duration_ns(), Some(9_000));
        assert_eq!(spans[2].parent, Some(0));

        let snap = reg.snapshot();
        assert_eq!(snap.counter("span.count", &[("span", "mapping")]), Some(1));
        let h = snap
            .histogram("span.duration_ns", &[("span", "chain_setup")])
            .unwrap();
        assert_eq!(h.count, 1);
        assert_eq!(h.sum, 9_000);
    }

    #[test]
    fn out_of_order_exit_is_tolerated() {
        let reg = Registry::new();
        let mut t = Tracer::new(reg, 64);
        let a = t.enter("a", 0);
        let b = t.enter("b", 10);
        t.exit(a, 20); // a closes before its child b
        t.exit(b, 30);
        assert_eq!(t.depth(), 0);
        let spans: Vec<&SpanRecord> = t.records().collect();
        assert_eq!(spans[0].duration_ns(), Some(20));
        assert_eq!(spans[1].duration_ns(), Some(20));
        assert_eq!(spans[1].parent, Some(0));
    }

    #[test]
    fn trace_json_dump_has_parentage() {
        let reg = Registry::new();
        let mut t = Tracer::new(reg, 64);
        let a = t.enter("deploy", 100);
        let b = t.enter("rpc", 200);
        t.exit(b, 300);
        t.exit(a, 400);
        let mut w = Writer::compact();
        t.write_json(&mut w);
        let v = escape_json::Value::parse(&w.finish()).unwrap();
        let spans = v.get("spans").unwrap().as_arr().unwrap();
        assert_eq!(spans.len(), 2);
        assert!(spans[0].get("parent").unwrap().is_null());
        assert_eq!(spans[1].get("parent").unwrap().as_u64(), Some(0));
        assert_eq!(spans[1].get("duration_ns").unwrap().as_u64(), Some(100));
    }

    #[test]
    fn history_is_bounded_and_evicted_spans_still_count() {
        let reg = Registry::new();
        let mut t = Tracer::new(reg.clone(), 8);
        // 50 outer spans, each closed only after its inner span: by the
        // time an early outer span exits, its record is long gone.
        let mut open = Vec::new();
        for i in 0..50u64 {
            open.push(t.enter("outer", i * 10));
            let inner = t.enter("inner", i * 10 + 1);
            t.exit(inner, i * 10 + 4);
        }
        assert_eq!(reg.counter_total("span.count"), 50);
        assert_eq!(reg.counter_total("telemetry.spans_evicted"), 92);
        for (i, h) in open.into_iter().enumerate() {
            t.exit(h, 1_000 + i as u64);
        }
        assert_eq!((t.depth(), t.records().count()), (0, 8));
        assert_eq!(reg.counter_total("span.count"), 100);
        // Every outer span observed its own duration, evicted or not:
        // span i ran from 10 i to 1 000 + i.
        let snap = reg.snapshot();
        let outer = snap.histogram("span.duration_ns", &[("span", "outer")]);
        let total: u64 = (0..50).map(|i| 1_000 + i - i * 10).sum();
        assert_eq!(outer.map(|h| (h.count, h.sum)), Some((50, total)));
        // `parent` keeps the all-time index, so it may name a span the
        // ring no longer holds.
        let last = t.records().last().unwrap();
        assert_eq!((last.name.as_str(), last.parent), ("inner", Some(98)));
    }
}
