//! Time-series sampler: a bounded ring of periodic samples of the
//! registry taken on the caller's (virtual) clock.
//!
//! A sample is the registry's value vector ([`Registry::values`]): one
//! scalar per series slot, no name or label. The environment loop calls
//! [`Sampler::due`] / [`Sampler::record`] as virtual time advances; the
//! ring keeps the most recent `retention` samples and counts what it
//! drops (`telemetry.samples_evicted`), so truncation is observable
//! instead of silent. Sampling on the virtual clock keeps the series
//! deterministic for a fixed seed — two same-seed runs produce
//! byte-identical series documents.
//!
//! [`Sampler::series_json`] renders the ring delta-encoded: counters
//! and histograms as per-interval activity, gauges as end-of-interval
//! values. That is exactly the shape a terminal sparkline (`escape
//! top`) or a plotting pipeline wants, and it compresses long idle
//! stretches to runs of zeros.

use escape_json::Value;

use crate::{labels_json, Counter, Registry, Ring, Scalar};

/// Sampling cadence and ring capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplerConfig {
    /// Virtual nanoseconds between samples.
    pub period_ns: u64,
    /// How many samples the ring keeps before evicting the oldest.
    pub retention: usize,
}

impl Default for SamplerConfig {
    fn default() -> SamplerConfig {
        SamplerConfig {
            period_ns: 5_000_000, // 5 virtual milliseconds
            retention: 120,
        }
    }
}

/// Bounded ring of periodic registry samples.
pub struct Sampler {
    registry: Registry,
    period_ns: u64,
    /// `(at_ns, values by slot)`, oldest first.
    samples: Ring<(u64, Vec<Scalar>)>,
    evicted_ctr: Counter,
    next_due_ns: u64,
}

impl Sampler {
    /// Builds a sampler over `registry` and registers its eviction
    /// counter (`telemetry.samples_evicted`) there.
    pub fn new(registry: &Registry, cfg: SamplerConfig) -> Sampler {
        assert!(cfg.period_ns > 0, "sampler period must be positive");
        assert!(cfg.retention > 0, "sampler retention must be positive");
        Sampler {
            registry: registry.clone(),
            period_ns: cfg.period_ns,
            samples: Ring::new(cfg.retention),
            evicted_ctr: registry.counter("telemetry.samples_evicted"),
            next_due_ns: 0,
        }
    }

    /// The virtual timestamp at (or after) which the next sample is due.
    pub fn next_due_ns(&self) -> u64 {
        self.next_due_ns
    }

    /// True when virtual time has reached the next sampling point.
    pub fn due(&self, now_ns: u64) -> bool {
        now_ns >= self.next_due_ns
    }

    /// Samples the registry, evicting the oldest sample when the ring is
    /// full. The registry is read first, so a sample never includes the
    /// eviction it causes.
    pub fn record(&mut self, now_ns: u64) {
        let values = self.registry.values();
        if self.samples.push((now_ns, values)).is_some() {
            self.evicted_ctr.inc();
        }
        // Next sample lands on the next period boundary, not at
        // `now + period`: if the loop overshoots a boundary the
        // cadence stays aligned with the virtual clock grid.
        self.next_due_ns = now_ns - (now_ns % self.period_ns) + self.period_ns;
    }

    /// Delta-encoded series over the ring as a JSON document:
    ///
    /// ```json
    /// {
    ///   "period_ns": 5000000,
    ///   "evicted": 0,
    ///   "at_ns": [t0, t1, ...],
    ///   "series": [
    ///     {"name": "...", "labels": {...}, "kind": "counter",
    ///      "points": [d1, d2, ...]},
    ///     ...
    ///   ]
    /// }
    /// ```
    ///
    /// Each series carries one point per interval between consecutive
    /// samples (`at_ns.len() - 1` points). Counters and histograms are
    /// per-interval deltas (increments / observation counts); gauges
    /// are the value at the end of each interval. Series that never
    /// move over the whole window are omitted; a series that registered
    /// inside the window reads 0 before it existed (older samples are
    /// shorter vectors). Series come in name-then-labels order.
    pub fn series_json(&self) -> Value {
        let at_ns: Vec<u64> = self.samples.iter().map(|s| s.0).collect();
        let newest = self.samples.iter().next_back().map_or(&[][..], |s| &s.1);
        let mut moving = Vec::new();
        let mut column: Vec<Option<Scalar>> = Vec::new();
        for (slot, last) in newest.iter().enumerate() {
            column.clear();
            column.extend(self.samples.iter().map(|s| s.1.get(slot).copied()));
            let mut moved = false;
            let points: Vec<f64> = column
                .windows(2)
                .map(|w| match (w[1], w[1].and_then(|now| now.since(w[0]))) {
                    (_, Some(point)) => {
                        moved = true;
                        point
                    }
                    // Flat: a gauge holds its level, activity is none.
                    (Some(Scalar::Gauge(level)), None) => level as f64,
                    _ => 0.0,
                })
                .collect();
            if moved {
                moving.push((self.registry.key(slot), last.kind(), points));
            }
        }
        moving.sort_by(|a, b| a.0.cmp(&b.0));
        let series = moving
            .into_iter()
            .map(|((name, labels), kind, points)| {
                Value::obj()
                    .set("name", name)
                    .set("labels", labels_json(&labels))
                    .set("kind", kind)
                    .set("points", points)
            })
            .collect();
        Value::obj()
            .set("period_ns", self.period_ns)
            .set("evicted", self.samples.evicted())
            .set("at_ns", at_ns)
            .set("series", Value::Arr(series))
    }

    /// The retained value vectors, oldest first.
    #[cfg(test)]
    fn retained(&self) -> impl Iterator<Item = &[Scalar]> {
        self.samples.iter().map(|s| &s.1[..])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_evicts_oldest_and_counts_it() {
        let r = Registry::new();
        let counters: Vec<Counter> = (0..299)
            .map(|i| r.counter_with("x.events", &[("shard", &i.to_string())]))
            .collect();
        let mut s = Sampler::new(&r, SamplerConfig::default());
        for i in 0..1_000u64 {
            counters[i as usize % counters.len()].inc();
            s.record(i * 5_000_000);
        }
        // A sample is one scalar per series (299 + the eviction counter)
        // and nothing else: no key, no label.
        assert_eq!(s.retained().count(), 120);
        assert!(s.retained().all(|values| values.len() == 300));
        assert_eq!(r.counter_total("telemetry.samples_evicted"), 880);
        // The surviving window starts at sample 880.
        let doc = s.series_json();
        assert_eq!(doc.get("evicted").unwrap().as_u64(), Some(880));
        let at = doc.get("at_ns").unwrap().as_arr().unwrap();
        assert_eq!((at.len(), at[0].as_u64()), (120, Some(880 * 5_000_000)));
    }

    #[test]
    fn due_follows_period_boundaries() {
        let r = Registry::new();
        let mut s = Sampler::new(
            &r,
            SamplerConfig {
                period_ns: 1_000,
                retention: 8,
            },
        );
        assert!(s.due(0));
        s.record(0);
        assert!(!s.due(999));
        assert!(s.due(1_000));
        // Overshooting a boundary re-aligns to the grid rather than
        // drifting by the overshoot.
        s.record(1_700);
        assert_eq!(s.next_due_ns(), 2_000);
    }

    #[test]
    fn series_are_delta_encoded_and_quiet_metrics_are_omitted() {
        let r = Registry::new();
        let c = r.counter("pkts.rx");
        let g = r.gauge("queue.depth");
        let _idle = r.counter("never.moves");
        let h = r.histogram_with("lat", &[], &[100]);
        let mut s = Sampler::new(
            &r,
            SamplerConfig {
                period_ns: 1_000,
                retention: 8,
            },
        );
        s.record(0);
        c.add(3);
        g.set(2);
        h.observe(50);
        s.record(1_000);
        c.add(1);
        g.set(1);
        s.record(2_000);

        let doc = s.series_json();
        let at = doc.get("at_ns").unwrap().as_arr().unwrap();
        assert_eq!(at.len(), 3);
        let series = doc.get("series").unwrap().as_arr().unwrap();
        let find = |name: &str| {
            series
                .iter()
                .find(|e| e.get("name").unwrap().as_str() == Some(name))
        };
        let pts = |name: &str| -> Vec<f64> {
            find(name)
                .unwrap()
                .get("points")
                .unwrap()
                .as_arr()
                .unwrap()
                .iter()
                .map(|p| p.as_f64().unwrap())
                .collect()
        };
        assert_eq!(pts("pkts.rx"), vec![3.0, 1.0]);
        assert_eq!(pts("queue.depth"), vec![2.0, 1.0]);
        assert_eq!(pts("lat"), vec![1.0, 0.0]);
        assert!(find("never.moves").is_none(), "flat series are omitted");
    }
}
