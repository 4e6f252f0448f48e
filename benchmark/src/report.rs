//! Turns a run into named metrics and prints them: one line per metric
//! for people, then the one-line JSON result the driver reads.

use crate::bench::SocketReport;
use crate::calib::{median, quantile};
use crate::daemon::host_cpus;
use crate::gen::{Verb, Workload};
use crate::Args;
use escape_json::Value;

#[derive(Default)]
pub struct Report {
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }
}

/// The six end-to-end metrics (`--trace 0`). All timings calibrated.
pub fn end_to_end(out: &mut Report, s: &SocketReport) {
    out.put("setup_s", median(&s.setup_s), "s");
    out.put("requests_per_s", s.scored.requests_per_s(), "1/s");
    out.put("sim_frames_per_s", s.sim_frames_per_s(), "1/s");
    out.put("redeploy_p50_ms", median(&s.scored.redeploy_ms), "ms");
    out.put("poll_p50_ms", median(&s.scored.poll_ms), "ms");
    out.put("peak_rss_mb", s.peak_rss_mb, "MB");
}

/// What the host's clock did during the run: uncalibrated twins of two
/// metrics and the reference-kernel timings.
pub fn host_metrics(s: &SocketReport) -> Vec<(&'static str, f64, &'static str)> {
    vec![
        ("host.cpus", host_cpus() as f64, "count"),
        ("host.ref_ms_p50", median(&s.cal.samples), "ms"),
        ("host.ref_ms_min", quantile(&s.cal.samples, 0.0), "ms"),
        (
            "host.raw_requests_per_s",
            s.scored.raw_requests_per_s(),
            "1/s",
        ),
        (
            "host.raw_redeploy_p50_ms",
            median(&s.scored.raw_redeploy_ms),
            "ms",
        ),
    ]
}

/// Prints the human-readable report and the result line. Returns
/// whether the run was correct.
pub fn print(w: Workload, a: &Args, pinned: Option<usize>, s: &SocketReport, out: &Report) -> bool {
    let correct = s.tally.failed == 0 && s.missed.is_empty();
    println!(
        "workload {} seed {} seconds {} trace {}",
        w.name(),
        a.seed,
        a.seconds,
        u8::from(a.trace)
    );
    match pinned {
        Some(cpu) => println!("generator and daemons pinned to cpu {cpu}"),
        None => println!("not pinned: sched_setaffinity refused, expect noisier timings"),
    }
    println!(
        "plan: {} set-ups, {} warm-up + {} scored rounds, {} recovery trials; truncated: {}",
        s.plan.setups, s.plan.warm, s.plan.scored, s.plan.recoveries, s.truncated
    );
    println!(
        "virtual_digest {:016x}  requests attempted {} failed {}",
        s.checkpoint.virtual_digest, s.tally.attempted, s.tally.failed
    );
    for f in &s.tally.first_failures {
        println!("FAILED REQUEST: {f}");
    }
    for m in &s.missed {
        println!("CHECK MISSED: {m}");
    }
    let phases: Vec<String> = s
        .phase_s
        .iter()
        .map(|(n, t)| format!("{n} {t:.1}s"))
        .collect();
    println!("phases: {}", phases.join(", "));
    let list = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!(
        "set-ups (s): {}; recovery trials (s): {}",
        list(&s.setup_s),
        list(&s.recover_s)
    );
    println!(
        "virtual clock: {:.2} ms a scored round (longest {:.2}); round.drift {:.3}",
        median(&s.scored.round_virtual_ms),
        quantile(&s.scored.round_virtual_ms, 1.0),
        s.scored.drift()
    );
    println!("verb            calls    p50_ms   share");
    for v in Verb::ALL {
        if !s.scored.verb(v).is_empty() {
            println!(
                "{:<12} {:>8} {:>9.3} {:>7.3}",
                v.name(),
                s.scored.verb(v).len(),
                s.scored.p50(v),
                s.scored.share(v)
            );
        }
    }
    // Raw twins of the calibrated metrics, and the clock they were
    // divided by (`selfcheck` reads these lines). A trace run prints
    // them among its per-layer metrics.
    if !a.trace {
        for (name, value, unit) in host_metrics(s) {
            println!("{name:<44} {value:>16.4} {unit}");
        }
    }
    let mut metrics = Value::obj();
    for (name, value, unit) in &out.metrics {
        println!("{name:<44} {value:>16.4} {unit}");
        metrics = metrics.set(name, Value::obj().set("value", *value).set("unit", *unit));
    }
    let line = Value::obj()
        .set("correct", correct)
        .set("attempted", s.tally.attempted)
        .set("failed", s.tally.failed)
        .set("metrics", metrics);
    println!("{line}");
    correct
}
