//! The traced run (`--trace 1`): replays the workload's exact script in
//! process with a span at each layer boundary — on in every other scored
//! round, so the rounds without say what tracing costs — and assembles
//! every per-layer metric. End-to-end metrics never come from here.

use crate::bench::{checkpoint, counters, Checkpoint, Counts, SocketReport};
use crate::calib::{median, paired_overhead, quantile, Calibrator};
use crate::gen::{prelude, script, Plan, Substrate, Verb, Workload};
use crate::probes;
use crate::replay::{InProcess, SpanLog};
use crate::report::{host_metrics, Report};
use crate::run::{run_rounds, Scored, Tally};
use std::path::Path;

/// The span names whose self time is reported, as `trace.<name>.self_ms`.
const SPAN_NAMES: [&str; 12] = [
    "request",
    "ctl.proto_decode",
    "ctl.wal_intent",
    "ctl.execute.deploy",
    "ctl.execute.teardown",
    "ctl.execute.scale",
    "ctl.execute.traffic",
    "ctl.execute.run_for",
    "ctl.execute.fault_heal",
    "ctl.execute.read",
    "ctl.wal_commit",
    "ctl.proto_encode",
];

/// The registry counters reported as exact counts over the scored rounds.
const COUNTED: [&str; 13] = [
    "netem.events",
    "netem.frames_delivered",
    "netem.ctrl_messages",
    "openflow.cache_hits",
    "openflow.cache_misses",
    "openflow.cache_invalidations",
    "pox.flow_mods",
    "pox.packet_ins",
    "netconf.rpcs_sent",
    "netconf.rpc_retries",
    "orch.mapping_attempts",
    "escape.recoveries",
    "escape.journal_evicted",
];

pub struct Replay {
    pub tally: Tally,
    pub scored: Scored,
    pub counts: Counts,
    pub checkpoint: Checkpoint,
    pub reply_bytes: u64,
    pub wal_bytes: u64,
    /// Per scored round: were spans recorded?
    pub traced: Vec<bool>,
    /// Calibrated self time per span name, summed over the traced ones
    /// of the scored rounds.
    pub self_ms: Vec<(&'static str, f64)>,
}

impl Replay {
    /// Raw times of the scored rounds with spans and without, paired:
    /// `(traced[i], plain[i])` ran next to each other.
    fn round_pairs(&self) -> (Vec<f64>, Vec<f64>) {
        let raw = &self.scored.raw_round_ms;
        let side = |on: bool| -> Vec<f64> {
            raw.chunks_exact(2)
                .zip(self.traced.chunks_exact(2))
                .map(|(ms, t)| if t[0] == on { ms[0] } else { ms[1] })
                .collect()
        };
        (side(true), side(false))
    }
}

/// Replays set-up, prelude, warm-up and scored rounds of `plan` in
/// process. With `trace_file`, spans are recorded and written there:
/// through set-up and warm-up, then in every other scored round.
pub fn replay(
    w: Workload,
    seed: u64,
    plan: &Plan,
    cal: &mut Calibrator,
    dir: &Path,
    trace_file: Option<&Path>,
) -> Result<Replay, String> {
    let sub = Substrate::generate(seed, w.observed());
    let mut env = InProcess::new(
        &sub,
        seed,
        w.observability(),
        &dir.join("replay-state"),
        trace_file.is_some(),
    )?;
    let mut tally = Tally::default();
    for c in sub.base_chains() {
        tally.call(&mut env, &c.deploy())?;
    }
    for req in prelude(w) {
        tally.call(&mut env, &req)?;
    }
    let rounds = script(w, &sub, plan.rounds());
    let (warm, timed) = rounds.split_at(plan.warm as usize);
    run_rounds(&mut env, warm, cal, &mut tally, None, &|| false)?;
    let before = counters(&mut env, &mut tally)?;
    let (bytes0, wal0) = (env.reply_bytes, env.wal_len());
    let first_request = env.spans.as_ref().map_or(0, |l| l.request);
    let mut scored = Scored::default();
    // Adjacent rounds pair up, one with spans and one without, and the
    // order alternates (on off, off on, on off, …) so that neither side
    // always runs first.
    let traced: Vec<bool> = (0..timed.len())
        .map(|i| trace_file.is_some() && matches!(i % 4, 0 | 3))
        .collect();
    for (round, on) in timed.iter().zip(&traced) {
        env.record_spans(*on);
        let one = std::slice::from_ref(round);
        run_rounds(&mut env, one, cal, &mut tally, Some(&mut scored), &|| false)?;
    }
    let (reply_bytes, wal_bytes) = (env.reply_bytes - bytes0, env.wal_len() - wal0);
    let last_request = env.spans.as_ref().map_or(0, |l| l.request);
    let cp = checkpoint(&mut env, &mut tally)?;

    let mut self_ms = Vec::new();
    if let (Some(log), Some(file)) = (env.spans.as_ref(), trace_file) {
        self_ms = calibrated_self_ms(log, first_request, last_request, timed, &scored);
        log.write_chrome(file)
            .map_err(|e| format!("write {}: {e}", file.display()))?;
    }
    Ok(Replay {
        counts: Counts::between(&before, &cp.totals),
        tally,
        scored,
        checkpoint: cp,
        reply_bytes,
        wal_bytes,
        traced,
        self_ms,
    })
}

/// Self time per span name over the scored requests, each span divided
/// by the calibration factor of the round its request belongs to.
fn calibrated_self_ms(
    log: &SpanLog,
    first_request: u64,
    last_request: u64,
    rounds: &[crate::gen::Round],
    scored: &Scored,
) -> Vec<(&'static str, f64)> {
    // Request ids are consecutive; round r owns the next ops.len() ids.
    let mut factor_of = Vec::with_capacity((last_request - first_request) as usize);
    for (round, (raw, cal)) in rounds
        .iter()
        .zip(scored.raw_round_ms.iter().zip(&scored.round_ms))
    {
        factor_of.extend(std::iter::repeat_n(raw / cal, round.ops.len()));
    }
    let own = log.own_ns();
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    for (span, ns) in log.spans.iter().zip(own) {
        if span.request <= first_request || span.request > last_request {
            continue;
        }
        let k = factor_of[(span.request - first_request - 1) as usize];
        let ms = ns as f64 / 1e6 / k;
        match out.iter_mut().find(|(n, _)| *n == span.name) {
            Some((_, total)) => *total += ms,
            None => out.push((span.name, ms)),
        }
    }
    out
}

/// Runs the replays and the probes and fills `out` with every per-layer
/// metric, in `BENCHMARK.json` order. Returns what the oracle missed.
pub fn per_layer(
    out: &mut Report,
    w: Workload,
    seed: u64,
    s: &SocketReport,
    dir: &Path,
) -> Result<Vec<String>, String> {
    let mut missed = Vec::new();
    let mut cal = Calibrator::new();
    let started = std::time::Instant::now();
    let trace_file = Path::new("target/benchmark").join(format!("trace-{}.json", w.name()));
    let traced = replay(w, seed, &s.plan, &mut cal, dir, Some(&trace_file))?;
    println!(
        "trace written to {} (the replay took {:.1}s)",
        trace_file.display(),
        started.elapsed().as_secs_f64()
    );

    // The socket run and the replay executed the same requests on the
    // same seed: everything on the virtual clock must agree exactly.
    if traced.tally.failed > 0 {
        missed.push(format!("replay: {:?}", traced.tally.first_failures));
    }
    if traced.checkpoint.virtual_digest != s.checkpoint.virtual_digest {
        missed.push(format!(
            "replay: virtual_digest {:016x} differs from the socket run's {:016x}",
            traced.checkpoint.virtual_digest, s.checkpoint.virtual_digest
        ));
    }
    for c in COUNTED {
        if traced.counts.get(c) != s.counts.get(c) {
            missed.push(format!(
                "replay: {c} {} differs from the socket run's {}",
                traced.counts.get(c),
                s.counts.get(c)
            ));
        }
    }

    // 1. Exact counts over the scored rounds.
    let c = &s.counts;
    for name in COUNTED {
        out.put(name, c.get(name) as f64, "count");
    }
    out.put("netem.drops", c.drops() as f64, "count");
    out.put(
        "netem.events_per_frame",
        c.get("netem.events") as f64 / c.get("netem.frames_delivered").max(1) as f64,
        "ratio",
    );
    out.put("openflow.cache_hit_ratio", c.hit_ratio(), "ratio");
    out.put(
        "telemetry.samples_evicted",
        c.get("telemetry.samples_evicted") as f64,
        "count",
    );

    // 2. Seen by the generator on the socket.
    for v in Verb::ALL {
        if v == Verb::Fault || v == Verb::Heal {
            continue;
        }
        let calls = s.scored.verb(v);
        let p50 = if calls.is_empty() { 0.0 } else { median(calls) };
        out.put(format!("ctl.verb.{}.p50_ms", v.name()), p50, "ms");
        out.put(
            format!("ctl.verb.{}.share", v.name()),
            s.scored.share(v),
            "ratio",
        );
    }
    out.put(
        "ctl.verb.metrics_json.p50_ms",
        median(&s.metrics_json_ms),
        "ms",
    );
    out.put(
        "ctl.verb.fingerprint.p50_ms",
        median(&s.fingerprint_ms),
        "ms",
    );
    out.put("ctl.verb.journal.p50_ms", median(&s.journal_ms), "ms");
    out.put(
        "ctl.redeploy.p90_ms",
        quantile(&s.scored.redeploy_ms, 0.9),
        "ms",
    );
    out.put("ctl.poll.p90_ms", quantile(&s.scored.poll_ms, 0.9), "ms");
    out.put("recover_s", median(&s.recover_s), "s");
    out.put("ctl.reply_bytes", traced.reply_bytes as f64, "B");
    out.put("ctl.wal_bytes", traced.wal_bytes as f64, "B");
    out.put("ctl.state_dir_bytes", s.state_bytes as f64, "B");
    out.put("ctl.watch_frames", s.watch_frames as f64, "count");
    out.put("ctl.watch_lagged", s.watch_lagged as f64, "count");
    out.put("daemon.cpu_s", s.cpu_s, "s");
    out.put("daemon.ctx_switches", s.ctx_switches as f64, "count");
    out.put("daemon.rss_kb_per_round", s.rss_kb_per_round, "kB");
    out.put("round.drift", s.scored.drift(), "ratio");
    for (name, value, unit) in host_metrics(s) {
        out.put(name, value, unit);
    }

    // 3. The traced replay: self time per layer boundary, per round.
    let rounds = traced.traced.iter().filter(|on| **on).count() as f64;
    for name in SPAN_NAMES {
        let ms = traced
            .self_ms
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, ms)| *ms);
        out.put(format!("trace.{name}.self_ms"), ms / rounds, "ms");
    }
    let (with, without) = traced.round_pairs();
    let (share, [q1, q3]) = paired_overhead(&with, &without);
    // A span costs well under a microsecond and a request milliseconds,
    // so on a host whose speed changes several times a second this
    // difference is usually inside its own spread: say so.
    println!(
        "tracing overhead over {} round pairs: median {share:+.4}, quartiles {q1:+.4} {q3:+.4}{}",
        with.len(),
        if q1 <= 0.0 && 0.0 <= q3 {
            " — unresolved, the quartiles straddle zero"
        } else {
            ""
        }
    );
    out.put("trace.overhead_share", share, "ratio");

    // 4. Probes.
    let probes_started = std::time::Instant::now();
    probes::run_all(out, &mut cal, seed, dir)?;
    println!("probes took {:.1}s", probes_started.elapsed().as_secs_f64());
    Ok(missed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::oracle;

    /// Every workload's full script at `--seconds 25` runs without one
    /// failed request, and the oracle's arithmetic and mechanism checks
    /// hold, whatever the seed picked.
    fn full_scripts_run_clean(seed: u64) {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("target/test-seed-{seed}"));
        let mut cal = Calibrator::new();
        for w in Workload::ALL {
            let plan = Plan::new(w, 25, false);
            let r = replay(w, seed, &plan, &mut cal, &dir, None).unwrap();
            assert_eq!(
                r.tally.failed,
                0,
                "{} seed {seed}: {:?}",
                w.name(),
                r.tally.first_failures
            );
            let sub = Substrate::generate(seed, w.observed());
            let rounds = script(w, &sub, plan.rounds());
            let missed = oracle(w, &rounds, &r.checkpoint, &r.counts, &r.scored);
            assert!(missed.is_empty(), "{} seed {seed}: {missed:?}", w.name());
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn full_scripts_run_clean_on_seed_7() {
        full_scripts_run_clean(7);
    }

    #[test]
    fn full_scripts_run_clean_on_seed_11() {
        full_scripts_run_clean(11);
    }
}
