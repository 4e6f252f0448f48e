//! One end-to-end run: set-ups, warm-up, scored rounds, checkpoint and
//! recovery trials against the real `escaped`, plus the output oracle
//! both targets are checked with.

use crate::calib::{quantile, Calibrator};
use crate::daemon::{copy_state, dir_bytes, proc_stat, sig, RunDir, Socket};
use crate::gen::{
    prelude, script, Plan, Round, Substrate, Verb, Workload, BASE_CHAINS, CHURN_DRAIN_MS,
    CHURN_STREAM_FRAMES, FRAME_INTERVAL_US,
};
use crate::run::{run_rounds, Scored, Tally, Target};
use escape_ctl::proto::{CtlEvent, CtlRequest, CtlResponse, MetricsFormat, StatusInfo};
use escape_ctl::CtlClient;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sums a Prometheus exposition by metric name (labels folded).
pub fn prom_totals(text: &str) -> BTreeMap<String, u64> {
    let mut totals = BTreeMap::new();
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let name = line.split(['{', ' ']).next().unwrap_or("");
        if let Some(v) = line.rsplit(' ').next().and_then(|v| v.parse::<u64>().ok()) {
            *totals.entry(name.to_string()).or_insert(0) += v;
        }
    }
    totals
}

/// FNV-1a, 64 bit.
fn fnv(hash: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *hash ^= u64::from(*b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Everything read from a target while it sits idle after the scored
/// rounds.
pub struct Checkpoint {
    pub status: StatusInfo,
    pub totals: BTreeMap<String, u64>,
    /// Hash of the fingerprint, the `status` document and every metrics
    /// series outside `wallclock.*`: equal across runs with the same
    /// flags, and between the socket run and the in-process replay.
    pub virtual_digest: u64,
}

fn metrics_text(t: &mut dyn Target, tally: &mut Tally) -> Result<String, String> {
    let req = CtlRequest::Metrics {
        format: MetricsFormat::Prometheus,
    };
    match tally.call(t, &req)? {
        CtlResponse::Metrics { body, .. } => Ok(body),
        other => Err(format!("metrics answered {other:?}")),
    }
}

pub fn counters(t: &mut dyn Target, tally: &mut Tally) -> Result<BTreeMap<String, u64>, String> {
    Ok(prom_totals(&metrics_text(t, tally)?))
}

pub fn checkpoint(t: &mut dyn Target, tally: &mut Tally) -> Result<Checkpoint, String> {
    let status = match tally.call(t, &CtlRequest::Status)? {
        CtlResponse::Status(s) => s,
        other => return Err(format!("status answered {other:?}")),
    };
    let metrics = metrics_text(t, tally)?;
    let fingerprint = match tally.call(t, &CtlRequest::Fingerprint)? {
        CtlResponse::Fingerprint { digest } => digest,
        other => return Err(format!("fingerprint answered {other:?}")),
    };
    let mut h = 0xcbf2_9ce4_8422_2325;
    fnv(&mut h, fingerprint.as_bytes());
    fnv(
        &mut h,
        CtlResponse::Status(status.clone()).encode().as_bytes(),
    );
    for line in metrics.lines().filter(|l| !l.contains("wallclock_")) {
        fnv(&mut h, line.as_bytes());
    }
    Ok(Checkpoint {
        status,
        totals: prom_totals(&metrics),
        virtual_digest: h,
    })
}

/// Exact counts over the scored rounds, by the registry's metric names.
pub struct Counts(pub BTreeMap<String, u64>);

impl Counts {
    pub fn between(before: &BTreeMap<String, u64>, after: &BTreeMap<String, u64>) -> Counts {
        Counts(
            after
                .iter()
                .map(|(k, v)| {
                    (
                        k.clone(),
                        v.saturating_sub(before.get(k).copied().unwrap_or(0)),
                    )
                })
                .collect(),
        )
    }

    /// Delta of one registry metric (`netem.events`).
    pub fn get(&self, name: &str) -> u64 {
        let prom: String = name
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        self.0.get(&prom).copied().unwrap_or(0)
    }

    pub fn drops(&self) -> u64 {
        self.0
            .iter()
            .filter(|(k, _)| k.starts_with("netem_drops_"))
            .map(|(_, v)| v)
            .sum()
    }

    pub fn hit_ratio(&self) -> f64 {
        let (h, m) = (
            self.get("openflow.cache_hits"),
            self.get("openflow.cache_misses"),
        );
        h as f64 / (h + m).max(1) as f64
    }
}

/// Checks a finished script against its own arithmetic and proves the
/// workload's mechanism ran. Returns what missed, by name.
pub fn oracle(
    w: Workload,
    rounds: &[Round],
    cp: &Checkpoint,
    counts: &Counts,
    scored: &Scored,
) -> Vec<String> {
    let mut missed = Vec::new();
    let mut check = |ok: bool, what: String| {
        if !ok {
            missed.push(what);
        }
    };
    let redeploys: u64 = rounds.iter().map(|r| r.redeploys).sum();
    let s = &cp.status;
    check(
        s.chains.len() == BASE_CHAINS,
        format!("live chains {} != {BASE_CHAINS}", s.chains.len()),
    );
    check(
        s.deploys == BASE_CHAINS as u64 + redeploys,
        format!(
            "deploys {} != {}",
            s.deploys,
            BASE_CHAINS as u64 + redeploys
        ),
    );
    check(
        s.teardowns == redeploys,
        format!("teardowns {} != {redeploys}", s.teardowns),
    );
    check(
        s.deploy_failures + s.recovery_failures + s.rollbacks + s.admission_rejected == 0,
        format!("failure counters not zero: {s:?}"),
    );
    check(!s.restarted, "status says restarted".into());
    let run_for = scored.share(Verb::RunFor);
    match w {
        Workload::DataplaneBare => {
            check(
                counts.hit_ratio() >= 0.99,
                format!("cache hit ratio {:.4} < 0.99", counts.hit_ratio()),
            );
            check(
                run_for >= 0.70,
                format!("run_for share {run_for:.3} < 0.70"),
            );
            check(s.recoveries == 0, format!("recoveries {}", s.recoveries));
        }
        Workload::DataplaneObserved => {
            check(s.recoveries == 0, format!("recoveries {}", s.recoveries));
        }
        Workload::LifecycleChurn => {
            check(
                run_for <= 0.15,
                format!("run_for share {run_for:.3} > 0.15"),
            );
            check(s.recoveries > 0, "no recovery ran".into());
        }
        Workload::ChurnUnderTraffic => {
            check(
                counts.get("openflow.cache_invalidations") > 0,
                "no cache invalidation".into(),
            );
            check(
                counts.get("openflow.cache_misses") > 0,
                "no cache miss".into(),
            );
            // Every redeploy and scale step ran under traffic: all of a
            // round but its closing `run-for` fits inside the time its
            // streams, started as the round began, keep sending.
            let stream_ms = (CHURN_STREAM_FRAMES * FRAME_INTERVAL_US) as f64 / 1e3;
            let churn_ms = quantile(&scored.round_virtual_ms, 1.0) - CHURN_DRAIN_MS as f64;
            check(
                churn_ms <= stream_ms,
                format!("churn took {churn_ms:.1} virtual ms, the streams last {stream_ms}"),
            );
            check(s.recoveries == 0, format!("recoveries {}", s.recoveries));
        }
    }
    missed
}

/// Frames the passive `watch` connection received.
#[derive(Default)]
pub struct WatchCounts {
    pub frames: AtomicU64,
    pub lagged: AtomicU64,
}

/// The second connection of `dataplane_observed`: subscribes to every
/// topic and only counts. Ends when the daemon closes the stream.
fn spawn_watch(
    client: CtlClient,
    counts: Arc<WatchCounts>,
) -> Result<std::thread::JoinHandle<()>, String> {
    let mut watch = client.watch(&[], None).map_err(|e| format!("watch: {e}"))?;
    Ok(std::thread::spawn(move || {
        while let Ok(Some(ev)) = watch.next_event() {
            counts.frames.fetch_add(1, Ordering::Relaxed);
            if let CtlEvent::Lagged { missed } = ev {
                counts.lagged.fetch_add(missed.max(1), Ordering::Relaxed);
            }
        }
    }))
}

pub struct SocketReport {
    pub plan: Plan,
    pub truncated: bool,
    pub tally: Tally,
    pub missed: Vec<String>,
    pub setup_s: Vec<f64>,
    pub scored: Scored,
    pub counts: Counts,
    pub checkpoint: Checkpoint,
    pub recover_s: Vec<f64>,
    pub peak_rss_mb: f64,
    /// Daemon `/proc` deltas over the scored rounds.
    pub cpu_s: f64,
    pub ctx_switches: u64,
    pub rss_kb_per_round: f64,
    pub state_bytes: u64,
    pub watch_frames: u64,
    pub watch_lagged: u64,
    /// `metrics --format json`, `fingerprint` and `journal`, one to three
    /// calls each at the checkpoint (trace runs only), calibrated ms.
    pub metrics_json_ms: Vec<f64>,
    pub fingerprint_ms: Vec<f64>,
    pub journal_ms: Vec<f64>,
    /// Wall seconds per phase, for sizing the plan against the budget.
    pub phase_s: Vec<(&'static str, f64)>,
    pub cal: Calibrator,
}

/// Runs one workload end to end against the real daemon.
pub fn socket_run(
    w: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    rd: &mut RunDir,
) -> Result<SocketReport, String> {
    let started = Instant::now();
    let plan = Plan::new(w, seconds, trace);
    let sub = Substrate::generate(seed, w.observed());
    let obs = w.observability();
    let topo = rd.path("fabric.topo");
    std::fs::write(&topo, &sub.topo).map_err(|e| format!("write topology: {e}"))?;
    let mut cal = Calibrator::new();
    let mut tally = Tally::default();

    // Set-ups: spawn, wait for the socket, deploy the base chains. The
    // last daemon continues into the rounds. A set-up is long enough for
    // the host to change speed inside it, so it is calibrated in pieces
    // like the rounds are: the spawn, then every dozen deploys.
    let base: Vec<_> = sub.base_chains().collect();
    let mut setup_s = Vec::new();
    let mut live = None;
    for i in 0..plan.setups {
        let state = rd.path(&format!("state{i}"));
        cal.open_single();
        let t0 = Instant::now();
        let (pid, client) = rd.spawn(&format!("d{i}"), &topo, &state, seed, obs)?;
        let mut sock = Socket { client, pid };
        sock.quiesce();
        let mut calibrated = t0.elapsed().as_secs_f64() / cal.close_single();
        for dozen in base.chunks(12) {
            let t0 = Instant::now();
            for c in dozen {
                tally.call(&mut sock, &c.deploy())?;
            }
            sock.quiesce();
            calibrated += t0.elapsed().as_secs_f64() / cal.close_single();
        }
        setup_s.push(calibrated);
        if i + 1 < plan.setups {
            rd.kill(pid);
        } else {
            live = Some((pid, sock, state));
        }
    }
    let (pid, mut sock, state) = live.expect("at least one set-up");
    let mut phase_s = Vec::new();
    let mut phase_start = started;
    let mut phase = |name: &'static str| {
        phase_s.push((name, phase_start.elapsed().as_secs_f64()));
        phase_start = Instant::now();
    };
    phase("set-ups");

    let watch_counts = Arc::new(WatchCounts::default());
    let watcher = if w.observed() {
        let second = CtlClient::connect(rd.path(&format!("d{}.sock", plan.setups - 1)))
            .map_err(|e| format!("watch connection: {e}"))?;
        Some(spawn_watch(second, Arc::clone(&watch_counts))?)
    } else {
        None
    };

    let rounds = script(w, &sub, plan.rounds());
    // The fixed phases (set-ups, checkpoint, recovery trials) take about
    // 8 s whatever `--seconds` is; the rounds may use twice their share.
    let deadline = started + Duration::from_secs(2 * seconds + 8);
    let stop = || sig::requested() || Instant::now() > deadline;
    let (warm, timed) = rounds.split_at(plan.warm as usize);
    for req in prelude(w) {
        tally.call(&mut sock, &req)?;
    }
    let mut done = run_rounds(&mut sock, warm, &mut cal, &mut tally, None, &stop)?;
    phase("warm-up");
    let before = counters(&mut sock, &mut tally)?;
    let stat0 = proc_stat(pid)?;
    let mut scored = Scored::default();
    if done == warm.len() {
        done += run_rounds(
            &mut sock,
            timed,
            &mut cal,
            &mut tally,
            Some(&mut scored),
            &stop,
        )?;
    }
    let truncated = done < rounds.len();
    if sig::requested() {
        return Err("interrupted".into());
    }
    if scored.round_ms.is_empty() {
        return Err("no scored round completed before the deadline".into());
    }

    phase("scored rounds");

    // Checkpoint: the daemon is idle, nothing below is timed.
    let stat1 = proc_stat(pid)?;
    let cp = checkpoint(&mut sock, &mut tally)?;
    let counts = Counts::between(&before, &cp.totals);
    let mut missed = oracle(w, &rounds[..done], &cp, &counts, &scored);
    let (mut metrics_json_ms, mut fingerprint_ms, mut journal_ms) =
        (Vec::new(), Vec::new(), Vec::new());
    if trace {
        for (req, out) in [
            (
                CtlRequest::Metrics {
                    format: MetricsFormat::Json,
                },
                &mut metrics_json_ms,
            ),
            (CtlRequest::Fingerprint, &mut fingerprint_ms),
            (CtlRequest::Journal, &mut journal_ms),
        ] {
            // Up to three calls, none started once the verb has used a
            // second: `metrics --format json` carries the whole span
            // history and takes seconds after a few hundred deploys.
            let verb_started = Instant::now();
            while out.len() < 3 && verb_started.elapsed() < Duration::from_secs(1) {
                cal.open_single();
                let t0 = Instant::now();
                tally.call(&mut sock, &req)?;
                let raw = t0.elapsed().as_secs_f64() * 1e3;
                out.push(raw / cal.close_single());
            }
        }
    }
    let state_bytes = dir_bytes(&state);
    // The daemon is idle, so a copy of its state dir is what a kill -9
    // here would leave, with a log tail of the same length every run.
    for j in 0..plan.recoveries {
        copy_state(&state, &rd.path(&format!("crash{j}")))?;
    }
    let watch_frames = watch_counts.frames.load(Ordering::Relaxed);
    rd.kill(pid);
    drop(sock);
    if let Some(h) = watcher {
        h.join().map_err(|_| "watch thread panicked")?;
    }
    let watch_lagged = watch_counts.lagged.load(Ordering::Relaxed);
    if w.observed() {
        if watch_frames == 0 {
            missed.push("watch connection received no frame".into());
        }
        if watch_lagged != 0 {
            missed.push(format!("watch connection lagged by {watch_lagged}"));
        }
    }

    phase("checkpoint");

    // Recovery trials: restart on each copy; the socket only accepts
    // once the snapshot is restored and the log tail replayed.
    let mut recover_s = Vec::new();
    for j in 0..plan.recoveries {
        cal.open_single();
        let t0 = Instant::now();
        let crash = rd.path(&format!("crash{j}"));
        let (rpid, client) = rd.spawn(&format!("r{j}"), &topo, &crash, seed, obs)?;
        let mut rsock = Socket { client, pid: rpid };
        let status = tally.call(&mut rsock, &CtlRequest::Status)?;
        let raw = t0.elapsed().as_secs_f64();
        recover_s.push(raw / cal.close_single());
        // The recovered daemon must hold the checkpoint's chains: same
        // names, cookies, rule counts and placements. (Its fingerprint
        // differs after churn — a restart hands out attachment ports in
        // restore order, not in the order history allocated them.)
        match status {
            CtlResponse::Status(s)
                if s.restarted
                    && s.recovered_chains == BASE_CHAINS as u64
                    && s.chains == cp.status.chains => {}
            other => missed.push(format!("recovery trial {j}: {other:?}")),
        }
        rd.kill(rpid);
    }

    phase("recovery trials");

    Ok(SocketReport {
        plan,
        truncated,
        tally,
        missed,
        setup_s,
        counts,
        recover_s,
        peak_rss_mb: stat1.hwm_kb as f64 / 1024.0,
        cpu_s: stat1.cpu_s - stat0.cpu_s,
        ctx_switches: stat1.ctx_switches - stat0.ctx_switches,
        rss_kb_per_round: (stat1.rss_kb as f64 - stat0.rss_kb as f64)
            / scored.round_ms.len() as f64,
        scored,
        checkpoint: cp,
        state_bytes,
        watch_frames,
        watch_lagged,
        metrics_json_ms,
        fingerprint_ms,
        journal_ms,
        phase_s,
        cal,
    })
}

impl SocketReport {
    /// Frames delivered over the time that delivered them: `run-for`,
    /// but also `deploy`, `teardown`, `scale` and `heal`, which simulate
    /// the live traffic while they advance the clock.
    pub fn sim_frames_per_s(&self) -> f64 {
        self.scored
            .frames_per_s(self.counts.get("netem.frames_delivered"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prometheus_totals_fold_labels_and_skip_comments() {
        let text = "# TYPE a_b counter\na_b{x=\"1\"} 3\na_b{x=\"2\"} 4\nc 5\nd_sum 1.5\n";
        let t = prom_totals(text);
        assert_eq!(t.get("a_b"), Some(&7));
        assert_eq!(t.get("c"), Some(&5));
        assert_eq!(t.get("d_sum"), None);
        let c = Counts::between(&BTreeMap::new(), &t);
        assert_eq!(c.get("a.b"), 7);
    }
}
