//! The closed-loop request runner shared by the socket run and the
//! in-process replay: one request at a time, the next only after the
//! previous reply, every reply checked, every round bracketed by the
//! calibrated clock.

use crate::calib::{median, Calibrator};
use crate::gen::{advances_clock, Round, Verb};
use escape_ctl::proto::{CtlRequest, CtlResponse};
use std::time::Instant;

/// Something that answers control requests: the daemon's socket or an
/// in-process session.
pub trait Target {
    fn call(&mut self, req: &CtlRequest) -> Result<CtlResponse, String>;

    /// Returns once the target has finished the work its last reply
    /// left behind (the daemon publishes to watchers and compacts its
    /// log after replying). A round ends here, not at its last reply.
    fn quiesce(&mut self) {}
}

/// True when `resp` is the success shape of `req`.
pub fn reply_matches(req: &CtlRequest, resp: &CtlResponse) -> bool {
    match (req, resp) {
        (CtlRequest::Deploy { .. }, CtlResponse::Deployed(d)) => d.chains.len() == 1,
        (CtlRequest::Teardown { chain }, CtlResponse::ToreDown { chain: c }) => chain == c,
        (CtlRequest::Scale { replicas, .. }, CtlResponse::Scaled { to, .. }) => replicas == to,
        (CtlRequest::Fault { .. }, CtlResponse::FaultArmed { events }) => *events == 2,
        (CtlRequest::Heal, CtlResponse::Healed { failures, .. }) => *failures == 0,
        (CtlRequest::Traffic { .. }, CtlResponse::TrafficStarted)
        | (CtlRequest::RunFor { .. }, CtlResponse::Advanced { .. })
        | (CtlRequest::Status, CtlResponse::Status(_))
        | (CtlRequest::Metrics { .. }, CtlResponse::Metrics { .. })
        | (CtlRequest::Series, CtlResponse::Series { .. })
        | (CtlRequest::Journal, CtlResponse::Journal { .. })
        | (CtlRequest::Sla, CtlResponse::Sla(_))
        | (CtlRequest::Fingerprint, CtlResponse::Fingerprint { .. }) => true,
        _ => false,
    }
}

/// Requests attempted and failed over a whole run, with the first few
/// failures kept for the report.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub first_failures: Vec<String>,
    /// The virtual clock as the last `run-for` or `status` reply gave it.
    pub now_ns: u64,
}

impl Tally {
    /// Issues one request and checks the reply's shape.
    pub fn call(&mut self, t: &mut dyn Target, req: &CtlRequest) -> Result<CtlResponse, String> {
        self.attempted += 1;
        let resp = t.call(req)?;
        if !reply_matches(req, &resp) {
            self.failed += 1;
            if self.first_failures.len() < 5 {
                let what: String = format!("{req:?}").chars().take(80).collect();
                self.first_failures.push(format!("{what} -> {resp:?}"));
            }
        }
        match &resp {
            CtlResponse::Advanced { now_ns } => self.now_ns = *now_ns,
            CtlResponse::Status(s) => self.now_ns = s.now_ns,
            _ => {}
        }
        Ok(resp)
    }
}

/// Timings of the scored rounds. `*_ms` vectors hold calibrated values;
/// `raw_*` the wall values they came from.
#[derive(Default)]
pub struct Scored {
    pub requests: u64,
    pub round_ms: Vec<f64>,
    pub raw_round_ms: Vec<f64>,
    /// Virtual milliseconds each round advanced the clock by, read from
    /// the `status` replies that close consecutive rounds.
    pub round_virtual_ms: Vec<f64>,
    /// Per round: calibrated time of the requests that advance the
    /// virtual clock. Every frame the daemon delivered, it delivered
    /// inside one of them.
    pub clock_ms: Vec<f64>,
    /// Per verb (indexed by `Verb as usize`): every call's calibrated time.
    verb_ms: [Vec<f64>; Verb::ALL.len()],
    pub redeploy_ms: Vec<f64>,
    pub raw_redeploy_ms: Vec<f64>,
    pub poll_ms: Vec<f64>,
}

impl Scored {
    pub fn verb(&self, v: Verb) -> &[f64] {
        &self.verb_ms[v as usize]
    }

    pub fn total_ms(&self) -> f64 {
        self.round_ms.iter().sum()
    }

    /// Share of the summed round time spent in one verb.
    pub fn share(&self, v: Verb) -> f64 {
        // `+ 0.0`: an empty float sum is -0.0.
        (self.verb(v).iter().sum::<f64>() + 0.0) / self.total_ms()
    }

    /// `per_run` things a run did over its scored rounds, as a rate: the
    /// share one round did (every round does the same work) over the
    /// median of `round_ms`. The median, not the total: sixteen runs of
    /// unchanged code spread 0.022 this way and 0.034 by Σ time, since a
    /// preempted round or a misread calibration factor moves a sum.
    fn per_s(&self, per_run: u64, round_ms: &[f64]) -> f64 {
        per_run as f64 / round_ms.len() as f64 / (median(round_ms) / 1e3)
    }

    pub fn requests_per_s(&self) -> f64 {
        self.per_s(self.requests, &self.round_ms)
    }

    pub fn raw_requests_per_s(&self) -> f64 {
        self.per_s(self.requests, &self.raw_round_ms)
    }

    /// `frames` delivered over the scored rounds, per second of the
    /// requests that delivered them.
    pub fn frames_per_s(&self, frames: u64) -> f64 {
        self.per_s(frames, &self.clock_ms)
    }

    /// Last third over first third of the scored round times: state
    /// that grows with history shows up here.
    pub fn drift(&self) -> f64 {
        let third = (self.round_ms.len() / 3).max(1);
        let first = median(&self.round_ms[..third]);
        let last = median(&self.round_ms[self.round_ms.len() - third..]);
        last / first
    }

    pub fn p50(&self, v: Verb) -> f64 {
        median(self.verb(v))
    }
}

/// Runs `rounds` against `t`. With `scored`, every request's wall time is
/// recorded and divided by its round's calibration factor; without, the
/// rounds are warm-up and only the tally moves. `stop` is polled between
/// rounds (deadline or signal). Returns how many rounds completed.
pub fn run_rounds(
    t: &mut dyn Target,
    rounds: &[Round],
    cal: &mut Calibrator,
    tally: &mut Tally,
    mut scored: Option<&mut Scored>,
    stop: &dyn Fn() -> bool,
) -> Result<usize, String> {
    let mut walls: Vec<(Verb, f64)> = Vec::new();
    cal.open();
    for (done, round) in rounds.iter().enumerate() {
        if stop() {
            return Ok(done);
        }
        walls.clear();
        let mut clock = 0.0;
        let virtual_start = tally.now_ns;
        let t_round = Instant::now();
        for req in &round.ops {
            let t0 = Instant::now();
            tally.call(t, req)?;
            let raw = t0.elapsed().as_secs_f64() * 1e3;
            walls.push((Verb::of(req), raw));
            if advances_clock(req) {
                clock += raw;
            }
        }
        t.quiesce();
        let raw_round = t_round.elapsed().as_secs_f64() * 1e3;
        let k = cal.close();
        let Some(s) = scored.as_deref_mut() else {
            continue;
        };
        s.requests += round.ops.len() as u64;
        s.round_ms.push(raw_round / k);
        s.raw_round_ms.push(raw_round);
        s.round_virtual_ms
            .push(tally.now_ns.saturating_sub(virtual_start) as f64 / 1e6);
        s.clock_ms.push(clock / k);
        let mut teardown = 0.0;
        let mut poll = 0.0;
        for &(verb, raw) in &walls {
            s.verb_ms[verb as usize].push(raw / k);
            match verb {
                Verb::Teardown => teardown = raw,
                // A redeploy is a teardown and the deploy right after it.
                Verb::Deploy => {
                    s.redeploy_ms.push((teardown + raw) / k);
                    s.raw_redeploy_ms.push(teardown + raw);
                }
                Verb::Status | Verb::Metrics | Verb::Series => poll += raw,
                // `sla` closes the sweep of four read verbs.
                Verb::Sla => s.poll_ms.push((poll + raw) / k),
                _ => {}
            }
        }
    }
    Ok(rounds.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use escape_ctl::proto::DeployInfo;

    #[test]
    fn rates_come_from_the_median_round() {
        // Four rounds of ten requests each; the last one was preempted.
        let s = Scored {
            requests: 40,
            round_ms: vec![10.0, 10.0, 10.0, 1_000.0],
            clock_ms: vec![5.0, 5.0, 5.0, 900.0],
            ..Scored::default()
        };
        assert_eq!(s.requests_per_s(), 1_000.0);
        assert_eq!(s.frames_per_s(4_000), 200_000.0);
    }

    #[test]
    fn reply_shapes() {
        let td = CtlRequest::Teardown { chain: "a".into() };
        assert!(reply_matches(
            &td,
            &CtlResponse::ToreDown { chain: "a".into() }
        ));
        assert!(!reply_matches(
            &td,
            &CtlResponse::ToreDown { chain: "b".into() }
        ));
        assert!(!reply_matches(
            &CtlRequest::Status,
            &CtlResponse::TrafficStarted
        ));
        let heal = CtlResponse::Healed {
            recoveries: 3,
            failures: 1,
        };
        assert!(!reply_matches(&CtlRequest::Heal, &heal));
        let empty = CtlResponse::Deployed(DeployInfo {
            chains: Vec::new(),
            total_ns: 0,
            netconf_ns: 0,
            steering_ns: 0,
        });
        let dep = CtlRequest::Deploy {
            sg: String::new(),
            format: escape_ctl::proto::SgFormat::Dsl,
        };
        assert!(!reply_matches(&dep, &empty));
    }
}
