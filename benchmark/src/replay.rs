//! The in-process target: the daemon's request path re-enacted by the
//! benchmark, with a span around each layer boundary it crosses.
//!
//! Per request: decode the wire text, log the intent, execute, log the
//! commit, encode the reply — the calls `escaped` makes between reading
//! a frame and writing one (`escape_ctl::server::dispatch` is private,
//! so WAL compaction and the watch publisher are not re-enacted here).
//! Spans live in the benchmark's own files; spans inside the program are
//! a later change.

use crate::gen::{advances_clock, Observability, Substrate};
use crate::run::Target;
use escape::session::{parse_topology_text, InputFormat};
use escape::{Session, SessionConfig};
use escape_ctl::proto::{CtlRequest, CtlResponse};
use escape_ctl::server::execute;
use escape_ctl::Wal;
use escape_telemetry::chrome::{self, ChromeEvent};
use escape_telemetry::SamplerConfig;
use std::path::Path;
use std::time::Instant;

/// One recorded span. `parent` indexes the log; spans of one request
/// share `request`.
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans kept in memory until the run ends.
pub struct SpanLog {
    epoch: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    /// Requests seen, recorded or not.
    pub request: u64,
    /// Off: `enter` and `exit` do nothing. Switched between requests.
    pub recording: bool,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog::new()
    }
}

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
            recording: true,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) {
        if !self.recording {
            return;
        }
        let start_ns = self.now_ns();
        self.stack.push(self.spans.len());
        self.spans.push(Span {
            name,
            parent: self.stack.iter().rev().nth(1).copied(),
            request: self.request,
            start_ns,
            end_ns: start_ns,
        });
    }

    pub fn exit(&mut self) {
        if !self.recording {
            return;
        }
        let now = self.now_ns();
        let i = self.stack.pop().expect("exit without enter");
        self.spans[i].end_ns = now;
    }

    /// Self time of every span, in log order: its duration minus the
    /// part its children cover.
    pub fn own_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Writes the log as a Chrome trace (load in Perfetto).
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let events: Vec<ChromeEvent> = self
            .spans
            .iter()
            .map(|s| ChromeEvent {
                name: s.name.to_string(),
                cat: s.name.split('.').next().unwrap_or("span").to_string(),
                ts_us: s.start_ns / 1_000,
                dur_us: Some((s.end_ns - s.start_ns) / 1_000),
                pid: 1,
                tid: 1,
                args: vec![("request".to_string(), s.request.to_string())],
            })
            .collect();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, chrome::render(&events))
    }
}

fn execute_span(req: &CtlRequest) -> &'static str {
    match req {
        CtlRequest::Deploy { .. } => "ctl.execute.deploy",
        CtlRequest::Teardown { .. } => "ctl.execute.teardown",
        CtlRequest::Scale { .. } => "ctl.execute.scale",
        CtlRequest::Traffic { .. } => "ctl.execute.traffic",
        CtlRequest::RunFor { .. } => "ctl.execute.run_for",
        CtlRequest::Fault { .. } | CtlRequest::Heal => "ctl.execute.fault_heal",
        _ => "ctl.execute.read",
    }
}

fn is_mutating(req: &CtlRequest) -> bool {
    matches!(
        req,
        CtlRequest::Deploy { .. }
            | CtlRequest::Teardown { .. }
            | CtlRequest::RunFor { .. }
            | CtlRequest::Fault { .. }
            | CtlRequest::Heal
            | CtlRequest::Traffic { .. }
            | CtlRequest::Scale { .. }
    )
}

pub struct InProcess {
    session: Session,
    wal: Wal,
    pub spans: Option<SpanLog>,
    /// Encoded reply bytes so far.
    pub reply_bytes: u64,
}

impl InProcess {
    /// Builds the session the way `escape_ctl::launch::run_daemon` does
    /// and opens a fresh WAL in `state_dir`.
    pub fn new(
        sub: &Substrate,
        seed: u64,
        obs: Observability,
        state_dir: &Path,
        traced: bool,
    ) -> Result<InProcess, String> {
        let topo = parse_topology_text(&sub.topo, InputFormat::Dsl)?;
        let session = Session::new(
            topo,
            SessionConfig {
                seed,
                flight_recorder: (obs.flight_recorder > 0).then_some(obs.flight_recorder),
                sampler: (obs.sample_ms > 0).then_some(SamplerConfig {
                    period_ns: obs.sample_ms * 1_000_000,
                    retention: obs.sample_retention,
                }),
                ..SessionConfig::default()
            },
        )
        .map_err(|e| e.to_string())?;
        let _ = std::fs::remove_dir_all(state_dir);
        let (wal, _) = Wal::open(state_dir, seed).map_err(|e| e.to_string())?;
        Ok(InProcess {
            session,
            wal,
            spans: traced.then(SpanLog::new),
            reply_bytes: 0,
        })
    }

    pub fn session(&self) -> &Session {
        &self.session
    }

    /// Switches span recording on or off from the next request on
    /// (nothing to switch in an untraced target).
    pub fn record_spans(&mut self, on: bool) {
        if let Some(l) = self.spans.as_mut() {
            l.recording = on;
        }
    }

    pub fn wal_len(&self) -> u64 {
        std::fs::metadata(self.wal.dir().join(escape_ctl::wal::WAL_FILE)).map_or(0, |m| m.len())
    }
}

macro_rules! span {
    ($log:expr, $name:expr, $body:expr) => {{
        if let Some(l) = $log.as_mut() {
            l.enter($name);
        }
        let out = $body;
        if let Some(l) = $log.as_mut() {
            l.exit();
        }
        out
    }};
}

impl Target for InProcess {
    fn call(&mut self, req: &CtlRequest) -> Result<CtlResponse, String> {
        let wire = req.encode();
        if let Some(l) = self.spans.as_mut() {
            l.request += 1;
        }
        span!(self.spans, "request", {
            let req = span!(self.spans, "ctl.proto_decode", CtlRequest::decode(&wire))
                .map_err(|e| e.to_string())?;
            let seq = if is_mutating(&req) {
                let seq = span!(
                    self.spans,
                    "ctl.wal_intent",
                    self.wal.append_intent(&req, None)
                );
                Some(seq.map_err(|e| e.to_string())?)
            } else {
                None
            };
            let before = self.session.escape().now();
            let resp = span!(
                self.spans,
                execute_span(&req),
                execute(&mut self.session, &req)
            );
            // `sim_frames_per_s` divides by the time of the requests
            // that advance the clock; this is where that set is checked.
            if self.session.escape().now() != before && !advances_clock(&req) {
                return Err(format!("{req:?} advanced the virtual clock"));
            }
            if let Some(seq) = seq {
                span!(
                    self.spans,
                    "ctl.wal_commit",
                    self.wal.append_commit(seq, &resp)
                )
                .map_err(|e| e.to_string())?;
            }
            let text = span!(self.spans, "ctl.proto_encode", resp.encode());
            self.reply_bytes += text.len() as u64;
            Ok(resp)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut log = SpanLog::new();
        log.enter("request");
        log.enter("child");
        log.exit();
        log.exit();
        // Make the arithmetic exact.
        log.spans[0].start_ns = 0;
        log.spans[0].end_ns = 10_000_000;
        log.spans[1].start_ns = 2_000_000;
        log.spans[1].end_ns = 5_000_000;
        assert_eq!(log.spans[1].parent, Some(0));
        assert_eq!(log.own_ns(), vec![7_000_000, 3_000_000]);
    }
}
