//! The daemon subcommand: `escaped` and `escape daemon` parse the same
//! options and run the same [`Daemon::run`] loop, so there is exactly one
//! way to start a daemon. The flags parse straight into the two configs
//! the daemon is built from.

use crate::args::{self, Args, DEFAULT_SOCKET};
use crate::load;
use crate::server::{Daemon, DaemonConfig};
use escape::session::demo_topology;
use escape::{AdmissionConfig, Session, SessionConfig};
use escape_telemetry::SamplerConfig;
use std::path::PathBuf;
use std::process::ExitCode;

/// Everything the daemon command line says.
#[derive(Debug, Clone)]
pub struct Launch {
    /// Topology file; the built-in demo substrate when `None`.
    pub topo: Option<String>,
    /// The topology file is JSON whatever its name.
    pub json: bool,
    pub session: SessionConfig,
    pub daemon: DaemonConfig,
}

pub const DAEMON_USAGE: &str = "usage: escaped [--socket PATH] [--topo FILE] [--json] \
     [--algorithm A] [--steering proactive|reactive] [--seed N] [--tick-ms N] \
     [--artifacts DIR] [--admission SOFT:HARD[:QUEUE[:RETRIES]]] [--flight-recorder N] \
     [--sample-ms N] [--sample-retention N] [--state-dir DIR]";

/// `--admission SOFT:HARD[:QUEUE[:RETRIES]]`.
fn admission(v: &str) -> Result<AdmissionConfig, String> {
    if args::fields(v).len() < 2 {
        return Err(format!("--admission {v:?}: need SOFT:HARD"));
    }
    let default = AdmissionConfig::default();
    Ok(AdmissionConfig {
        soft_watermark: args::field(v, 0, default.soft_watermark, "soft watermark")?,
        hard_watermark: args::field(v, 1, default.hard_watermark, "hard watermark")?,
        max_queue: args::field(v, 2, default.max_queue, "queue size")?,
        max_retries: args::field(v, 3, default.max_retries, "retry budget")?,
    })
}

/// Parses daemon options from an argument list (program name already
/// stripped).
pub fn parse_daemon_args(words: Vec<String>) -> Result<Launch, String> {
    let mut l = Launch {
        topo: None,
        json: false,
        session: SessionConfig {
            flight_recorder: Some(65_536),
            ..SessionConfig::default()
        },
        daemon: DaemonConfig::new(DEFAULT_SOCKET),
    };
    // Sampler period (virtual ms) and retained samples; 0 in either
    // disables the sampler (and with it `series` / `escape top`).
    let (mut sample_ms, mut sample_retention) = (5u64, 120usize);
    let mut args = Args::new(words);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--socket" => l.daemon.socket = PathBuf::from(args.value()?),
            "--topo" => l.topo = Some(args.value()?),
            "--json" => l.json = true,
            "--algorithm" => l.session.algorithm = args.value()?,
            "--steering" => l.session.steering = args::steering(&args.value()?)?,
            "--seed" => l.session.seed = args.parsed("seed")?,
            "--tick-ms" => l.daemon.tick_ms = args::clock_ms("--tick-ms", args.parsed("tick-ms")?)?,
            "--artifacts" => l.daemon.artifacts = Some(PathBuf::from(args.value()?)),
            "--admission" => l.session.admission = Some(admission(&args.value()?)?),
            // Ring capacity; 0 disables the recorder (and with it `sla`).
            "--flight-recorder" => {
                let cap: usize = args.parsed("flight-recorder capacity")?;
                l.session.flight_recorder = (cap > 0).then_some(cap);
            }
            "--sample-ms" => sample_ms = args.parsed("sample period")?,
            "--sample-retention" => sample_retention = args.parsed("sample retention")?,
            "--state-dir" => l.daemon.state_dir = Some(PathBuf::from(args.value()?)),
            other => return Err(format!("unknown option {other}")),
        }
    }
    l.session.sampler = (sample_ms > 0 && sample_retention > 0).then(|| SamplerConfig {
        period_ns: sample_ms.saturating_mul(1_000_000),
        retention: sample_retention,
    });
    Ok(l)
}

/// Builds the session and serves it until shutdown.
pub fn run_daemon(l: Launch) -> Result<(), String> {
    let topo = match &l.topo {
        Some(file) => load::topology(file, l.json)?,
        None => demo_topology(),
    };
    let session = Session::new(topo, l.session).map_err(|e| e.to_string())?;
    eprintln!(
        "escaped: serving on {} (algorithm={} seed={} tick_ms={})",
        l.daemon.socket.display(),
        session.config().algorithm,
        session.config().seed,
        l.daemon.tick_ms
    );
    Daemon::run(session, l.daemon).map_err(|e| e.to_string())
}

/// `escaped` / `escape daemon`: exit 2 with the usage text on a bad
/// command line, 1 when the daemon cannot start or fails, 0 after a
/// graceful shutdown. A real daemon process handles SIGINT / SIGTERM.
pub fn main(words: Vec<String>) -> ExitCode {
    let mut l = match parse_daemon_args(words) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("error: {e}\n{DAEMON_USAGE}");
            return ExitCode::from(2);
        }
    };
    l.daemon.handle_signals = true;
    args::exit(run_daemon(l))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Launch, String> {
        parse_daemon_args(line.split_whitespace().map(String::from).collect())
    }

    #[test]
    fn defaults_and_overrides() {
        let l = parse("").unwrap();
        assert_eq!(l.daemon.socket, PathBuf::from("escaped.sock"));
        assert_eq!(l.daemon.tick_ms, 0);
        assert!(l.session.admission.is_none());
        assert!(l.daemon.state_dir.is_none());
        assert_eq!(l.session.flight_recorder, Some(65_536));
        let sampler = l.session.sampler.unwrap();
        assert_eq!((sampler.period_ns, sampler.retention), (5_000_000, 120));

        let l = parse(
            "--socket /tmp/e.sock --seed 9 --tick-ms 5 --admission 0.5:0.8:4:2 \
             --flight-recorder 0 --sample-retention 0 --state-dir /tmp/escaped-state",
        )
        .unwrap();
        assert_eq!(l.daemon.socket, PathBuf::from("/tmp/e.sock"));
        assert_eq!(l.session.seed, 9);
        assert_eq!(l.daemon.tick_ms, 5);
        let a = l.session.admission.unwrap();
        assert_eq!(a.soft_watermark, 0.5);
        assert_eq!(a.hard_watermark, 0.8);
        assert_eq!(a.max_queue, 4);
        assert_eq!(a.max_retries, 2);
        assert_eq!(l.session.flight_recorder, None);
        assert!(l.session.sampler.is_none());
        assert_eq!(
            l.daemon.state_dir,
            Some(PathBuf::from("/tmp/escaped-state"))
        );
    }

    #[test]
    fn bad_options_are_rejected() {
        assert!(parse("--admission 0.5").is_err());
        assert!(parse("--frobnicate").is_err());
        assert!(parse("--seed").is_err());
        assert!(parse("--state-dir").is_err());
    }

    #[test]
    fn a_tick_that_overflows_the_clock_is_a_usage_error() {
        let max = u64::MAX / 1_000_000;
        assert_eq!(
            parse(&format!("--tick-ms {max}")).unwrap().daemon.tick_ms,
            max
        );
        let e = parse(&format!("--tick-ms {}", max + 1)).err();
        assert_eq!(e, Some(format!("--tick-ms must be at most {max}")));
    }
}
