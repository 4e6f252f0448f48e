//! The `escape` command-line runner: load a topology and a service
//! graph (DSL or JSON), deploy, push traffic, report.
//!
//! ```text
//! escape [run] <topology-file> <service-graph-file> [options]
//! escape run [options]                 (built-in demo chain)
//! escape metrics [<topology-file> <service-graph-file>] [options]
//! escape trace [<topology-file> <service-graph-file>] [options]
//! escape daemon [daemon options]       (serve a live environment; see escaped)
//! escape ctl [--socket PATH] <verb>    (drive a running escaped)
//! escape scale CHAIN VNF REPLICAS      (shorthand for escape ctl scale)
//! escape top [--socket PATH] [--json]  (sparkline view of daemon time series)
//!
//! options:
//!   --algorithm first_fit|best_fit|nearest|backtrack|anneal   (default nearest)
//!   --steering  proactive|reactive                            (default proactive)
//!   --traffic   FROM:TO:COUNT[:LEN[:INTERVAL_US]]             (repeatable)
//!   --ping      FROM:TO:COUNT                                 (repeatable)
//!   --duration-ms N                                           (default 200)
//!   --monitor   CHAIN:VNF                                     (repeatable)
//!   --seed N                                                  (default 1)
//!   --json      topology/SG files are JSON instead of DSL
//!   --faults    FILE   fault plan (JSON); run with self-healing recovery
//!   --format    prometheus|json      (metrics subcommand; default prometheus)
//!   --chrome    FILE   (trace subcommand) also write a Chrome trace-event
//!                      JSON document loadable in chrome://tracing/Perfetto
//!   --domains   FILE   domain spec (JSON): partition the topology and run
//!                      hierarchical multi-domain orchestration
//!   --workers N        simulator threads for --domains (default 1; any
//!                      value produces identical results)
//!   --workload N       generate N random chains over the topology instead
//!                      of reading a service-graph file (seeded by --seed)
//! ```
//!
//! With `--faults`, the run drives the simulation through
//! `run_with_recovery`: scheduled faults are injected in virtual time,
//! the environment re-routes/re-maps/re-steers around them, and the
//! deterministic fault/recovery event trace is printed at the end.
//!
//! The `metrics` subcommand runs the same deployment (a built-in demo
//! chain when no files are given), then dumps the telemetry registry —
//! Prometheus text exposition, or a JSON object with the metric snapshot
//! and the virtual-time span trace.
//!
//! The `trace` subcommand turns on the packet flight recorder before
//! pushing traffic, then prints every packet's hop-by-hop journey
//! (which flow rule steered it at each switch, which Click elements it
//! traversed in each VNF, where and why lost packets died) and each
//! chain's SLA verdict.
//!
//! Exit code 0 on success, 1 on any error, 2 on bad usage.

use escape_ctl::oneshot::{self, Command};
use escape_ctl::{args, launch, remote};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: escape [run] <topology> <service-graph> [--algorithm A] [--steering M] \
         [--traffic F:T:N[:LEN[:US]]]... [--ping F:T:N]... [--duration-ms N] \
         [--monitor CHAIN:VNF]... [--seed N] [--json] [--faults PLAN.json]\n       \
         escape run [options]    (built-in demo chain)\n       \
         escape metrics [<topology> <service-graph>] [options] [--format prometheus|json]\n       \
         escape trace [<topology> <service-graph>] [options] [--chrome FILE]\n       \
         escape run <topology> <service-graph> --domains SPEC.json [--workers N]\n       \
         escape run <topology> --workload N    (generated random chains)\n       \
         escape soak [--steps N] [--seed N]    (invariant soak run)\n       \
         escape daemon [daemon options]        (serve a live environment)\n       \
         escape ctl [--socket PATH] <verb>     (drive a running escaped)\n       \
         escape top [--socket PATH] [--json]   (sparkline view of daemon time series)"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut words: Vec<String> = std::env::args().skip(1).collect();
    // Only the first word can name a subcommand; without one the whole
    // line is an implicit `run`. The ctl, daemon and top subcommands own
    // their whole argument lists.
    let first = words.first().cloned().unwrap_or_default();
    let result = match first.as_str() {
        "daemon" => return launch::main(words.split_off(1)),
        "ctl" => remote::ctl(words.split_off(1)),
        // `escape scale ...` is shorthand for `escape ctl scale ...`.
        "scale" => remote::ctl(words),
        "top" => remote::top(words.split_off(1)),
        word => {
            // A one-shot command. Naming it is what makes a run without
            // files (the built-in demo) legal.
            let (cmd, explicit) = match word {
                "run" => (Command::Run, true),
                "metrics" => (Command::Metrics, true),
                "trace" => (Command::Trace, true),
                "soak" => (Command::Soak, true),
                _ => (Command::Run, false),
            };
            if explicit {
                words.remove(0);
            }
            match oneshot::parse(cmd, words, explicit) {
                Ok(o) => oneshot::run(cmd, &o),
                Err(e) => {
                    eprintln!("error: {e}");
                    return usage();
                }
            }
        }
    };
    args::exit(result)
}
