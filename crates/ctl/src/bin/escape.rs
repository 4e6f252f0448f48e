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

use escape::env::Escape;
use escape::monitor::format_handler_table;
use escape::session::{algorithm_by_name as algorithm, InputFormat};
use escape::{ChainInfo, Session, SessionConfig};
use escape_ctl::launch::{parse_daemon_args, run_daemon, DAEMON_USAGE};
use escape_ctl::proto::{CtlEvent, CtlRequest, CtlResponse, MetricsFormat, WatchTopic};
use escape_ctl::CtlClient;
use escape_domain::DomainSpec;
use escape_json::Value;
use escape_orch::workload::{random_service_graph, WorkloadSpec};
use escape_pox::SteeringMode;
use escape_sg::{parse_service_graph, parse_topology, ResourceTopology, ServiceGraph, Sla};
use std::process::ExitCode;

struct Options {
    topo_file: String,
    sg_file: String,
    algorithm: String,
    steering: SteeringMode,
    traffic: Vec<(String, String, u64, usize, u64)>,
    pings: Vec<(String, String, u64)>,
    duration_ms: u64,
    monitors: Vec<(String, String)>,
    seed: u64,
    json: bool,
    /// `escape metrics ...`: dump telemetry after the run.
    metrics: bool,
    /// `escape run ...`: explicit run subcommand (demo chain when no
    /// files are given).
    run: bool,
    /// Fault plan file (JSON); enables self-healing recovery.
    faults: Option<String>,
    /// Exposition format for the metrics subcommand.
    format: String,
    /// `escape trace ...`: flight-recorder run with journey timelines.
    trace: bool,
    /// Chrome trace-event output file (trace subcommand).
    chrome: Option<String>,
    /// Domain spec file (JSON); enables multi-domain orchestration.
    domains: Option<String>,
    /// Simulator worker threads for the multi-domain epoch loop.
    workers: usize,
    /// Generate this many random chains instead of reading an SG file.
    workload: Option<usize>,
    /// `escape soak ...`: leak-hunting invariant soak run.
    soak: bool,
    /// Steps for the soak subcommand.
    steps: u64,
    /// `escape ctl ...`: args handed to the control-socket client.
    ctl: Option<Vec<String>>,
    /// `escape daemon ...`: args handed to the daemon launcher.
    daemon: Option<Vec<String>>,
    /// `escape top ...`: sparkline view of a daemon's sampler series.
    top: Option<Vec<String>>,
}

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

fn parse_args() -> Result<Options, String> {
    let mut args = std::env::args().skip(1);
    let mut positional = Vec::new();
    let mut o = Options {
        topo_file: String::new(),
        sg_file: String::new(),
        algorithm: "nearest".into(),
        steering: SteeringMode::Proactive,
        traffic: Vec::new(),
        pings: Vec::new(),
        duration_ms: 200,
        monitors: Vec::new(),
        seed: 1,
        json: false,
        metrics: false,
        run: false,
        faults: None,
        format: "prometheus".into(),
        trace: false,
        chrome: None,
        domains: None,
        workers: 1,
        workload: None,
        soak: false,
        steps: 500,
        ctl: None,
        daemon: None,
        top: None,
    };
    let mut first = true;
    while let Some(a) = args.next() {
        if first {
            first = false;
            if a == "metrics" {
                o.metrics = true;
                continue;
            }
            if a == "run" {
                o.run = true;
                continue;
            }
            if a == "trace" {
                o.trace = true;
                continue;
            }
            if a == "soak" {
                o.soak = true;
                continue;
            }
            // The ctl, daemon and top subcommands own their whole
            // argument lists — hand the rest over untouched.
            if a == "ctl" {
                o.ctl = Some(args.collect());
                return Ok(o);
            }
            if a == "daemon" {
                o.daemon = Some(args.collect());
                return Ok(o);
            }
            if a == "top" {
                o.top = Some(args.collect());
                return Ok(o);
            }
            // `escape scale ...` is shorthand for `escape ctl scale ...`.
            if a == "scale" {
                let mut rest = vec!["scale".to_string()];
                rest.extend(args);
                o.ctl = Some(rest);
                return Ok(o);
            }
        }
        let mut need = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        match a.as_str() {
            "--algorithm" => o.algorithm = need("--algorithm")?,
            "--steering" => {
                o.steering = match need("--steering")?.as_str() {
                    "proactive" => SteeringMode::Proactive,
                    "reactive" => SteeringMode::Reactive,
                    other => return Err(format!("unknown steering mode {other:?}")),
                }
            }
            "--traffic" => {
                let v = need("--traffic")?;
                let parts: Vec<&str> = v.split(':').collect();
                if parts.len() < 3 {
                    return Err(format!("--traffic {v:?}: need FROM:TO:COUNT"));
                }
                let count = parts[2]
                    .parse()
                    .map_err(|_| format!("bad count in {v:?}"))?;
                let len = parts
                    .get(3)
                    .map_or(Ok(128), |s| s.parse())
                    .map_err(|_| format!("bad len in {v:?}"))?;
                let us = parts
                    .get(4)
                    .map_or(Ok(200), |s| s.parse())
                    .map_err(|_| format!("bad interval in {v:?}"))?;
                o.traffic
                    .push((parts[0].into(), parts[1].into(), count, len, us));
            }
            "--ping" => {
                let v = need("--ping")?;
                let parts: Vec<&str> = v.split(':').collect();
                if parts.len() != 3 {
                    return Err(format!("--ping {v:?}: need FROM:TO:COUNT"));
                }
                let count = parts[2]
                    .parse()
                    .map_err(|_| format!("bad count in {v:?}"))?;
                o.pings.push((parts[0].into(), parts[1].into(), count));
            }
            "--duration-ms" => {
                o.duration_ms = need("--duration-ms")?.parse().map_err(|_| "bad duration")?
            }
            "--monitor" => {
                let v = need("--monitor")?;
                let (c, vnf) = v
                    .split_once(':')
                    .ok_or_else(|| format!("--monitor {v:?}: need CHAIN:VNF"))?;
                o.monitors.push((c.to_string(), vnf.to_string()));
            }
            "--seed" => o.seed = need("--seed")?.parse().map_err(|_| "bad seed")?,
            "--json" => o.json = true,
            "--faults" => o.faults = Some(need("--faults")?),
            "--chrome" => o.chrome = Some(need("--chrome")?),
            "--domains" => o.domains = Some(need("--domains")?),
            "--workers" => {
                o.workers = need("--workers")?.parse().map_err(|_| "bad workers")?;
                if o.workers == 0 {
                    return Err("--workers must be at least 1".into());
                }
            }
            "--workload" => {
                o.workload = Some(need("--workload")?.parse().map_err(|_| "bad workload")?)
            }
            "--steps" => o.steps = need("--steps")?.parse().map_err(|_| "bad steps")?,
            "--format" => {
                o.format = need("--format")?;
                if o.format != "prometheus" && o.format != "json" {
                    return Err(format!("unknown format {:?}", o.format));
                }
            }
            other if other.starts_with("--") => return Err(format!("unknown option {other}")),
            other => positional.push(other.to_string()),
        }
    }
    match positional.len() {
        2 => {
            o.topo_file = positional.remove(0);
            o.sg_file = positional.remove(0);
        }
        // With a generated workload only the topology is needed.
        1 if o.workload.is_some() => o.topo_file = positional.remove(0),
        // `escape metrics` / `escape run` / `escape trace` alone use the
        // built-in demo chain; `escape soak` needs no files at all.
        0 if o.metrics || o.run || o.trace || o.soak => {}
        _ => return Err("need exactly two positional arguments".into()),
    }
    Ok(o)
}

/// Loads the topology/SG pair from files, or the built-in demo chain
/// when no files were given (`escape metrics` with no arguments).
/// With `--workload N` the service graph is generated instead: N random
/// chains over the topology's SAPs, seeded by `--seed`.
fn load_inputs(o: &Options) -> Result<(ResourceTopology, ServiceGraph), String> {
    if let Some(chains) = o.workload {
        let topo = if o.topo_file.is_empty() {
            escape_sg::topo::builders::linear(3, 4.0)
        } else {
            let src = std::fs::read_to_string(&o.topo_file)
                .map_err(|e| format!("{}: {e}", o.topo_file))?;
            if o.json {
                ResourceTopology::from_json(&src)?
            } else {
                parse_topology(&src).map_err(|e| e.to_string())?
            }
        };
        let spec = WorkloadSpec {
            chains,
            seed: o.seed,
            ..WorkloadSpec::default()
        };
        // Typed error, surfaced verbatim ("topology has N SAP(s); random
        // workloads need at least two").
        let sg = random_service_graph(&topo, &spec).map_err(|e| e.to_string())?;
        return Ok((topo, sg));
    }
    if o.topo_file.is_empty() {
        let topo = escape_sg::topo::builders::linear(3, 4.0);
        let sg = ServiceGraph::new()
            .sap("sap0")
            .sap("sap1")
            .vnf("fw", "firewall", 1.0, 256)
            .vnf("mon", "monitor", 0.5, 64)
            .chain("demo", &["sap0", "fw", "mon", "sap1"], 100.0, Some(50_000))
            .with_sla(Sla {
                max_latency_us: Some(50_000),
                max_loss: Some(0.1),
            });
        return Ok((topo, sg));
    }
    let topo_src =
        std::fs::read_to_string(&o.topo_file).map_err(|e| format!("{}: {e}", o.topo_file))?;
    let sg_src = std::fs::read_to_string(&o.sg_file).map_err(|e| format!("{}: {e}", o.sg_file))?;
    let topo: ResourceTopology = if o.json {
        ResourceTopology::from_json(&topo_src)?
    } else {
        parse_topology(&topo_src).map_err(|e| e.to_string())?
    };
    let sg: ServiceGraph = if o.json {
        ServiceGraph::from_json(&sg_src)?
    } else {
        parse_service_graph(&sg_src).map_err(|e| e.to_string())?
    };
    Ok((topo, sg))
}

/// `escape metrics`: deploy, push traffic through every chain, then dump
/// the telemetry registry (Prometheus text or JSON snapshot + trace).
/// Renders through [`Session::metrics_exposition`] — the same code path
/// `escape ctl metrics` hits in the daemon — so the two cannot drift.
fn run_metrics(o: Options) -> Result<(), String> {
    let (topo, sg) = load_inputs(&o)?;
    let mut session = Session::new(
        topo,
        SessionConfig {
            algorithm: o.algorithm.clone(),
            steering: o.steering,
            seed: o.seed,
            ..SessionConfig::default()
        },
    )
    .map_err(|e| e.to_string())?;
    session.deploy(&sg).map_err(|e| e.to_string())?;
    let mut flows = o.traffic.clone();
    if flows.is_empty() {
        // Default: 20 frames end to end through each deployed chain so
        // dataplane and steering counters move.
        for chain in &sg.chains {
            let src = chain.hops.first().cloned().unwrap_or_default();
            let dst = chain.hops.last().cloned().unwrap_or_default();
            flows.push((src, dst, 20, 128, 200));
        }
    }
    for (from, to, count, len, us) in &flows {
        session
            .start_udp(from, to, *len, *us, *count)
            .map_err(|e| e.to_string())?;
    }
    session.run_for_ms(o.duration_ms);
    print!("{}", session.metrics_exposition(o.format == "json"));
    Ok(())
}

/// `escape trace`: deploy with the flight recorder on, push traffic,
/// then print per-packet journeys, the per-chain summary and SLA
/// verdicts; optionally write a Chrome trace-event file.
fn run_trace(o: Options) -> Result<(), String> {
    let (topo, sg) = load_inputs(&o)?;
    let mut esc = Escape::build(topo, algorithm(&o.algorithm)?, o.steering, o.seed)
        .map_err(|e| e.to_string())?;
    esc.deploy(&sg).map_err(|e| e.to_string())?;
    // The recorder must be armed before the first frame is sent.
    esc.enable_flight_recorder(65_536);
    let mut flows = o.traffic.clone();
    if flows.is_empty() {
        for chain in &sg.chains {
            let src = chain.hops.first().cloned().unwrap_or_default();
            let dst = chain.hops.last().cloned().unwrap_or_default();
            flows.push((src, dst, 5, 128, 200));
        }
    }
    for (from, to, count, len, us) in &flows {
        esc.start_udp(from, to, *len, *us, *count)
            .map_err(|e| e.to_string())?;
    }
    esc.run_for_ms(o.duration_ms);

    let fr = esc.flight_record_aggregated();
    print!("{}", fr.timelines());
    println!("{} journeys recorded", fr.journeys.len());
    for v in esc.sla_verdicts() {
        println!("{v}");
    }
    if let Some(file) = &o.chrome {
        std::fs::write(file, fr.chrome_json()).map_err(|e| format!("{file}: {e}"))?;
        println!("chrome trace written to {file}");
    }
    Ok(())
}

/// Loads and parses the fault plan file, if one was given.
fn load_fault_plan(o: &Options) -> Result<Option<escape_netem::FaultPlan>, String> {
    let Some(file) = &o.faults else {
        return Ok(None);
    };
    let src = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
    let plan = escape_netem::FaultPlan::from_json(&src).map_err(|e| format!("{file}: {e}"))?;
    Ok(Some(plan))
}

/// `escape run --domains spec.json`: partition the topology, stitch the
/// chains hierarchically, drive all domain simulators in epoch lockstep
/// and report per-domain results plus the merged event trace.
fn run_domains(o: Options, spec_file: &str) -> Result<(), String> {
    let (topo, sg) = load_inputs(&o)?;
    let spec_src = std::fs::read_to_string(spec_file).map_err(|e| format!("{spec_file}: {e}"))?;
    let spec = DomainSpec::from_json(&spec_src)?;

    println!(
        "escape: {} domains over {} nodes | {} VNFs, {} chains | algorithm={} workers={}",
        spec.domains.len(),
        topo.nodes.len(),
        sg.vnfs.len(),
        sg.chains.len(),
        o.algorithm,
        o.workers,
    );

    let alg_name = o.algorithm.clone();
    let factory = move || algorithm(&alg_name).expect("algorithm validated below");
    algorithm(&o.algorithm)?; // validate the name before building
    let mut md = Escape::with_domains(&topo, &spec, &factory, o.steering, o.seed, o.workers)
        .map_err(|e| e.to_string())?;
    for g in &md.partition().gateways {
        println!(
            "gateway {}: {}({}) -- {}({}) {}us",
            g.id, g.a_domain, g.a_switch, g.b_domain, g.b_switch, g.delay_us
        );
    }
    md.deploy(&sg).map_err(|e| e.to_string())?;
    print!("{}", md.embedding_trace());

    let chains: Vec<String> = sg.chains.iter().map(|c| c.name.clone()).collect();
    for chain in &chains {
        md.start_chain_udp(chain, 128, 200, 20)
            .map_err(|e| e.to_string())?;
    }
    md.run_for_ms(o.duration_ms);

    let sap_names: Vec<String> = md
        .partition()
        .domains
        .iter()
        .flat_map(|d| d.view.saps.clone())
        .collect();
    for sap in sap_names {
        let s = md.sap_stats(&sap).map_err(|e| e.to_string())?;
        if s.udp_rx > 0 {
            println!(
                "{sap}: udp_rx={} bytes={} mean_latency={}",
                s.udp_rx,
                s.bytes_rx,
                s.mean_latency()
                    .map(|t| t.to_string())
                    .unwrap_or_else(|| "-".into()),
            );
        }
    }
    let m = md.metrics();
    println!(
        "handoffs={} restitches={}",
        m.counter_total("domains.handoffs"),
        m.counter_total("domains.restitches"),
    );
    for line in md.event_trace() {
        println!("  {line}");
    }
    Ok(())
}

fn run(o: Options) -> Result<(), String> {
    let (topo, sg) = load_inputs(&o)?;
    let fault_plan = load_fault_plan(&o)?;

    println!(
        "escape: {} switches, {} containers, {} SAPs | {} VNFs, {} chains | algorithm={} steering={:?}",
        topo.switches().count(),
        topo.containers().count(),
        topo.saps().count(),
        sg.vnfs.len(),
        sg.chains.len(),
        o.algorithm,
        o.steering,
    );

    let mut esc = Escape::build(topo, algorithm(&o.algorithm)?, o.steering, o.seed)
        .map_err(|e| e.to_string())?;
    let report = esc.deploy(&sg).map_err(|e| e.to_string())?;
    for dc in &report.chains {
        println!(
            "deployed {}: [{}] path {} µs, {} rules",
            dc.mapping.chain.name,
            ChainInfo::of(dc).placements(),
            dc.mapping.total_delay_us,
            dc.rules
        );
    }
    println!(
        "setup: total {} (netconf {}, steering {})",
        report.total(),
        report.netconf_phase(),
        report.steering_phase()
    );

    for (from, to, count, len, us) in &o.traffic {
        esc.start_udp(from, to, *len, *us, *count)
            .map_err(|e| e.to_string())?;
        println!("traffic: {from} -> {to}, {count} x {len} B every {us} µs");
    }
    for (from, to, count) in &o.pings {
        esc.start_ping(from, to, 1_000, *count)
            .map_err(|e| e.to_string())?;
        println!("ping: {from} -> {to} x {count}");
    }
    if let Some(plan) = &fault_plan {
        esc.load_fault_plan(plan).map_err(|e| e.to_string())?;
        println!(
            "faults: plan {:?} armed, {} events",
            plan.name,
            plan.events.len()
        );
        esc.run_with_recovery(o.duration_ms);
    } else {
        esc.run_for_ms(o.duration_ms);
    }

    // Report every SAP with any receive activity.
    let saps: Vec<String> = esc.topology().saps().map(|n| n.name.clone()).collect();
    for sap in saps {
        let s = esc.sap_stats(&sap).map_err(|e| e.to_string())?;
        if s.udp_rx + s.icmp_echo_rx + s.icmp_reply_rx > 0 {
            println!(
                "{sap}: udp_rx={} bytes={} echo_rx={} reply_rx={} mean_latency={}",
                s.udp_rx,
                s.bytes_rx,
                s.icmp_echo_rx,
                s.icmp_reply_rx,
                s.mean_latency()
                    .map(|t| t.to_string())
                    .unwrap_or_else(|| "-".into()),
            );
        }
    }
    for (chain, vnf) in &o.monitors {
        let handlers = esc.monitor_vnf(chain, vnf).map_err(|e| e.to_string())?;
        println!(
            "{}",
            format_handler_table(&format!("{vnf} @ {chain}"), &handlers)
        );
    }
    if fault_plan.is_some() {
        let m = esc.metrics();
        println!(
            "faults: injected={} recoveries={} failures={} rpc_retries={}",
            m.counter_total("faults.injected"),
            m.counter("escape.recoveries", &[]).unwrap_or(0),
            m.counter("escape.recovery_failures", &[]).unwrap_or(0),
            m.counter("netconf.rpc_retries", &[]).unwrap_or(0),
        );
        for line in esc.event_trace() {
            println!("  {line}");
        }
    }
    Ok(())
}

/// `escape soak`: run the leak-hunting soak harness and print its
/// report. Exits non-zero if any step violated a conservation
/// invariant.
fn run_soak_cmd(o: Options) -> Result<(), String> {
    let report = escape::soak::run_soak(escape::soak::SoakConfig {
        steps: o.steps,
        seed: o.seed,
    });
    println!("{}", report.summary());
    if o.json {
        let doc = Value::obj()
            .set("steps", report.steps)
            .set("deploys", report.deploys)
            .set("rollbacks", report.rollbacks)
            .set("teardowns", report.teardowns)
            .set("teardown_retries", report.teardown_retries)
            .set("faults", report.faults)
            .set("queued", report.admission_queued)
            .set("rejected", report.admission_rejected)
            .set("live_at_end", report.live_at_end)
            .set("violations", report.violations.len());
        println!("{doc}");
    }
    if !report.clean() {
        for v in &report.violations {
            eprintln!("violation: {v}");
        }
        return Err(format!(
            "{} invariant violation(s)",
            report.violations.len()
        ));
    }
    Ok(())
}

const CTL_USAGE: &str = "usage: escape ctl [--socket PATH] [--request-id ID] <verb>\n  \
     verbs: status | deploy FILE [--json] | teardown CHAIN | run-for MS | fault PLAN.json |\n         \
     heal | metrics [--prom] | sla | series | journal | fingerprint |\n         \
     watch [--topics events,metrics-deltas,sla] [--since SEQ] |\n         \
     traffic FROM:TO:COUNT[:LEN[:US]] | scale CHAIN VNF REPLICAS | shutdown";

/// `escape ctl`: one-shot client for a running `escaped`. File-based
/// verbs read the file here and ship its contents — the daemon never
/// touches the client's filesystem.
fn run_ctl(args: Vec<String>) -> Result<(), String> {
    let mut socket = String::from("escaped.sock");
    let mut json_flag = false;
    let mut prom = false;
    let mut topics: Vec<WatchTopic> = Vec::new();
    let mut since: Option<u64> = None;
    let mut request_id: Option<String> = None;
    let mut words: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--socket" => socket = it.next().ok_or("--socket needs a value")?,
            "--json" => json_flag = true,
            "--prom" => prom = true,
            "--topics" => {
                let list = it.next().ok_or("--topics needs a value")?;
                for t in list.split(',') {
                    topics.push(WatchTopic::parse(t).map_err(|e| e.to_string())?);
                }
            }
            "--since" => {
                since = Some(
                    it.next()
                        .ok_or("--since needs a value")?
                        .parse()
                        .map_err(|_| "bad --since sequence number")?,
                )
            }
            "--request-id" => request_id = Some(it.next().ok_or("--request-id needs a value")?),
            other if other.starts_with("--") => {
                return Err(format!("unknown ctl option {other}\n{CTL_USAGE}"))
            }
            other => words.push(other.to_string()),
        }
    }
    let Some(verb) = words.first().cloned() else {
        return Err(CTL_USAGE.into());
    };
    if verb == "watch" {
        let client = CtlClient::connect(&socket).map_err(|e| format!("{socket}: {e}"))?;
        return run_ctl_watch(client, &topics, since);
    }
    let arg = |i: usize, what: &str| -> Result<String, String> {
        words
            .get(i)
            .cloned()
            .ok_or_else(|| format!("ctl {verb}: missing {what}\n{CTL_USAGE}"))
    };
    let req = match verb.as_str() {
        "status" => CtlRequest::Status,
        "deploy" => {
            let file = arg(1, "service-graph file")?;
            let sg = std::fs::read_to_string(&file).map_err(|e| format!("{file}: {e}"))?;
            let format = if json_flag {
                InputFormat::Json
            } else {
                InputFormat::from_path(&file)
            };
            CtlRequest::Deploy { sg, format }
        }
        "teardown" => CtlRequest::Teardown {
            chain: arg(1, "chain name")?,
        },
        "run-for" => CtlRequest::RunFor {
            ms: arg(1, "milliseconds")?
                .parse()
                .map_err(|_| "bad milliseconds")?,
        },
        "fault" => {
            let file = arg(1, "fault plan file")?;
            CtlRequest::Fault {
                plan: std::fs::read_to_string(&file).map_err(|e| format!("{file}: {e}"))?,
            }
        }
        "heal" => CtlRequest::Heal,
        "metrics" => CtlRequest::Metrics {
            format: if prom {
                MetricsFormat::Prometheus
            } else {
                MetricsFormat::Json
            },
        },
        "sla" => CtlRequest::Sla,
        "series" => CtlRequest::Series,
        "journal" => CtlRequest::Journal,
        "fingerprint" => CtlRequest::Fingerprint,
        "traffic" => {
            let spec = arg(1, "FROM:TO:COUNT[:LEN[:US]]")?;
            let parts: Vec<&str> = spec.split(':').collect();
            if parts.len() < 3 {
                return Err(format!("ctl traffic {spec:?}: need FROM:TO:COUNT"));
            }
            CtlRequest::Traffic {
                from: parts[0].into(),
                to: parts[1].into(),
                frames: parts[2]
                    .parse()
                    .map_err(|_| format!("bad count in {spec:?}"))?,
                len: parts
                    .get(3)
                    .map_or(Ok(128), |s| s.parse())
                    .map_err(|_| format!("bad len in {spec:?}"))?,
                interval_us: parts
                    .get(4)
                    .map_or(Ok(200), |s| s.parse())
                    .map_err(|_| format!("bad interval in {spec:?}"))?,
            }
        }
        "scale" => CtlRequest::Scale {
            chain: arg(1, "chain name")?,
            vnf: arg(2, "vnf name")?,
            replicas: arg(3, "replica count")?
                .parse()
                .map_err(|_| "bad replica count")?,
        },
        "shutdown" => CtlRequest::Shutdown,
        other => return Err(format!("unknown ctl verb {other:?}\n{CTL_USAGE}")),
    };
    let mut client = CtlClient::connect(&socket).map_err(|e| format!("{socket}: {e}"))?;
    let resp = match &request_id {
        Some(id) => client.call_with_id(&req, id),
        None => client.call(&req),
    }
    .map_err(|e| format!("{socket}: {e}"))?;
    render_ctl_response(resp)
}

/// `escape ctl watch`: subscribe and render the live event feed until
/// the daemon closes the stream (shutdown or slow-consumer eviction).
/// `--since SEQ` replays journal history from that sequence number
/// before going live — the crash-recovery resume cursor.
fn run_ctl_watch(
    client: CtlClient,
    topics: &[WatchTopic],
    since: Option<u64>,
) -> Result<(), String> {
    let mut watch = client.watch(topics, since).map_err(|e| e.to_string())?;
    let acked: Vec<&str> = watch.topics().iter().map(|t| t.label()).collect();
    eprintln!("watching: {}", acked.join(", "));
    while let Some(ev) = watch.next_event().map_err(|e| e.to_string())? {
        match ev {
            CtlEvent::Journal {
                at_ns,
                severity,
                kind,
                detail,
            } => println!("[{at_ns:>12}ns] {severity:<5} {kind:<24} {detail}"),
            CtlEvent::MetricsDelta { at_ns, deltas } => {
                let rendered: Vec<String> = deltas
                    .iter()
                    .map(|d| {
                        let labels = if d.labels.is_empty() {
                            String::new()
                        } else {
                            let kv: Vec<String> =
                                d.labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
                            format!("{{{}}}", kv.join(","))
                        };
                        match d.metric.as_str() {
                            "gauge" => format!("{}{labels}={}", d.name, fmt_point(d.value)),
                            _ => format!("{}{labels}+{}", d.name, fmt_point(d.value)),
                        }
                    })
                    .collect();
                println!(
                    "[{at_ns:>12}ns] info  metrics-delta            {}",
                    rendered.join(" ")
                );
            }
            CtlEvent::Sla { at_ns, verdicts } => {
                for v in &verdicts {
                    println!(
                        "[{at_ns:>12}ns] {} sla-verdict              chain {}: {} (delivered {} dropped {} loss {:.3})",
                        if v.pass { "info " } else { "warn " },
                        v.chain,
                        if v.pass { "PASS" } else { "FAIL" },
                        v.delivered,
                        v.dropped,
                        v.loss
                    );
                }
            }
            CtlEvent::Lagged { missed } => {
                println!("[      lagged  ] warn  lagged                   {missed} frame(s) dropped (slow consumer)");
            }
        }
    }
    eprintln!("watch stream closed by daemon");
    Ok(())
}

const TOP_USAGE: &str = "usage: escape top [--socket PATH] [--json]";

/// `escape top`: fetch the daemon's sampler series and render one
/// sparkline row per moving metric (or the raw JSON with `--json`).
fn run_top(args: Vec<String>) -> Result<(), String> {
    let mut socket = String::from("escaped.sock");
    let mut raw = false;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--socket" => socket = it.next().ok_or("--socket needs a value")?,
            "--json" => raw = true,
            other => return Err(format!("unknown top option {other}\n{TOP_USAGE}")),
        }
    }
    let mut client = CtlClient::connect(&socket).map_err(|e| format!("{socket}: {e}"))?;
    let body = match client
        .call(&CtlRequest::Series)
        .map_err(|e| format!("{socket}: {e}"))?
    {
        CtlResponse::Series { body } => body,
        CtlResponse::Error(e) => return Err(e.to_string()),
        other => return Err(format!("unexpected response {other:?}")),
    };
    if raw {
        print!("{body}");
        return Ok(());
    }
    print!("{}", render_top(&body)?);
    Ok(())
}

/// Renders a series document as a sparkline table.
fn render_top(body: &str) -> Result<String, String> {
    let doc = Value::parse(body).map_err(|e| format!("bad series document: {e}"))?;
    let period_ns = doc
        .get("period_ns")
        .and_then(Value::as_u64)
        .unwrap_or_default();
    let evicted = doc
        .get("evicted")
        .and_then(Value::as_u64)
        .unwrap_or_default();
    let at_ns = doc.get("at_ns").and_then(Value::as_arr).unwrap_or(&[]);
    let series = doc.get("series").and_then(Value::as_arr).unwrap_or(&[]);
    let mut out = String::new();
    let window_ns = match (at_ns.first(), at_ns.last()) {
        (Some(a), Some(b)) => b.as_u64().unwrap_or(0) - a.as_u64().unwrap_or(0),
        _ => 0,
    };
    out.push_str(&format!(
        "{} samples @ {:.1} ms (window {:.1} ms, {} evicted)\n",
        at_ns.len(),
        period_ns as f64 / 1e6,
        window_ns as f64 / 1e6,
        evicted
    ));
    if series.is_empty() {
        out.push_str("(no metric moved in the sampled window)\n");
        return Ok(out);
    }
    let mut rows = Vec::new();
    let mut name_width = "METRIC".len();
    for s in series {
        let mut name = s
            .get("name")
            .and_then(Value::as_str)
            .unwrap_or("?")
            .to_string();
        if let Some(Value::Obj(labels)) = s.get("labels") {
            if !labels.is_empty() {
                let kv: Vec<String> = labels
                    .iter()
                    .map(|(k, v)| format!("{k}={}", v.as_str().unwrap_or("?")))
                    .collect();
                name.push_str(&format!("{{{}}}", kv.join(",")));
            }
        }
        let kind = s.get("kind").and_then(Value::as_str).unwrap_or("?");
        let points: Vec<f64> = s
            .get("points")
            .and_then(Value::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(Value::as_f64)
            .collect();
        name_width = name_width.max(name.len());
        rows.push((name, kind.to_string(), points));
    }
    out.push_str(&format!(
        "{:<name_width$}  {:<9}  {:>10}  {}\n",
        "METRIC", "KIND", "LAST", "SPARKLINE"
    ));
    for (name, kind, points) in rows {
        let last = points.last().copied().unwrap_or(0.0);
        out.push_str(&format!(
            "{name:<name_width$}  {kind:<9}  {:>10}  {}\n",
            fmt_point(last),
            sparkline(&points)
        ));
    }
    Ok(out)
}

/// Scales points onto eight bar glyphs; a flat series renders as a run
/// of low bars.
fn sparkline(points: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = points.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = points.iter().copied().fold(f64::INFINITY, f64::min);
    points
        .iter()
        .map(|p| {
            if max > min {
                let idx = ((p - min) / (max - min) * 7.0).round() as usize;
                BARS[idx.min(7)]
            } else {
                BARS[0]
            }
        })
        .collect()
}

/// Formats a sample point: integers without a fraction, everything else
/// with two decimals.
fn fmt_point(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.2}")
    }
}

/// Renders one daemon response for humans; typed errors become the
/// process's failure message (exit code 1).
fn render_ctl_response(resp: CtlResponse) -> Result<(), String> {
    match resp {
        CtlResponse::Status(s) => {
            println!(
                "now {} ns | utilization {:.2} | {} chain(s), {} queued deploy(s)",
                s.now_ns,
                s.utilization,
                s.chains.len(),
                s.pending_admissions
            );
            for c in &s.chains {
                println!(
                    "  {}: cookie={} rules={} [{}]",
                    c.name,
                    c.cookie,
                    c.rules,
                    c.placements()
                );
            }
            println!(
                "deploys={} failures={} teardowns={} recoveries={} recovery_failures={} \
                 rollbacks={} rejected={} events={}",
                s.deploys,
                s.deploy_failures,
                s.teardowns,
                s.recoveries,
                s.recovery_failures,
                s.rollbacks,
                s.admission_rejected,
                s.events
            );
            if s.restarted {
                println!(
                    "restarted: recovered {} chain(s), rolled back {} transaction(s)",
                    s.recovered_chains, s.rolled_back_txns
                );
            }
        }
        CtlResponse::Deployed(d) => {
            for c in &d.chains {
                println!(
                    "deployed {}: [{}] {} rules",
                    c.name,
                    c.placements(),
                    c.rules
                );
            }
            println!(
                "setup: total {} ns (netconf {} ns, steering {} ns)",
                d.total_ns, d.netconf_ns, d.steering_ns
            );
        }
        CtlResponse::Queued {
            position,
            utilization,
        } => println!("queued at position {position} (utilization {utilization:.2})"),
        CtlResponse::ToreDown { chain } => println!("torn down {chain}"),
        CtlResponse::Advanced { now_ns } => println!("advanced to {now_ns} ns"),
        CtlResponse::FaultArmed { events } => println!("fault plan armed: {events} event(s)"),
        CtlResponse::Healed {
            recoveries,
            failures,
        } => println!("healed: recoveries={recoveries} failures={failures}"),
        CtlResponse::Metrics { body, .. } => print!("{body}"),
        CtlResponse::Sla(verdicts) => {
            for v in &verdicts {
                println!(
                    "{}: {} delivered={} dropped={} loss={:.3} max_latency={}{}",
                    v.chain,
                    if v.pass { "PASS" } else { "FAIL" },
                    v.delivered,
                    v.dropped,
                    v.loss,
                    v.max_latency_ns
                        .map(|ns| format!("{ns}ns"))
                        .unwrap_or_else(|| "-".into()),
                    if v.violations.is_empty() {
                        String::new()
                    } else {
                        format!(" ({})", v.violations.join("; "))
                    }
                );
            }
        }
        CtlResponse::Series { body } => print!("{body}"),
        CtlResponse::Journal { body } => print!("{body}"),
        CtlResponse::Watching { topics } => {
            let labels: Vec<&str> = topics.iter().map(|t| t.label()).collect();
            println!("watching: {}", labels.join(", "));
        }
        CtlResponse::TrafficStarted => println!("traffic started"),
        CtlResponse::Scaled {
            chain,
            vnf,
            from,
            to,
            rules,
            cutover_ns,
        } => println!(
            "scaled {chain}/{vnf}: {from} -> {to} replica(s), {rules} rules, cutover {cutover_ns} ns"
        ),
        CtlResponse::Fingerprint { digest } => println!("{digest}"),
        CtlResponse::ShuttingDown => println!("daemon shutting down"),
        CtlResponse::Error(e) => return Err(e.to_string()),
    }
    Ok(())
}

fn main() -> ExitCode {
    let o = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    if let Some(args) = o.daemon.clone() {
        let d = match parse_daemon_args(args.into_iter()) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("error: {e}\n{DAEMON_USAGE}");
                return ExitCode::from(2);
            }
        };
        return match run_daemon(d, true) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let result = if let Some(args) = o.ctl.clone() {
        run_ctl(args)
    } else if let Some(args) = o.top.clone() {
        run_top(args)
    } else if o.soak {
        run_soak_cmd(o)
    } else if o.metrics {
        run_metrics(o)
    } else if o.trace {
        run_trace(o)
    } else if let Some(spec_file) = o.domains.clone() {
        run_domains(o, &spec_file)
    } else {
        run(o)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
