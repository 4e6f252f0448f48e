//! The one-shot commands — `escape run`, `metrics`, `trace`, `soak` —
//! and the one driver the first three share.
//!
//! A one-shot run is: load the inputs, build a [`Session`], deploy, start
//! the flows, advance the clock, report. [`drive`] is that sequence;
//! the commands differ only in what they arm between deploy and the
//! clock and in what they print afterwards, so `escape metrics` renders
//! the very environment `escape ctl metrics` would. (`--domains` is the
//! exception: the multi-domain runtime is not a session yet.)

use crate::args::{self, Args, Flow};
use crate::load;
use escape::env::Escape;
use escape::monitor::format_handler_table;
use escape::session::demo_topology;
use escape::{ChainInfo, MultiDomainEscape, Session, SessionConfig};
use escape_json::wire::Wire;
use escape_netem::{FaultPlan, HostStats};
use escape_orch::workload::{random_service_graph, WorkloadSpec};
use escape_sg::{ResourceTopology, ServiceGraph, Sla};

/// Which one-shot command is running.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    Run,
    Metrics,
    Trace,
    Soak,
}

impl Command {
    const ALL: [Command; 4] = [
        Command::Run,
        Command::Metrics,
        Command::Trace,
        Command::Soak,
    ];

    fn word(self) -> &'static str {
        match self {
            Command::Run => "run",
            Command::Metrics => "metrics",
            Command::Trace => "trace",
            Command::Soak => "soak",
        }
    }

    /// Whether the command reads `option`. `run`, `metrics` and `trace`
    /// share the driver's inputs, session and flows; `soak` builds its
    /// own run.
    fn reads(self, option: &str) -> bool {
        let table = match self {
            Command::Run => {
                "--algorithm --steering --seed --json --workload --traffic --duration-ms \
                 --ping --monitor --faults --domains --workers"
            }
            Command::Metrics => {
                "--algorithm --steering --seed --json --workload --traffic --duration-ms \
                 --format"
            }
            Command::Trace => {
                "--algorithm --steering --seed --json --workload --traffic --duration-ms \
                 --chrome"
            }
            Command::Soak => "--steps --seed --json",
        };
        table.split(' ').any(|o| o == option)
    }
}

/// Everything the one-shot commands accept; each reads what it needs.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Topology file; the built-in demo substrate when `None`.
    pub topo: Option<String>,
    /// Service-graph file; the built-in demo chain when `None`.
    pub sg: Option<String>,
    /// `--algorithm`, `--steering`, `--seed`.
    pub session: SessionConfig,
    pub traffic: Vec<Flow>,
    /// `(from, to, count)`.
    pub pings: Vec<(String, String, u64)>,
    pub duration_ms: u64,
    /// `(chain, vnf)`.
    pub monitors: Vec<(String, String)>,
    /// Input files are JSON whatever their names (for `soak`: also
    /// print the report as JSON).
    pub json: bool,
    /// Fault plan file (JSON); enables self-healing recovery.
    pub faults: Option<String>,
    /// `--format json`: the metrics subcommand prints the JSON
    /// exposition instead of Prometheus text.
    pub format_json: bool,
    /// Chrome trace-event output file (trace subcommand).
    pub chrome: Option<String>,
    /// Domain spec file (JSON); enables multi-domain orchestration.
    pub domains: Option<String>,
    /// Simulator worker threads for the multi-domain epoch loop (1 when
    /// not given).
    pub workers: Option<usize>,
    /// Generate this many random chains instead of reading an SG file.
    pub workload: Option<usize>,
    /// Steps for the soak subcommand.
    pub steps: u64,
}

/// Parses the one-shot commands' shared options for `cmd`. `explicit`
/// says a subcommand word was given, which is what makes a run without
/// files (the built-in demo) legal.
pub fn parse(cmd: Command, words: Vec<String>, explicit: bool) -> Result<RunOptions, String> {
    let mut o = RunOptions {
        duration_ms: 200,
        steps: 500,
        ..RunOptions::default()
    };
    let (mut files, mut given) = (Vec::new(), Vec::new());
    let mut args = Args::new(words);
    while let Some(a) = args.next() {
        if a.starts_with("--") {
            given.push(a.clone());
        }
        match a.as_str() {
            "--algorithm" => o.session.algorithm = args.value()?,
            "--steering" => o.session.steering = args::steering(&args.value()?)?,
            "--traffic" => o.traffic.push(args::flow(&args.value()?, "--traffic")?),
            "--ping" => {
                let v = args.value()?;
                let ends = args::fields(&v);
                if ends.len() != 3 {
                    return Err(format!("--ping {v:?}: need FROM:TO:COUNT"));
                }
                let count = args::field(&v, 2, 0, "count")?;
                o.pings.push((ends[0].into(), ends[1].into(), count));
            }
            "--duration-ms" => o.duration_ms = args.parsed("duration")?,
            "--monitor" => {
                let v = args.value()?;
                let (chain, vnf) = v
                    .split_once(':')
                    .ok_or_else(|| format!("--monitor {v:?}: need CHAIN:VNF"))?;
                o.monitors.push((chain.to_string(), vnf.to_string()));
            }
            "--seed" => o.session.seed = args.parsed("seed")?,
            "--json" => o.json = true,
            "--faults" => o.faults = Some(args.value()?),
            "--chrome" => o.chrome = Some(args.value()?),
            "--domains" => o.domains = Some(args.value()?),
            "--workers" => {
                let workers = args.parsed("workers")?;
                if workers == 0 {
                    return Err("--workers must be at least 1".into());
                }
                o.workers = Some(workers);
            }
            "--workload" => o.workload = Some(args.parsed("workload")?),
            "--steps" => o.steps = args.parsed("steps")?,
            "--format" => {
                o.format_json = match args.value()?.as_str() {
                    "prometheus" => false,
                    "json" => true,
                    other => return Err(format!("unknown format {other:?}")),
                }
            }
            other if other.starts_with("--") => return Err(format!("unknown option {other}")),
            _ => files.push(a),
        }
    }
    let mut files = files.into_iter();
    match files.len() {
        2 => (o.topo, o.sg) = (files.next(), files.next()),
        // With a generated workload only the topology is needed.
        1 if o.workload.is_some() => o.topo = files.next(),
        // A bare subcommand uses the built-in demo chain; `escape soak`
        // needs no files at all.
        0 if explicit => {}
        _ => return Err("need exactly two positional arguments".into()),
    }
    reject_unread(cmd, &given, &o)?;
    Ok(o)
}

/// An option `cmd` does not read would be dropped silently, so it is a
/// usage error that names it. The multi-domain fork (`escape run` only)
/// reads neither streams, pings, monitors nor fault plans either.
fn reject_unread(cmd: Command, given: &[String], o: &RunOptions) -> Result<(), String> {
    if let Some(flag) = given.iter().find(|f| !cmd.reads(f)) {
        let with: Vec<&str> = Command::ALL
            .into_iter()
            .filter(|c| c.reads(flag))
            .map(Command::word)
            .collect();
        return Err(format!("{flag} works with escape {} only", with.join("/")));
    }
    if o.domains.is_none() {
        return match o.workers {
            Some(_) => Err("--workers needs --domains".into()),
            None => Ok(()),
        };
    }
    let fork_unread = ["--traffic", "--ping", "--monitor", "--faults"];
    match given.iter().find(|f| fork_unread.contains(&f.as_str())) {
        Some(flag) => Err(format!("{flag} does not work with --domains")),
        None => Ok(()),
    }
}

/// Runs one parsed one-shot command.
pub fn run(cmd: Command, o: &RunOptions) -> Result<(), String> {
    match (cmd, &o.domains) {
        (Command::Soak, _) => soak(o),
        (Command::Run, Some(spec)) => run_domains(o, spec),
        _ => drive(cmd, o),
    }
}

/// The built-in demo chain: firewall then monitor between the demo
/// substrate's two SAPs.
fn demo_service_graph() -> ServiceGraph {
    ServiceGraph::new()
        .sap("sap0")
        .sap("sap1")
        .vnf("fw", "firewall", 1.0, 256)
        .vnf("mon", "monitor", 0.5, 64)
        .chain("demo", &["sap0", "fw", "mon", "sap1"], 100.0, Some(50_000))
        .with_sla(Sla {
            max_latency_us: Some(50_000),
            max_loss: Some(0.1),
        })
}

/// Loads the topology / service-graph pair the options name; the
/// built-in demo for whichever file was not given. With `--workload N`
/// the service graph is generated instead: N random chains over the
/// topology's SAPs, seeded by `--seed`.
fn load_inputs(o: &RunOptions) -> Result<(ResourceTopology, ServiceGraph), String> {
    let topo = match &o.topo {
        Some(file) => load::topology(file, o.json)?,
        None => demo_topology(),
    };
    let sg = match (o.workload, &o.sg) {
        (Some(chains), _) => {
            let spec = WorkloadSpec {
                chains,
                seed: o.session.seed,
                ..WorkloadSpec::default()
            };
            // Typed error, surfaced verbatim ("topology has N SAP(s);
            // random workloads need at least two").
            random_service_graph(&topo, &spec).map_err(|e| e.to_string())?
        }
        (None, Some(file)) => load::service_graph(file, o.json)?,
        (None, None) => demo_service_graph(),
    };
    Ok((topo, sg))
}

/// The one-shot driver: `escape run` narrates each step as it happens
/// and reports SAP, monitor and fault results; `escape metrics` dumps
/// the telemetry registry through [`Session::metrics_exposition`]; and
/// `escape trace` arms the flight recorder and prints every packet's
/// journey. The last two push a default flow through every chain when
/// no `--traffic` was given, so counters move.
fn drive(cmd: Command, o: &RunOptions) -> Result<(), String> {
    let (topo, sg) = load_inputs(o)?;
    // `escape run` narrates each step and is the one command that arms
    // pings and the fault plan.
    let run = cmd == Command::Run;
    let plan = match &o.faults {
        Some(file) if run => Some(load::fault_plan(file)?),
        _ => None,
    };
    if run {
        println!(
            "escape: {} switches, {} containers, {} SAPs | {} VNFs, {} chains | algorithm={} steering={:?}",
            topo.switches().count(),
            topo.containers().count(),
            topo.saps().count(),
            sg.vnfs.len(),
            sg.chains.len(),
            o.session.algorithm,
            o.session.steering,
        );
    }
    let text = |e: escape::EscapeError| e.to_string();
    let mut session = Session::new(topo, o.session.clone()).map_err(text)?;
    let report = session.deploy(&sg).map_err(text)?;
    if run {
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
    }
    // The recorder must be armed before the first frame is sent.
    if cmd == Command::Trace {
        session.escape_mut().enable_flight_recorder(65_536);
    }

    let mut flows = o.traffic.clone();
    let default_frames = match cmd {
        Command::Metrics => 20,
        Command::Trace => 5,
        _ => 0,
    };
    if flows.is_empty() && default_frames > 0 {
        for chain in &sg.chains {
            let src = chain.hops.first().map_or("", String::as_str);
            let dst = chain.hops.last().map_or("", String::as_str);
            flows.push((src.into(), dst.into(), default_frames, 128, 200));
        }
    }
    for (from, to, frames, len, us) in &flows {
        session
            .start_udp(from, to, *len as usize, *us, *frames)
            .map_err(text)?;
        if run {
            println!("traffic: {from} -> {to}, {frames} x {len} B every {us} µs");
        }
    }
    if run {
        for (from, to, count) in &o.pings {
            session
                .escape_mut()
                .start_ping(from, to, 1_000, *count)
                .map_err(text)?;
            println!("ping: {from} -> {to} x {count}");
        }
        if let Some(plan) = &plan {
            session.escape_mut().load_fault_plan(plan).map_err(text)?;
            println!(
                "faults: plan {:?} armed, {} events",
                plan.name,
                plan.events.len()
            );
        }
    }
    session.run_for_ms(o.duration_ms);

    match cmd {
        Command::Metrics => {
            print!("{}", session.metrics_exposition(o.format_json));
            Ok(())
        }
        Command::Trace => report_trace(session.escape(), o),
        _ => report_run(session.escape_mut(), o, plan.as_ref()),
    }
}

/// A SAP's mean one-way latency, `-` before its first frame.
fn mean_latency(s: &HostStats) -> String {
    s.mean_latency().map_or("-".into(), |t| t.to_string())
}

/// `escape trace`: per-packet journeys, the journey count and SLA
/// verdicts; optionally a Chrome trace-event file.
fn report_trace(esc: &Escape, o: &RunOptions) -> Result<(), String> {
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

/// `escape run`: every SAP with any receive activity, the `--monitor`
/// handler tables and, after a fault plan, the fault / recovery summary
/// with the deterministic event trace.
fn report_run(esc: &mut Escape, o: &RunOptions, plan: Option<&FaultPlan>) -> Result<(), String> {
    for sap in esc.topology().saps() {
        let s = esc.sap_stats(&sap.name).map_err(|e| e.to_string())?;
        if s.udp_rx + s.icmp_echo_rx + s.icmp_reply_rx > 0 {
            println!(
                "{}: udp_rx={} bytes={} echo_rx={} reply_rx={} mean_latency={}",
                sap.name,
                s.udp_rx,
                s.bytes_rx,
                s.icmp_echo_rx,
                s.icmp_reply_rx,
                mean_latency(&s),
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
    if plan.is_some() {
        let m = esc.telemetry();
        println!(
            "faults: injected={} recoveries={} failures={} rpc_retries={}",
            m.counter_total("faults.injected"),
            m.counter_total("escape.recoveries"),
            m.counter_total("escape.recovery_failures"),
            m.counter_total("netconf.rpc_retries"),
        );
        for line in esc.event_trace() {
            println!("  {line}");
        }
    }
    Ok(())
}

/// `escape run --domains spec.json`: partition the topology, stitch the
/// chains hierarchically, drive all domain simulators in epoch lockstep
/// and report per-domain results plus the merged event trace.
fn run_domains(o: &RunOptions, spec_file: &str) -> Result<(), String> {
    let (topo, sg) = load_inputs(o)?;
    let spec = load::domain_spec(spec_file)?;
    let workers = o.workers.unwrap_or(1);

    println!(
        "escape: {} domains over {} nodes | {} VNFs, {} chains | algorithm={} workers={workers}",
        spec.domains.len(),
        topo.nodes.len(),
        sg.vnfs.len(),
        sg.chains.len(),
        o.session.algorithm,
    );

    let text = |e: escape::EscapeError| e.to_string();
    let mut md = MultiDomainEscape::build(
        &topo,
        &spec,
        &o.session.algorithm,
        o.session.steering,
        o.session.seed,
        workers,
    )
    .map_err(text)?;
    for g in &md.partition().gateways {
        println!(
            "gateway {}: {}({}) -- {}({}) {}us",
            g.id, g.a_domain, g.a_switch, g.b_domain, g.b_switch, g.delay_us
        );
    }
    md.deploy(&sg).map_err(text)?;
    print!("{}", md.embedding_trace());

    for chain in &sg.chains {
        md.start_chain_udp(&chain.name, 128, 200, 20)
            .map_err(text)?;
    }
    md.run_for_ms(o.duration_ms);

    let sap_names: Vec<String> = md
        .partition()
        .domains
        .iter()
        .flat_map(|d| d.view.saps.clone())
        .collect();
    for sap in sap_names {
        let s = md.sap_stats(&sap).map_err(text)?;
        if s.udp_rx > 0 {
            println!(
                "{sap}: udp_rx={} bytes={} mean_latency={}",
                s.udp_rx,
                s.bytes_rx,
                mean_latency(&s),
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

/// `escape soak`: run the leak-hunting soak harness and print its
/// report. Fails if any step violated a conservation invariant.
fn soak(o: &RunOptions) -> Result<(), String> {
    let report = escape::soak::run_soak(escape::soak::SoakConfig {
        steps: o.steps,
        seed: o.session.seed,
    });
    println!("{}", report.summary());
    if o.json {
        println!("{}", report.to_value());
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
