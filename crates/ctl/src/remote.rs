//! The commands that drive a running daemon: `escape ctl <verb>` and
//! `escape top`. Each turns its words into one [`CtlRequest`], sends it
//! through [`CtlClient`] and renders the typed reply for humans.

use crate::args::{self, Args, DEFAULT_SOCKET};
use crate::load;
use crate::proto::{CtlEvent, CtlRequest, CtlResponse, MetricsFormat, WatchTopic};
use crate::CtlClient;
use escape_json::Value;

pub const CTL_USAGE: &str = "usage: escape ctl [--socket PATH] [--request-id ID] <verb>\n  \
     verbs: status | deploy FILE [--json] | teardown CHAIN | run-for MS | fault PLAN.json |\n         \
     heal | metrics [--prom] | sla | series | journal | fingerprint |\n         \
     watch [--topics events,metrics-deltas,sla] [--since SEQ] |\n         \
     traffic FROM:TO:COUNT[:LEN[:US]] | scale CHAIN VNF REPLICAS | shutdown";

/// Parses `escape ctl`'s words into `(socket, request id, request)`.
/// Options may stand anywhere among the words. File-based verbs read the
/// file here and ship its contents — the daemon never touches the
/// client's filesystem.
pub fn parse_ctl(words: Vec<String>) -> Result<(String, Option<String>, CtlRequest), String> {
    let mut socket = String::from(DEFAULT_SOCKET);
    let mut json = false;
    let mut prom = false;
    let mut topics: Vec<WatchTopic> = Vec::new();
    let mut since: Option<u64> = None;
    let mut request_id: Option<String> = None;
    let mut args = Args::new(words);
    let mut words: Vec<String> = Vec::new();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--socket" => socket = args.value()?,
            "--json" => json = true,
            "--prom" => prom = true,
            "--topics" => {
                for t in args.value()?.split(',') {
                    topics.push(WatchTopic::parse(t).map_err(|e| e.to_string())?);
                }
            }
            "--since" => since = Some(args.parsed("--since sequence number")?),
            "--request-id" => request_id = Some(args.value()?),
            other if other.starts_with("--") => {
                return Err(format!("unknown ctl option {other}\n{CTL_USAGE}"))
            }
            _ => words.push(a),
        }
    }
    let Some(verb) = words.first() else {
        return Err(CTL_USAGE.into());
    };
    let arg = |i: usize, what: &str| -> Result<&str, String> {
        words
            .get(i)
            .map(String::as_str)
            .ok_or_else(|| format!("ctl {verb}: missing {what}\n{CTL_USAGE}"))
    };
    let req = match verb.as_str() {
        "status" => CtlRequest::Status,
        "deploy" => {
            let file = arg(1, "service-graph file")?;
            CtlRequest::Deploy {
                sg: load::read(file)?,
                format: load::format(file, json),
            }
        }
        "teardown" => CtlRequest::Teardown {
            chain: arg(1, "chain name")?.into(),
        },
        "run-for" => CtlRequest::RunFor {
            ms: arg(1, "milliseconds")?
                .parse()
                .map_err(|_| "bad milliseconds")?,
        },
        "fault" => CtlRequest::Fault {
            plan: load::read(arg(1, "fault plan file")?)?,
        },
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
        "watch" => CtlRequest::Watch { topics, since },
        "traffic" => {
            let spec = arg(1, "FROM:TO:COUNT[:LEN[:US]]")?;
            let (from, to, frames, len, interval_us) = args::flow(spec, "ctl traffic")?;
            CtlRequest::Traffic {
                from,
                to,
                frames,
                len,
                interval_us,
            }
        }
        "scale" => CtlRequest::Scale {
            chain: arg(1, "chain name")?.into(),
            vnf: arg(2, "vnf name")?.into(),
            replicas: arg(3, "replica count")?
                .parse()
                .map_err(|_| "bad replica count")?,
        },
        "shutdown" => CtlRequest::Shutdown,
        other => return Err(format!("unknown ctl verb {other:?}\n{CTL_USAGE}")),
    };
    Ok((socket, request_id, req))
}

fn connect(socket: &str) -> Result<CtlClient, String> {
    CtlClient::connect(socket).map_err(|e| format!("{socket}: {e}"))
}

/// One request to the daemon on `socket`, one reply.
fn call(socket: &str, req: &CtlRequest, request_id: Option<&str>) -> Result<CtlResponse, String> {
    let mut client = connect(socket)?;
    match request_id {
        Some(id) => client.call_with_id(req, id),
        None => client.call(req),
    }
    .map_err(|e| format!("{socket}: {e}"))
}

/// `escape ctl`: one-shot client for a running `escaped`.
pub fn ctl(words: Vec<String>) -> Result<(), String> {
    let (socket, request_id, req) = parse_ctl(words)?;
    if let CtlRequest::Watch { topics, since } = req {
        return watch(connect(&socket)?, &topics, since);
    }
    render_response(call(&socket, &req, request_id.as_deref())?)
}

/// `escape ctl watch`: subscribe and render the live event feed until
/// the daemon closes the stream (shutdown or slow-consumer eviction).
/// `--since SEQ` replays journal history from that sequence number
/// before going live — the crash-recovery resume cursor.
fn watch(client: CtlClient, topics: &[WatchTopic], since: Option<u64>) -> Result<(), String> {
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
                        let labels = d.labels.iter().map(|(k, v)| (k.as_str(), v.as_str()));
                        let labels = label_set(labels);
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

pub const TOP_USAGE: &str = "usage: escape top [--socket PATH] [--json]";

/// `escape top`: fetch the daemon's sampler series and render one
/// sparkline row per moving metric (or the raw JSON with `--json`).
pub fn top(words: Vec<String>) -> Result<(), String> {
    let mut socket = String::from(DEFAULT_SOCKET);
    let mut raw = false;
    let mut args = Args::new(words);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--socket" => socket = args.value()?,
            "--json" => raw = true,
            other => return Err(format!("unknown top option {other}\n{TOP_USAGE}")),
        }
    }
    let body = match call(&socket, &CtlRequest::Series, None)? {
        CtlResponse::Series { body } => body,
        CtlResponse::Error(e) => return Err(e.to_string()),
        other => return Err(format!("unexpected response {other:?}")),
    };
    if raw {
        print!("{body}");
    } else {
        print!("{}", render_top(&body)?);
    }
    Ok(())
}

/// Renders a series document as a sparkline table. The document comes
/// from the daemon, so every field is read defensively.
pub fn render_top(body: &str) -> Result<String, String> {
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
    // The daemon stamps samples in order; a document that does not is
    // rendered with an empty window, not trusted.
    let ns = |v: Option<&Value>| v.and_then(Value::as_u64).unwrap_or(0);
    let window_ns = ns(at_ns.last()).saturating_sub(ns(at_ns.first()));
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
            let labels = labels
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str().unwrap_or("?")));
            name.push_str(&label_set(labels));
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

/// `{k=v,...}` after a metric's name; nothing for an unlabelled one.
fn label_set<'a>(labels: impl Iterator<Item = (&'a str, &'a str)>) -> String {
    let kv: Vec<String> = labels.map(|(k, v)| format!("{k}={v}")).collect();
    if kv.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", kv.join(","))
    }
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
fn render_response(resp: CtlResponse) -> Result<(), String> {
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
        CtlResponse::Metrics { body, .. }
        | CtlResponse::Series { body }
        | CtlResponse::Journal { body } => print!("{body}"),
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
