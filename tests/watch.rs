//! Streaming observability witnesses: an in-process `escaped` daemon
//! with `watch` subscribers attached over the socket.
//!
//! Covers the push contract end to end — a subscriber registered before
//! a command is guaranteed to observe it (deploy, fault, heal, SLA
//! flips), metric-delta frames reconcile exactly against the polled
//! metrics exposition, the slow-consumer path surfaces a typed `lagged`
//! frame and keeps streaming afterwards, and two same-seed scripted
//! daemons export byte-identical event journals.

use escape::session::demo_topology;
use escape::{Session, SessionConfig};
use escape_ctl::proto::{CtlRequest, CtlResponse, MetricsFormat, SgFormat};
use escape_ctl::server::{Daemon, DaemonConfig};
use escape_ctl::{CtlClient, CtlEvent, CtlWatch, WatchTopic};
use escape_json::Value;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

const DEMO_SG: &str = "sap sap0 sap1\n\
                       vnf fw type=firewall cpu=1\n\
                       chain demo = sap0 -> fw -> sap1 bw=50\n";

/// Survivable loss spike on the demo trunk, later cleared.
const FLAP_PLAN: &str = r#"{
  "name": "trunk-flap",
  "events": [
    { "at_us": 1000, "kind": "loss_spike", "a": "s0", "b": "s1", "loss": 0.1 },
    { "at_us": 9000, "kind": "loss_clear", "a": "s0", "b": "s1" }
  ]
}"#;

/// Hard cut: the demo substrate is linear, so this fails the chain and
/// forces the heal path to run (and fail — there is no backup path).
const CUT_PLAN: &str = r#"{
  "name": "trunk-cut",
  "events": [
    { "at_us": 1000, "kind": "link_down", "a": "s0", "b": "s1" }
  ]
}"#;

fn temp_socket(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("escape-watch-{name}-{}.sock", std::process::id()))
}

fn default_session(seed: u64) -> Session {
    Session::new(
        demo_topology(),
        SessionConfig {
            seed,
            flight_recorder: Some(65_536),
            ..SessionConfig::default()
        },
    )
    .unwrap()
}

fn spawn_daemon(session: Session, socket: &Path) -> JoinHandle<()> {
    let cfg = DaemonConfig::new(socket.to_path_buf());
    thread::spawn(move || Daemon::run(session, cfg).unwrap())
}

fn connect(socket: &Path) -> CtlClient {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match CtlClient::connect(socket) {
            Ok(c) => return c,
            Err(e) if Instant::now() > deadline => {
                panic!("daemon never came up on {}: {e}", socket.display())
            }
            Err(_) => thread::sleep(Duration::from_millis(10)),
        }
    }
}

fn call(client: &mut CtlClient, req: CtlRequest) -> CtlResponse {
    client.call(&req).unwrap()
}

fn deploy(client: &mut CtlClient) {
    let resp = call(
        client,
        CtlRequest::Deploy {
            sg: DEMO_SG.into(),
            format: SgFormat::Dsl,
        },
    );
    assert!(
        matches!(resp, CtlResponse::Deployed(_)),
        "deploy failed: {resp:?}"
    );
}

/// Reads every remaining frame until the daemon closes the stream.
fn drain(watch: &mut CtlWatch) -> Vec<CtlEvent> {
    let mut events = Vec::new();
    while let Some(ev) = watch.next_event().unwrap() {
        events.push(ev);
    }
    events
}

// ---------------------------------------------------------------------
// Lifecycle streaming
// ---------------------------------------------------------------------

#[test]
fn subscriber_streams_deploy_fault_heal_and_sla() {
    let socket = temp_socket("lifecycle");
    let daemon = spawn_daemon(default_session(11), &socket);

    // Subscribe to everything BEFORE acting: the `watching` ack
    // guarantees the subscription is registered ahead of any command
    // enqueued afterwards.
    let watch_client = connect(&socket);
    let mut watch = watch_client.watch(&[], None).unwrap();
    assert_eq!(watch.topics(), WatchTopic::ALL);

    let mut c = connect(&socket);
    deploy(&mut c);
    assert_eq!(
        call(
            &mut c,
            CtlRequest::Traffic {
                from: "sap0".into(),
                to: "sap1".into(),
                frames: 20,
                len: 128,
                interval_us: 200,
            },
        ),
        CtlResponse::TrafficStarted
    );
    assert!(matches!(
        call(&mut c, CtlRequest::RunFor { ms: 50 }),
        CtlResponse::Advanced { .. }
    ));
    // Hard cut: fails the chain so heal actually runs.
    assert!(matches!(
        call(
            &mut c,
            CtlRequest::Fault {
                plan: CUT_PLAN.into()
            }
        ),
        CtlResponse::FaultArmed { events: 1 }
    ));
    assert!(matches!(
        call(&mut c, CtlRequest::RunFor { ms: 10 }),
        CtlResponse::Advanced { .. }
    ));
    let _ = c.call(&CtlRequest::Heal); // heal outcome asserted via the stream
    call(&mut c, CtlRequest::Shutdown);

    let events = drain(&mut watch);
    daemon.join().unwrap();

    let kinds: Vec<&str> = events
        .iter()
        .filter_map(|e| match e {
            CtlEvent::Journal { kind, .. } => Some(kind.as_str()),
            _ => None,
        })
        .collect();
    assert!(
        kinds.contains(&"deploy-committed"),
        "no deploy event in {kinds:?}"
    );
    assert!(
        kinds.contains(&"fault-injected"),
        "no fault event in {kinds:?}"
    );
    assert!(
        kinds
            .iter()
            .any(|k| k.starts_with("heal-") || *k == "chain-abandoned"),
        "no heal-path event in {kinds:?}"
    );

    // Journal timestamps arrive in virtual-clock order.
    let stamps: Vec<u64> = events
        .iter()
        .filter_map(|e| match e {
            CtlEvent::Journal { at_ns, .. } => Some(*at_ns),
            _ => None,
        })
        .collect();
    assert!(
        stamps.windows(2).all(|w| w[0] <= w[1]),
        "journal events out of order: {stamps:?}"
    );

    let delta_frames = events
        .iter()
        .filter(|e| matches!(e, CtlEvent::MetricsDelta { .. }))
        .count();
    assert!(
        delta_frames >= 2,
        "want >=2 delta frames, got {delta_frames}"
    );

    // The first SLA verdict counts as a flip (nothing -> pass/fail).
    let sla_chains: Vec<&str> = events
        .iter()
        .filter_map(|e| match e {
            CtlEvent::Sla { verdicts, .. } => Some(verdicts.iter().map(|v| v.chain.as_str())),
            _ => None,
        })
        .flatten()
        .collect();
    assert!(
        sla_chains.contains(&"demo"),
        "no SLA verdict frame for the demo chain: {events:?}"
    );

    // A prompt reader never lags.
    assert!(
        !events.iter().any(|e| matches!(e, CtlEvent::Lagged { .. })),
        "prompt subscriber must not lag"
    );
}

// ---------------------------------------------------------------------
// Metric deltas reconcile with the polled exposition
// ---------------------------------------------------------------------

/// One metric's state as parsed out of the JSON exposition.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Polled {
    Counter(u64),
    Gauge(f64),
    /// Histograms compare by observation count.
    Hist(u64),
}

fn poll_metrics(client: &mut CtlClient) -> HashMap<String, Polled> {
    let CtlResponse::Metrics { body, .. } = call(
        client,
        CtlRequest::Metrics {
            format: MetricsFormat::Json,
        },
    ) else {
        panic!("metrics poll failed")
    };
    let root = Value::parse(&body).expect("exposition parses");
    let entries = root
        .get("metrics")
        .and_then(|m| m.get("metrics"))
        .and_then(Value::as_arr)
        .expect("metrics array");
    let mut out = HashMap::new();
    for e in entries {
        let name = e.get("name").and_then(Value::as_str).unwrap();
        let labels: Vec<(String, String)> = match e.get("labels") {
            Some(Value::Obj(fields)) => fields
                .iter()
                .map(|(k, v)| (k.clone(), v.as_str().unwrap().to_string()))
                .collect(),
            _ => Vec::new(),
        };
        let key = metric_key(name, &labels);
        let polled = match e.get("type").and_then(Value::as_str).unwrap() {
            "counter" => Polled::Counter(e.get("value").and_then(Value::as_u64).unwrap()),
            "gauge" => Polled::Gauge(e.get("value").and_then(Value::as_f64).unwrap()),
            "histogram" => Polled::Hist(e.get("count").and_then(Value::as_u64).unwrap()),
            t => panic!("unknown metric type {t}"),
        };
        out.insert(key, polled);
    }
    out
}

fn metric_key(name: &str, labels: &[(String, String)]) -> String {
    format!("{name}{labels:?}")
}

#[test]
fn metric_deltas_reconcile_with_polled_exposition() {
    let socket = temp_socket("reconcile");
    let daemon = spawn_daemon(default_session(7), &socket);

    let watch_client = connect(&socket);
    let mut watch = watch_client
        .watch(&[WatchTopic::MetricsDeltas], None)
        .unwrap();

    let mut c = connect(&socket);
    // Baseline poll first: rendering the exposition mutates nothing, so
    // this is exactly the state the subscriber's cursor started from.
    let baseline = poll_metrics(&mut c);

    deploy(&mut c);
    assert_eq!(
        call(
            &mut c,
            CtlRequest::Traffic {
                from: "sap0".into(),
                to: "sap1".into(),
                frames: 30,
                len: 128,
                interval_us: 200,
            },
        ),
        CtlResponse::TrafficStarted
    );
    for _ in 0..2 {
        assert!(matches!(
            call(&mut c, CtlRequest::RunFor { ms: 30 }),
            CtlResponse::Advanced { .. }
        ));
    }
    let fin = poll_metrics(&mut c);
    call(&mut c, CtlRequest::Shutdown);

    let events = drain(&mut watch);
    daemon.join().unwrap();

    // Accumulate every delta frame: counters/histograms sum their
    // per-frame movement, gauges keep the last absolute value.
    let mut counter_acc: HashMap<String, u64> = HashMap::new();
    let mut hist_acc: HashMap<String, u64> = HashMap::new();
    let mut gauge_last: HashMap<String, f64> = HashMap::new();
    let mut frames = 0usize;
    for ev in &events {
        let CtlEvent::MetricsDelta { deltas, .. } = ev else {
            panic!("metrics-deltas subscriber got an off-topic frame: {ev:?}")
        };
        frames += 1;
        for d in deltas {
            let key = metric_key(&d.name, &d.labels);
            match d.metric.as_str() {
                "counter" => *counter_acc.entry(key).or_insert(0) += d.value as u64,
                "histogram" => *hist_acc.entry(key).or_insert(0) += d.value as u64,
                "gauge" => {
                    gauge_last.insert(key, d.value);
                }
                m => panic!("unknown delta metric kind {m}"),
            }
        }
    }
    assert!(frames >= 2, "want >=2 delta frames, got {frames}");

    // Every metric in the final exposition must equal its baseline plus
    // the streamed movement — the push plane and the poll plane are two
    // views of the same registry.
    for (key, final_val) in &fin {
        match *final_val {
            Polled::Counter(f) => {
                let base = match baseline.get(key) {
                    Some(Polled::Counter(b)) => *b,
                    _ => 0,
                };
                let acc = counter_acc.get(key).copied().unwrap_or(0);
                assert_eq!(base + acc, f, "counter {key} drifted from its deltas");
            }
            Polled::Hist(f) => {
                let base = match baseline.get(key) {
                    Some(Polled::Hist(b)) => *b,
                    _ => 0,
                };
                let acc = hist_acc.get(key).copied().unwrap_or(0);
                assert_eq!(
                    base + acc,
                    f,
                    "histogram {key} observation count drifted from its deltas"
                );
            }
            Polled::Gauge(f) => {
                let expect =
                    gauge_last
                        .get(key)
                        .copied()
                        .unwrap_or_else(|| match baseline.get(key) {
                            Some(Polled::Gauge(b)) => *b,
                            _ => 0.0,
                        });
                assert_eq!(expect, f, "gauge {key} drifted from its last delta");
            }
        }
    }
}

// ---------------------------------------------------------------------
// Slow consumer: lag, recover, keep streaming
// ---------------------------------------------------------------------

#[test]
fn slow_consumer_gets_lagged_frame_and_keeps_streaming() {
    let socket = temp_socket("lagged");
    let daemon = spawn_daemon(default_session(13), &socket);

    let watch_client = connect(&socket);
    let mut watch = watch_client.watch(&[], None).unwrap();

    // Never read while the daemon churns: every cycle publishes journal
    // entries and a (large) metrics-delta frame. The writer fills the
    // socket buffer, then the 256-frame queue, then the publisher starts
    // counting misses.
    let mut c = connect(&socket);
    for _ in 0..600 {
        deploy(&mut c);
        assert!(matches!(
            call(
                &mut c,
                CtlRequest::Teardown {
                    chain: "demo".into()
                }
            ),
            CtlResponse::ToreDown { .. }
        ));
    }

    // Now drain. The pending lag count is only flushed by a later
    // publish, so keep the daemon churning from a second connection
    // while this thread reads: the poker guarantees frames keep
    // arriving, so the blocking reads below always terminate.
    let stop = Arc::new(AtomicBool::new(false));
    let poker = {
        let stop = stop.clone();
        let socket = socket.clone();
        thread::spawn(move || {
            let mut c = connect(&socket);
            while !stop.load(Ordering::SeqCst) {
                deploy(&mut c);
                call(
                    &mut c,
                    CtlRequest::Teardown {
                        chain: "demo".into(),
                    },
                );
                thread::sleep(Duration::from_millis(2));
            }
        })
    };

    let mut missed = None;
    let mut read = 0usize;
    while missed.is_none() {
        match watch.next_event().unwrap() {
            Some(CtlEvent::Lagged { missed: m }) => missed = Some(m),
            Some(_) => read += 1,
            None => panic!("stream closed before a lagged frame after {read} events"),
        }
        assert!(read < 100_000, "no lagged frame after {read} events");
    }
    assert!(missed.unwrap() > 0, "lagged frame must carry a count");

    // The subscriber was NOT evicted — it recovers and keeps receiving
    // the poker's ongoing deploys.
    let mut saw_post_lag_deploy = false;
    for _ in 0..100_000 {
        match watch.next_event().unwrap() {
            Some(CtlEvent::Journal { kind, .. }) if kind == "deploy-committed" => {
                saw_post_lag_deploy = true;
                break;
            }
            Some(_) => continue,
            None => break,
        }
    }
    assert!(
        saw_post_lag_deploy,
        "stream must keep delivering after a lagged frame"
    );

    stop.store(true, Ordering::SeqCst);
    poker.join().unwrap();
    call(&mut c, CtlRequest::Shutdown);
    drain(&mut watch); // daemon shutdown ends the stream with EOF
    daemon.join().unwrap();
}

// ---------------------------------------------------------------------
// Same-seed determinism of the exported journal
// ---------------------------------------------------------------------

/// Runs a fixed script against a fresh daemon and exports the journal.
fn scripted_journal(name: &str, seed: u64, run_ms: u64) -> String {
    let socket = temp_socket(name);
    let daemon = spawn_daemon(default_session(seed), &socket);
    let mut c = connect(&socket);
    deploy(&mut c);
    call(
        &mut c,
        CtlRequest::Traffic {
            from: "sap0".into(),
            to: "sap1".into(),
            frames: 20,
            len: 128,
            interval_us: 200,
        },
    );
    call(&mut c, CtlRequest::RunFor { ms: run_ms });
    call(
        &mut c,
        CtlRequest::Fault {
            plan: FLAP_PLAN.into(),
        },
    );
    call(&mut c, CtlRequest::RunFor { ms: 20 });
    let _ = c.call(&CtlRequest::Heal);
    call(
        &mut c,
        CtlRequest::Teardown {
            chain: "demo".into(),
        },
    );
    let CtlResponse::Journal { body } = call(&mut c, CtlRequest::Journal) else {
        panic!("journal export failed")
    };
    call(&mut c, CtlRequest::Shutdown);
    daemon.join().unwrap();
    body
}

#[test]
fn same_seed_runs_export_byte_identical_journals() {
    let a = scripted_journal("journal-a", 42, 50);
    let b = scripted_journal("journal-b", 42, 50);
    assert!(!a.is_empty(), "scripted run must journal something");
    assert_eq!(a, b, "same-seed journals diverged");

    // Every line is one self-contained JSON event with the typed shape.
    let mut kinds = Vec::new();
    for line in a.lines() {
        let v = Value::parse(line).expect("journal line parses");
        assert!(v.get("at_ns").and_then(Value::as_u64).is_some());
        assert!(v.get("severity").and_then(Value::as_str).is_some());
        kinds.push(v.get("kind").and_then(Value::as_str).unwrap().to_string());
    }
    for want in ["deploy-committed", "fault-injected", "teardown"] {
        assert!(
            kinds.iter().any(|k| k == want),
            "journal missing {want}: {kinds:?}"
        );
    }

    // Not a constant artifact: a longer run journals differently-stamped
    // events.
    let c = scripted_journal("journal-c", 42, 80);
    assert_ne!(a, c, "different scripts must journal differently");
}

// ---------------------------------------------------------------------
// Demand-driven topics: a topic's first holder starts from "now"
// ---------------------------------------------------------------------

/// Sums a `metrics-deltas` stream per metric and checks `baseline` plus
/// the streamed movement equals `fin` (gauges: the last streamed value).
fn assert_deltas_reconcile(
    baseline: &HashMap<String, Polled>,
    fin: &HashMap<String, Polled>,
    events: &[CtlEvent],
) {
    let mut moved: HashMap<String, u64> = HashMap::new();
    let mut gauge_last: HashMap<String, f64> = HashMap::new();
    for ev in events {
        let CtlEvent::MetricsDelta { deltas, .. } = ev else {
            panic!("metrics-deltas subscriber got an off-topic frame: {ev:?}")
        };
        for d in deltas {
            let key = metric_key(&d.name, &d.labels);
            match d.metric.as_str() {
                "counter" | "histogram" => *moved.entry(key).or_insert(0) += d.value as u64,
                "gauge" => {
                    gauge_last.insert(key, d.value);
                }
                m => panic!("unknown delta metric kind {m}"),
            }
        }
    }
    for (key, final_val) in fin {
        let acc = moved.get(key).copied().unwrap_or(0);
        match (*final_val, baseline.get(key)) {
            (Polled::Counter(f), Some(Polled::Counter(b))) => assert_eq!(b + acc, f, "{key}"),
            (Polled::Hist(f), Some(Polled::Hist(b))) => assert_eq!(b + acc, f, "{key}"),
            (Polled::Counter(f) | Polled::Hist(f), _) => assert_eq!(acc, f, "{key}"),
            (Polled::Gauge(f), base) => {
                let expect = gauge_last.get(key).copied().unwrap_or(match base {
                    Some(Polled::Gauge(b)) => *b,
                    _ => 0.0,
                });
                assert_eq!(expect, f, "gauge {key} drifted from its last delta");
            }
        }
    }
}

fn journal_lines(client: &mut CtlClient) -> Vec<Value> {
    let CtlResponse::Journal { body } = call(client, CtlRequest::Journal) else {
        panic!("journal export failed")
    };
    body.lines()
        .map(|l| Value::parse(l).expect("journal line parses"))
        .collect()
}

/// A pushed journal frame and an exported journal line are one entry.
fn assert_same_entry(frame: &CtlEvent, line: &Value) {
    let CtlEvent::Journal {
        at_ns,
        severity,
        kind,
        detail,
    } = frame
    else {
        panic!("expected a journal frame, got {frame:?}")
    };
    assert_eq!(line.get("at_ns").and_then(Value::as_u64), Some(*at_ns));
    let text = |key| line.get(key).and_then(Value::as_str);
    assert_eq!(text("severity"), Some(severity.as_str()));
    assert_eq!(text("kind"), Some(kind.as_str()));
    assert_eq!(text("detail"), Some(detail.as_str()));
}

#[test]
fn late_subscribers_start_from_the_moment_they_register() {
    let socket = temp_socket("late");
    let daemon = spawn_daemon(default_session(19), &socket);
    let run_for = |c: &mut CtlClient, ms| {
        assert!(matches!(
            call(c, CtlRequest::RunFor { ms }),
            CtlResponse::Advanced { .. }
        ));
    };

    // History nobody watches: journal entries and plenty of metric
    // movement before the first subscriber exists.
    let mut c = connect(&socket);
    deploy(&mut c);
    assert_eq!(
        call(
            &mut c,
            CtlRequest::Traffic {
                from: "sap0".into(),
                to: "sap1".into(),
                frames: 400,
                len: 128,
                interval_us: 200,
            },
        ),
        CtlResponse::TrafficStarted
    );
    run_for(&mut c, 30);

    // The first `metrics-deltas` holder: its baseline is the registry
    // at its ack, not at daemon start.
    let mut deltas = connect(&socket)
        .watch(&[WatchTopic::MetricsDeltas], None)
        .unwrap();
    let baseline = poll_metrics(&mut c);
    run_for(&mut c, 30);
    run_for(&mut c, 30);

    // The first `events` holder joins while the other is still attached
    // and sees only what is journaled after its own ack.
    let before = journal_lines(&mut c).len();
    assert!(
        before >= 1,
        "the deploy was journaled before anyone watched"
    );
    let mut events = connect(&socket).watch(&[WatchTopic::Events], None).unwrap();
    assert!(matches!(
        call(
            &mut c,
            CtlRequest::Teardown {
                chain: "demo".into()
            }
        ),
        CtlResponse::ToreDown { .. }
    ));
    let fin = poll_metrics(&mut c);
    let journal = journal_lines(&mut c);
    call(&mut c, CtlRequest::Shutdown);

    let delta_frames = drain(&mut deltas);
    let event_frames = drain(&mut events);
    daemon.join().unwrap();

    assert!(
        delta_frames.len() >= 3,
        "one frame per run-for and teardown"
    );
    assert_deltas_reconcile(&baseline, &fin, &delta_frames);

    assert!(journal.len() > before, "the teardown was journaled");
    assert_eq!(event_frames.len(), journal.len() - before);
    for (frame, line) in event_frames.iter().zip(&journal[before..]) {
        assert_same_entry(frame, line);
    }
}

// ---------------------------------------------------------------------
// `--since` replay is bounded by the journal, not by the push queue
// ---------------------------------------------------------------------

#[test]
fn since_replays_every_retained_entry_in_order_then_goes_live() {
    let socket = temp_socket("replay");
    let daemon = spawn_daemon(default_session(23), &socket);
    let mut c = connect(&socket);
    for _ in 0..320 {
        deploy(&mut c);
        assert!(matches!(
            call(
                &mut c,
                CtlRequest::Teardown {
                    chain: "demo".into()
                }
            ),
            CtlResponse::ToreDown { .. }
        ));
    }
    let history = journal_lines(&mut c);
    assert!(
        history.len() >= 600,
        "want a replay well past the 256-slot queue, got {}",
        history.len()
    );

    let mut watch = connect(&socket)
        .watch(&[WatchTopic::Events], Some(0))
        .unwrap();
    // One live entry behind the history, so a reader that was short-
    // changed sees the `lagged` frame instead of blocking forever.
    deploy(&mut c);
    let journal = journal_lines(&mut c);
    assert!(journal.len() > history.len());
    call(&mut c, CtlRequest::Shutdown);

    // Ack, then all of history in sequence order, then the live entry:
    // nothing dropped, nothing reordered, no `lagged` frame.
    let frames = drain(&mut watch);
    daemon.join().unwrap();
    assert!(
        !frames.iter().any(|e| matches!(e, CtlEvent::Lagged { .. })),
        "replay of retained history must not lag"
    );
    assert_eq!(frames.len(), journal.len());
    for (frame, line) in frames.iter().zip(&journal) {
        assert_same_entry(frame, line);
    }
}
