//! End-to-end exercises of the control plane: an in-process `escaped`
//! daemon on a temp socket driven through the typed client, plus a real
//! subprocess run of the `escaped` and `escape` binaries.
//!
//! Covers the scripted lifecycle (deploy → traffic → run-for → fault →
//! heal → sla → teardown) from two concurrent clients, every typed error
//! path (unknown chain, malformed frame with byte offset, hard-watermark
//! admission rejection), and the determinism contract: two same-seed
//! daemons render byte-identical status and metrics documents.

use escape::session::demo_topology;
use escape::{AdmissionConfig, Session, SessionConfig};
use escape_ctl::proto::{CtlError, CtlRequest, CtlResponse, MetricsFormat, SgFormat};
use escape_ctl::server::{Daemon, DaemonConfig};
use escape_ctl::CtlClient;
use std::path::{Path, PathBuf};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

const DEMO_SG: &str = "sap sap0 sap1\n\
                       vnf fw type=firewall cpu=1\n\
                       chain demo = sap0 -> fw -> sap1 bw=50\n";

/// A mild loss spike on the s0–s1 trunk of the demo topology, later
/// cleared. Loss stays under the re-route threshold: the linear demo
/// substrate has no alternate path, so a harder fault would abandon the
/// chain instead of riding it out.
const FAULT_PLAN: &str = r#"{
  "name": "trunk-flap",
  "events": [
    { "at_us": 1000, "kind": "loss_spike", "a": "s0", "b": "s1", "loss": 0.1 },
    { "at_us": 9000, "kind": "loss_clear", "a": "s0", "b": "s1" }
  ]
}"#;

fn temp_socket(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("escape-ctl-{name}-{}.sock", std::process::id()))
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

/// Connects with retries — the daemon thread binds asynchronously.
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

#[test]
fn full_lifecycle_over_the_socket() {
    let socket = temp_socket("lifecycle");
    let daemon = spawn_daemon(default_session(1), &socket);
    let mut c = connect(&socket);

    // Deploy from DSL text.
    let resp = call(
        &mut c,
        CtlRequest::Deploy {
            sg: DEMO_SG.into(),
            format: SgFormat::Dsl,
        },
    );
    let CtlResponse::Deployed(d) = resp else {
        panic!("deploy: {resp:?}")
    };
    assert_eq!(d.chains.len(), 1);
    assert_eq!(d.chains[0].name, "demo");
    assert!(d.total_ns > 0);

    // Push traffic and advance virtual time.
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
    let CtlResponse::Advanced { now_ns } = call(&mut c, CtlRequest::RunFor { ms: 50 }) else {
        panic!("run-for")
    };
    assert!(now_ns >= 50_000_000);

    // Fault → heal → sla.
    let CtlResponse::FaultArmed { events } = call(
        &mut c,
        CtlRequest::Fault {
            plan: FAULT_PLAN.into(),
        },
    ) else {
        panic!("fault")
    };
    assert_eq!(events, 2);
    assert!(matches!(
        call(&mut c, CtlRequest::RunFor { ms: 20 }),
        CtlResponse::Advanced { .. }
    ));
    assert!(matches!(
        call(&mut c, CtlRequest::Heal),
        CtlResponse::Healed { .. }
    ));
    let CtlResponse::Sla(verdicts) = call(&mut c, CtlRequest::Sla) else {
        panic!("sla")
    };
    assert_eq!(verdicts.len(), 1);
    assert_eq!(verdicts[0].chain, "demo");
    assert!(verdicts[0].delivered > 0);

    // A second, concurrent client sees the same state.
    let mut c2 = connect(&socket);
    let CtlResponse::Status(status) = call(&mut c2, CtlRequest::Status) else {
        panic!("status")
    };
    assert_eq!(status.chains.len(), 1);
    assert_eq!(status.chains[0].name, "demo");
    assert_eq!(status.deploys, 1);
    assert!(status.utilization > 0.0);

    // Both metrics formats come back through the one exposition path.
    let CtlResponse::Metrics { body, .. } = call(
        &mut c2,
        CtlRequest::Metrics {
            format: MetricsFormat::Prometheus,
        },
    ) else {
        panic!("metrics")
    };
    assert!(body.contains("escape_deploys"), "{body}");
    let CtlResponse::Metrics { body, .. } = call(
        &mut c2,
        CtlRequest::Metrics {
            format: MetricsFormat::Json,
        },
    ) else {
        panic!("metrics json")
    };
    assert!(body.starts_with('{'), "{body}");

    // Teardown through one client, observed by the other.
    assert_eq!(
        call(
            &mut c,
            CtlRequest::Teardown {
                chain: "demo".into()
            }
        ),
        CtlResponse::ToreDown {
            chain: "demo".into()
        }
    );
    let CtlResponse::Status(status) = call(&mut c2, CtlRequest::Status) else {
        panic!("status")
    };
    assert!(status.chains.is_empty());

    assert_eq!(
        call(&mut c, CtlRequest::Shutdown),
        CtlResponse::ShuttingDown
    );
    daemon.join().unwrap();
    assert!(!socket.exists(), "socket file leaked");
}

#[test]
fn scale_verb_over_the_socket() {
    let socket = temp_socket("scale");
    let daemon = spawn_daemon(default_session(9), &socket);
    let mut c = connect(&socket);
    call(
        &mut c,
        CtlRequest::Deploy {
            sg: DEMO_SG.into(),
            format: SgFormat::Dsl,
        },
    );

    // Scale out to 3 replicas.
    let resp = call(
        &mut c,
        CtlRequest::Scale {
            chain: "demo".into(),
            vnf: "fw".into(),
            replicas: 3,
        },
    );
    let CtlResponse::Scaled {
        chain,
        vnf,
        from,
        to,
        rules,
        cutover_ns,
    } = resp
    else {
        panic!("scale: {resp:?}")
    };
    assert_eq!((chain.as_str(), vnf.as_str()), ("demo", "fw"));
    assert_eq!((from, to), (1, 3));
    assert!(rules > 0);
    assert!(
        cutover_ns > 0,
        "make-before-break cutover takes virtual time"
    );

    // Status lists the replicas alongside the primary.
    let CtlResponse::Status(status) = call(&mut c, CtlRequest::Status) else {
        panic!("status")
    };
    let names: Vec<&str> = status.chains[0]
        .vnfs
        .iter()
        .map(|(n, _)| n.as_str())
        .collect();
    assert!(names.contains(&"fw"), "{names:?}");
    assert!(names.contains(&"fw#1"), "{names:?}");
    assert!(names.contains(&"fw#2"), "{names:?}");

    // Traffic still flows, then scale back in.
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
    call(&mut c, CtlRequest::RunFor { ms: 20 });
    let resp = call(
        &mut c,
        CtlRequest::Scale {
            chain: "demo".into(),
            vnf: "fw".into(),
            replicas: 1,
        },
    );
    assert!(
        matches!(resp, CtlResponse::Scaled { from: 3, to: 1, .. }),
        "{resp:?}"
    );

    // Typed error shapes: unknown chain, unknown vnf, bad count.
    let resp = call(
        &mut c,
        CtlRequest::Scale {
            chain: "ghost".into(),
            vnf: "fw".into(),
            replicas: 2,
        },
    );
    assert_eq!(
        resp,
        CtlResponse::Error(CtlError::NotFound {
            what: "chain ghost".into()
        })
    );
    let resp = call(
        &mut c,
        CtlRequest::Scale {
            chain: "demo".into(),
            vnf: "nat".into(),
            replicas: 2,
        },
    );
    assert_eq!(
        resp,
        CtlResponse::Error(CtlError::NotFound {
            what: "vnf nat in chain demo".into()
        })
    );
    let resp = call(
        &mut c,
        CtlRequest::Scale {
            chain: "demo".into(),
            vnf: "fw".into(),
            replicas: 0,
        },
    );
    assert!(
        matches!(resp, CtlResponse::Error(CtlError::Invalid { .. })),
        "{resp:?}"
    );

    call(&mut c, CtlRequest::Shutdown);
    daemon.join().unwrap();
}

#[test]
fn concurrent_clients_interleave_without_loss() {
    let socket = temp_socket("concurrent");
    let daemon = spawn_daemon(default_session(3), &socket);
    let mut c0 = connect(&socket);
    let CtlResponse::Status(base) = call(&mut c0, CtlRequest::Status) else {
        panic!("status")
    };

    let workers: Vec<_> = (0..4)
        .map(|_| {
            let socket = socket.clone();
            thread::spawn(move || {
                let mut c = connect(&socket);
                for _ in 0..10 {
                    assert!(matches!(
                        c.call(&CtlRequest::Status).unwrap(),
                        CtlResponse::Status(_)
                    ));
                    assert!(matches!(
                        c.call(&CtlRequest::RunFor { ms: 1 }).unwrap(),
                        CtlResponse::Advanced { .. }
                    ));
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }

    // All 4 × 10 run-for commands executed, strictly serialized: virtual
    // time advanced by exactly their sum.
    let CtlResponse::Status(status) = call(&mut c0, CtlRequest::Status) else {
        panic!("status")
    };
    assert_eq!(status.now_ns, base.now_ns + 40_000_000);

    call(&mut c0, CtlRequest::Shutdown);
    daemon.join().unwrap();
}

#[test]
fn typed_errors_keep_the_connection_open() {
    let socket = temp_socket("errors");
    let daemon = spawn_daemon(default_session(5), &socket);
    let mut c = connect(&socket);

    // Malformed JSON: framed error with the byte offset, not a hangup.
    let resp = c.send_raw("{\"verb\": nope}").unwrap();
    assert_eq!(
        resp,
        CtlResponse::Error(CtlError::Malformed {
            offset: 9,
            reason: "bad literal".into()
        })
    );

    // Valid JSON, unknown verb.
    let resp = c.send_raw("{\"verb\": \"dance\"}").unwrap();
    assert_eq!(
        resp,
        CtlResponse::Error(CtlError::UnknownVerb {
            verb: "dance".into()
        })
    );

    // Valid verb, missing fields.
    let resp = c.send_raw("{\"verb\": \"teardown\"}").unwrap();
    assert!(matches!(resp, CtlResponse::Error(CtlError::Invalid { .. })));

    // Unknown chain: typed not-found.
    let resp = call(
        &mut c,
        CtlRequest::Teardown {
            chain: "ghost".into(),
        },
    );
    assert_eq!(
        resp,
        CtlResponse::Error(CtlError::NotFound {
            what: "chain ghost".into()
        })
    );

    // The same connection still works after every error above.
    assert!(matches!(
        call(&mut c, CtlRequest::Status),
        CtlResponse::Status(_)
    ));

    call(&mut c, CtlRequest::Shutdown);
    daemon.join().unwrap();
}

/// A service graph whose raw Click text declares a `HashSwitch` with
/// `u64::MAX` outputs: the compiler must refuse it before sizing a port
/// table that large.
const HUGE_FAN_OUT_SG: &str = r#"{
  "saps": ["sap0", "sap1"],
  "vnfs": [{
    "name": "lb", "vnf_type": "custom", "cpu": 0.5, "mem_mb": 64,
    "click_config": "FromDevice(0) -> h :: HashSwitch(18446744073709551615); h [0] -> ToDevice(1); FromDevice(1) -> ToDevice(0);"
  }],
  "chains": [{"name": "c1", "hops": ["sap0", "lb", "sap1"], "bandwidth_mbps": 10.0, "max_delay_us": null}]
}"#;

#[test]
fn a_huge_fan_out_in_shipped_click_text_is_a_typed_error() {
    let socket = temp_socket("fan-out");
    let daemon = spawn_daemon(default_session(3), &socket);
    let mut c = connect(&socket);

    let resp = call(
        &mut c,
        CtlRequest::Deploy {
            sg: HUGE_FAN_OUT_SG.into(),
            format: SgFormat::Json,
        },
    );
    assert!(
        matches!(&resp, CtlResponse::Error(CtlError::DeployFailed { cause, .. }) if cause.contains("HashSwitch")),
        "{resp:?}"
    );
    assert!(matches!(
        call(&mut c, CtlRequest::Status),
        CtlResponse::Status(_)
    ));

    call(&mut c, CtlRequest::Shutdown);
    daemon.join().unwrap();
}

/// A catalog rate limiter whose queue has no room: it would drop every
/// frame of its chain.
const ZERO_QUEUE_SG: &str = r#"{
  "saps": ["sap0", "sap1"],
  "vnfs": [{
    "name": "rl", "vnf_type": "rate_limiter", "cpu": 0.5, "mem_mb": 64,
    "params": [["queue", "0"]]
  }],
  "chains": [{"name": "c1", "hops": ["sap0", "rl", "sap1"], "bandwidth_mbps": 10.0, "max_delay_us": null}]
}"#;

#[test]
fn a_rate_limiter_with_a_zero_queue_is_a_typed_error() {
    let socket = temp_socket("zero-queue");
    let daemon = spawn_daemon(default_session(3), &socket);
    let mut c = connect(&socket);

    let resp = call(
        &mut c,
        CtlRequest::Deploy {
            sg: ZERO_QUEUE_SG.into(),
            format: SgFormat::Json,
        },
    );
    assert!(
        matches!(&resp, CtlResponse::Error(CtlError::DeployFailed { cause, .. }) if cause.contains("BandwidthShaper")),
        "{resp:?}"
    );
    // Nothing of the failed chain stays behind.
    match call(&mut c, CtlRequest::Status) {
        CtlResponse::Status(s) => assert!(s.chains.is_empty(), "{s:?}"),
        other => panic!("{other:?}"),
    }

    call(&mut c, CtlRequest::Shutdown);
    daemon.join().unwrap();
}

fn traffic(len: u64, frames: u64) -> CtlRequest {
    CtlRequest::Traffic {
        from: "sap0".into(),
        to: "sap1".into(),
        frames,
        len,
        interval_us: 200,
    }
}

fn deploy_demo(c: &mut CtlClient) {
    let resp = call(
        c,
        CtlRequest::Deploy {
            sg: DEMO_SG.into(),
            format: SgFormat::Dsl,
        },
    );
    assert!(matches!(resp, CtlResponse::Deployed(_)), "{resp:?}");
}

fn run_for(c: &mut CtlClient, ms: u64) {
    let resp = call(c, CtlRequest::RunFor { ms });
    assert!(matches!(resp, CtlResponse::Advanced { .. }), "{resp:?}");
}

/// Frames the demo chain has delivered so far.
fn delivered(c: &mut CtlClient) -> u64 {
    match call(c, CtlRequest::Sla) {
        CtlResponse::Sla(v) => v.iter().map(|v| v.delivered).sum(),
        other => panic!("sla: {other:?}"),
    }
}

#[test]
fn traffic_rejects_frame_lengths_no_udp_frame_can_have() {
    let socket = temp_socket("frame-len");
    let daemon = spawn_daemon(default_session(7), &socket);
    let mut c = connect(&socket);
    deploy_demo(&mut c);

    // Below the 42 header bytes, and past what IPv4's total length counts.
    for len in [20, 65_550] {
        let resp = call(&mut c, traffic(len, 5));
        assert!(
            matches!(&resp, CtlResponse::Error(CtlError::Invalid { reason }) if reason.contains("frame length")),
            "len {len}: {resp:?}"
        );
        // Nothing was registered: the clock still advances and the daemon
        // still answers.
        run_for(&mut c, 5);
        assert!(matches!(
            call(&mut c, CtlRequest::Status),
            CtlResponse::Status(_)
        ));
    }

    // Both ends of the range are delivered.
    for len in [42, 65_549] {
        let before = delivered(&mut c);
        assert_eq!(call(&mut c, traffic(len, 5)), CtlResponse::TrafficStarted);
        run_for(&mut c, 50);
        assert_eq!(delivered(&mut c) - before, 5, "len {len}");
    }

    call(&mut c, CtlRequest::Shutdown);
    daemon.join().unwrap();
}

#[test]
fn spans_that_overflow_the_virtual_clock_are_typed_errors() {
    let socket = temp_socket("clock-span");
    let daemon = spawn_daemon(default_session(7), &socket);
    let mut c = connect(&socket);
    deploy_demo(&mut c);
    let now = |c: &mut CtlClient| match call(c, CtlRequest::Status) {
        CtlResponse::Status(s) => s.now_ns,
        other => panic!("status: {other:?}"),
    };
    let before = now(&mut c);

    // One millisecond more than the clock's nanoseconds can count.
    let ms = u64::MAX / 1_000_000 + 1;
    let resp = call(&mut c, CtlRequest::RunFor { ms });
    let want = format!("field \"ms\" must be at most {}", ms - 1);
    assert!(
        matches!(&resp, CtlResponse::Error(CtlError::Invalid { reason }) if *reason == want),
        "{resp:?}"
    );
    // The same for a stream's interval, in microseconds.
    let mut req = traffic(128, 5);
    let CtlRequest::Traffic { interval_us, .. } = &mut req else {
        unreachable!("traffic builds a traffic request")
    };
    *interval_us = u64::MAX / 1_000 + 1;
    let resp = call(&mut c, req);
    let want = format!("field \"interval_us\" must be at most {}", u64::MAX / 1_000);
    assert!(
        matches!(&resp, CtlResponse::Error(CtlError::Invalid { reason }) if *reason == want),
        "{resp:?}"
    );
    // Neither moved the clock, and the daemon still answers.
    assert_eq!(now(&mut c), before);
    run_for(&mut c, 5);
    assert_eq!(now(&mut c), before + 5_000_000);

    call(&mut c, CtlRequest::Shutdown);
    daemon.join().unwrap();
}

/// An `escaped` subprocess, SIGKILLed on drop unless it already exited,
/// so a failed assertion leaves no daemon behind.
struct Escaped(std::process::Child);

impl Drop for Escaped {
    fn drop(&mut self) {
        if let Ok(None) = self.0.try_wait() {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }
}

#[test]
fn a_rejected_traffic_request_replays_as_the_same_rejection_after_kill_9() {
    let seed = 13;
    let state_dir =
        std::env::temp_dir().join(format!("escape-ctl-len-state-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_dir);
    let spawn = |socket: &Path| {
        let child = std::process::Command::new(env!("CARGO_BIN_EXE_escaped"))
            .args(["--socket"])
            .arg(socket)
            .args(["--state-dir"])
            .arg(&state_dir)
            .args(["--seed", &seed.to_string()])
            .spawn()
            .unwrap();
        Escaped(child)
    };
    // Deploy, a rejected stream (intent-logged, committed as the
    // rejection) and a clock advance past where its first frame would go.
    let script = |c: &mut CtlClient| {
        deploy_demo(c);
        let rejected = c.call_with_id(&traffic(20, 5), "short-frames").unwrap();
        assert!(
            matches!(rejected, CtlResponse::Error(CtlError::Invalid { .. })),
            "{rejected:?}"
        );
        run_for(c, 5);
        rejected
    };

    let socket1 = temp_socket("len-kill-1");
    let first = spawn(&socket1);
    let mut c = connect(&socket1);
    let rejected = script(&mut c);
    drop(c);
    drop(first); // SIGKILL
    let _ = std::fs::remove_file(&socket1);

    // The restart replays the log, the rejected request included, and
    // comes up in the state of a daemon that never crashed.
    let socket2 = temp_socket("len-kill-2");
    let mut second = spawn(&socket2);
    let mut c = connect(&socket2);
    let CtlResponse::Status(s) = call(&mut c, CtlRequest::Status) else {
        panic!("status")
    };
    assert!(s.restarted);
    assert_eq!(s.chains.len(), 1);
    let retried = c.call_with_id(&traffic(20, 5), "short-frames").unwrap();
    assert_eq!(retried, rejected, "the log holds the rejection");
    let recovered = call(&mut c, CtlRequest::Fingerprint);

    let control_socket = temp_socket("len-control");
    let control = spawn_daemon(default_session(seed), &control_socket);
    let mut cc = connect(&control_socket);
    script(&mut cc);
    assert_eq!(recovered, call(&mut cc, CtlRequest::Fingerprint));
    call(&mut cc, CtlRequest::Shutdown);
    control.join().unwrap();

    run_for(&mut c, 5);
    assert_eq!(
        call(&mut c, CtlRequest::Shutdown),
        CtlResponse::ShuttingDown
    );
    assert!(second.0.wait().unwrap().success());
    let _ = std::fs::remove_dir_all(&state_dir);
}

#[test]
fn hard_watermark_rejection_surfaces_as_typed_error() {
    let socket = temp_socket("admission");
    let session = Session::new(
        demo_topology(),
        SessionConfig {
            seed: 7,
            admission: Some(AdmissionConfig {
                soft_watermark: 0.0,
                hard_watermark: 0.0,
                max_queue: 2,
                max_retries: 2,
            }),
            ..SessionConfig::default()
        },
    )
    .unwrap();
    let daemon = spawn_daemon(session, &socket);
    let mut c = connect(&socket);

    // Utilization 0.0 already meets the 0.0 hard watermark: the deploy
    // must come back as a framed RejectedHard, not a dropped connection.
    let resp = call(
        &mut c,
        CtlRequest::Deploy {
            sg: DEMO_SG.into(),
            format: SgFormat::Dsl,
        },
    );
    let CtlResponse::Error(CtlError::RejectedHard {
        utilization,
        hard_watermark,
    }) = resp
    else {
        panic!("expected RejectedHard, got {resp:?}")
    };
    assert_eq!(utilization, 0.0);
    assert_eq!(hard_watermark, 0.0);

    // The rejection is visible in the counters on the same connection.
    let CtlResponse::Status(status) = call(&mut c, CtlRequest::Status) else {
        panic!("status")
    };
    assert_eq!(status.admission_rejected, 1);
    assert!(status.chains.is_empty());

    call(&mut c, CtlRequest::Shutdown);
    daemon.join().unwrap();
}

/// Runs one scripted session and returns the rendered (status, metrics)
/// documents exactly as they crossed the wire.
fn scripted_run(name: &str, seed: u64, frames: u64, run_ms: u64) -> (String, String) {
    let socket = temp_socket(name);
    let daemon = spawn_daemon(default_session(seed), &socket);
    let mut c = connect(&socket);
    call(
        &mut c,
        CtlRequest::Deploy {
            sg: DEMO_SG.into(),
            format: SgFormat::Dsl,
        },
    );
    call(
        &mut c,
        CtlRequest::Traffic {
            from: "sap0".into(),
            to: "sap1".into(),
            frames,
            len: 256,
            interval_us: 150,
        },
    );
    call(&mut c, CtlRequest::RunFor { ms: run_ms });
    let status = call(&mut c, CtlRequest::Status).encode();
    let CtlResponse::Metrics { body, .. } = call(
        &mut c,
        CtlRequest::Metrics {
            format: MetricsFormat::Json,
        },
    ) else {
        panic!("metrics")
    };
    call(&mut c, CtlRequest::Shutdown);
    daemon.join().unwrap();
    (status, body)
}

/// Drops the reserved `wallclock.*` metrics from a rendered metrics
/// document — the only family allowed to differ between same-seed runs.
/// The namespace makes this a typed prefix filter on the parsed
/// document, not a guess at line layout.
fn without_wallclock(doc: &str) -> String {
    let mut root = escape_json::Value::parse(doc).expect("metrics document parses");
    if let escape_json::Value::Obj(fields) = &mut root {
        if let Some((_, escape_json::Value::Obj(m))) =
            fields.iter_mut().find(|(k, _)| k == "metrics")
        {
            if let Some((_, escape_json::Value::Arr(entries))) =
                m.iter_mut().find(|(k, _)| k == "metrics")
            {
                entries.retain(|e| {
                    !matches!(
                        e.get("name").and_then(escape_json::Value::as_str),
                        Some(name) if name.starts_with("wallclock.")
                    )
                });
            }
        }
    }
    root.to_string_pretty()
}

#[test]
fn same_seed_daemons_render_byte_identical_documents() {
    let (status_a, metrics_a) = scripted_run("det-a", 42, 30, 40);
    let (status_b, metrics_b) = scripted_run("det-b", 42, 30, 40);
    assert_eq!(status_a, status_b);
    let scrubbed_a = without_wallclock(&metrics_a);
    assert!(
        metrics_a.contains("wallclock.orch_placement_ns")
            && !scrubbed_a.contains("wallclock.orch_placement_ns"),
        "filter must drop the wall-clock histogram, not no-op"
    );
    assert_eq!(scrubbed_a, without_wallclock(&metrics_b));

    // The equality above is not a constant-output artifact: a different
    // script (more traffic, longer run) renders different documents.
    let (status_c, metrics_c) = scripted_run("det-c", 42, 60, 80);
    assert_ne!(status_a, status_c);
    assert_ne!(scrubbed_a, without_wallclock(&metrics_c));
}

#[test]
fn escaped_binary_shuts_down_gracefully_on_sigterm() {
    let socket = temp_socket("subprocess");
    let artifacts =
        std::env::temp_dir().join(format!("escape-ctl-artifacts-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&artifacts);

    let mut daemon = std::process::Command::new(env!("CARGO_BIN_EXE_escaped"))
        .args(["--socket"])
        .arg(&socket)
        .args(["--seed", "11", "--artifacts"])
        .arg(&artifacts)
        .spawn()
        .unwrap();

    // Drive it once through the real `escape ctl` client binary.
    connect(&socket);
    let status = std::process::Command::new(env!("CARGO_BIN_EXE_escape"))
        .args(["ctl", "--socket"])
        .arg(&socket)
        .arg("status")
        .output()
        .unwrap();
    assert!(
        status.status.success(),
        "escape ctl status failed: {}",
        String::from_utf8_lossy(&status.stderr)
    );
    assert!(String::from_utf8_lossy(&status.stdout).contains("0 chain(s)"));

    // SIGTERM → graceful shutdown: clean exit, telemetry flushed, no
    // socket file left behind.
    let kill = std::process::Command::new("kill")
        .args(["-TERM", &daemon.id().to_string()])
        .status()
        .unwrap();
    assert!(kill.success());
    let deadline = Instant::now() + Duration::from_secs(10);
    let exit = loop {
        if let Some(st) = daemon.try_wait().unwrap() {
            break st;
        }
        if Instant::now() > deadline {
            daemon.kill().unwrap();
            panic!("escaped did not exit within 10s of SIGTERM");
        }
        thread::sleep(Duration::from_millis(20));
    };
    assert!(exit.success(), "escaped exited with {exit:?}");
    assert!(!socket.exists(), "socket file leaked");
    assert!(artifacts.join("metrics.prom").exists());
    assert!(artifacts.join("metrics.json").exists());
    let _ = std::fs::remove_dir_all(&artifacts);
}
