//! Golden corpus: the exact bytes of every JSON document this workspace
//! puts on the control socket or on disk, pinned in `golden.txt`.
//!
//! The round-trip suites prove each codec agrees with itself — which a
//! reordered key or a renamed field would still pass. This test proves
//! the codec agrees with *yesterday*: for every named document,
//! `encode(value) == golden` and `decode(golden) == value`. A change
//! that is meant to be invisible on the wire leaves `golden.txt`
//! untouched; one that is meant to be visible edits exactly the
//! sections it moves (on a mismatch the full current corpus is written
//! to the target tmp dir, ready to diff).

use escape_ctl::proto::{
    ChainInfo, CtlError, CtlEvent, CtlRequest, CtlResponse, DeployInfo, MetricDelta, MetricsFormat,
    SgFormat, SlaInfo, StatusInfo, WatchTopic,
};
use escape_ctl::wal::{SNAPSHOT_FILE, WAL_FILE};
use escape_ctl::{
    read_frame, write_frame, AutoscalerRecord, ChainRecord, CommittedOp, CtlClient, Snapshot, Wal,
    SNAPSHOT_VERSION,
};
use escape_domain::DomainSpec;
use escape_netem::{FaultKind, FaultPlan};
use escape_sg::{ResourceTopology, ServiceGraph, Sla};
use std::collections::BTreeMap;
use std::fs;
use std::os::unix::net::UnixListener;
use std::path::PathBuf;

const GOLDEN: &str = include_str!("golden.txt");

/// A string exercising every escape the encoder knows: quote,
/// backslash, the short escapes, a `\u00XX` control and multi-byte text.
const TRICKY: &str = "a\"b\\c\nd\te\r\u{1}é→";

/// The pinned corpus plus everything this run produced, by section.
struct Corpus {
    golden: BTreeMap<String, String>,
    actual: Vec<(String, String)>,
}

impl Corpus {
    fn load() -> Corpus {
        let golden = GOLDEN
            .split("### ")
            .skip(1)
            .map(|section| {
                let (name, body) = section.split_once('\n').expect("a body under the header");
                let body = body.strip_suffix('\n').unwrap_or(body);
                (name.to_string(), body.to_string())
            })
            .collect();
        Corpus {
            golden,
            actual: Vec::new(),
        }
    }

    /// Records what the codec produced for `name` and hands back the
    /// pinned text to decode (the produced text when the section is new,
    /// so a fresh corpus can be generated in one run).
    fn pin(&mut self, name: &str, encoded: String) -> String {
        assert!(
            !self.actual.iter().any(|(n, _)| n == name),
            "duplicate section {name}"
        );
        let pinned = self.golden.get(name).cloned().unwrap_or(encoded.clone());
        self.actual.push((name.to_string(), encoded));
        pinned
    }

    fn finish(self) {
        let mut bad = Vec::new();
        for (name, text) in &self.actual {
            match self.golden.get(name) {
                Some(g) if g == text => {}
                Some(_) => bad.push(format!("changed: {name}")),
                None => bad.push(format!("not in golden.txt: {name}")),
            }
        }
        for name in self.golden.keys() {
            if !self.actual.iter().any(|(n, _)| n == name) {
                bad.push(format!("in golden.txt but never produced: {name}"));
            }
        }
        if bad.is_empty() {
            return;
        }
        let mut out = String::new();
        for (name, text) in &self.actual {
            out.push_str(&format!("### {name}\n{text}\n"));
        }
        let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("golden.actual.txt");
        fs::write(&path, out).unwrap();
        panic!(
            "wire bytes differ from crates/ctl/tests/golden.txt:\n  {}\ncurrent corpus written to {}",
            bad.join("\n  "),
            path.display()
        );
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("escape-golden-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn chain_info() -> ChainInfo {
    ChainInfo {
        name: "demo".into(),
        cookie: 7,
        rules: 4,
        vnfs: vec![("fw".into(), "c1".into()), ("mon".into(), "c2".into())],
    }
}

fn sla_infos() -> Vec<SlaInfo> {
    vec![
        SlaInfo {
            chain: "demo".into(),
            pass: false,
            delivered: 18,
            dropped: 2,
            loss: 0.1,
            max_latency_ns: Some(1_234_567),
            violations: vec!["latency 1.2ms > 1.0ms".into(), TRICKY.into()],
        },
        SlaInfo {
            chain: "quiet".into(),
            pass: true,
            delivered: 0,
            dropped: 0,
            loss: 0.0,
            max_latency_ns: None,
            violations: vec![],
        },
    ]
}

fn requests() -> Vec<(&'static str, CtlRequest)> {
    vec![
        ("status", CtlRequest::Status),
        (
            "deploy dsl",
            CtlRequest::Deploy {
                sg: "sap a b\nchain c = a -> b bw=1".into(),
                format: SgFormat::Dsl,
            },
        ),
        (
            "deploy json",
            CtlRequest::Deploy {
                sg: "{\"chains\": []}".into(),
                format: SgFormat::Json,
            },
        ),
        (
            "teardown",
            CtlRequest::Teardown {
                chain: TRICKY.into(),
            },
        ),
        ("run-for", CtlRequest::RunFor { ms: 250 }),
        (
            "fault",
            CtlRequest::Fault {
                plan: "{\"events\": []}".into(),
            },
        ),
        ("heal", CtlRequest::Heal),
        (
            "metrics prometheus",
            CtlRequest::Metrics {
                format: MetricsFormat::Prometheus,
            },
        ),
        (
            "metrics json",
            CtlRequest::Metrics {
                format: MetricsFormat::Json,
            },
        ),
        ("sla", CtlRequest::Sla),
        ("series", CtlRequest::Series),
        ("journal", CtlRequest::Journal),
        (
            "watch everything",
            CtlRequest::Watch {
                topics: vec![],
                since: None,
            },
        ),
        (
            "watch since",
            CtlRequest::Watch {
                topics: WatchTopic::ALL.to_vec(),
                since: Some(42),
            },
        ),
        (
            "traffic",
            CtlRequest::Traffic {
                from: "sap0".into(),
                to: "sap1".into(),
                frames: 20,
                len: 128,
                interval_us: 200,
            },
        ),
        (
            "scale",
            CtlRequest::Scale {
                chain: "demo".into(),
                vnf: "fw".into(),
                replicas: 4,
            },
        ),
        ("fingerprint", CtlRequest::Fingerprint),
        ("shutdown", CtlRequest::Shutdown),
    ]
}

fn errors() -> Vec<(&'static str, CtlError)> {
    vec![
        (
            "malformed",
            CtlError::Malformed {
                offset: 17,
                reason: "expected ',' or '}'".into(),
            },
        ),
        (
            "unknown-verb",
            CtlError::UnknownVerb {
                verb: "resize".into(),
            },
        ),
        (
            "not-found",
            CtlError::NotFound {
                what: "chain ghost".into(),
            },
        ),
        (
            "rejected-hard",
            CtlError::RejectedHard {
                utilization: 0.97,
                hard_watermark: 0.95,
            },
        ),
        ("queue-full", CtlError::QueueFull { capacity: 8 }),
        (
            "deploy-failed",
            CtlError::DeployFailed {
                phase: "prepare".into(),
                cause: "rpc to c1 timed out".into(),
            },
        ),
        (
            "scale-failed",
            CtlError::ScaleFailed {
                chain: "demo".into(),
                vnf: "fw".into(),
                phase: "promote".into(),
                cause: "steering: rules stuck".into(),
            },
        ),
        (
            "corrupt-state",
            CtlError::CorruptState {
                path: "/var/escaped/wal.log".into(),
                offset: 1024,
                cause: "record is not valid JSON".into(),
            },
        ),
        (
            "invalid",
            CtlError::Invalid {
                reason: "missing field".into(),
            },
        ),
        ("shutting-down", CtlError::ShuttingDown),
        (
            "internal",
            CtlError::Internal {
                reason: "boom".into(),
            },
        ),
    ]
}

fn responses() -> Vec<(&'static str, CtlResponse)> {
    vec![
        (
            "status",
            CtlResponse::Status(StatusInfo {
                now_ns: 5_000_000,
                chains: vec![chain_info()],
                pending_admissions: 1,
                utilization: 0.25,
                deploys: 3,
                deploy_failures: 1,
                teardowns: 2,
                recoveries: 1,
                recovery_failures: 0,
                rollbacks: 1,
                admission_rejected: 2,
                events: 9,
                restarted: true,
                recovered_chains: 1,
                rolled_back_txns: 2,
            }),
        ),
        ("status fresh", CtlResponse::Status(StatusInfo::default())),
        (
            "deployed",
            CtlResponse::Deployed(DeployInfo {
                chains: vec![
                    chain_info(),
                    ChainInfo {
                        name: "direct".into(),
                        cookie: 8,
                        rules: 2,
                        vnfs: vec![],
                    },
                ],
                total_ns: 1_000,
                netconf_ns: 700,
                steering_ns: 300,
            }),
        ),
        (
            "deployed nothing",
            CtlResponse::Deployed(DeployInfo {
                chains: vec![],
                total_ns: 0,
                netconf_ns: 0,
                steering_ns: 0,
            }),
        ),
        (
            "queued",
            CtlResponse::Queued {
                position: 0,
                utilization: 0.9,
            },
        ),
        (
            "torn-down",
            CtlResponse::ToreDown {
                chain: "demo".into(),
            },
        ),
        ("advanced", CtlResponse::Advanced { now_ns: 42 }),
        ("fault-armed", CtlResponse::FaultArmed { events: 3 }),
        (
            "healed",
            CtlResponse::Healed {
                recoveries: 2,
                failures: 1,
            },
        ),
        (
            "metrics prometheus",
            CtlResponse::Metrics {
                format: MetricsFormat::Prometheus,
                body: "# TYPE x counter\nx{l=\"v\"} 1\n".into(),
            },
        ),
        (
            "metrics json",
            CtlResponse::Metrics {
                format: MetricsFormat::Json,
                body: "{\n  \"metrics\": []\n}\n".into(),
            },
        ),
        ("sla", CtlResponse::Sla(sla_infos())),
        ("sla none", CtlResponse::Sla(vec![])),
        (
            "series",
            CtlResponse::Series {
                body: "{\"period_ns\": 5000000}".into(),
            },
        ),
        (
            "journal",
            CtlResponse::Journal {
                body: "{\"at_ns\": 1}\n{\"at_ns\": 2}\n".into(),
            },
        ),
        (
            "watching",
            CtlResponse::Watching {
                topics: vec![WatchTopic::Events, WatchTopic::Sla],
            },
        ),
        ("traffic-started", CtlResponse::TrafficStarted),
        (
            "scaled",
            CtlResponse::Scaled {
                chain: "demo".into(),
                vnf: "fw".into(),
                from: 1,
                to: 4,
                rules: 12,
                cutover_ns: 450_000,
            },
        ),
        (
            "fingerprint",
            CtlResponse::Fingerprint {
                digest: "container c0 cpu=1.0 mem=128\n".into(),
            },
        ),
        ("shutting-down", CtlResponse::ShuttingDown),
    ]
}

fn events() -> Vec<(&'static str, CtlEvent)> {
    vec![
        (
            "journal",
            CtlEvent::Journal {
                at_ns: 5_000_000,
                severity: "warn".into(),
                kind: "deploy-rolled-back".into(),
                detail: "chain demo: netconf phase".into(),
            },
        ),
        (
            "metrics-delta",
            CtlEvent::MetricsDelta {
                at_ns: 10_000_000,
                deltas: vec![
                    MetricDelta {
                        name: "escape.deploys".into(),
                        labels: vec![
                            ("domain".into(), "core".into()),
                            ("kind".into(), TRICKY.into()),
                        ],
                        metric: "counter".into(),
                        value: 2.0,
                    },
                    MetricDelta {
                        name: "escape.utilization".into(),
                        labels: vec![],
                        metric: "gauge".into(),
                        value: 0.375,
                    },
                ],
            },
        ),
        (
            "metrics-delta empty",
            CtlEvent::MetricsDelta {
                at_ns: 0,
                deltas: vec![],
            },
        ),
        (
            "sla",
            CtlEvent::Sla {
                at_ns: 15_000_000,
                verdicts: sla_infos(),
            },
        ),
        ("lagged", CtlEvent::Lagged { missed: 42 }),
    ]
}

/// What `CtlClient::call_with_id` really puts on the socket: captured by
/// a one-shot listener standing in for the daemon.
fn enveloped_bytes(req: &CtlRequest, request_id: &str) -> String {
    let dir = temp_dir("sock");
    fs::create_dir_all(&dir).unwrap();
    let socket = dir.join("s");
    let listener = UnixListener::bind(&socket).unwrap();
    let server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let payload = read_frame(&mut stream).unwrap().unwrap();
        write_frame(&mut stream, &CtlResponse::ShuttingDown.encode()).unwrap();
        String::from_utf8(payload).unwrap()
    });
    let mut client = CtlClient::connect(&socket).unwrap();
    assert_eq!(
        client.call_with_id(req, request_id).unwrap(),
        CtlResponse::ShuttingDown
    );
    let payload = server.join().unwrap();
    let _ = fs::remove_dir_all(&dir);
    payload
}

/// `wal.log` as text: one `<be32 length in hex> <payload>` line per
/// record. Injective on well-framed logs, so equal text ⇔ equal bytes.
fn render_log(bytes: &[u8]) -> String {
    let mut lines = Vec::new();
    let mut off = 0;
    while off < bytes.len() {
        let len = u32::from_be_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
        let payload = std::str::from_utf8(&bytes[off + 4..off + 4 + len]).unwrap();
        assert!(!payload.contains('\n'), "record spans lines: {payload}");
        lines.push(format!("{len:08x} {payload}"));
        off += 4 + len;
    }
    lines.join("\n")
}

fn parse_log(text: &str) -> Vec<u8> {
    let mut bytes = Vec::new();
    for line in text.lines() {
        let (len, payload) = line.split_once(' ').unwrap();
        let len = u32::from_str_radix(len, 16).unwrap();
        assert_eq!(len as usize, payload.len(), "length prefix of {line}");
        bytes.extend_from_slice(&len.to_be_bytes());
        bytes.extend_from_slice(payload.as_bytes());
    }
    bytes
}

const SEED: u64 = 7;

fn deploy_op() -> CtlRequest {
    CtlRequest::Deploy {
        sg: "sap a b\nvnf fw type=firewall cpu=1\nchain c = a -> fw -> b bw=10".into(),
        format: SgFormat::Dsl,
    }
}

fn deployed_outcome() -> CtlResponse {
    CtlResponse::Deployed(DeployInfo {
        chains: vec![chain_info()],
        total_ns: 1_000,
        netconf_ns: 700,
        steering_ns: 300,
    })
}

fn snapshot(autoscaler: bool, dedup: bool) -> Snapshot {
    Snapshot {
        version: SNAPSHOT_VERSION,
        seed: SEED,
        now_ns: 5_000_000,
        next_cookie: 3,
        next_seq: 9,
        journal_base: 21,
        chains: vec![
            ChainRecord {
                name: "demo".into(),
                cookie: 1,
                sg_json: service_graph_full().to_json(),
                placement: vec![("fw".into(), "c1".into()), ("mon".into(), "c2".into())],
                segments: vec![
                    (vec!["sap0".into(), "s0".into(), "c1".into()], 150),
                    (vec!["c1".into(), "s0".into(), "sap1".into()], 150),
                ],
                total_delay_us: 300,
                replicas: vec![("fw".into(), 2)],
            },
            ChainRecord {
                name: "direct".into(),
                cookie: 2,
                sg_json: "{\"saps\": []}".into(),
                placement: vec![],
                segments: vec![],
                total_delay_us: 0,
                replicas: vec![],
            },
        ],
        autoscaler: autoscaler.then_some(AutoscalerRecord {
            high_watermark: 0.75,
            low_watermark: 0.2,
            queue_high: 4,
            cooldown_ticks: 3,
            min_replicas: 1,
            max_replicas: 8,
            max_actions_per_tick: 2,
        }),
        dedup: if dedup {
            vec![
                ("cli-1".into(), CtlResponse::TrafficStarted),
                ("cli-2".into(), deployed_outcome()),
                (
                    "cli-3".into(),
                    CtlResponse::Error(CtlError::NotFound {
                        what: "chain ghost".into(),
                    }),
                ),
            ]
        } else {
            vec![]
        },
    }
}

fn service_graph_full() -> ServiceGraph {
    ServiceGraph::new()
        .sap("sap0")
        .sap("sap1")
        .vnf("fw", "firewall", 1.0, 256)
        .with_params(&[("rules", "allow udp"), ("default", "deny")])
        .vnf("mon", "monitor", 0.5, 128)
        .with_click_config("FromDevice(in) -> Counter -> ToDevice(out);")
        .chain("c1", &["sap0", "fw", "mon", "sap1"], 100.0, Some(5_000))
        .with_sla(Sla {
            max_latency_us: Some(4_000),
            max_loss: Some(0.01),
        })
        .chain("c2", &["sap1", "sap0"], 12.5, None)
        .with_sla(Sla {
            max_latency_us: None,
            max_loss: Some(0.5),
        })
}

fn service_graph_plain() -> ServiceGraph {
    ServiceGraph::new()
        .sap("sap0")
        .sap("sap1")
        .vnf("shaper", "rate_limiter", 0.25, 64)
        .chain("c", &["sap0", "shaper", "sap1"], 10.0, None)
}

fn topology() -> ResourceTopology {
    let mut t = ResourceTopology::new();
    t.add_sap("sap0")
        .add_switch("s0")
        .add_container("c0", 4.0, 2048)
        .add_container("c1", 0.5, 64)
        .add_sap("sap1")
        .add_link("sap0", "s0", 1000.0, 10)
        .add_link("s0", "c0", 1000.0, 20)
        .add_link("s0", "c1", 12.5, 20)
        .add_link("sap1", "s0", 1000.0, 10);
    t
}

fn fault_plan() -> FaultPlan {
    let (a, b) = ("s0".to_string(), "s1".to_string());
    let kinds = [
        FaultKind::LinkDown {
            a: a.clone(),
            b: b.clone(),
        },
        FaultKind::LinkUp {
            a: a.clone(),
            b: b.clone(),
        },
        FaultKind::LossSpike {
            a: a.clone(),
            b: b.clone(),
            loss: 0.25,
        },
        FaultKind::LossClear {
            a: a.clone(),
            b: b.clone(),
        },
        FaultKind::DelaySpike {
            a: a.clone(),
            b: b.clone(),
            delay_us: 900,
        },
        FaultKind::DelayClear { a, b },
        FaultKind::VnfCrash { node: "c0".into() },
        FaultKind::VnfStall {
            node: "c1".into(),
            for_us: 2_000,
        },
        FaultKind::VnfResume { node: "c1".into() },
    ];
    let mut plan = FaultPlan::new("every-kind");
    for (i, kind) in kinds.into_iter().enumerate() {
        plan = plan.at_us(1_000 * (i as u64 + 1), kind);
    }
    plan
}

fn domain_spec() -> DomainSpec {
    DomainSpec::new()
        .domain("left", &["sap0", "sw0", "c0"])
        .domain("right", &["sw1", "c1", "sap1"])
}

#[test]
fn wire_bytes_match_the_golden_corpus() {
    let mut corpus = Corpus::load();

    for (name, req) in requests() {
        let pinned = corpus.pin(&format!("request {name}"), req.encode());
        assert_eq!(CtlRequest::decode(&pinned).unwrap(), req, "{name}");
        assert_eq!(
            CtlRequest::decode_enveloped(&pinned).unwrap(),
            (req, None),
            "{name}"
        );
    }
    let stamped = CtlRequest::Teardown {
        chain: "demo".into(),
    };
    let pinned = corpus.pin(
        "request enveloped teardown",
        enveloped_bytes(&stamped, "cli-7"),
    );
    assert_eq!(
        CtlRequest::decode_enveloped(&pinned).unwrap(),
        (stamped, Some("cli-7".to_string()))
    );

    for (name, resp) in responses() {
        let pinned = corpus.pin(&format!("response {name}"), resp.encode());
        assert_eq!(CtlResponse::decode(&pinned).unwrap(), resp, "{name}");
    }
    for (name, err) in errors() {
        let resp = CtlResponse::Error(err);
        let pinned = corpus.pin(&format!("error {name}"), resp.encode());
        assert_eq!(CtlResponse::decode(&pinned).unwrap(), resp, "{name}");
    }
    for (name, ev) in events() {
        let pinned = corpus.pin(&format!("event {name}"), ev.encode());
        assert_eq!(CtlEvent::decode(&pinned).unwrap(), ev, "{name}");
    }

    // The log: meta header, an intent with and one without a request
    // id, their commit markers, and a dangling intent.
    let dir = temp_dir("wal");
    {
        let (mut wal, _) = Wal::open(&dir, SEED).unwrap();
        let s0 = wal.append_intent(&deploy_op(), Some("cli-1")).unwrap();
        wal.append_commit(s0, &deployed_outcome()).unwrap();
        let s1 = wal
            .append_intent(&CtlRequest::RunFor { ms: 10 }, None)
            .unwrap();
        wal.append_commit(s1, &CtlResponse::Advanced { now_ns: 10_000_000 })
            .unwrap();
        wal.append_intent(&CtlRequest::Heal, Some(TRICKY)).unwrap();
    }
    let written = fs::read(dir.join(WAL_FILE)).unwrap();
    let pinned = corpus.pin("wal log", render_log(&written));
    fs::write(dir.join(WAL_FILE), parse_log(&pinned)).unwrap();
    let (_wal, rec) = Wal::open(&dir, SEED).unwrap();
    assert!(!rec.truncated);
    assert_eq!(
        rec.committed,
        vec![
            CommittedOp {
                seq: 0,
                request_id: Some("cli-1".into()),
                op: deploy_op(),
                outcome: deployed_outcome(),
            },
            CommittedOp {
                seq: 1,
                request_id: None,
                op: CtlRequest::RunFor { ms: 10 },
                outcome: CtlResponse::Advanced { now_ns: 10_000_000 },
            },
        ]
    );
    assert_eq!(rec.rolled_back, vec![(2, CtlRequest::Heal)]);
    let _ = fs::remove_dir_all(&dir);

    // The snapshot, as `compact` publishes it.
    for (name, snap) in [
        ("snapshot full", snapshot(true, true)),
        ("snapshot bare", snapshot(false, false)),
    ] {
        let dir = temp_dir("snap");
        {
            let (mut wal, _) = Wal::open(&dir, SEED).unwrap();
            wal.compact(&snap).unwrap();
        }
        let written = fs::read_to_string(dir.join(SNAPSHOT_FILE)).unwrap();
        let body = written.strip_suffix('\n').expect("one trailing newline");
        let pinned = corpus.pin(name, body.to_string());
        fs::write(dir.join(SNAPSHOT_FILE), format!("{pinned}\n")).unwrap();
        let (_wal, rec) = Wal::open(&dir, SEED).unwrap();
        assert_eq!(rec.snapshot, Some(snap), "{name}");
        let _ = fs::remove_dir_all(&dir);
    }

    // The four file formats.
    for (name, sg) in [
        ("service graph full", service_graph_full()),
        ("service graph plain", service_graph_plain()),
        ("service graph empty", ServiceGraph::new()),
    ] {
        let pinned = corpus.pin(name, sg.to_json());
        assert_eq!(ServiceGraph::from_json(&pinned).unwrap(), sg, "{name}");
    }
    let topo = topology();
    let pinned = corpus.pin("topology", topo.to_json());
    assert_eq!(ResourceTopology::from_json(&pinned).unwrap(), topo);
    let plan = fault_plan();
    let pinned = corpus.pin("fault plan", plan.to_json());
    assert_eq!(FaultPlan::from_json(&pinned).unwrap(), plan);
    let spec = domain_spec();
    let pinned = corpus.pin("domain spec", spec.to_json());
    assert_eq!(DomainSpec::from_json(&pinned).unwrap(), spec);

    corpus.finish();
}
