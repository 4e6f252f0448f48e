//! The typed control-plane protocol: requests, responses and structured
//! errors, all round-tripping through `escape-json`.
//!
//! Every message on the wire is one length-prefixed frame (see
//! [`crate::frame`]) holding a single JSON object. Requests carry a
//! `"verb"` discriminator, responses a `"kind"`, errors a `"code"` — so
//! a client can always dispatch without guessing at field presence.
//!
//! Each message is declared once, as an [`escape_json::wire`] table:
//! the declaration below *is* the wire format — labels, key names and
//! key order — and encode and decode are both read off it.

use escape_json::wire::{decode, root_label, to_json, DecodeError, Flat, Omit, Pairs, WireError};
use escape_json::{wire_enum, wire_struct, wire_tagged};

/// Text format of a shipped service-graph document.
pub use escape::session::InputFormat as SgFormat;
pub use escape::session::{ChainInfo, StatusInfo};

wire_enum! {
    /// Exposition format for the `metrics` verb.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum MetricsFormat {
        Prometheus = "prometheus",
        Json = "json",
    }
}

wire_enum! {
    /// A stream a `watch` subscriber can select.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    pub enum WatchTopic {
        /// Structured journal events (deploys, faults, heals, ...).
        Events = "events",
        /// Per-sample metric deltas from the time-series sampler.
        MetricsDeltas = "metrics-deltas",
        /// SLA verdict changes from the flight recorder.
        Sla = "sla",
    }
}

impl WatchTopic {
    pub fn parse(s: &str) -> Result<WatchTopic, CtlError> {
        WatchTopic::from_label(s).ok_or_else(|| CtlError::Invalid {
            reason: format!("unknown watch topic {s:?}"),
        })
    }
}

impl std::fmt::Display for WatchTopic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

wire_tagged! {
    /// A command sent to the daemon. The file-based verbs (`deploy`,
    /// `fault`) ship the document *contents*, not a path — the daemon
    /// never reads the client's filesystem.
    #[derive(Debug, Clone, PartialEq)]
    pub enum CtlRequest as "verb" {
        /// Live chains, virtual time, counters.
        "status" => Status,
        /// Deploy a service graph (transactional, admission-gated).
        "deploy" => Deploy { sg: String, format: SgFormat },
        /// Tear one chain down (all-or-nothing).
        "teardown" => Teardown { chain: String },
        /// Advance virtual time with self-healing.
        "run-for" => RunFor { ms: u64 },
        /// Arm a JSON fault plan.
        "fault" => Fault { plan: String },
        /// Run one healing pass now.
        "heal" => Heal,
        /// Telemetry exposition.
        "metrics" => Metrics { format: MetricsFormat },
        /// Per-chain SLA verdicts from the flight recorder.
        "sla" => Sla,
        /// Delta-encoded sampler series (JSON document).
        "series" => Series,
        /// The retained event journal as JSON lines.
        "journal" => Journal,
        /// Subscribe this connection to server-push [`CtlEvent`] frames.
        /// After the [`CtlResponse::Watching`] ack, the daemon streams
        /// event frames until the client hangs up (or falls too far
        /// behind). `since` resumes an events subscription at a journal
        /// sequence cursor: retained entries with seq >= `since` are
        /// replayed before live streaming starts, so a watcher survives
        /// a daemon restart without gaps (an unreachable cursor shows up
        /// as a `lagged` frame, never as silence).
        "watch" => Watch {
            topics: Vec<WatchTopic>,
            since: Option<u64> => Omit,
        },
        /// Start a paced UDP stream between two SAPs.
        "traffic" => Traffic {
            from: String,
            to: String,
            frames: u64,
            len: u64,
            interval_us: u64,
        },
        /// Resize one chain VNF to a replica count (make-before-break
        /// migration with hash-bucket steering).
        "scale" => Scale {
            chain: String,
            vnf: String,
            replicas: u64,
        },
        /// Canonical full-state fingerprint of the live environment —
        /// the cross-process equality witness crash-recovery tests
        /// compare.
        "fingerprint" => Fingerprint,
        /// Graceful daemon shutdown (teardown + telemetry flush).
        "shutdown" => Shutdown,
    }
}

wire_struct! {
    /// What a completed deploy reports (virtual-time phase latencies).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct DeployInfo {
        pub chains: Vec<ChainInfo>,
        pub total_ns: u64,
        pub netconf_ns: u64,
        pub steering_ns: u64,
    }
}

wire_struct! {
    /// One chain's SLA verdict.
    #[derive(Debug, Clone, PartialEq)]
    pub struct SlaInfo {
        pub chain: String,
        pub pass: bool,
        pub delivered: u64,
        pub dropped: u64,
        pub loss: f64,
        pub max_latency_ns: Option<u64>,
        pub violations: Vec<String>,
    }
}

wire_tagged! {
    /// What the daemon answers. Every request gets exactly one response
    /// frame; failures are [`CtlResponse::Error`] with a typed
    /// [`CtlError`] — the connection stays open either way.
    #[derive(Debug, Clone, PartialEq)]
    pub enum CtlResponse as "kind" {
        "status" => Status(StatusInfo),
        /// Carries [`DeployInfo`]'s keys beside the tag, not under one.
        "deployed" => Deployed(DeployInfo => Flat),
        /// Admission parked the deploy on the queue; it retries as
        /// virtual time advances.
        "queued" => Queued {
            position: u64,
            utilization: f64,
        },
        "torn-down" => ToreDown { chain: String },
        "advanced" => Advanced { now_ns: u64 },
        "fault-armed" => FaultArmed { events: u64 },
        "healed" => Healed {
            recoveries: u64,
            failures: u64,
        },
        "metrics" => Metrics {
            format: MetricsFormat,
            body: String,
        },
        "sla" => Sla(Vec<SlaInfo> as "verdicts"),
        /// Sampler series document (JSON text).
        "series" => Series { body: String },
        /// Journal export (JSON lines).
        "journal" => Journal { body: String },
        /// `watch` acknowledged; [`CtlEvent`] frames follow on this
        /// connection.
        "watching" => Watching { topics: Vec<WatchTopic> },
        "traffic-started" => TrafficStarted,
        /// A completed scale transaction: replica count moved `from` →
        /// `to` behind one atomic rule cutover.
        "scaled" => Scaled {
            chain: String,
            vnf: String,
            from: u64,
            to: u64,
            /// Live rule count afterwards.
            rules: u64,
            /// Virtual time the cutover took.
            cutover_ns: u64,
        },
        /// Canonical full-state fingerprint text of the live environment.
        "fingerprint" => Fingerprint { digest: String },
        "shutting-down" => ShuttingDown,
        "error" => Error(CtlError),
    }
}

wire_tagged! {
    /// One server-push frame on a watching connection. Carries an
    /// `"event"` discriminator so a subscriber can dispatch without
    /// guessing — and so these frames can never be confused with
    /// `"kind"`-tagged responses.
    #[derive(Debug, Clone, PartialEq)]
    pub enum CtlEvent as "event" {
        /// One structured journal entry.
        "journal" => Journal {
            at_ns: u64,
            severity: String,
            kind: String,
            detail: String,
        },
        /// Metric movement over one sample period. Counters and
        /// histograms report the per-period delta; gauges report the new
        /// value.
        "metrics-delta" => MetricsDelta {
            at_ns: u64,
            deltas: Vec<MetricDelta>,
        },
        /// Fresh SLA verdicts (sent when a chain's verdict flips).
        "sla" => Sla { at_ns: u64, verdicts: Vec<SlaInfo> },
        /// The subscriber fell behind and `missed` frames were dropped.
        "lagged" => Lagged { missed: u64 },
    }
}

wire_struct! {
    /// One metric's movement inside a [`CtlEvent::MetricsDelta`] frame.
    #[derive(Debug, Clone, PartialEq)]
    pub struct MetricDelta {
        pub name: String,
        pub labels: Vec<(String, String)> => Pairs("k", "v"),
        /// `"counter"`, `"gauge"` or `"histogram"`.
        pub metric: String,
        pub value: f64,
    }
}

wire_tagged! {
    /// Structured control-plane failure. `Malformed` carries the byte
    /// offset into the offending frame payload.
    #[derive(Debug, Clone, PartialEq)]
    pub enum CtlError as "code" {
        /// The request frame was not a valid protocol message.
        "malformed" => Malformed { offset: u64, reason: String },
        /// Valid JSON, but not a verb this daemon speaks. (`"verb"` is
        /// the request's own discriminator, so the offender travels
        /// under another key.)
        "unknown-verb" => UnknownVerb { verb: String as "req_verb" },
        /// A named entity (chain, SAP, ...) does not exist.
        "not-found" => NotFound { what: String },
        /// Admission control refused outright: utilization at or above
        /// the hard watermark.
        "rejected-hard" => RejectedHard {
            utilization: f64,
            hard_watermark: f64,
        },
        /// The admission queue is full.
        "queue-full" => QueueFull { capacity: u64 },
        /// A deployment transaction failed and was rolled back.
        "deploy-failed" => DeployFailed { phase: String, cause: String },
        /// A scale transaction failed in a make-before-break phase
        /// (`prepare`, `promote`, `drain`, `retire`) and was rolled back
        /// — or, in `retire`, parked retryable.
        "scale-failed" => ScaleFailed {
            chain: String,
            vnf: String,
            phase: String,
            cause: String,
        },
        /// A durable state artifact (write-ahead log or snapshot) is
        /// truncated or garbled beyond the tolerated torn final record.
        "corrupt-state" => CorruptState {
            path: String,
            offset: u64,
            cause: String,
        },
        /// The request was well-formed but semantically wrong.
        "invalid" => Invalid { reason: String },
        /// The daemon is shutting down and no longer executes commands.
        "shutting-down" => ShuttingDown,
        /// Anything else (environment-level failure).
        "internal" => Internal { reason: String },
    }
}

impl std::fmt::Display for CtlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CtlError::Malformed { offset, reason } => {
                write!(f, "malformed request: {reason} at byte {offset}")
            }
            CtlError::UnknownVerb { verb } => write!(f, "unknown verb {verb:?}"),
            CtlError::NotFound { what } => write!(f, "not found: {what}"),
            CtlError::RejectedHard {
                utilization,
                hard_watermark,
            } => write!(
                f,
                "rejected: utilization {utilization:.2} >= hard watermark {hard_watermark:.2}"
            ),
            CtlError::QueueFull { capacity } => {
                write!(f, "admission queue full ({capacity} waiting)")
            }
            CtlError::DeployFailed { phase, cause } => {
                write!(f, "deploy failed in {phase}: {cause}")
            }
            CtlError::ScaleFailed {
                chain,
                vnf,
                phase,
                cause,
            } => write!(f, "scale of {chain}/{vnf} failed in {phase}: {cause}"),
            CtlError::CorruptState {
                path,
                offset,
                cause,
            } => write!(f, "corrupt state in {path} at byte {offset}: {cause}"),
            CtlError::Invalid { reason } => write!(f, "invalid request: {reason}"),
            CtlError::ShuttingDown => write!(f, "daemon is shutting down"),
            CtlError::Internal { reason } => write!(f, "internal error: {reason}"),
        }
    }
}

/// A document of the wrong shape is `Invalid`; the reason names the path
/// to the offending value.
impl From<WireError> for CtlError {
    fn from(e: WireError) -> CtlError {
        CtlError::Invalid {
            reason: e.to_string(),
        }
    }
}

/// Unparsable JSON is `Malformed`, with the byte offset of the failure;
/// a document of the wrong shape is `Invalid`.
impl From<DecodeError> for CtlError {
    fn from(e: DecodeError) -> CtlError {
        match e {
            DecodeError::Syntax(e) => CtlError::Malformed {
                offset: e.offset as u64,
                reason: e.message,
            },
            DecodeError::Shape(e) => e.into(),
        }
    }
}

wire_struct! {
    /// A request as it travels: the verb's own keys, then the optional
    /// idempotency token clients stamp on mutating verbs so a
    /// crash-reconnect retry is answered with the original outcome
    /// instead of re-executing.
    struct Envelope {
        req: CtlRequest => Flat,
        request_id: Option<String> => Omit,
    }
}

impl CtlRequest {
    pub fn encode(&self) -> String {
        to_json(self)
    }

    /// [`CtlRequest::encode`] with an idempotency token.
    pub fn encode_enveloped(&self, request_id: &str) -> String {
        let enveloped = Envelope {
            req: self.clone(),
            request_id: Some(request_id.to_string()),
        };
        to_json(&enveloped)
    }

    pub fn decode(src: &str) -> Result<CtlRequest, CtlError> {
        CtlRequest::decode_enveloped(src).map(|(req, _id)| req)
    }

    /// Decodes a request together with its idempotency envelope.
    pub fn decode_enveloped(src: &str) -> Result<(CtlRequest, Option<String>), CtlError> {
        match decode::<Envelope>(src) {
            Ok(e) => Ok((e.req, e.request_id)),
            // An unrecognised verb is its own error kind, not a shape error.
            Err(DecodeError::Shape(e)) => Err(match root_label(src, CtlRequest::LABEL_KEY) {
                Some(verb) if !CtlRequest::LABELS.contains(&verb.as_str()) => {
                    CtlError::UnknownVerb { verb }
                }
                _ => e.into(),
            }),
            Err(e) => Err(e.into()),
        }
    }
}

impl CtlResponse {
    pub fn encode(&self) -> String {
        to_json(self)
    }

    pub fn decode(src: &str) -> Result<CtlResponse, CtlError> {
        Ok(decode(src)?)
    }
}

impl CtlEvent {
    pub fn encode(&self) -> String {
        to_json(self)
    }

    pub fn decode(src: &str) -> Result<CtlEvent, CtlError> {
        Ok(decode(src)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use escape_json::Value;

    fn round_trip_request(req: CtlRequest) {
        let text = req.encode();
        let back = CtlRequest::decode(&text).unwrap();
        assert_eq!(req, back, "wire text: {text}");
    }

    fn round_trip_response(resp: CtlResponse) {
        let text = resp.encode();
        let back = CtlResponse::decode(&text).unwrap();
        assert_eq!(resp, back, "wire text: {text}");
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(CtlRequest::Status);
        round_trip_request(CtlRequest::Deploy {
            sg: "{\"chains\": []}".into(),
            format: SgFormat::Json,
        });
        round_trip_request(CtlRequest::Deploy {
            sg: "sap a b\nchain c = a -> b bw=1".into(),
            format: SgFormat::Dsl,
        });
        round_trip_request(CtlRequest::Teardown {
            chain: "demo".into(),
        });
        round_trip_request(CtlRequest::RunFor { ms: 250 });
        round_trip_request(CtlRequest::Fault {
            plan: "{\"events\": []}".into(),
        });
        round_trip_request(CtlRequest::Heal);
        round_trip_request(CtlRequest::Metrics {
            format: MetricsFormat::Prometheus,
        });
        round_trip_request(CtlRequest::Metrics {
            format: MetricsFormat::Json,
        });
        round_trip_request(CtlRequest::Sla);
        round_trip_request(CtlRequest::Series);
        round_trip_request(CtlRequest::Journal);
        round_trip_request(CtlRequest::Watch {
            topics: vec![],
            since: None,
        });
        round_trip_request(CtlRequest::Watch {
            topics: WatchTopic::ALL.to_vec(),
            since: Some(42),
        });
        round_trip_request(CtlRequest::Traffic {
            from: "sap0".into(),
            to: "sap1".into(),
            frames: 20,
            len: 128,
            interval_us: 200,
        });
        round_trip_request(CtlRequest::Scale {
            chain: "demo".into(),
            vnf: "fw".into(),
            replicas: 4,
        });
        round_trip_request(CtlRequest::Fingerprint);
        round_trip_request(CtlRequest::Shutdown);
    }

    #[test]
    fn request_id_envelope_round_trips() {
        // A stamped request decodes to the verb plus its id.
        let v = Value::parse(&CtlRequest::Status.encode())
            .unwrap()
            .set("request_id", "cli-7");
        let (req, id) = CtlRequest::decode_enveloped(&v.to_string()).unwrap();
        assert_eq!(req, CtlRequest::Status);
        assert_eq!(id.as_deref(), Some("cli-7"));
        // An unstamped request decodes with no id.
        let (req, id) = CtlRequest::decode_enveloped(&CtlRequest::Heal.encode()).unwrap();
        assert_eq!(req, CtlRequest::Heal);
        assert_eq!(id, None);
    }

    #[test]
    fn responses_round_trip() {
        let chain = ChainInfo {
            name: "demo".into(),
            cookie: 7,
            rules: 4,
            vnfs: vec![("fw".into(), "c1".into()), ("mon".into(), "c2".into())],
        };
        round_trip_response(CtlResponse::Status(StatusInfo {
            now_ns: 5_000_000,
            chains: vec![chain.clone()],
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
        }));
        round_trip_response(CtlResponse::Deployed(DeployInfo {
            chains: vec![chain],
            total_ns: 1_000,
            netconf_ns: 700,
            steering_ns: 300,
        }));
        round_trip_response(CtlResponse::Queued {
            position: 0,
            utilization: 0.9,
        });
        round_trip_response(CtlResponse::ToreDown {
            chain: "demo".into(),
        });
        round_trip_response(CtlResponse::Advanced { now_ns: 42 });
        round_trip_response(CtlResponse::FaultArmed { events: 3 });
        round_trip_response(CtlResponse::Healed {
            recoveries: 2,
            failures: 1,
        });
        round_trip_response(CtlResponse::Metrics {
            format: MetricsFormat::Prometheus,
            body: "# TYPE x counter\nx 1\n".into(),
        });
        round_trip_response(CtlResponse::Sla(vec![SlaInfo {
            chain: "demo".into(),
            pass: false,
            delivered: 18,
            dropped: 2,
            loss: 0.1,
            max_latency_ns: Some(1_234_567),
            violations: vec!["latency 1.2ms > 1.0ms".into()],
        }]));
        round_trip_response(CtlResponse::Sla(vec![SlaInfo {
            chain: "quiet".into(),
            pass: true,
            delivered: 0,
            dropped: 0,
            loss: 0.0,
            max_latency_ns: None,
            violations: vec![],
        }]));
        round_trip_response(CtlResponse::Series {
            body: "{\"period_ns\": 5000000}".into(),
        });
        round_trip_response(CtlResponse::Journal {
            body: "{\"at_ns\": 1}\n{\"at_ns\": 2}\n".into(),
        });
        round_trip_response(CtlResponse::Watching {
            topics: vec![WatchTopic::Events, WatchTopic::Sla],
        });
        round_trip_response(CtlResponse::TrafficStarted);
        round_trip_response(CtlResponse::Scaled {
            chain: "demo".into(),
            vnf: "fw".into(),
            from: 1,
            to: 4,
            rules: 12,
            cutover_ns: 450_000,
        });
        round_trip_response(CtlResponse::Fingerprint {
            digest: "container c0 cpu=1.0 mem=128\n".into(),
        });
        round_trip_response(CtlResponse::ShuttingDown);
    }

    #[test]
    fn events_round_trip() {
        for e in [
            CtlEvent::Journal {
                at_ns: 5_000_000,
                severity: "warn".into(),
                kind: "deploy-rolled-back".into(),
                detail: "chain demo: netconf phase".into(),
            },
            CtlEvent::MetricsDelta {
                at_ns: 10_000_000,
                deltas: vec![MetricDelta {
                    name: "escape.deploys".into(),
                    labels: vec![("domain".into(), "core".into())],
                    metric: "counter".into(),
                    value: 2.0,
                }],
            },
            CtlEvent::Sla {
                at_ns: 15_000_000,
                verdicts: vec![SlaInfo {
                    chain: "demo".into(),
                    pass: false,
                    delivered: 18,
                    dropped: 2,
                    loss: 0.1,
                    max_latency_ns: Some(1_234_567),
                    violations: vec!["loss 0.10 > 0.05".into()],
                }],
            },
            CtlEvent::Lagged { missed: 42 },
        ] {
            let text = e.encode();
            let back = CtlEvent::decode(&text).unwrap();
            assert_eq!(e, back, "wire text: {text}");
        }
    }

    #[test]
    fn unknown_watch_topic_is_typed() {
        let err = CtlRequest::decode("{\"verb\": \"watch\", \"topics\": [\"vibes\"]}").unwrap_err();
        assert!(matches!(err, CtlError::Invalid { .. }), "{err:?}");
    }

    #[test]
    fn errors_round_trip() {
        for e in [
            CtlError::Malformed {
                offset: 17,
                reason: "expected ',' or '}'".into(),
            },
            CtlError::UnknownVerb {
                verb: "resize".into(),
            },
            CtlError::NotFound {
                what: "chain ghost".into(),
            },
            CtlError::RejectedHard {
                utilization: 0.97,
                hard_watermark: 0.95,
            },
            CtlError::QueueFull { capacity: 8 },
            CtlError::DeployFailed {
                phase: "prepare".into(),
                cause: "rpc to c1 timed out".into(),
            },
            CtlError::ScaleFailed {
                chain: "demo".into(),
                vnf: "fw".into(),
                phase: "promote".into(),
                cause: "steering: rules stuck".into(),
            },
            CtlError::CorruptState {
                path: "/var/escaped/wal.log".into(),
                offset: 1024,
                cause: "record is not valid JSON".into(),
            },
            CtlError::Invalid {
                reason: "missing field".into(),
            },
            CtlError::ShuttingDown,
            CtlError::Internal {
                reason: "boom".into(),
            },
        ] {
            round_trip_response(CtlResponse::Error(e));
        }
    }

    #[test]
    fn malformed_request_carries_offset() {
        let err = CtlRequest::decode("{\"verb\": nope}").unwrap_err();
        match err {
            CtlError::Malformed { offset, .. } => assert_eq!(offset, 9),
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    /// An unknown verb is named as such whatever else is wrong with the
    /// request, and wherever the verb sits in it; only text that is not
    /// JSON is refused first.
    #[test]
    fn an_unknown_verb_beats_a_bad_field() {
        for text in [
            r#"{"verb":"dance","chain":7}"#,
            r#"{"chain":7,"verb":"dance"}"#,
            r#"{"ms":1e30,"request_id":7,"verb":"dance"}"#,
        ] {
            assert_eq!(
                CtlRequest::decode_enveloped(text),
                Err(CtlError::UnknownVerb {
                    verb: "dance".into()
                }),
                "{text}"
            );
        }
        assert!(matches!(
            CtlRequest::decode(r#"{"verb":"dance","chain":nope}"#),
            Err(CtlError::Malformed { offset: 24, .. })
        ));
    }

    #[test]
    fn unknown_verb_is_typed() {
        let err = CtlRequest::decode("{\"verb\": \"dance\"}").unwrap_err();
        assert_eq!(
            err,
            CtlError::UnknownVerb {
                verb: "dance".into()
            }
        );
    }
}
