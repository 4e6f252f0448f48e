//! Verb execution: one request in, one session call, one response out.

use crate::proto::{
    ChainInfo, CtlError, CtlRequest, CtlResponse, DeployInfo, MetricsFormat, SlaInfo,
};
use escape::env::DeploymentReport;
use escape::error::{AdmissionVerdict, EscapeError};
use escape::flight::SlaVerdict;
use escape::Session;
use std::fs;
use std::io;
use std::path::Path;

/// Executes one command against the session. Pure dispatch: all policy
/// (admission, transactions, healing) lives in the session/environment.
pub fn execute(session: &mut Session, req: &CtlRequest) -> CtlResponse {
    match req {
        CtlRequest::Status => CtlResponse::Status(session.status()),
        CtlRequest::Deploy { sg, format } => match session.deploy_text(sg, *format) {
            Ok(report) => CtlResponse::Deployed(deploy_info(&report)),
            Err(e) => escape_error_response(e),
        },
        CtlRequest::Teardown { chain } => match session.teardown(chain) {
            Ok(()) => CtlResponse::ToreDown {
                chain: chain.clone(),
            },
            Err(e) => escape_error_response(e),
        },
        CtlRequest::RunFor { ms } => {
            if let Err(reason) = crate::args::clock_ms("field \"ms\"", *ms) {
                return CtlResponse::Error(CtlError::Invalid { reason });
            }
            session.run_for_ms(*ms);
            CtlResponse::Advanced {
                now_ns: session.escape().now().as_ns(),
            }
        }
        CtlRequest::Fault { plan } => match session.load_fault_plan_text(plan) {
            Ok(events) => CtlResponse::FaultArmed {
                events: events as u64,
            },
            Err(e) => escape_error_response(e),
        },
        CtlRequest::Heal => {
            let (recoveries, failures) = session.heal_now();
            CtlResponse::Healed {
                recoveries,
                failures,
            }
        }
        CtlRequest::Metrics { format } => CtlResponse::Metrics {
            format: *format,
            body: session.metrics_exposition(matches!(format, MetricsFormat::Json)),
        },
        CtlRequest::Sla => CtlResponse::Sla(
            session
                .sla_verdicts()
                .into_iter()
                .map(SlaInfo::from)
                .collect(),
        ),
        CtlRequest::Series => CtlResponse::Series {
            body: session.series_json(),
        },
        CtlRequest::Journal => CtlResponse::Journal {
            body: session.journal_json_lines(),
        },
        // Intercepted at the connection layer; answered here too so
        // `execute` stays total for direct (in-process) callers.
        CtlRequest::Watch { .. } => CtlResponse::Error(CtlError::Invalid {
            reason: "watch is a streaming verb; it needs a socket connection".into(),
        }),
        CtlRequest::Traffic {
            from,
            to,
            frames,
            len,
            interval_us,
        } => match session.start_udp(from, to, *len as usize, *interval_us, *frames) {
            Ok(()) => CtlResponse::TrafficStarted,
            Err(e) => escape_error_response(e),
        },
        CtlRequest::Scale {
            chain,
            vnf,
            replicas,
        } => {
            if *replicas < 1 || *replicas > escape::MAX_REPLICAS as u64 {
                return CtlResponse::Error(CtlError::Invalid {
                    reason: format!(
                        "replica count {replicas} out of range 1..={}",
                        escape::MAX_REPLICAS
                    ),
                });
            }
            match session.scale(chain, vnf, *replicas as u32) {
                Ok(r) => CtlResponse::Scaled {
                    cutover_ns: r.cutover_latency().as_ns(),
                    chain: r.chain,
                    vnf: r.vnf,
                    from: r.from as u64,
                    to: r.to as u64,
                    rules: r.rules as u64,
                },
                Err(e) => escape_error_response(e),
            }
        }
        CtlRequest::Fingerprint => CtlResponse::Fingerprint {
            digest: session.state_fingerprint(),
        },
        // Handled by the environment loop before dispatch; answered here
        // too so `execute` is total for direct (in-process) callers.
        CtlRequest::Shutdown => CtlResponse::ShuttingDown,
    }
}

/// Maps an environment failure to its typed wire form. Note that a
/// *queued* admission verdict is a success shape, not an error: the
/// deploy retries by itself as virtual time advances.
fn escape_error_response(e: EscapeError) -> CtlResponse {
    match e {
        EscapeError::Admission(v) => match v {
            AdmissionVerdict::RejectedHard {
                utilization,
                hard_watermark,
            } => CtlResponse::Error(CtlError::RejectedHard {
                utilization,
                hard_watermark,
            }),
            AdmissionVerdict::Queued {
                position,
                utilization,
            } => CtlResponse::Queued {
                position: position as u64,
                utilization,
            },
            AdmissionVerdict::QueueFull { capacity } => CtlResponse::Error(CtlError::QueueFull {
                capacity: capacity as u64,
            }),
            v @ AdmissionVerdict::RetriesExhausted { .. } => {
                CtlResponse::Error(CtlError::Internal {
                    reason: v.to_string(),
                })
            }
        },
        EscapeError::DeployFailed { phase, cause, .. } => {
            CtlResponse::Error(CtlError::DeployFailed {
                phase: phase.to_string(),
                cause: cause.to_string(),
            })
        }
        EscapeError::ScaleFailed {
            chain,
            vnf,
            phase,
            cause,
            ..
        } => CtlResponse::Error(CtlError::ScaleFailed {
            chain,
            vnf,
            phase: phase.label().to_string(),
            cause: cause.to_string(),
        }),
        EscapeError::NotFound(what) => CtlResponse::Error(CtlError::NotFound { what }),
        EscapeError::Invalid(reason) => CtlResponse::Error(CtlError::Invalid { reason }),
        other => CtlResponse::Error(CtlError::Internal {
            reason: other.to_string(),
        }),
    }
}

fn deploy_info(report: &DeploymentReport) -> DeployInfo {
    DeployInfo {
        chains: report.chains.iter().map(ChainInfo::of).collect(),
        total_ns: report.total().as_ns(),
        netconf_ns: report.netconf_phase().as_ns(),
        steering_ns: report.steering_phase().as_ns(),
    }
}

/// A verdict on the wire, moved rather than copied.
impl From<SlaVerdict> for SlaInfo {
    fn from(v: SlaVerdict) -> SlaInfo {
        SlaInfo {
            chain: v.chain,
            pass: v.pass,
            delivered: v.delivered,
            dropped: v.dropped,
            loss: v.loss,
            max_latency_ns: v.max_latency_ns,
            violations: v.violations,
        }
    }
}

/// Writes the final telemetry state into `dir` via the session's single
/// exposition path.
pub(super) fn flush_artifacts(session: &Session, dir: &Path) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    fs::write(dir.join("metrics.prom"), session.metrics_exposition(false))?;
    fs::write(dir.join("metrics.json"), session.metrics_exposition(true))?;
    Ok(())
}
