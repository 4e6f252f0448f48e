//! Error type for the environment.

use escape_netem::FaultPlanError;
use escape_orch::MapError;
use escape_scale::MigrationPhase;

/// Phase of a deployment transaction in which a failure occurred.
///
/// A deploy runs *plan* (reserve resources in the orchestrator), then
/// *prepare* (start VNFs over NETCONF, stage steering rules in a shadow
/// set), then *commit* (activate the staged rules and publish the
/// chain). Rollback undoes exactly the steps the failing phase — and
/// every phase before it — completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeployPhase {
    /// Resource reservation (orchestrator embedding).
    Plan,
    /// VNF startup and shadow rule staging.
    Prepare,
    /// Activation of the staged state.
    Commit,
}

impl std::fmt::Display for DeployPhase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DeployPhase::Plan => "plan",
            DeployPhase::Prepare => "prepare",
            DeployPhase::Commit => "commit",
        })
    }
}

/// One undo action taken while rolling a failed deployment back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RollbackStep {
    /// What was undone ("stop-vnf", "disconnect-vnf", "discard-rules",
    /// "remove-rules", "release-reservation").
    pub action: &'static str,
    /// The entity the action applied to (VNF id, chain name, ...).
    pub target: String,
    /// Whether the undo itself succeeded. A `false` here means the
    /// rollback was best-effort for this step (e.g. the agent that
    /// timed out during deploy also ignored the stop request).
    pub ok: bool,
}

/// Ordered record of everything a rollback undid, newest action first
/// (rollback walks the transaction log in reverse).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RollbackReport {
    pub steps: Vec<RollbackStep>,
}

impl RollbackReport {
    /// True when every undo step succeeded — the environment is
    /// byte-identical to its pre-deploy state.
    pub fn complete(&self) -> bool {
        self.steps.iter().all(|s| s.ok)
    }
}

impl std::fmt::Display for RollbackReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rollback of {} step(s)", self.steps.len())?;
        if self.complete() {
            write!(f, " (complete)")?;
        } else {
            let failed = self.steps.iter().filter(|s| !s.ok).count();
            write!(f, " ({failed} best-effort)")?;
        }
        for s in &self.steps {
            write!(
                f,
                "; {} {}{}",
                s.action,
                s.target,
                if s.ok { "" } else { " [failed]" }
            )?;
        }
        Ok(())
    }
}

/// The admission controller's decision on a deploy request that could
/// not be admitted immediately.
#[derive(Debug, Clone, PartialEq)]
pub enum AdmissionVerdict {
    /// Utilization is at or above the hard watermark: the request is
    /// rejected outright and never queued.
    RejectedHard {
        /// Compute utilization at decision time (0..=1).
        utilization: f64,
        /// The configured hard watermark it met or exceeded.
        hard_watermark: f64,
    },
    /// Utilization is between the soft and hard watermarks: the request
    /// was parked on the admission queue and will retry with seeded
    /// deterministic backoff as capacity frees up.
    Queued {
        /// Position in the queue (0 = head).
        position: usize,
        /// Compute utilization at decision time (0..=1).
        utilization: f64,
    },
    /// The admission queue itself is full.
    QueueFull { capacity: usize },
    /// A queued request used up its retry budget without utilization
    /// ever dropping below the soft watermark.
    RetriesExhausted { attempts: u32 },
}

impl std::fmt::Display for AdmissionVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionVerdict::RejectedHard {
                utilization,
                hard_watermark,
            } => write!(
                f,
                "rejected: utilization {utilization:.2} >= hard watermark {hard_watermark:.2}"
            ),
            AdmissionVerdict::Queued {
                position,
                utilization,
            } => write!(
                f,
                "queued at position {position} (utilization {utilization:.2})"
            ),
            AdmissionVerdict::QueueFull { capacity } => {
                write!(f, "admission queue full ({capacity} waiting)")
            }
            AdmissionVerdict::RetriesExhausted { attempts } => {
                write!(f, "gave up after {attempts} queued attempt(s)")
            }
        }
    }
}

/// Anything that can go wrong building the environment or deploying a
/// service graph.
#[derive(Debug, Clone, PartialEq)]
pub enum EscapeError {
    /// Topology or service graph failed validation.
    Invalid(String),
    /// A fault plan referenced a node or link that does not exist.
    FaultPlan(FaultPlanError),
    /// The orchestrator rejected one or more chains.
    MappingFailed(Vec<(String, MapError)>),
    /// A NETCONF operation failed or timed out (virtual time budget).
    Netconf(String),
    /// A NETCONF agent sent a reply the client could not parse —
    /// truncated or malformed XML, or bytes that are not UTF-8 at all.
    MalformedReply { container: String, reason: String },
    /// A NETCONF RPC exhausted its retry budget without a reply — the
    /// agent is unreachable (crashed container, partitioned control
    /// network, or a stall longer than the whole backoff schedule).
    RpcTimeout {
        container: String,
        /// Attempts made (first try + retries).
        attempts: u32,
    },
    /// Steering rules could not be installed.
    Steering(String),
    /// A named entity does not exist.
    NotFound(String),
    /// The admission controller declined the deploy request.
    Admission(AdmissionVerdict),
    /// A deployment transaction failed partway and was rolled back.
    /// `cause` is the underlying failure; `rollback` records exactly
    /// which completed steps were undone, in reverse order.
    DeployFailed {
        phase: DeployPhase,
        cause: Box<EscapeError>,
        rollback: RollbackReport,
    },
    /// An elastic-scaling transaction failed partway and was rolled back
    /// to the fingerprint-identical pre-scale state. `phase` is the
    /// make-before-break phase the failure landed in.
    ScaleFailed {
        chain: String,
        vnf: String,
        phase: MigrationPhase,
        cause: Box<EscapeError>,
        rollback: RollbackReport,
    },
}

impl std::fmt::Display for EscapeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EscapeError::Invalid(m) => write!(f, "invalid input: {m}"),
            EscapeError::FaultPlan(e) => write!(f, "fault plan: {e}"),
            EscapeError::MappingFailed(rej) => {
                write!(f, "mapping failed for {} chain(s): ", rej.len())?;
                for (c, e) in rej {
                    write!(f, "[{c}: {e}] ")?;
                }
                Ok(())
            }
            EscapeError::Netconf(m) => write!(f, "netconf: {m}"),
            EscapeError::MalformedReply { container, reason } => {
                write!(f, "netconf: malformed reply from {container}: {reason}")
            }
            EscapeError::RpcTimeout {
                container,
                attempts,
            } => write!(
                f,
                "netconf: rpc to {container} timed out after {attempts} attempt(s)"
            ),
            EscapeError::Steering(m) => write!(f, "steering: {m}"),
            EscapeError::NotFound(m) => write!(f, "not found: {m}"),
            EscapeError::Admission(v) => write!(f, "admission: {v}"),
            EscapeError::DeployFailed {
                phase,
                cause,
                rollback,
            } => write!(f, "deploy failed in {phase}: {cause} ({rollback})"),
            EscapeError::ScaleFailed {
                chain,
                vnf,
                phase,
                cause,
                rollback,
            } => write!(
                f,
                "scale of {chain}/{vnf} failed in {phase}: {cause} ({rollback})"
            ),
        }
    }
}

impl std::error::Error for EscapeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(EscapeError::Invalid("x".into()).to_string().contains("x"));
        let e = EscapeError::MappingFailed(vec![("c1".into(), MapError::NoCapacity("fw".into()))]);
        assert!(e.to_string().contains("c1"));
        assert!(e.to_string().contains("fw"));
        assert!(EscapeError::NotFound("sap9".into())
            .to_string()
            .contains("sap9"));
        let t = EscapeError::RpcTimeout {
            container: "c0".into(),
            attempts: 5,
        };
        assert!(t.to_string().contains("c0"));
        assert!(t.to_string().contains("5 attempt"));
    }

    #[test]
    fn display_transaction_variants() {
        let fp = EscapeError::FaultPlan(FaultPlanError::UnknownNode {
            plan: "p".into(),
            index: 2,
            node: "ghost".into(),
        });
        assert!(fp.to_string().contains("ghost"));
        assert!(fp.to_string().starts_with("fault plan:"));

        let m = EscapeError::MalformedReply {
            container: "c1".into(),
            reason: "not well-formed XML".into(),
        };
        assert!(m.to_string().contains("c1"));
        assert!(m.to_string().contains("XML"));

        let rb = RollbackReport {
            steps: vec![
                RollbackStep {
                    action: "discard-rules",
                    target: "chain".into(),
                    ok: true,
                },
                RollbackStep {
                    action: "stop-vnf",
                    target: "c0/1".into(),
                    ok: false,
                },
            ],
        };
        assert!(!rb.complete());
        let d = EscapeError::DeployFailed {
            phase: DeployPhase::Prepare,
            cause: Box::new(EscapeError::RpcTimeout {
                container: "c0".into(),
                attempts: 5,
            }),
            rollback: rb,
        };
        let s = d.to_string();
        assert!(s.contains("prepare"), "{s}");
        assert!(s.contains("timed out"), "{s}");
        assert!(s.contains("stop-vnf c0/1 [failed]"), "{s}");

        let s = EscapeError::ScaleFailed {
            chain: "demo".into(),
            vnf: "fw".into(),
            phase: MigrationPhase::Promote,
            cause: Box::new(EscapeError::Steering("rules stuck".into())),
            rollback: RollbackReport::default(),
        }
        .to_string();
        assert!(s.contains("demo/fw"), "{s}");
        assert!(s.contains("promote"), "{s}");
        assert!(s.contains("rules stuck"), "{s}");

        let a = EscapeError::Admission(AdmissionVerdict::RejectedHard {
            utilization: 0.97,
            hard_watermark: 0.95,
        });
        assert!(a.to_string().contains("0.97"));
        assert!(AdmissionVerdict::Queued {
            position: 0,
            utilization: 0.9
        }
        .to_string()
        .contains("position 0"));
        assert!(AdmissionVerdict::QueueFull { capacity: 4 }
            .to_string()
            .contains("4"));
        assert!(AdmissionVerdict::RetriesExhausted { attempts: 3 }
            .to_string()
            .contains("3"));
    }
}
