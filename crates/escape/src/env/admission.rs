//! Admission control: a watermark gate on compute utilization in front
//! of every deploy, and a bounded queue that retries parked deploys on
//! a seeded backoff schedule as capacity frees up.

use super::Escape;
use crate::error::{AdmissionVerdict, EscapeError};
use crate::journal::{JournalKind, Severity};
use escape_netconf::RetryPolicy;
use escape_netem::Time;
use escape_sg::ServiceGraph;
use escape_telemetry::{Counter, Registry};

/// Capacity watermarks for the admission controller. Disabled by default;
/// enable with [`Escape::set_admission`].
///
/// Compute utilization below `soft_watermark` admits deploys immediately.
/// Between the watermarks, requests park on a bounded queue and retry on
/// a seeded deterministic backoff schedule as capacity frees up. At or
/// above `hard_watermark` requests are rejected outright with a typed
/// [`AdmissionVerdict`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionConfig {
    /// Utilization at which deploys start queueing (0..=1).
    pub soft_watermark: f64,
    /// Utilization at which deploys are rejected outright (0..=1).
    pub hard_watermark: f64,
    /// Most requests the queue holds before new arrivals bounce.
    pub max_queue: usize,
    /// Retry budget per queued request.
    pub max_retries: u32,
}

impl Default for AdmissionConfig {
    fn default() -> AdmissionConfig {
        AdmissionConfig {
            soft_watermark: 0.85,
            hard_watermark: 0.95,
            max_queue: 8,
            max_retries: 8,
        }
    }
}

/// A deploy parked by the admission controller, waiting for utilization
/// to drop below the soft watermark.
struct QueuedDeploy {
    sg: ServiceGraph,
    attempts: u32,
    next_due: Time,
}

/// Watermarks, queue and metric handles of the admission controller.
pub(super) struct Admission {
    /// Admission watermarks; `None` admits everything unconditionally.
    pub(super) cfg: Option<AdmissionConfig>,
    /// Deploys parked between the watermarks, FIFO.
    queue: Vec<QueuedDeploy>,
    /// Backoff schedule for queued-deploy retries (derived from the
    /// build seed, so same seed ⇒ same retry cadence).
    retry: RetryPolicy,
    /// Deploys admitted below the soft watermark (`escape.admission_admitted`).
    admitted: Counter,
    /// Deploys parked on the queue (`escape.admission_queued`).
    queued: Counter,
    /// Deploys rejected — hard watermark, full queue or spent retry
    /// budget (`escape.admission_rejected`).
    rejected: Counter,
    /// Queued-deploy retry attempts (`escape.admission_retries`).
    retries: Counter,
}

/// The backoff schedule of the queue. Queue retries back off longer
/// than RPC retries: the queue waits for capacity, not for a stalled
/// agent.
fn queue_retry(max_retries: u32, seed: u64) -> RetryPolicy {
    RetryPolicy::new(5_000_000, 80_000_000, 0.25, max_retries, seed)
}

impl Admission {
    pub(super) fn new(telemetry: &Registry, seed: u64) -> Admission {
        Admission {
            cfg: None,
            queue: Vec::new(),
            retry: queue_retry(AdmissionConfig::default().max_retries, seed ^ 0xAD31),
            admitted: telemetry.counter("escape.admission_admitted"),
            queued: telemetry.counter("escape.admission_queued"),
            rejected: telemetry.counter("escape.admission_rejected"),
            retries: telemetry.counter("escape.admission_retries"),
        }
    }
}

impl Escape {
    /// Enables the admission controller with the given watermarks. Every
    /// subsequent [`Escape::deploy`] is gated on compute utilization;
    /// queued deploys retry while time advances through
    /// [`Escape::run_for_ms`] / [`Escape::run_with_recovery`].
    pub fn set_admission(&mut self, cfg: AdmissionConfig) {
        self.admission.retry = queue_retry(cfg.max_retries, self.admission.retry.seed);
        self.admission.cfg = Some(cfg);
    }

    /// Deploys queued by admission control, still waiting.
    pub fn pending_admissions(&self) -> usize {
        self.admission.queue.len()
    }

    /// The admission gate, under an `admission` span: `None` admits (or
    /// admission is off), `Some(verdict)` queues or rejects the request.
    pub(super) fn admit(&mut self, sg: &ServiceGraph) -> Option<AdmissionVerdict> {
        let cfg = self.admission.cfg?;
        let sp = self.tracer.enter("admission", self.sim.now().as_ns());
        let verdict = self.gate(sg, cfg);
        self.tracer.exit(sp, self.sim.now().as_ns());
        verdict
    }

    fn gate(&mut self, sg: &ServiceGraph, cfg: AdmissionConfig) -> Option<AdmissionVerdict> {
        let utilization = self.orch.cpu_utilization();
        if utilization >= cfg.hard_watermark {
            self.admission.rejected.inc();
            self.journal_note(
                Severity::Warn,
                JournalKind::AdmissionRejected,
                format!(
                    "utilization {utilization:.2} >= hard watermark {:.2}",
                    cfg.hard_watermark
                ),
            );
            return Some(AdmissionVerdict::RejectedHard {
                utilization,
                hard_watermark: cfg.hard_watermark,
            });
        }
        if utilization >= cfg.soft_watermark {
            let position = self.admission.queue.len();
            if position >= cfg.max_queue {
                self.admission.rejected.inc();
                self.journal_note(
                    Severity::Warn,
                    JournalKind::AdmissionRejected,
                    format!("queue full ({position} waiting)"),
                );
                return Some(AdmissionVerdict::QueueFull {
                    capacity: cfg.max_queue,
                });
            }
            let next_due = self.sim.now().add_ns(self.admission.retry.delay_ns(0));
            self.admission.queue.push(QueuedDeploy {
                sg: sg.clone(),
                attempts: 0,
                next_due,
            });
            self.admission.queued.inc();
            self.journal_note(
                Severity::Info,
                JournalKind::AdmissionQueued,
                format!("position {position} (utilization {utilization:.2})"),
            );
            return Some(AdmissionVerdict::Queued {
                position,
                utilization,
            });
        }
        self.admission.admitted.inc();
        None
    }

    /// Retries due queued deploys: below the soft watermark a queued
    /// request deploys now; otherwise it backs off on the deterministic
    /// schedule until its retry budget is spent.
    pub(super) fn pump_admission(&mut self) {
        let Some(cfg) = self.admission.cfg else {
            return;
        };
        if self.admission.queue.is_empty() {
            return;
        }
        let mut queue = std::mem::take(&mut self.admission.queue);
        let mut i = 0;
        while i < queue.len() {
            if queue[i].next_due > self.sim.now() {
                i += 1;
                continue;
            }
            let utilization = self.orch.cpu_utilization();
            if utilization < cfg.soft_watermark {
                let q = queue.remove(i);
                self.admission.admitted.inc();
                match self.deploy_txn(&q.sg) {
                    // A transaction that rolled back journaled that itself.
                    Ok(_) | Err(EscapeError::DeployFailed { .. }) => {}
                    // One refused before it started (the mapping no longer
                    // fits) would otherwise leave the queue without a trace.
                    Err(e) => self.journal_note(
                        Severity::Warn,
                        JournalKind::AdmissionDropped,
                        format!("dequeued at retry {}: {e}", q.attempts),
                    ),
                }
                continue;
            }
            let q = &mut queue[i];
            q.attempts += 1;
            self.admission.retries.inc();
            if q.attempts >= cfg.max_retries {
                let q = queue.remove(i);
                self.admission.rejected.inc();
                self.journal_note(
                    Severity::Warn,
                    JournalKind::AdmissionDropped,
                    format!(
                        "retry budget spent after {} attempts (utilization {utilization:.2})",
                        q.attempts
                    ),
                );
                continue;
            }
            q.next_due = self
                .sim
                .now()
                .add_ns(self.admission.retry.delay_ns(q.attempts));
            i += 1;
        }
        // New arrivals queued by deploys issued above land behind.
        queue.append(&mut self.admission.queue);
        self.admission.queue = queue;
    }
}
