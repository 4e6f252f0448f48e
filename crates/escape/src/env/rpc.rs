//! The NETCONF RPC plane: one client session per container, reply
//! matching over the manager relay, and retry on a seeded backoff
//! schedule — all in virtual time.

use super::Escape;
use crate::error::EscapeError;
use crate::infra::ManagerRelay;
use crate::journal::{JournalKind, Severity};
use escape_netconf::message::ReplyBody;
use escape_netconf::{Client, ClientEvent, RetryPolicy, RpcReply};
use escape_netem::{CtrlId, Time};
use escape_telemetry::{Counter, Histogram, Registry};
use std::collections::HashMap;

/// Virtual-time budget for a single NETCONF round trip before we declare
/// the agent dead.
pub(super) const RPC_TIMEOUT: Time = Time::from_ms(100);

/// Sessions, retry schedule and metric handles of the RPC plane.
pub(super) struct RpcPlane {
    pub(super) clients: HashMap<String, Client>,
    /// Backoff schedule for NETCONF RPC retries.
    retry: RetryPolicy,
    /// Malformed NETCONF replies noted by containers
    /// (container, reason), drained by the RPC layer.
    malformed_seen: Vec<(String, String)>,
    /// NETCONF round-trip latency in virtual ns (`netconf.rpc_latency_ns`).
    latency: Histogram,
    /// RPC attempts that were retried (`netconf.rpc_retries`).
    retries: Counter,
}

impl RpcPlane {
    pub(super) fn new(telemetry: &Registry, seed: u64) -> RpcPlane {
        RpcPlane {
            clients: HashMap::new(),
            retry: RetryPolicy::standard(seed),
            malformed_seen: Vec::new(),
            latency: telemetry.histogram("netconf.rpc_latency_ns"),
            retries: telemetry.counter("netconf.rpc_retries"),
        }
    }
}

/// How a single RPC attempt failed: retryably (no reply within the
/// budget) or fatally (agent answered with an error, or the target does
/// not exist).
enum AttemptError {
    Timeout,
    Fatal(EscapeError),
}

impl Escape {
    /// Drains the manager relay inbox into the right client sessions;
    /// returns replies seen (container, reply).
    fn drain_inbox(&mut self) -> Vec<(String, RpcReply)> {
        let msgs = {
            let relay = self
                .sim
                .node_as_mut::<ManagerRelay>(self.infra.manager)
                .expect("manager relay");
            std::mem::take(&mut relay.inbox)
        };
        let mut replies = Vec::new();
        let malformed_before = self.rpcs.malformed_seen.len();
        for (conn, bytes) in msgs {
            let Some(owner) = self.infra.conn_owner.get(&conn.0).cloned() else {
                continue;
            };
            let client = self
                .rpcs
                .clients
                .entry(owner.clone())
                .or_insert_with(|| Client::with_registry(&self.telemetry));
            for ev in client.on_bytes(&bytes) {
                match ev {
                    ClientEvent::Reply(r) => replies.push((owner.clone(), r)),
                    ClientEvent::Malformed { reason } => {
                        self.rpcs.malformed_seen.push((owner.clone(), reason));
                    }
                    _ => {}
                }
            }
        }
        for i in malformed_before..self.rpcs.malformed_seen.len() {
            let (owner, reason) = &self.rpcs.malformed_seen[i];
            let detail = format!("{owner}: {reason}");
            self.journal_note(Severity::Warn, JournalKind::MalformedReply, detail);
        }
        replies
    }

    /// Removes and returns the first malformed-reply record for
    /// `container`, if the inbox drain saw one.
    fn take_malformed(&mut self, container: &str) -> Option<String> {
        let idx = self
            .rpcs
            .malformed_seen
            .iter()
            .position(|(owner, _)| owner == container)?;
        Some(self.rpcs.malformed_seen.remove(idx).1)
    }

    /// Ensures the NETCONF session to `container` is up (hello exchange).
    /// A hello timeout is retryable — the agent may just be stalled.
    fn ensure_session(&mut self, container: &str) -> Result<CtrlId, AttemptError> {
        let conn = *self.infra.netconf_conn.get(container).ok_or_else(|| {
            AttemptError::Fatal(EscapeError::NotFound(format!("container {container}")))
        })?;
        let ready = |env: &Escape| env.rpcs.clients.get(container).is_some_and(|c| c.ready());
        if !ready(self) {
            let client = self
                .rpcs
                .clients
                .entry(container.to_string())
                .or_insert_with(|| Client::with_registry(&self.telemetry));
            let hello = client.start();
            self.sim.ctrl_send_from(self.infra.manager, conn, hello);
            if !self.poll_until(&mut |env| {
                env.drain_inbox();
                ready(env)
            }) {
                return Err(AttemptError::Timeout);
            }
        }
        Ok(conn)
    }

    /// One RPC attempt: send, then wait (in virtual time) up to the RPC
    /// deadline for the matching reply.
    fn rpc_attempt(
        &mut self,
        container: &str,
        build: &mut dyn FnMut(&mut Client) -> (u64, Vec<u8>),
    ) -> Result<RpcReply, AttemptError> {
        let conn = self.ensure_session(container)?;
        let (id, bytes) = build(
            self.rpcs
                .clients
                .get_mut(container)
                .expect("session exists"),
        );
        let sent_at = self.sim.now();
        self.sim.ctrl_send_from(self.infra.manager, conn, bytes);
        let mut outcome = Err(AttemptError::Timeout);
        self.poll_until(&mut |env| {
            for (owner, reply) in env.drain_inbox() {
                if owner == container && reply.message_id == id {
                    env.rpcs.latency.observe(env.sim.now().since(sent_at));
                    outcome = match &reply.body {
                        ReplyBody::Errors(errs) => {
                            Err(AttemptError::Fatal(EscapeError::Netconf(format!(
                                "{container}: {}",
                                errs.first().map(|e| e.to_string()).unwrap_or_default()
                            ))))
                        }
                        _ => Ok(reply),
                    };
                    return true;
                }
            }
            if let Some(reason) = env.take_malformed(container) {
                outcome = Err(AttemptError::Fatal(EscapeError::MalformedReply {
                    container: container.to_string(),
                    reason,
                }));
                return true;
            }
            false
        });
        outcome
    }

    /// Sends one RPC to a container's agent with retry: timeouts back off
    /// on the policy's deterministic schedule (waiting in virtual time)
    /// and re-send a *fresh* message; agent-reported errors fail fast.
    /// After the whole budget is spent the typed
    /// [`EscapeError::RpcTimeout`] names the container and attempt count.
    pub(super) fn rpc(
        &mut self,
        container: &str,
        mut build: impl FnMut(&mut Client) -> (u64, Vec<u8>),
    ) -> Result<RpcReply, EscapeError> {
        let policy = self.rpcs.retry;
        let mut attempt = 0u32;
        loop {
            match self.rpc_attempt(container, &mut build) {
                Ok(reply) => return Ok(reply),
                Err(AttemptError::Fatal(e)) => return Err(e),
                Err(AttemptError::Timeout) => {
                    if attempt >= policy.max_retries {
                        return Err(EscapeError::RpcTimeout {
                            container: container.to_string(),
                            attempts: policy.attempts(),
                        });
                    }
                    self.rpcs.retries.inc();
                    let wait = policy.delay_ns(attempt);
                    self.sim.run_until(self.sim.now().add_ns(wait));
                    attempt += 1;
                }
            }
        }
    }
}
