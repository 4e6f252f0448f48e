//! The watch plane: subscribers, the demand-driven publisher, and the
//! connection-side loops that put its frames on the wire.
//!
//! Demand-driven means a topic costs nothing until someone holds it:
//! [`Publisher::publish`] reads the journal, the registry or the SLA
//! verdicts only for a topic some current subscriber wants, and a topic's
//! cursor is based at the moment its first holder registers. That yields
//! exactly the frames cursors advanced on every publish would: the loop
//! publishes after every executed command and registering executes
//! nothing, so the state at registration *is* the state at the previous
//! publish.

use super::socket::reply;
use super::Command;
use crate::frame::{read_frame, write_frame};
use crate::proto::{CtlError, CtlEvent, CtlResponse, MetricDelta, SlaInfo, WatchTopic};
use escape::{JournalEvent, Session};
use escape_telemetry::{delta, Scalar};
use std::collections::BTreeMap;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, TrySendError};
use std::sync::Arc;
use std::thread;

/// Bounded per-subscriber queue depth. The environment loop never
/// blocks on a slow client: a full queue turns pushes into a `missed`
/// count surfaced later as one [`CtlEvent::Lagged`] frame.
const SUBSCRIBER_QUEUE: usize = 256;

/// A subscriber this far behind (a full queue plus this many misses) is
/// evicted outright — its writer channel is dropped, which closes the
/// stream so the client sees EOF rather than a silent stall.
const MAX_MISSED: u64 = 4_096;

pub(super) struct Subscriber {
    topics: Vec<WatchTopic>,
    tx: mpsc::SyncSender<CtlEvent>,
    missed: u64,
}

impl Subscriber {
    fn wants(&self, topic: WatchTopic) -> bool {
        self.topics.contains(&topic)
    }

    /// Queues one event without blocking. When the client's queue is
    /// full the event is counted as missed; the next successful push is
    /// preceded by a [`CtlEvent::Lagged`] frame carrying that count.
    /// Returns false when the subscriber should be evicted.
    fn push(&mut self, ev: &CtlEvent) -> bool {
        if self.missed > 0 {
            match self.tx.try_send(CtlEvent::Lagged {
                missed: self.missed,
            }) {
                Ok(()) => self.missed = 0,
                Err(TrySendError::Full(_)) => {
                    self.missed += 1;
                    return self.missed <= MAX_MISSED;
                }
                Err(TrySendError::Disconnected(_)) => return false,
            }
        }
        match self.tx.try_send(ev.clone()) {
            Ok(()) => true,
            Err(TrySendError::Full(_)) => {
                self.missed += 1;
                self.missed <= MAX_MISSED
            }
            Err(TrySendError::Disconnected(_)) => false,
        }
    }
}

/// Fan-out state for `watch` subscriptions, owned by the environment
/// loop. `journal_seq` and `last_values` mean something only while a
/// subscriber holds their topic; `sla_last` lives as long as the daemon,
/// so a second `sla` subscriber is not re-told every chain's verdict.
#[derive(Default)]
pub(super) struct Publisher {
    subscribers: Vec<Subscriber>,
    journal_seq: u64,
    /// The registry's value vector at the previous publish.
    last_values: Vec<Scalar>,
    sla_last: BTreeMap<String, bool>,
    /// The verdict stamp at the last publish that read the verdicts: only
    /// a chain whose verdict changed since can have flipped.
    sla_seen: u64,
}

impl Publisher {
    fn held(&self, topic: WatchTopic) -> bool {
        self.subscribers.iter().any(|s| s.wants(topic))
    }

    /// Registers `sub`, basing the cursor of every topic it is the first
    /// to hold at "now". Returns the history `since` asked for: retained
    /// journal entries with sequence number >= `since`, preceded by one
    /// `lagged` frame when the cursor fell behind the eviction horizon —
    /// a stale cursor is reported, never silently skipped over.
    pub(super) fn subscribe(
        &mut self,
        session: &Session,
        sub: Subscriber,
        since: Option<u64>,
    ) -> Vec<CtlEvent> {
        let esc = session.escape();
        let journal = esc.journal();
        if sub.wants(WatchTopic::Events) && !self.held(WatchTopic::Events) {
            self.journal_seq = journal.seq_end();
        }
        if sub.wants(WatchTopic::MetricsDeltas) && !self.held(WatchTopic::MetricsDeltas) {
            self.last_values = esc.telemetry().values();
        }
        let mut history = Vec::new();
        if let Some(since) = since.filter(|_| sub.wants(WatchTopic::Events)) {
            if since < journal.evicted() {
                history.push(CtlEvent::Lagged {
                    missed: journal.evicted() - since,
                });
            }
            history.extend(journal.events_since(since).map(journal_frame));
        }
        self.subscribers.push(sub);
        history
    }

    /// Pushes everything that happened since the last publish to the
    /// subscribers of each held topic: new journal entries, one
    /// metrics-delta frame (when any metric moved) and SLA verdict
    /// flips. A topic nobody holds is not computed.
    pub(super) fn publish(&mut self, session: &Session) {
        let esc = session.escape();
        let now_ns = esc.now().as_ns();
        let mut frames: Vec<(WatchTopic, CtlEvent)> = Vec::new();

        if self.held(WatchTopic::Events) {
            let journal = esc.journal();
            frames.extend(
                journal
                    .events_since(self.journal_seq)
                    .map(|e| (WatchTopic::Events, journal_frame(e))),
            );
            self.journal_seq = journal.seq_end();
        }
        if self.held(WatchTopic::MetricsDeltas) {
            let registry = esc.telemetry();
            let values = registry.values();
            // Only the series that moved are named; the frame lists them
            // in name-then-labels order.
            let mut deltas: Vec<MetricDelta> = delta(&self.last_values, &values)
                .into_iter()
                .map(|(slot, value)| {
                    let (name, labels) = registry.key(slot);
                    MetricDelta {
                        name,
                        labels,
                        metric: values[slot].kind().into(),
                        value,
                    }
                })
                .collect();
            if !deltas.is_empty() {
                deltas.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
                frames.push((
                    WatchTopic::MetricsDeltas,
                    CtlEvent::MetricsDelta {
                        at_ns: now_ns,
                        deltas,
                    },
                ));
            }
            self.last_values = values;
        }
        // Only the verdicts that changed since the last look are read.
        if self.held(WatchTopic::Sla) {
            let (changed, seen) = session.sla_verdicts_since(self.sla_seen);
            self.sla_seen = seen;
            let verdicts: Vec<_> = changed
                .into_iter()
                .filter(|v| self.sla_last.insert(v.chain.clone(), v.pass) != Some(v.pass))
                .map(SlaInfo::from)
                .collect();
            if !verdicts.is_empty() {
                frames.push((
                    WatchTopic::Sla,
                    CtlEvent::Sla {
                        at_ns: now_ns,
                        verdicts,
                    },
                ));
            }
        }

        self.subscribers.retain_mut(|sub| {
            frames
                .iter()
                .all(|(topic, ev)| !sub.wants(*topic) || sub.push(ev))
        });
    }
}

fn journal_frame(e: &JournalEvent) -> CtlEvent {
    CtlEvent::Journal {
        at_ns: e.at_ns,
        severity: e.severity.label().into(),
        kind: e.kind.label().into(),
        detail: e.detail.clone(),
    }
}

/// Turns a connection into a push stream: registers with the publisher,
/// acks with `watching`, writes the replayed history, then a dedicated
/// writer thread drains the subscriber queue onto the socket while this
/// thread waits for the client to hang up. An empty topic list subscribes
/// to everything.
pub(super) fn watch_loop(
    mut stream: UnixStream,
    topics: Vec<WatchTopic>,
    since: Option<u64>,
    tx: mpsc::Sender<Command>,
    shutdown: Arc<AtomicBool>,
) {
    let topics = if topics.is_empty() {
        WatchTopic::ALL.to_vec()
    } else {
        let mut t = topics;
        t.sort();
        t.dedup();
        t
    };
    let Ok(writer_stream) = stream.try_clone() else {
        return;
    };
    let (ev_tx, ev_rx) = mpsc::sync_channel::<CtlEvent>(SUBSCRIBER_QUEUE);
    let (replay_tx, replay_rx) = mpsc::channel();
    // Register with the publisher BEFORE acknowledging: once the client
    // reads the `watching` ack, any command it issues is guaranteed to
    // be enqueued behind this subscription and therefore observed. The
    // loop answers a registration with the subscriber's history; a loop
    // that is gone hangs up instead.
    let sub = Subscriber {
        topics: topics.clone(),
        tx: ev_tx,
        missed: 0,
    };
    let subscribe = Command::Subscribe {
        sub,
        since,
        replay: replay_tx,
    };
    let registered = !shutdown.load(Ordering::SeqCst) && tx.send(subscribe).is_ok();
    let Some(history) = registered.then(|| replay_rx.recv().ok()).flatten() else {
        let _ = reply(&mut stream, CtlResponse::Error(CtlError::ShuttingDown));
        return;
    };
    // Ack, then history, then live: the writer thread only starts once
    // both are on the wire, so it never interleaves its frames with
    // them, and events published meanwhile wait in the queue. Should the
    // client vanish first, dropping the receiver makes the publisher
    // evict the dangling subscription on its next push.
    if reply(&mut stream, CtlResponse::Watching { topics }).is_err() {
        return;
    }
    for ev in &history {
        if write_frame(&mut stream, &ev.encode()).is_err() {
            return;
        }
    }
    thread::spawn(move || writer_loop(writer_stream, ev_rx));
    // A watching connection is push-only from here on: drain (and
    // ignore) anything else the client sends until it hangs up. Once it
    // does, the writer's next frame fails and the publisher evicts us.
    loop {
        match read_frame(&mut stream) {
            Ok(Some(_)) => continue,
            Ok(None) | Err(_) => return,
        }
    }
}

fn writer_loop(mut stream: UnixStream, rx: mpsc::Receiver<CtlEvent>) {
    for ev in rx {
        if write_frame(&mut stream, &ev.encode()).is_err() {
            return; // client hung up; the publisher evicts on next push
        }
    }
    // The publisher dropped this subscriber (eviction or shutdown):
    // close the stream so the client sees EOF instead of a stall.
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;
    use escape::session::{demo_topology, InputFormat};
    use escape::SessionConfig;

    #[test]
    fn a_topic_nobody_holds_is_not_computed() {
        let cfg = SessionConfig {
            flight_recorder: Some(1_024),
            ..SessionConfig::default()
        };
        let mut session = Session::new(demo_topology(), cfg).unwrap();
        let sg = "sap sap0 sap1\nvnf fw type=firewall cpu=1\nchain demo = sap0 -> fw -> sap1 bw=50";
        session.deploy_text(sg, InputFormat::Dsl).unwrap();
        session.start_udp("sap0", "sap1", 128, 200, 20).unwrap();
        session.run_for_ms(10);
        let journaled = session.escape().journal().seq_end();
        assert!(journaled > 0);

        // Nobody registered: every cursor stays where it was, so neither
        // the journal nor the registry nor the verdicts were read.
        let mut publisher = Publisher::default();
        publisher.publish(&session);
        assert_eq!(publisher.journal_seq, 0);
        assert!(publisher.last_values.is_empty());
        assert!(publisher.sla_last.is_empty());
        assert_eq!(publisher.sla_seen, 0);
    }

    fn lag_frame() -> CtlEvent {
        CtlEvent::Lagged { missed: 0 }
    }

    #[test]
    fn slow_subscriber_counts_misses_then_evicts() {
        let (tx, rx) = mpsc::sync_channel(2);
        let mut sub = Subscriber {
            topics: WatchTopic::ALL.to_vec(),
            tx,
            missed: 0,
        };
        // Queue holds 2 frames; the rest count as missed.
        assert!(sub.push(&lag_frame()));
        assert!(sub.push(&lag_frame()));
        assert!(sub.push(&lag_frame()));
        assert_eq!(sub.missed, 1);

        // Draining makes room: the next push delivers a `lagged` frame
        // carrying the count, then the event itself, and resets.
        rx.recv().unwrap();
        rx.recv().unwrap();
        assert!(sub.push(&CtlEvent::Lagged { missed: 77 }));
        assert_eq!(sub.missed, 0);
        assert!(matches!(rx.recv().unwrap(), CtlEvent::Lagged { missed: 1 }));
        assert!(matches!(
            rx.recv().unwrap(),
            CtlEvent::Lagged { missed: 77 }
        ));

        // A subscriber that never drains is evicted once it has missed
        // more than MAX_MISSED frames. The two recvs above emptied the
        // queue, so the first two pushes land and the rest miss.
        for _ in 0..MAX_MISSED + 1 {
            assert!(sub.push(&lag_frame()), "still within the miss budget");
        }
        assert_eq!(sub.missed, MAX_MISSED - 1);
        assert!(sub.push(&lag_frame()), "exactly MAX_MISSED is tolerated");
        assert!(!sub.push(&lag_frame()), "past MAX_MISSED must evict");
        assert_eq!(sub.missed, MAX_MISSED + 1);

        // ...and a hung-up subscriber is evicted immediately.
        let (tx, rx) = mpsc::sync_channel(2);
        let mut gone = Subscriber {
            topics: WatchTopic::ALL.to_vec(),
            tx,
            missed: 0,
        };
        drop(rx);
        assert!(!gone.push(&lag_frame()));
    }
}
