//! The `escaped` daemon core: one live [`Session`] behind a unix socket.
//!
//! Concurrency model: an accept thread hands each connection to its own
//! reader thread, but every decoded request funnels through ONE mpsc
//! channel into the environment loop on the calling thread. That queue is
//! the serialization point — commands execute strictly one at a time
//! against the session, so admission control (soft/hard watermarks,
//! bounded queue) applies its backpressure to external callers exactly as
//! it does in-process: a hard-rejected deploy comes back as a framed
//! [`CtlError::RejectedHard`], never a dropped connection.
//!
//! Virtual time only advances when a client asks (`run-for`) unless
//! `tick_ms > 0` opts into background ticks — the default keeps same-seed
//! daemon runs byte-identical regardless of wall-clock scheduling. With a
//! `--state-dir`, each background tick is journaled through the WAL as a
//! synthetic `run-for` so tick-driven progress survives a crash.

use crate::frame::{read_frame, write_frame};
use crate::proto::{
    ChainInfo, CtlError, CtlEvent, CtlRequest, CtlResponse, DeployInfo, MetricDelta, MetricsFormat,
    SlaInfo, WatchTopic,
};
use crate::wal::{
    AutoscalerRecord, ChainRecord, Recovered, Snapshot as WalSnapshot, Wal, SNAPSHOT_FILE,
    SNAPSHOT_VERSION,
};
use escape::env::DeploymentReport;
use escape::error::{AdmissionVerdict, EscapeError};
use escape::flight::SlaVerdict;
use escape::{AutoscalerConfig, JournalEvent, JournalKind, Session, Severity};
use escape_orch::{ChainMapping, PathSegment};
use escape_sg::ServiceGraph;
use escape_telemetry::{ReportEntry, Snapshot};
use std::collections::{HashMap, VecDeque};
use std::fs;
use std::io;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, TrySendError};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// POSIX signal plumbing without a libc dependency: `signal(2)` is
/// declared directly and the handler only touches an atomic flag, which
/// is all an async-signal-safe handler may do anyway.
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    static REQUESTED: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" fn on_signal(_signum: i32) {
        REQUESTED.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    /// Routes SIGINT and SIGTERM to the shutdown flag.
    pub fn install() {
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }

    /// True once a termination signal arrived.
    pub fn requested() -> bool {
        REQUESTED.load(Ordering::SeqCst)
    }
}

/// How to run the daemon.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Unix socket to listen on.
    pub socket: PathBuf,
    /// Virtual milliseconds to advance per idle poll interval; `0`
    /// (the default) advances time only on explicit `run-for` commands
    /// so same-seed runs stay byte-identical.
    pub tick_ms: u64,
    /// Directory to flush final telemetry into on shutdown
    /// (`metrics.prom` + `metrics.json`); `None` skips the flush.
    pub artifacts: Option<PathBuf>,
    /// Install SIGINT/SIGTERM handlers. In-process test daemons leave
    /// this off so they don't hijack the test runner's signals.
    pub handle_signals: bool,
    /// Durable state directory (write-ahead intent log + snapshot).
    /// `None` runs without crash safety; with a directory, every
    /// state-mutating verb is journaled and a restart on the same
    /// directory reconciles back to the pre-crash state.
    pub state_dir: Option<PathBuf>,
    /// Compact the WAL into a snapshot every this many committed
    /// mutations; `0` never compacts.
    pub wal_compact_every: u64,
}

/// Default WAL compaction interval (committed mutations per snapshot).
pub const DEFAULT_WAL_COMPACT_EVERY: u64 = 64;

impl DaemonConfig {
    pub fn new(socket: impl Into<PathBuf>) -> DaemonConfig {
        DaemonConfig {
            socket: socket.into(),
            tick_ms: 0,
            artifacts: None,
            handle_signals: false,
            state_dir: None,
            wal_compact_every: DEFAULT_WAL_COMPACT_EVERY,
        }
    }
}

enum Command {
    /// One request expecting exactly one response; the `Option<String>`
    /// is the client's idempotency `request_id`, if stamped.
    Request(CtlRequest, Option<String>, mpsc::Sender<CtlResponse>),
    /// A connection registering for server-push [`CtlEvent`] frames;
    /// the `Option<u64>` is a journal cursor to resume from.
    Subscribe(Subscriber, Option<u64>),
}

/// Bound on the idempotency window (distinct request ids remembered).
const DEDUP_WINDOW: usize = 256;

/// Bounded request-id → original-outcome map, oldest entry evicted
/// first. Persisted through WAL commit records and the snapshot, so a
/// client retrying after a crash-reconnect is answered with the
/// original outcome instead of re-executing the mutation.
struct DedupWindow {
    order: VecDeque<String>,
    map: HashMap<String, CtlResponse>,
    cap: usize,
}

impl DedupWindow {
    fn new(cap: usize) -> DedupWindow {
        DedupWindow {
            order: VecDeque::new(),
            map: HashMap::new(),
            cap,
        }
    }

    fn get(&self, id: &str) -> Option<&CtlResponse> {
        self.map.get(id)
    }

    fn insert(&mut self, id: String, resp: CtlResponse) {
        if self.map.insert(id.clone(), resp).is_none() {
            self.order.push_back(id);
            if self.order.len() > self.cap {
                if let Some(old) = self.order.pop_front() {
                    self.map.remove(&old);
                }
            }
        }
    }

    /// Entries in insertion order, for the snapshot.
    fn entries(&self) -> Vec<(String, CtlResponse)> {
        self.order
            .iter()
            .map(|id| (id.clone(), self.map[id].clone()))
            .collect()
    }
}

/// Bounded per-subscriber queue depth. The environment loop never
/// blocks on a slow client: a full queue turns pushes into a `missed`
/// count surfaced later as one [`CtlEvent::Lagged`] frame.
const SUBSCRIBER_QUEUE: usize = 256;

/// A subscriber this far behind (a full queue plus this many misses) is
/// evicted outright — its writer channel is dropped, which closes the
/// stream so the client sees EOF rather than a silent stall.
const MAX_MISSED: u64 = 4_096;

struct Subscriber {
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
/// loop. All cursors (journal sequence, metrics baseline, SLA verdicts)
/// advance on every publish so a new subscriber starts from "now"
/// rather than replaying history.
struct Publisher {
    subscribers: Vec<Subscriber>,
    journal_seq: u64,
    last_snapshot: Snapshot,
    sla_last: HashMap<String, bool>,
}

impl Publisher {
    fn new(session: &Session) -> Publisher {
        Publisher {
            subscribers: Vec::new(),
            journal_seq: session.escape().journal().seq_end(),
            last_snapshot: session.escape().metrics(),
            sla_last: HashMap::new(),
        }
    }

    /// Pushes everything that happened since the last publish to every
    /// subscriber: new journal entries, one metrics-delta frame (when
    /// any metric moved) and SLA verdict flips.
    fn publish(&mut self, session: &Session) {
        let esc = session.escape();
        let now_ns = esc.now().as_ns();

        let events: Vec<CtlEvent> = esc
            .journal()
            .events_since(self.journal_seq)
            .map(journal_frame)
            .collect();
        self.journal_seq = esc.journal().seq_end();

        let snap = esc.metrics();
        let report = self.last_snapshot.diff(&snap);
        let delta_frame = if report.is_empty() {
            None
        } else {
            Some(CtlEvent::MetricsDelta {
                at_ns: now_ns,
                deltas: report.entries.iter().map(metric_delta).collect(),
            })
        };
        self.last_snapshot = snap;

        // The verdict scan walks the flight-recorder trace, so it only
        // runs when someone actually subscribed to SLA flips.
        let sla_frame = if self.subscribers.iter().any(|s| s.wants(WatchTopic::Sla)) {
            let flipped: Vec<SlaInfo> = session
                .sla_verdicts()
                .iter()
                .filter(|v| self.sla_last.insert(v.chain.clone(), v.pass) != Some(v.pass))
                .map(sla_info)
                .collect();
            if flipped.is_empty() {
                None
            } else {
                Some(CtlEvent::Sla {
                    at_ns: now_ns,
                    verdicts: flipped,
                })
            }
        } else {
            None
        };

        self.subscribers.retain_mut(|sub| {
            if sub.wants(WatchTopic::Events) {
                for ev in &events {
                    if !sub.push(ev) {
                        return false;
                    }
                }
            }
            if sub.wants(WatchTopic::MetricsDeltas) {
                if let Some(ev) = &delta_frame {
                    if !sub.push(ev) {
                        return false;
                    }
                }
            }
            if sub.wants(WatchTopic::Sla) {
                if let Some(ev) = &sla_frame {
                    if !sub.push(ev) {
                        return false;
                    }
                }
            }
            true
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

fn metric_delta(e: &ReportEntry) -> MetricDelta {
    match e {
        ReportEntry::CounterDelta {
            name,
            labels,
            delta,
        } => MetricDelta {
            name: name.clone(),
            labels: labels.clone(),
            metric: "counter".into(),
            value: *delta as f64,
        },
        ReportEntry::GaugeChange {
            name, labels, to, ..
        } => MetricDelta {
            name: name.clone(),
            labels: labels.clone(),
            metric: "gauge".into(),
            value: *to as f64,
        },
        ReportEntry::HistogramActivity {
            name,
            labels,
            observations,
            ..
        } => MetricDelta {
            name: name.clone(),
            labels: labels.clone(),
            metric: "histogram".into(),
            value: *observations as f64,
        },
    }
}

/// The daemon entry point. [`Daemon::run`] blocks the calling thread as
/// the environment loop until a `shutdown` verb or a termination signal
/// arrives, then tears down gracefully.
pub struct Daemon;

impl Daemon {
    /// Serves `session` on `cfg.socket` until shutdown. With a
    /// `state_dir`, durable state is recovered *before* the socket is
    /// claimed — a corrupt log refuses startup with a typed diagnosis
    /// instead of serving a silently partial environment. On exit every
    /// live chain is torn down transactionally, telemetry is flushed to
    /// `cfg.artifacts` if set, and the socket + state files are removed.
    pub fn run(mut session: Session, cfg: DaemonConfig) -> io::Result<()> {
        let mut durable = Durability {
            wal: None,
            dedup: DedupWindow::new(DEDUP_WINDOW),
            commits_since_compact: 0,
            compact_every: cfg.wal_compact_every,
        };
        if let Some(dir) = &cfg.state_dir {
            let (wal, recovered) = Wal::open(dir, session.config().seed).map_err(startup_error)?;
            recover(&mut session, &recovered, &mut durable.dedup).map_err(startup_error)?;
            durable.wal = Some(wal);
        }
        let listener = bind(&cfg.socket)?;
        listener.set_nonblocking(true)?;
        if cfg.handle_signals {
            sig::install();
        }
        let shutdown = Arc::new(AtomicBool::new(false));
        let (tx, rx) = mpsc::channel::<Command>();
        let accept = {
            let shutdown = Arc::clone(&shutdown);
            thread::spawn(move || accept_loop(listener, tx, shutdown))
        };

        let mut publisher = Publisher::new(&session);
        loop {
            if cfg.handle_signals && sig::requested() {
                break;
            }
            // The next command to execute and who (if anyone) waits for
            // its answer.
            let (req, request_id, reply) = match rx.recv_timeout(Duration::from_millis(25)) {
                Ok(Command::Request(CtlRequest::Shutdown, _id, reply)) => {
                    let _ = reply.send(CtlResponse::ShuttingDown);
                    break;
                }
                Ok(Command::Request(req, request_id, reply)) => (req, request_id, Some(reply)),
                Ok(Command::Subscribe(mut sub, since)) => {
                    if let Some(seq) = since {
                        replay_journal(&session, &mut sub, seq);
                    }
                    publisher.subscribers.push(sub);
                    continue;
                }
                // A background tick mutates durable state (virtual clock,
                // traffic delivery, autoscaler actions) just like a client
                // `run-for`, so it takes the same intent/commit path
                // through the WAL — otherwise a crash would silently lose
                // all tick-driven progress since the last snapshot.
                Err(mpsc::RecvTimeoutError::Timeout) if cfg.tick_ms > 0 => {
                    (CtlRequest::RunFor { ms: cfg.tick_ms }, None, None)
                }
                Err(mpsc::RecvTimeoutError::Timeout) => continue,
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            };
            // Answer first, then fan out what the command changed, then
            // fold the log if it is time.
            let resp = durable.dispatch(&mut session, &req, request_id.as_deref());
            match reply {
                Some(reply) => {
                    let _ = reply.send(resp);
                }
                None => {
                    if let CtlResponse::Error(e) = resp {
                        eprintln!("escaped: background tick not journaled: {e}");
                    }
                }
            }
            publisher.publish(&session);
            durable.maybe_compact(&session);
        }

        // Stop accepting, refuse anything already queued, then dismantle.
        // Dropping the publisher drops every subscriber channel, which
        // ends the writer threads and closes watching connections.
        shutdown.store(true, Ordering::SeqCst);
        drop(publisher);
        while let Ok(cmd) = rx.try_recv() {
            if let Command::Request(_req, _id, reply) = cmd {
                let _ = reply.send(CtlResponse::Error(CtlError::ShuttingDown));
            }
        }
        let failed = session.teardown_all();
        for (chain, e) in &failed {
            eprintln!("escaped: teardown of {chain} on shutdown failed: {e}");
        }
        if let Some(dir) = &cfg.artifacts {
            flush_artifacts(&session, dir)?;
        }
        // A graceful exit leaves nothing to recover: remove the state
        // files like the socket. Crash recovery is exactly the case
        // where this line never ran.
        if let Some(w) = durable.wal.take() {
            if let Err(e) = w.remove_files() {
                eprintln!("escaped: could not remove state files: {e}");
            }
        }
        let _ = accept.join();
        drop(rx);
        let _ = fs::remove_file(&cfg.socket);
        Ok(())
    }
}

/// Maps a recovery failure into the daemon's io::Result startup shape,
/// preserving the typed diagnosis text.
fn startup_error(e: CtlError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("state recovery: {e}"))
}

/// Verbs whose execution mutates environment state. These are
/// intent-logged before execution and commit-marked after; read-only
/// verbs bypass the WAL entirely.
fn is_mutating(req: &CtlRequest) -> bool {
    matches!(
        req,
        CtlRequest::Deploy { .. }
            | CtlRequest::Teardown { .. }
            | CtlRequest::RunFor { .. }
            | CtlRequest::Fault { .. }
            | CtlRequest::Heal
            | CtlRequest::Traffic { .. }
            | CtlRequest::Scale { .. }
    )
}

/// What makes mutations durable: the log (absent without a
/// `--state-dir`), the idempotency window and the compaction cadence.
struct Durability {
    wal: Option<Wal>,
    dedup: DedupWindow,
    commits_since_compact: u64,
    /// Compact every this many committed mutations; `0` never compacts.
    compact_every: u64,
}

impl Durability {
    /// Executes one command with write-ahead durability: dedup-window
    /// hit → original outcome; otherwise intent (fsync) → execute →
    /// commit marker (fsync) → reply. Once the reply leaves the daemon
    /// the operation survives `kill -9`; a crash between intent and
    /// commit is rolled back on restart because the in-memory effects
    /// died with the process.
    fn dispatch(
        &mut self,
        session: &mut Session,
        req: &CtlRequest,
        request_id: Option<&str>,
    ) -> CtlResponse {
        let Some(wal) = self.wal.as_mut() else {
            return execute(session, req);
        };
        if !is_mutating(req) {
            return execute(session, req);
        }
        if let Some(id) = request_id {
            if let Some(original) = self.dedup.get(id) {
                return original.clone();
            }
        }
        let seq = match wal.append_intent(req, request_id) {
            Ok(seq) => seq,
            Err(e) => return CtlResponse::Error(e),
        };
        let resp = execute(session, req);
        match wal.append_commit(seq, &resp) {
            Ok(()) => {
                self.commits_since_compact += 1;
                if let Some(id) = request_id {
                    self.dedup.insert(id.to_string(), resp.clone());
                }
                resp
            }
            Err(e) => {
                // The op executed but is not durable; fail loudly rather
                // than ack state a crash would silently lose. The mutation
                // is live in this process though, so the dedup window still
                // remembers the real outcome — a client retrying the same
                // request_id must not double-apply it.
                if let Some(id) = request_id {
                    self.dedup.insert(id.to_string(), resp);
                }
                CtlResponse::Error(e)
            }
        }
    }

    /// Folds the WAL into a fresh snapshot once enough mutations
    /// committed. Compaction waits for the admission queue to drain —
    /// queued deploys are not checkpointed, only the log records that
    /// produced them, so compacting midway would forget them.
    fn maybe_compact(&mut self, session: &Session) {
        let Some(wal) = self.wal.as_mut() else { return };
        if self.compact_every == 0 || self.commits_since_compact < self.compact_every {
            return;
        }
        if session.escape().pending_admissions() > 0 {
            return;
        }
        let snap = capture_snapshot(session, wal.next_seq(), &self.dedup);
        match wal.compact(&snap) {
            Ok(()) => self.commits_since_compact = 0,
            Err(e) => eprintln!("escaped: wal compaction failed: {e}"),
        }
    }
}

/// Captures desired state for the snapshot: every live chain verbatim
/// (graph, placement, segments, cookie, replica counts), the autoscaler
/// config, virtual clock, cookie counter and the idempotency window.
fn capture_snapshot(session: &Session, next_seq: u64, dedup: &DedupWindow) -> WalSnapshot {
    let esc = session.escape();
    let mut chains: Vec<ChainRecord> = esc
        .deployed_chains()
        .into_iter()
        .map(|name| {
            let dc = esc.deployed(&name).expect("listed chain is live");
            let sg = esc
                .chain_graph(&name)
                .expect("deployed chain keeps its graph");
            let replicas = dc
                .mapping
                .placement
                .iter()
                .filter_map(|(vnf, _)| {
                    let n = esc.replica_count(&name, vnf) as u64;
                    (n > 1).then(|| (vnf.clone(), n))
                })
                .collect();
            ChainRecord {
                name: name.clone(),
                cookie: dc.cookie,
                sg_json: sg.to_json(),
                placement: dc.mapping.placement.clone(),
                segments: dc
                    .mapping
                    .segments
                    .iter()
                    .map(|s| (s.nodes.clone(), s.delay_us))
                    .collect(),
                total_delay_us: dc.mapping.total_delay_us,
                replicas,
            }
        })
        .collect();
    // Restore order is cookie order: cookies are minted monotonically,
    // so this replays embeddings oldest-first.
    chains.sort_by_key(|c| c.cookie);
    WalSnapshot {
        version: SNAPSHOT_VERSION,
        seed: session.config().seed,
        now_ns: esc.now().as_ns(),
        next_cookie: esc.next_cookie(),
        next_seq,
        journal_base: esc.journal().seq_end(),
        chains,
        autoscaler: esc.autoscaler().map(|a| {
            let c = a.config();
            AutoscalerRecord {
                high_watermark: c.high_watermark,
                low_watermark: c.low_watermark,
                queue_high: c.queue_high,
                cooldown_ticks: c.cooldown_ticks as u64,
                min_replicas: c.min_replicas as u64,
                max_replicas: c.max_replicas as u64,
                max_actions_per_tick: c.max_actions_per_tick as u64,
            }
        }),
        dedup: dedup.entries(),
    }
}

/// The reconciliation pass: restore snapshot chains verbatim, replay the
/// committed log tail through the normal execution path, roll back
/// mid-flight intents (by never replaying them), and stamp recovery
/// provenance on the session. Emits typed journal events for each step.
fn recover(
    session: &mut Session,
    rec: &Recovered,
    dedup: &mut DedupWindow,
) -> Result<(), CtlError> {
    if !rec.restarted {
        return Ok(());
    }
    let seed = session.config().seed;
    if let Some(snap) = &rec.snapshot {
        if snap.seed != seed {
            return Err(CtlError::CorruptState {
                path: SNAPSHOT_FILE.into(),
                offset: 0,
                cause: format!(
                    "snapshot was taken with seed {} but the daemon was started with seed {seed}; \
                     replay would not be deterministic",
                    snap.seed
                ),
            });
        }
        session.escape_mut().restore_journal_base(snap.journal_base);
    }
    if rec.truncated {
        session.escape_mut().journal_note(
            Severity::Warn,
            JournalKind::WalTruncated,
            "torn final wal record truncated (partial write at crash)".into(),
        );
    }
    if let Some(snap) = &rec.snapshot {
        for c in &snap.chains {
            let sg = ServiceGraph::from_json(&c.sg_json).map_err(|e| CtlError::CorruptState {
                path: SNAPSHOT_FILE.into(),
                offset: 0,
                cause: format!("chain {}: service graph: {e}", c.name),
            })?;
            let chain = sg
                .chains
                .iter()
                .find(|ch| ch.name == c.name)
                .cloned()
                .ok_or_else(|| CtlError::CorruptState {
                    path: SNAPSHOT_FILE.into(),
                    offset: 0,
                    cause: format!("chain {} is missing from its own service graph", c.name),
                })?;
            let mapping = ChainMapping {
                chain,
                placement: c.placement.clone(),
                segments: c
                    .segments
                    .iter()
                    .map(|(nodes, delay_us)| PathSegment {
                        nodes: nodes.clone(),
                        delay_us: *delay_us,
                    })
                    .collect(),
                total_delay_us: c.total_delay_us,
            };
            session
                .escape_mut()
                .restore_chain(&sg, mapping, c.cookie)
                .map_err(|e| CtlError::Internal {
                    reason: format!("restore of chain {}: {e}", c.name),
                })?;
        }
        for c in &snap.chains {
            for (vnf, count) in &c.replicas {
                session
                    .escape_mut()
                    .scale_chain(&c.name, vnf, *count as u32)
                    .map_err(|e| CtlError::Internal {
                        reason: format!("restore of {} replicas for {}/{vnf}: {e}", count, c.name),
                    })?;
            }
        }
        let esc = session.escape_mut();
        esc.set_next_cookie(snap.next_cookie);
        esc.run_until_ns(snap.now_ns);
        if let Some(a) = &snap.autoscaler {
            esc.enable_autoscaler(
                AutoscalerConfig {
                    high_watermark: a.high_watermark,
                    low_watermark: a.low_watermark,
                    queue_high: a.queue_high,
                    cooldown_ticks: a.cooldown_ticks as u32,
                    min_replicas: a.min_replicas as u32,
                    max_replicas: a.max_replicas as u32,
                    max_actions_per_tick: a.max_actions_per_tick as usize,
                },
                seed,
            );
        }
        for (id, outcome) in &snap.dedup {
            dedup.insert(id.clone(), outcome.clone());
        }
    }
    // Replay the committed tail in sequence order. Execution is
    // deterministic (same seed, same commands), so this reproduces the
    // exact pre-crash state; outcomes were already acked, so replies
    // are discarded but the original outcomes seed the dedup window.
    for op in &rec.committed {
        let _ = execute(session, &op.op);
        if let Some(id) = &op.request_id {
            dedup.insert(id.clone(), op.outcome.clone());
        }
    }
    for (seq, op) in &rec.rolled_back {
        session.escape_mut().journal_note(
            Severity::Warn,
            JournalKind::TxnRolledBack,
            format!(
                "intent seq {seq} ({}) was mid-flight at crash; rolled back",
                op.label()
            ),
        );
    }
    let recovered_chains = session.escape().deployed_chains().len() as u64;
    session.escape_mut().journal_note(
        Severity::Info,
        JournalKind::DaemonRestarted,
        format!(
            "recovered {recovered_chains} chain(s), rolled back {} mid-flight txn(s)",
            rec.rolled_back.len()
        ),
    );
    session.set_recovery(recovered_chains, rec.rolled_back.len() as u64);
    Ok(())
}

/// Replays retained journal entries with sequence number >= `since` to
/// a resuming subscriber, preceded by one `lagged` frame when the
/// cursor fell behind the eviction horizon — a stale cursor is
/// reported, never silently skipped over.
fn replay_journal(session: &Session, sub: &mut Subscriber, since: u64) {
    if !sub.wants(WatchTopic::Events) {
        return;
    }
    let journal = session.escape().journal();
    if since < journal.evicted() {
        sub.push(&CtlEvent::Lagged {
            missed: journal.evicted() - since,
        });
    }
    for e in journal.events_since(since) {
        sub.push(&journal_frame(e));
    }
}

/// Binds the listener, reclaiming a stale socket file left by a crashed
/// daemon — but refusing to steal one a live daemon still answers on.
fn bind(path: &Path) -> io::Result<UnixListener> {
    match UnixListener::bind(path) {
        Ok(l) => Ok(l),
        Err(e) if e.kind() == io::ErrorKind::AddrInUse => {
            if UnixStream::connect(path).is_ok() {
                return Err(io::Error::new(
                    io::ErrorKind::AddrInUse,
                    format!("{} is in use by a running daemon", path.display()),
                ));
            }
            fs::remove_file(path)?;
            UnixListener::bind(path)
        }
        Err(e) => Err(e),
    }
}

fn accept_loop(listener: UnixListener, tx: mpsc::Sender<Command>, shutdown: Arc<AtomicBool>) {
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _addr)) => {
                let _ = stream.set_nonblocking(false);
                let tx = tx.clone();
                let shutdown = Arc::clone(&shutdown);
                thread::spawn(move || connection_loop(stream, tx, shutdown));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(10));
            }
            Err(_) => return,
        }
    }
}

/// One client connection. Framing or decode failures answer with a typed
/// error and keep the connection open — only a transport failure (or the
/// client hanging up) ends the loop.
fn connection_loop(mut stream: UnixStream, tx: mpsc::Sender<Command>, shutdown: Arc<AtomicBool>) {
    loop {
        let bytes = match read_frame(&mut stream) {
            Ok(Some(b)) => b,
            Ok(None) | Err(_) => return,
        };
        let text = match String::from_utf8(bytes) {
            Ok(t) => t,
            Err(e) => {
                let err = CtlError::Malformed {
                    offset: e.utf8_error().valid_up_to() as u64,
                    reason: "payload is not UTF-8".into(),
                };
                if reply(&mut stream, CtlResponse::Error(err)).is_err() {
                    return;
                }
                continue;
            }
        };
        let (req, request_id) = match CtlRequest::decode_enveloped(&text) {
            Ok(r) => r,
            Err(e) => {
                if reply(&mut stream, CtlResponse::Error(e)).is_err() {
                    return;
                }
                continue;
            }
        };
        if let CtlRequest::Watch { topics, since } = req {
            watch_loop(stream, topics, since, tx, shutdown);
            return;
        }
        let (reply_tx, reply_rx) = mpsc::channel();
        let resp = if shutdown.load(Ordering::SeqCst)
            || tx
                .send(Command::Request(req, request_id, reply_tx))
                .is_err()
        {
            CtlResponse::Error(CtlError::ShuttingDown)
        } else {
            reply_rx
                .recv()
                .unwrap_or(CtlResponse::Error(CtlError::ShuttingDown))
        };
        if reply(&mut stream, resp).is_err() {
            return;
        }
    }
}

/// Turns a connection into a push stream: acks with `watching`, then a
/// dedicated writer thread drains the subscriber queue onto the socket
/// while this thread waits for the client to hang up. An empty topic
/// list subscribes to everything.
fn watch_loop(
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
    if shutdown.load(Ordering::SeqCst) {
        let _ = reply(&mut stream, CtlResponse::Error(CtlError::ShuttingDown));
        return;
    }
    let writer_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let (ev_tx, ev_rx) = mpsc::sync_channel::<CtlEvent>(SUBSCRIBER_QUEUE);
    // Register with the publisher BEFORE acknowledging: once the client
    // reads the `watching` ack, any command it issues is guaranteed to
    // be enqueued behind this subscription and therefore observed.
    if tx
        .send(Command::Subscribe(
            Subscriber {
                topics: topics.clone(),
                tx: ev_tx,
                missed: 0,
            },
            since,
        ))
        .is_err()
    {
        let _ = reply(&mut stream, CtlResponse::Error(CtlError::ShuttingDown));
        return;
    }
    if reply(&mut stream, CtlResponse::Watching { topics }).is_err() {
        // Client vanished before the ack: dropping the receiver makes
        // the publisher evict the dangling subscription on next push.
        return;
    }
    // Only start draining the event queue AFTER the ack frame is on the
    // wire: events pushed during registration (e.g. a `--since` journal
    // replay) buffer in the channel, and the writer thread never
    // interleaves its frames with the ack.
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

fn reply(stream: &mut UnixStream, resp: CtlResponse) -> io::Result<()> {
    write_frame(stream, &resp.encode())
}

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
        CtlRequest::Sla => CtlResponse::Sla(session.sla_verdicts().iter().map(sla_info).collect()),
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

fn sla_info(v: &SlaVerdict) -> SlaInfo {
    SlaInfo {
        chain: v.chain.clone(),
        pass: v.pass,
        delivered: v.delivered,
        dropped: v.dropped,
        loss: v.loss,
        max_latency_ns: v.max_latency_ns,
        violations: v.violations.clone(),
    }
}

/// Writes the final telemetry state into `dir` via the session's single
/// exposition path.
fn flush_artifacts(session: &Session, dir: &Path) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    fs::write(dir.join("metrics.prom"), session.metrics_exposition(false))?;
    fs::write(dir.join("metrics.json"), session.metrics_exposition(true))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

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
