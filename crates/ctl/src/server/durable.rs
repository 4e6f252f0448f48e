//! What makes mutations durable: the idempotency window, write-ahead
//! dispatch (intent → execute → commit), compaction into a snapshot and
//! the recovery pass that reconciles a restarted daemon.

// Snapshot input is untrusted: a narrowing `as` would restore a wrapped
// number instead of refusing it.
#![deny(clippy::cast_possible_truncation)]

use super::exec::execute;
use super::DaemonConfig;
use crate::proto::{CtlError, CtlRequest, CtlResponse};
use crate::wal::{
    corrupt, AutoscalerRecord, ChainRecord, Recovered, Snapshot, Wal, SNAPSHOT_FILE,
    SNAPSHOT_VERSION,
};
use escape::{JournalKind, Session, Severity};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::path::Path;

/// Bound on the idempotency window (distinct request ids remembered).
const DEDUP_WINDOW: usize = 256;

/// Bounded request-id → original-outcome map, oldest entry evicted
/// first. Persisted through WAL commit records and the snapshot, so a
/// client retrying after a crash-reconnect is answered with the
/// original outcome instead of re-executing the mutation.
struct DedupWindow {
    order: VecDeque<String>,
    map: BTreeMap<String, CtlResponse>,
    cap: usize,
}

impl DedupWindow {
    fn new(cap: usize) -> DedupWindow {
        DedupWindow {
            order: VecDeque::new(),
            map: BTreeMap::new(),
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

/// The log (absent without a `--state-dir`), the idempotency window and
/// the compaction cadence.
pub(super) struct Durability {
    wal: Option<Wal>,
    dedup: DedupWindow,
    commits_since_compact: u64,
}

/// Committed mutations between two compactions of the log into a
/// snapshot.
const COMPACT_EVERY: u64 = 64;

impl Durability {
    /// Opens `cfg.state_dir` (if any) and reconciles `session` with what
    /// it holds, before the daemon claims its socket.
    pub(super) fn open(session: &mut Session, cfg: &DaemonConfig) -> Result<Durability, CtlError> {
        let mut durable = Durability {
            wal: None,
            dedup: DedupWindow::new(DEDUP_WINDOW),
            commits_since_compact: 0,
        };
        if let Some(dir) = &cfg.state_dir {
            let (wal, recovered) = Wal::open(dir, session.config().seed)?;
            recover(session, &recovered, &mut durable.dedup)?;
            durable.wal = Some(wal);
        }
        Ok(durable)
    }

    /// Executes one command with write-ahead durability: dedup-window
    /// hit → original outcome; otherwise intent (written) → execute →
    /// commit marker (written, then one fsync for both) → reply. Once
    /// the reply leaves the daemon the operation survives `kill -9` and
    /// power loss; a crash between intent and commit is rolled back on
    /// restart because the in-memory effects died with the process.
    pub(super) fn dispatch(
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
    pub(super) fn maybe_compact(&mut self, session: &Session) {
        let Some(wal) = self.wal.as_mut() else { return };
        if self.commits_since_compact < COMPACT_EVERY {
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

    /// Removes the log and snapshot on a graceful exit.
    pub(super) fn remove_state_files(&mut self) {
        if let Some(w) = self.wal.take() {
            if let Err(e) = w.remove_files() {
                eprintln!("escaped: could not remove state files: {e}");
            }
        }
    }
}

/// Captures desired state for the snapshot: every live chain verbatim
/// ([`ChainRecord::capture`]), the autoscaler config, virtual clock,
/// cookie counter and the idempotency window.
fn capture_snapshot(session: &Session, next_seq: u64, dedup: &DedupWindow) -> Snapshot {
    let esc = session.escape();
    let mut chains: Vec<ChainRecord> = esc
        .deployed_chains()
        .iter()
        .map(|name| ChainRecord::capture(esc, name))
        .collect();
    // Restore order is cookie order: cookies are minted monotonically,
    // so this replays embeddings oldest-first.
    chains.sort_by_key(|c| c.cookie);
    Snapshot {
        version: SNAPSHOT_VERSION,
        seed: session.config().seed,
        now_ns: esc.now().as_ns(),
        next_cookie: esc.next_cookie(),
        next_seq,
        journal_base: esc.journal().seq_end(),
        chains,
        autoscaler: esc.autoscaler().map(|a| AutoscalerRecord::from(a.config())),
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
    let bad_snapshot = |cause: String| corrupt(Path::new(SNAPSHOT_FILE), 0, cause);
    if let Some(snap) = &rec.snapshot {
        if snap.seed != seed {
            return Err(bad_snapshot(format!(
                "snapshot was taken with seed {} but the daemon was started with seed {seed}; \
                 replay would not be deterministic",
                snap.seed
            )));
        }
        // Every chain cookie was minted below `next_cookie`, and no two
        // chains share one: a restored chain files its cookie in the
        // verdict book and advances the allocator past it.
        let mut cookies = BTreeSet::new();
        for c in &snap.chains {
            if !(1..snap.next_cookie).contains(&c.cookie) {
                return Err(bad_snapshot(format!(
                    "chain {} has cookie {}, outside 1..{}",
                    c.name, c.cookie, snap.next_cookie
                )));
            }
            if !cookies.insert(c.cookie) {
                return Err(bad_snapshot(format!(
                    "chain {} shares cookie {} with another chain",
                    c.name, c.cookie
                )));
            }
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
            let (sg, mapping) = c.restore().map_err(bad_snapshot)?;
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
                    .scale_chain(&c.name, vnf, *count)
                    .map_err(|e| CtlError::Internal {
                        reason: format!("restore of {} replicas for {}/{vnf}: {e}", count, c.name),
                    })?;
            }
        }
        let esc = session.escape_mut();
        esc.set_next_cookie(snap.next_cookie);
        esc.run_until_ns(snap.now_ns);
        if let Some(a) = &snap.autoscaler {
            esc.enable_autoscaler(a.into(), seed);
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

#[cfg(test)]
mod tests {
    use super::*;
    use escape::session::{demo_topology, InputFormat};
    use escape::SessionConfig;

    fn session() -> Session {
        Session::new(demo_topology(), SessionConfig::default()).unwrap()
    }

    /// What a restarted daemon reads back after checkpointing two chains.
    fn restart_with_two_chains() -> Recovered {
        let mut s = session();
        for sg in [
            "sap sap0 sap1\nvnf fw type=firewall cpu=1\nchain a = sap0 -> fw -> sap1 bw=50",
            "sap sap0 sap1\nvnf mon type=monitor cpu=1\nchain b = sap0 -> mon -> sap1 bw=50",
        ] {
            s.deploy_text(sg, InputFormat::Dsl).unwrap();
        }
        Recovered {
            snapshot: Some(capture_snapshot(&s, 1, &DedupWindow::new(DEDUP_WINDOW))),
            restarted: true,
            ..Recovered::default()
        }
    }

    #[test]
    fn a_snapshot_with_a_shared_or_unminted_cookie_is_corrupt_state() {
        let honest = restart_with_two_chains();
        let mut restored = session();
        recover(&mut restored, &honest, &mut DedupWindow::new(DEDUP_WINDOW)).unwrap();
        assert_eq!(restored.escape().deployed_chains().len(), 2);

        type Damage = fn(&mut Snapshot);
        let cases: [(&str, Damage); 2] = [
            ("a shared cookie", |s| {
                s.chains[1].cookie = s.chains[0].cookie
            }),
            ("cookie u64::MAX", |s| s.chains[1].cookie = u64::MAX),
        ];
        for (what, damage) in cases {
            let mut rec = honest.clone();
            damage(rec.snapshot.as_mut().unwrap());
            let mut fresh = session();
            let err =
                recover(&mut fresh, &rec, &mut DedupWindow::new(DEDUP_WINDOW)).expect_err(what);
            assert!(
                matches!(&err, CtlError::CorruptState { path, .. } if path == SNAPSHOT_FILE),
                "{what}: {err}"
            );
            assert!(fresh.escape().deployed_chains().is_empty(), "{what}");
        }
    }
}
