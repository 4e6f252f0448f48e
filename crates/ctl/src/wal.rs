//! Durable write-ahead intent log and versioned desired-state snapshot.
//!
//! Every state-mutating verb the daemon executes is journaled to
//! `wal.log` in the state directory as two length-prefixed JSON
//! records: an *intent* (fsynced before execution) and a *commit*
//! marker carrying the outcome (fsynced before the reply leaves the
//! daemon). A crash therefore leaves exactly one of three shapes per
//! operation: no record (never started), intent only (mid-flight — the
//! in-memory effects died with the process, so recovery rolls it back
//! by simply not replaying it), or intent + commit (durable — recovery
//! replays it through the same deterministic execution path).
//!
//! The log is periodically compacted into `snapshot.json`, a versioned
//! capture of desired state (live chains with their exact placements
//! and cookies, replica counts, autoscaler config, seed, virtual
//! clock, idempotency window). Recovery loads the snapshot, restores
//! chains verbatim, then replays the committed log tail.
//!
//! Torn-write policy: a record whose length prefix or payload runs
//! past end-of-file is the partial write of the crash itself — it is
//! truncated away and reported (`Recovered::truncated`), never
//! silently. A record that is fully present but garbled, oversized or
//! of the wrong shape is real corruption and recovery refuses to
//! proceed with a typed [`CtlError::CorruptState`].
//!
//! The first record of every log is a `meta` header carrying the seed
//! the daemon was started with, so even a snapshot-less log tail (a
//! crash before the first compaction) refuses replay under a different
//! seed instead of silently diverging. Compaction can crash between
//! publishing the new snapshot and truncating the log; recovery
//! tolerates that window by skipping log records whose sequence number
//! is below the snapshot's `next_seq` horizon — they are already
//! folded into the snapshot.

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use escape_json::wire::{Omit, Wire};
use escape_json::{wire_tagged, Value};

use crate::proto::{CtlError, CtlRequest, CtlResponse};

mod records;
pub use records::{AutoscalerRecord, ChainRecord, Snapshot};

/// Snapshot document version; bumped when the layout changes.
pub const SNAPSHOT_VERSION: u64 = 1;

/// Hard cap on one WAL record (mirrors the wire-frame cap): anything
/// larger is corruption, not data.
pub const MAX_WAL_RECORD: usize = crate::frame::MAX_FRAME as usize;

/// Log file name inside the state directory.
pub const WAL_FILE: &str = "wal.log";
/// Snapshot file name inside the state directory.
pub const SNAPSHOT_FILE: &str = "snapshot.json";

/// One committed operation recovered from the log tail, in sequence
/// order — replaying these through the normal execution path
/// reproduces the pre-crash state exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct CommittedOp {
    pub seq: u64,
    pub request_id: Option<String>,
    pub op: CtlRequest,
    pub outcome: CtlResponse,
}

/// Everything [`Wal::open`] recovered from the state directory.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Recovered {
    pub snapshot: Option<Snapshot>,
    /// Committed log-tail operations in sequence order.
    pub committed: Vec<CommittedOp>,
    /// Intents with no commit marker (mid-flight at crash), in
    /// sequence order. Recovery rolls these back by not replaying them.
    pub rolled_back: Vec<(u64, CtlRequest)>,
    /// True when a torn final record was truncated away.
    pub truncated: bool,
    /// True when the state directory held prior state at all.
    pub restarted: bool,
    /// First sequence number the reopened log will assign.
    pub next_seq: u64,
}

/// The open write-ahead log. All appends fsync before returning: once
/// `append_commit` succeeds, the operation survives `kill -9`.
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    file: File,
    next_seq: u64,
    seed: u64,
}

pub(crate) fn corrupt(path: &Path, offset: u64, cause: impl Into<String>) -> CtlError {
    CtlError::CorruptState {
        path: path.display().to_string(),
        offset,
        cause: cause.into(),
    }
}

fn io_internal(what: &str, e: std::io::Error) -> CtlError {
    CtlError::Internal {
        reason: format!("{what}: {e}"),
    }
}

/// Decodes a snapshot document, refusing a layout this build does not
/// read.
fn decode_snapshot(doc: &Value) -> Result<Snapshot, String> {
    let snap = Snapshot::from_value(doc)?;
    if snap.version != SNAPSHOT_VERSION {
        return Err(format!(
            "snapshot version {} (this build reads {SNAPSHOT_VERSION})",
            snap.version
        ));
    }
    Ok(snap)
}

wire_tagged! {
    /// One decoded log record.
    #[derive(Debug, Clone, PartialEq)]
    enum WalRecord as "rec" {
        /// Log header: the seed this log was written under. Always the
        /// first record, so a snapshot-less tail still refuses replay
        /// under a different seed.
        "meta" => Meta { seed: u64 },
        "intent" => Intent {
            seq: u64,
            op: CtlRequest,
            request_id: Option<String> => Omit,
        },
        "commit" => Commit { seq: u64, outcome: CtlResponse },
    }
}

/// Scan outcome of one raw log image.
struct ScannedLog {
    /// `(byte offset, record)` pairs of the well-formed prefix.
    records: Vec<(u64, WalRecord)>,
    /// Byte length of the well-formed prefix.
    good_len: u64,
    /// True when bytes past `good_len` were a torn final record.
    torn: bool,
}

/// Decodes `bytes` as a sequence of length-prefixed JSON records.
/// A record that runs past end-of-file is torn (tolerated); a record
/// that is fully present but undecodable is corruption (hard error).
fn scan_log(path: &Path, bytes: &[u8]) -> Result<ScannedLog, CtlError> {
    let mut records = Vec::new();
    let mut off = 0usize;
    loop {
        if off == bytes.len() {
            return Ok(ScannedLog {
                records,
                good_len: off as u64,
                torn: false,
            });
        }
        if bytes.len() - off < 4 {
            // Torn length prefix: the crash interrupted the write.
            return Ok(ScannedLog {
                records,
                good_len: off as u64,
                torn: true,
            });
        }
        let len = u32::from_be_bytes([bytes[off], bytes[off + 1], bytes[off + 2], bytes[off + 3]])
            as usize;
        if len > MAX_WAL_RECORD {
            return Err(corrupt(
                path,
                off as u64,
                format!("record length {len} exceeds cap {MAX_WAL_RECORD}"),
            ));
        }
        if bytes.len() - off - 4 < len {
            // Torn payload.
            return Ok(ScannedLog {
                records,
                good_len: off as u64,
                torn: true,
            });
        }
        let payload = &bytes[off + 4..off + 4 + len];
        let text = std::str::from_utf8(payload)
            .map_err(|_| corrupt(path, off as u64, "record is not UTF-8"))?;
        let doc = Value::parse(text)
            .map_err(|e| corrupt(path, off as u64, format!("record is not valid JSON: {e}")))?;
        let rec = WalRecord::from_value(&doc).map_err(|e| corrupt(path, off as u64, e))?;
        records.push((off as u64, rec));
        off += 4 + len;
    }
}

/// Fsyncs a directory so a just-created or just-renamed entry inside it
/// survives power loss, not only process death.
fn sync_dir(dir: &Path) -> Result<(), CtlError> {
    File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| io_internal("fsync state dir", e))
}

impl Wal {
    /// Opens (creating if needed) the state directory, loads the
    /// snapshot and log, truncates a torn final record, and pairs
    /// intents with commit markers. `seed` is the seed the daemon was
    /// started with: a log header recording a different seed refuses
    /// recovery, because replaying its operations would not be
    /// deterministic.
    ///
    /// Log records with a sequence number below the snapshot's
    /// `next_seq` horizon are skipped — they are already folded into
    /// the snapshot. (Compaction publishes the snapshot by rename
    /// *before* truncating the log, so a crash in between leaves
    /// exactly that shape.)
    pub fn open(dir: &Path, seed: u64) -> Result<(Wal, Recovered), CtlError> {
        fs::create_dir_all(dir).map_err(|e| io_internal("create state dir", e))?;
        let snap_path = dir.join(SNAPSHOT_FILE);
        let log_path = dir.join(WAL_FILE);
        let restarted = snap_path.exists() || log_path.exists();

        let snapshot = match fs::read(&snap_path) {
            Ok(bytes) => {
                let text = std::str::from_utf8(&bytes).map_err(|e| {
                    corrupt(&snap_path, e.valid_up_to() as u64, "snapshot is not UTF-8")
                })?;
                let doc = Value::parse(text).map_err(|e| {
                    corrupt(&snap_path, 0, format!("snapshot is not valid JSON: {e}"))
                })?;
                Some(decode_snapshot(&doc).map_err(|e| corrupt(&snap_path, 0, e))?)
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(io_internal("read snapshot", e)),
        };

        let bytes = match fs::read(&log_path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(io_internal("read wal", e)),
        };
        let scanned = scan_log(&log_path, &bytes)?;

        // Operations at sequence numbers below the horizon are already
        // captured by the snapshot; their log records are leftovers of
        // a compaction that crashed between rename and truncate.
        let horizon = snapshot.as_ref().map(|s| s.next_seq).unwrap_or(0);
        let mut open_intents: BTreeMap<u64, (Option<String>, CtlRequest)> = BTreeMap::new();
        let mut committed = Vec::new();
        let mut max_seq = horizon;
        let mut has_meta = false;
        for (idx, (off, rec)) in scanned.records.into_iter().enumerate() {
            match rec {
                WalRecord::Meta { seed: log_seed } => {
                    if idx != 0 {
                        return Err(corrupt(
                            &log_path,
                            off,
                            "meta header record is not the first record",
                        ));
                    }
                    if log_seed != seed {
                        return Err(corrupt(
                            &log_path,
                            off,
                            format!(
                                "intent log was written with seed {log_seed} but the daemon \
                                 was started with seed {seed}; replay would not be deterministic"
                            ),
                        ));
                    }
                    has_meta = true;
                }
                WalRecord::Intent { seq, .. } | WalRecord::Commit { seq, .. } if seq < horizon => {}
                WalRecord::Intent {
                    seq,
                    request_id,
                    op,
                } => {
                    max_seq = max_seq.max(seq.saturating_add(1));
                    open_intents.insert(seq, (request_id, op));
                }
                WalRecord::Commit { seq, outcome } => {
                    max_seq = max_seq.max(seq.saturating_add(1));
                    let (request_id, op) = open_intents.remove(&seq).ok_or_else(|| {
                        corrupt(
                            &log_path,
                            off,
                            format!("commit marker for seq {seq} has no matching intent"),
                        )
                    })?;
                    committed.push(CommittedOp {
                        seq,
                        request_id,
                        op,
                        outcome,
                    });
                }
            }
        }
        let rolled_back: Vec<(u64, CtlRequest)> = open_intents
            .into_iter()
            .map(|(seq, (_id, op))| (seq, op))
            .collect();

        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&log_path)
            .map_err(|e| io_internal("open wal", e))?;
        if scanned.torn {
            file.set_len(scanned.good_len)
                .map_err(|e| io_internal("truncate torn wal tail", e))?;
            file.seek(SeekFrom::End(0))
                .map_err(|e| io_internal("seek wal", e))?;
            file.sync_data().map_err(|e| io_internal("sync wal", e))?;
        }
        // Make the log file's directory entry itself durable against
        // power loss (the appends only fsync file data).
        sync_dir(dir)?;

        let recovered = Recovered {
            snapshot,
            committed,
            rolled_back,
            truncated: scanned.torn,
            restarted,
            next_seq: max_seq,
        };
        let mut wal = Wal {
            dir: dir.to_path_buf(),
            file,
            next_seq: max_seq,
            seed,
        };
        // Stamp a fresh (or fully-truncated) log with its seed header.
        // A non-empty legacy log without one is tolerated as-is.
        if !has_meta && scanned.good_len == 0 {
            wal.write_record(&WalRecord::Meta { seed })?;
        }
        Ok((wal, recovered))
    }

    /// The state directory this log lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Next sequence number an intent would get.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    fn write_record(&mut self, rec: &WalRecord) -> Result<(), CtlError> {
        let payload = rec.to_value().to_string().into_bytes();
        if payload.len() > MAX_WAL_RECORD {
            // Written, it would be refused as corruption at the next start.
            return Err(CtlError::Invalid {
                reason: format!(
                    "a {}-byte log record exceeds the {MAX_WAL_RECORD}-byte cap",
                    payload.len()
                ),
            });
        }
        let mut buf = Vec::with_capacity(4 + payload.len());
        buf.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        buf.extend_from_slice(&payload);
        self.file
            .write_all(&buf)
            .map_err(|e| io_internal("append wal record", e))?;
        self.file
            .sync_data()
            .map_err(|e| io_internal("fsync wal", e))
    }

    /// Durably records the intent to execute `op`. Returns the
    /// sequence number the matching commit marker must carry.
    pub fn append_intent(
        &mut self,
        op: &CtlRequest,
        request_id: Option<&str>,
    ) -> Result<u64, CtlError> {
        let seq = self.next_seq;
        // Only a doctored snapshot or log gets the cursor this far (`open`
        // saturates on one); the number is refused, not reused.
        let next_seq = seq.checked_add(1).ok_or_else(|| CtlError::Internal {
            reason: "wal sequence numbers exhausted".into(),
        })?;
        self.write_record(&WalRecord::Intent {
            seq,
            request_id: request_id.map(str::to_string),
            op: op.clone(),
        })?;
        self.next_seq = next_seq;
        Ok(seq)
    }

    /// Durably records the outcome of intent `seq`. Once this returns,
    /// the operation survives any crash.
    pub fn append_commit(&mut self, seq: u64, outcome: &CtlResponse) -> Result<(), CtlError> {
        self.write_record(&WalRecord::Commit {
            seq,
            outcome: outcome.clone(),
        })
    }

    /// Atomically replaces the snapshot with `snap` and truncates the
    /// log: write to a temp file, fsync, rename over the old snapshot,
    /// fsync the directory, then empty `wal.log`. A crash at any point
    /// loses no operation: before the rename the old (snapshot, log)
    /// pair recovers; after it, recovery skips the leftover log
    /// records below the new snapshot's `next_seq` horizon, so nothing
    /// replays twice.
    pub fn compact(&mut self, snap: &Snapshot) -> Result<(), CtlError> {
        let tmp_path = self.dir.join("snapshot.tmp");
        let snap_path = self.dir.join(SNAPSHOT_FILE);
        {
            let mut tmp =
                File::create(&tmp_path).map_err(|e| io_internal("create snapshot.tmp", e))?;
            let mut text = snap.to_value().to_string_pretty();
            text.push('\n');
            tmp.write_all(text.as_bytes())
                .map_err(|e| io_internal("write snapshot.tmp", e))?;
            tmp.sync_data()
                .map_err(|e| io_internal("fsync snapshot.tmp", e))?;
        }
        fs::rename(&tmp_path, &snap_path).map_err(|e| io_internal("publish snapshot", e))?;
        // The rename only becomes durable once the directory itself is
        // synced; truncating the log before that could lose operations
        // to a power failure.
        sync_dir(&self.dir)?;
        self.file
            .set_len(0)
            .map_err(|e| io_internal("truncate wal", e))?;
        self.file
            .seek(SeekFrom::Start(0))
            .map_err(|e| io_internal("seek wal", e))?;
        self.file
            .sync_data()
            .map_err(|e| io_internal("fsync truncated wal", e))?;
        self.next_seq = self.next_seq.max(snap.next_seq);
        let seed = self.seed;
        self.write_record(&WalRecord::Meta { seed })
    }

    /// Removes the state files (used by graceful shutdown when the
    /// caller wants a clean directory instead of an empty snapshot).
    pub fn remove_files(&self) -> std::io::Result<()> {
        for name in [WAL_FILE, SNAPSHOT_FILE, "snapshot.tmp"] {
            match fs::remove_file(self.dir.join(name)) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::SgFormat;
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIRS: AtomicU64 = AtomicU64::new(0);

    /// Seed every test daemon "starts with" (matches `sample_snapshot`).
    const SEED: u64 = 7;

    fn temp_dir(tag: &str) -> PathBuf {
        let n = DIRS.fetch_add(1, Ordering::SeqCst);
        let dir = std::env::temp_dir().join(format!("escape-wal-{tag}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn cleanup(dir: &Path) {
        let _ = fs::remove_dir_all(dir);
    }

    fn deploy_req() -> CtlRequest {
        CtlRequest::Deploy {
            sg: "sap a b\nvnf fw type=firewall cpu=1\nchain c = a -> fw -> b bw=10".into(),
            format: SgFormat::Dsl,
        }
    }

    fn sample_snapshot() -> Snapshot {
        Snapshot {
            version: SNAPSHOT_VERSION,
            seed: 7,
            now_ns: 5_000_000,
            next_cookie: 3,
            next_seq: 9,
            journal_base: 21,
            chains: vec![ChainRecord {
                name: "demo".into(),
                cookie: 1,
                sg_json: "{\"saps\": []}".into(),
                placement: vec![("fw".into(), "c1".into())],
                segments: vec![(vec!["sap0".into(), "s0".into(), "c1".into()], 150)],
                total_delay_us: 300,
                replicas: vec![("fw".into(), 2)],
            }],
            autoscaler: Some(AutoscalerRecord {
                high_watermark: 0.75,
                low_watermark: 0.2,
                queue_high: 4,
                cooldown_ticks: 3,
                min_replicas: 1,
                max_replicas: 8,
                max_actions_per_tick: 2,
            }),
            dedup: vec![("cli-1".into(), CtlResponse::TrafficStarted)],
        }
    }

    #[test]
    fn fresh_directory_is_not_a_restart() {
        let dir = temp_dir("fresh");
        let (wal, rec) = Wal::open(&dir, SEED).unwrap();
        assert!(!rec.restarted);
        assert!(!rec.truncated);
        assert!(rec.snapshot.is_none());
        assert!(rec.committed.is_empty() && rec.rolled_back.is_empty());
        assert_eq!(wal.next_seq(), 0);
        cleanup(&dir);
    }

    #[test]
    fn committed_and_dangling_intents_round_trip() {
        let dir = temp_dir("roundtrip");
        {
            let (mut wal, _) = Wal::open(&dir, SEED).unwrap();
            let s0 = wal.append_intent(&deploy_req(), Some("cli-1")).unwrap();
            wal.append_commit(s0, &CtlResponse::TrafficStarted).unwrap();
            let s1 = wal
                .append_intent(&CtlRequest::RunFor { ms: 10 }, None)
                .unwrap();
            wal.append_commit(s1, &CtlResponse::Advanced { now_ns: 10_000_000 })
                .unwrap();
            // Mid-flight at "crash": intent, no commit marker.
            wal.append_intent(
                &CtlRequest::Scale {
                    chain: "demo".into(),
                    vnf: "fw".into(),
                    replicas: 3,
                },
                Some("cli-2"),
            )
            .unwrap();
        }
        let (wal, rec) = Wal::open(&dir, SEED).unwrap();
        assert!(rec.restarted);
        assert!(!rec.truncated);
        assert_eq!(rec.committed.len(), 2);
        assert_eq!(rec.committed[0].seq, 0);
        assert_eq!(rec.committed[0].request_id.as_deref(), Some("cli-1"));
        assert_eq!(rec.committed[0].op, deploy_req());
        assert_eq!(rec.committed[1].op, CtlRequest::RunFor { ms: 10 });
        assert_eq!(
            rec.committed[1].outcome,
            CtlResponse::Advanced { now_ns: 10_000_000 }
        );
        assert_eq!(rec.rolled_back.len(), 1);
        assert_eq!(rec.rolled_back[0].0, 2);
        assert!(matches!(rec.rolled_back[0].1, CtlRequest::Scale { .. }));
        assert_eq!(wal.next_seq(), 3);
        cleanup(&dir);
    }

    /// Truncating a valid log at *every* byte boundary must yield a
    /// clean typed outcome: the fully-contained prefix of records plus
    /// a torn-tail flag — never a panic, never corruption.
    #[test]
    fn torn_tail_at_every_byte_is_tolerated() {
        let dir = temp_dir("torn-src");
        {
            let (mut wal, _) = Wal::open(&dir, SEED).unwrap();
            let s0 = wal.append_intent(&deploy_req(), None).unwrap();
            wal.append_commit(s0, &CtlResponse::TrafficStarted).unwrap();
            wal.append_intent(&CtlRequest::Heal, Some("h1")).unwrap();
        }
        let bytes = fs::read(dir.join(WAL_FILE)).unwrap();
        cleanup(&dir);

        // Record boundaries for the expected-prefix oracle.
        let mut boundaries = vec![0usize];
        {
            let mut off = 0usize;
            while off < bytes.len() {
                let len = u32::from_be_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
                off += 4 + len;
                boundaries.push(off);
            }
        }

        let dir2 = temp_dir("torn");
        for cut in 0..=bytes.len() {
            let _ = fs::remove_dir_all(&dir2);
            fs::create_dir_all(&dir2).unwrap();
            fs::write(dir2.join(WAL_FILE), &bytes[..cut]).unwrap();
            let (_wal, rec) = Wal::open(&dir2, SEED).unwrap();
            let whole = boundaries.iter().filter(|b| **b <= cut).count() - 1;
            let at_boundary = boundaries.contains(&cut);
            assert_eq!(rec.truncated, !at_boundary, "cut at byte {cut}");
            assert_eq!(
                rec.committed.len() + rec.rolled_back.len(),
                // A commit marker folds its intent into one committed
                // op; the meta header at record 0 carries no op.
                match whole {
                    0 | 1 => 0, // nothing, or just the meta header
                    2 => 1,     // + intent (dangling)
                    3 => 1,     // + commit
                    _ => 2,     // + the heal intent
                },
                "cut at byte {cut}"
            );
            // The log was physically truncated back to the boundary:
            // reopening is clean.
            let (_wal2, rec2) = Wal::open(&dir2, SEED).unwrap();
            assert!(!rec2.truncated, "cut at byte {cut} reopen");
        }
        cleanup(&dir2);
    }

    #[test]
    fn garbled_record_before_the_tail_is_hard_corruption() {
        let dir = temp_dir("garbled");
        {
            let (mut wal, _) = Wal::open(&dir, SEED).unwrap();
            let s0 = wal.append_intent(&deploy_req(), None).unwrap();
            wal.append_commit(s0, &CtlResponse::TrafficStarted).unwrap();
        }
        let log = dir.join(WAL_FILE);
        let mut bytes = fs::read(&log).unwrap();
        // Garble the *first* record's payload in place (its length
        // prefix stays valid, so the record is complete but undecodable).
        let len0 = u32::from_be_bytes(bytes[0..4].try_into().unwrap()) as usize;
        for b in &mut bytes[4..4 + len0] {
            *b = b'x';
        }
        fs::write(&log, &bytes).unwrap();
        let err = Wal::open(&dir, SEED).unwrap_err();
        match err {
            CtlError::CorruptState { path, offset, .. } => {
                assert!(path.ends_with(WAL_FILE), "{path}");
                assert_eq!(offset, 0);
            }
            other => panic!("expected CorruptState, got {other:?}"),
        }
        cleanup(&dir);
    }

    #[test]
    fn oversized_length_prefix_is_hard_corruption() {
        let dir = temp_dir("oversized");
        fs::create_dir_all(&dir).unwrap();
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&u32::MAX.to_be_bytes());
        bytes.extend_from_slice(b"whatever");
        fs::write(dir.join(WAL_FILE), &bytes).unwrap();
        let err = Wal::open(&dir, SEED).unwrap_err();
        assert!(
            matches!(err, CtlError::CorruptState { offset: 0, .. }),
            "{err:?}"
        );
        cleanup(&dir);
    }

    #[test]
    fn commit_without_intent_is_hard_corruption() {
        let dir = temp_dir("orphan-commit");
        {
            let (mut wal, _) = Wal::open(&dir, SEED).unwrap();
            wal.append_commit(5, &CtlResponse::TrafficStarted).unwrap();
        }
        let err = Wal::open(&dir, SEED).unwrap_err();
        assert!(matches!(err, CtlError::CorruptState { .. }), "{err:?}");
        cleanup(&dir);
    }

    #[test]
    fn snapshot_round_trips_and_compaction_truncates_the_log() {
        let dir = temp_dir("compact");
        let snap = sample_snapshot();
        {
            let (mut wal, _) = Wal::open(&dir, SEED).unwrap();
            let s = wal.append_intent(&CtlRequest::Heal, None).unwrap();
            wal.append_commit(
                s,
                &CtlResponse::Healed {
                    recoveries: 1,
                    failures: 0,
                },
            )
            .unwrap();
            wal.compact(&snap).unwrap();
            assert_eq!(wal.next_seq(), snap.next_seq);
        }
        // Compaction empties the log down to just its seed header.
        let log_len = fs::metadata(dir.join(WAL_FILE)).unwrap().len();
        assert!(log_len > 0 && log_len < 64, "{log_len}");
        let (wal, rec) = Wal::open(&dir, SEED).unwrap();
        assert!(rec.restarted);
        assert_eq!(rec.snapshot.as_ref(), Some(&snap));
        assert!(rec.committed.is_empty());
        assert_eq!(rec.next_seq, snap.next_seq);
        assert_eq!(wal.next_seq(), snap.next_seq);
        cleanup(&dir);
    }

    #[test]
    fn garbled_snapshot_is_hard_corruption() {
        let dir = temp_dir("bad-snap");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(SNAPSHOT_FILE), "{not json").unwrap();
        let err = Wal::open(&dir, SEED).unwrap_err();
        match err {
            CtlError::CorruptState { path, .. } => {
                assert!(path.ends_with(SNAPSHOT_FILE), "{path}")
            }
            other => panic!("expected CorruptState, got {other:?}"),
        }
        // Wrong version is also refused, with a readable cause.
        let snap = sample_snapshot();
        let doc = snap.to_value().set("version", 999u64);
        fs::write(dir.join(SNAPSHOT_FILE), doc.to_string()).unwrap();
        let err = Wal::open(&dir, SEED).unwrap_err();
        match err {
            CtlError::CorruptState { cause, .. } => {
                assert!(cause.contains("version 999"), "{cause}")
            }
            other => panic!("expected CorruptState, got {other:?}"),
        }
        cleanup(&dir);
    }

    /// `kill -9` between compaction's snapshot rename and its log
    /// truncation leaves the new snapshot next to the full old log.
    /// Recovery must treat the log records below the snapshot horizon
    /// as folded in — replaying them twice would advance the clock
    /// twice and diverge from the pre-crash state.
    #[test]
    fn crash_between_snapshot_publish_and_log_truncate_replays_nothing_twice() {
        let dir = temp_dir("compact-crash");
        let mut snap = sample_snapshot();
        let pre_compact_log;
        {
            let (mut wal, _) = Wal::open(&dir, SEED).unwrap();
            for _ in 0..3 {
                let s = wal
                    .append_intent(&CtlRequest::RunFor { ms: 5 }, None)
                    .unwrap();
                wal.append_commit(s, &CtlResponse::Advanced { now_ns: 5_000_000 })
                    .unwrap();
            }
            pre_compact_log = fs::read(dir.join(WAL_FILE)).unwrap();
            snap.next_seq = wal.next_seq();
            wal.compact(&snap).unwrap();
        }
        // Simulate the crash window: published snapshot, untruncated log.
        fs::write(dir.join(WAL_FILE), &pre_compact_log).unwrap();

        let (mut wal, rec) = Wal::open(&dir, SEED).unwrap();
        assert_eq!(rec.snapshot.as_ref(), Some(&snap));
        assert!(
            rec.committed.is_empty(),
            "ops folded into the snapshot must not replay: {:?}",
            rec.committed
        );
        assert!(rec.rolled_back.is_empty());
        assert_eq!(wal.next_seq(), snap.next_seq);

        // Life goes on in the same (stale-prefixed) log: a new commit
        // past the horizon is recovered, the stale prefix still isn't.
        let s = wal.append_intent(&CtlRequest::Heal, None).unwrap();
        assert_eq!(s, snap.next_seq);
        wal.append_commit(
            s,
            &CtlResponse::Healed {
                recoveries: 0,
                failures: 0,
            },
        )
        .unwrap();
        drop(wal);
        let (_wal, rec) = Wal::open(&dir, SEED).unwrap();
        assert_eq!(rec.committed.len(), 1);
        assert_eq!(rec.committed[0].seq, snap.next_seq);
        cleanup(&dir);
    }

    /// A crash before the first compaction leaves a snapshot-less log
    /// tail; its meta header must refuse replay under a different seed
    /// just like the snapshot's seed field does.
    #[test]
    fn snapshotless_log_refuses_a_different_seed() {
        let dir = temp_dir("seed-mismatch");
        {
            let (mut wal, _) = Wal::open(&dir, SEED).unwrap();
            let s = wal.append_intent(&CtlRequest::Heal, None).unwrap();
            wal.append_commit(
                s,
                &CtlResponse::Healed {
                    recoveries: 0,
                    failures: 0,
                },
            )
            .unwrap();
        }
        let err = Wal::open(&dir, SEED + 1).unwrap_err();
        match err {
            CtlError::CorruptState { path, cause, .. } => {
                assert!(path.ends_with(WAL_FILE), "{path}");
                assert!(
                    cause.contains(&format!("seed {SEED}"))
                        && cause.contains(&format!("seed {}", SEED + 1)),
                    "{cause}"
                );
            }
            other => panic!("expected CorruptState, got {other:?}"),
        }
        // The matching seed still recovers normally.
        let (_wal, rec) = Wal::open(&dir, SEED).unwrap();
        assert_eq!(rec.committed.len(), 1);
        cleanup(&dir);
    }

    /// A seed above `i64::MAX` used to be written as a float and read
    /// back as a different integer, so a daemon started with one refused
    /// to restart from its own clean log.
    #[test]
    fn a_seed_above_i64_max_reopens_its_own_log() {
        let seed = 11400714819323198485;
        let dir = temp_dir("big-seed");
        {
            let (mut wal, _) = Wal::open(&dir, seed).unwrap();
            wal.append_intent(&CtlRequest::Heal, None).unwrap();
        }
        let (_wal, rec) = Wal::open(&dir, seed).unwrap();
        assert_eq!(rec.rolled_back, vec![(0, CtlRequest::Heal)]);
        cleanup(&dir);
    }

    /// A request just under the frame cap makes an intent record just
    /// over the record cap: refused before anything is written, not a
    /// panic and not a log the next start would call corrupt.
    #[test]
    fn an_oversized_record_is_refused_not_written() {
        let dir = temp_dir("oversized-record");
        let (mut wal, _) = Wal::open(&dir, SEED).unwrap();
        let huge = CtlRequest::Fault {
            plan: "x".repeat(MAX_WAL_RECORD),
        };
        let err = wal.append_intent(&huge, None).unwrap_err();
        assert!(matches!(err, CtlError::Invalid { .. }), "{err:?}");
        assert_eq!(wal.next_seq(), 0);
        drop(wal);
        let (_wal, rec) = Wal::open(&dir, SEED).unwrap();
        assert!(rec.committed.is_empty() && rec.rolled_back.is_empty());
        cleanup(&dir);
    }

    #[test]
    fn sequence_numbers_continue_across_compaction_and_reopen() {
        let dir = temp_dir("seq");
        {
            let (mut wal, _) = Wal::open(&dir, SEED).unwrap();
            for _ in 0..4 {
                let s = wal.append_intent(&CtlRequest::Heal, None).unwrap();
                wal.append_commit(
                    s,
                    &CtlResponse::Healed {
                        recoveries: 0,
                        failures: 0,
                    },
                )
                .unwrap();
            }
            let mut snap = sample_snapshot();
            snap.next_seq = wal.next_seq();
            wal.compact(&snap).unwrap();
            let s = wal.append_intent(&CtlRequest::Heal, None).unwrap();
            assert_eq!(s, 4);
        }
        let (wal, rec) = Wal::open(&dir, SEED).unwrap();
        // The post-compaction intent is dangling (no commit marker).
        assert_eq!(rec.rolled_back, vec![(4, CtlRequest::Heal)]);
        assert_eq!(wal.next_seq(), 5);
        cleanup(&dir);
    }
}
