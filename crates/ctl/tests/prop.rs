//! Property tests for the write-ahead log: arbitrary operation
//! histories round-trip exactly through append/reopen, and cutting the
//! log at *any* byte (the torn-write model of `kill -9` mid-append)
//! yields a clean prefix recovery — never a panic, never silent loss
//! of a committed operation — and a damaged snapshot is refused with a
//! typed error, never a panic.

use escape_ctl::proto::{CtlError, CtlRequest, CtlResponse, SgFormat};
use escape_ctl::{AutoscalerRecord, ChainRecord, Snapshot, Wal, SNAPSHOT_VERSION};
use proptest::prelude::*;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static DIRS: AtomicU64 = AtomicU64::new(0);

/// Seed the modeled daemon "starts with" on every open.
const SEED: u64 = 7;

fn temp_dir(tag: &str) -> PathBuf {
    let n = DIRS.fetch_add(1, Ordering::SeqCst);
    let dir = std::env::temp_dir().join(format!("escape-walprop-{tag}-{}-{n}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn cleanup(dir: &Path) {
    let _ = fs::remove_dir_all(dir);
}

/// Arbitrary state-mutating request, including arbitrary unicode in
/// every string field (the JSON layer must escape it faithfully).
fn arb_op() -> impl Strategy<Value = CtlRequest> {
    prop_oneof![
        ("\\PC{0,24}", any::<bool>()).prop_map(|(sg, json)| CtlRequest::Deploy {
            sg,
            format: if json { SgFormat::Json } else { SgFormat::Dsl },
        }),
        "\\PC{0,24}".prop_map(|chain| CtlRequest::Teardown { chain }),
        any::<u32>().prop_map(|ms| CtlRequest::RunFor { ms: ms as u64 }),
        "\\PC{0,24}".prop_map(|plan| CtlRequest::Fault { plan }),
        Just(CtlRequest::Heal),
        (
            "\\PC{0,24}",
            "\\PC{0,24}",
            any::<u32>(),
            any::<u16>(),
            any::<u32>()
        )
            .prop_map(|(from, to, frames, len, interval_us)| CtlRequest::Traffic {
                from,
                to,
                frames: frames as u64,
                len: len as u64,
                interval_us: interval_us as u64,
            }),
        ("\\PC{0,24}", "\\PC{0,24}", 1u64..16).prop_map(|(chain, vnf, replicas)| {
            CtlRequest::Scale {
                chain,
                vnf,
                replicas,
            }
        }),
    ]
}

/// Arbitrary outcome a commit marker might carry.
fn arb_outcome() -> impl Strategy<Value = CtlResponse> {
    prop_oneof![
        Just(CtlResponse::TrafficStarted),
        any::<u32>().prop_map(|now_ns| CtlResponse::Advanced {
            now_ns: now_ns as u64
        }),
        "\\PC{0,24}".prop_map(|chain| CtlResponse::ToreDown { chain }),
        (any::<u32>(), any::<u32>()).prop_map(|(r, f)| CtlResponse::Healed {
            recoveries: r as u64,
            failures: f as u64,
        }),
    ]
}

/// One logged operation: the request, an optional idempotency token,
/// and whether the commit marker made it to disk before the "crash".
fn arb_entry() -> impl Strategy<Value = (CtlRequest, Option<String>, Option<CtlResponse>)> {
    (
        arb_op(),
        proptest::option::of("[a-z0-9]{1,12}"),
        proptest::option::of(arb_outcome()),
    )
}

fn write_log(dir: &Path, entries: &[(CtlRequest, Option<String>, Option<CtlResponse>)]) {
    let (mut wal, _) = Wal::open(dir, SEED).unwrap();
    for (op, id, outcome) in entries {
        let seq = wal.append_intent(op, id.as_deref()).unwrap();
        if let Some(outcome) = outcome {
            wal.append_commit(seq, outcome).unwrap();
        }
    }
}

/// The `snapshot.json` bytes `Wal::compact` writes for a snapshot that
/// fills every table: a chain with replicas, the autoscaler, the
/// idempotency window.
fn compacted_snapshot() -> Vec<u8> {
    let snap = Snapshot {
        version: SNAPSHOT_VERSION,
        seed: SEED,
        now_ns: 5_000_000,
        next_cookie: 3,
        next_seq: 2,
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
        dedup: vec![("cli-1".into(), CtlResponse::TrafficStarted)],
        autoscaler: Some(AutoscalerRecord {
            high_watermark: 0.75,
            low_watermark: 0.2,
            queue_high: 4,
            cooldown_ticks: 3,
            min_replicas: 1,
            max_replicas: 8,
            max_actions_per_tick: 2,
        }),
    };
    let dir = temp_dir("snap-src");
    let (mut wal, _) = Wal::open(&dir, SEED).unwrap();
    wal.compact(&snap).unwrap();
    let bytes = fs::read(dir.join("snapshot.json")).unwrap();
    cleanup(&dir);
    bytes
}

proptest! {
    // Every history of intents and commit markers — arbitrary verbs,
    // arbitrary unicode payloads, arbitrary dangling suffix — reads
    // back exactly: committed ops in order with their outcomes and
    // tokens, dangling intents in the rolled-back set, and the next
    // sequence number past everything seen.
    #[test]
    fn arbitrary_histories_round_trip(entries in proptest::collection::vec(arb_entry(), 0..10)) {
        let dir = temp_dir("roundtrip");
        write_log(&dir, &entries);
        let (wal, rec) = Wal::open(&dir, SEED).unwrap();

        prop_assert_eq!(rec.restarted, true);
        prop_assert!(!rec.truncated);
        prop_assert_eq!(wal.next_seq(), entries.len() as u64);

        let committed: Vec<_> = entries
            .iter()
            .enumerate()
            .filter_map(|(i, (op, id, outcome))| {
                outcome.clone().map(|o| (i as u64, op.clone(), id.clone(), o))
            })
            .collect();
        prop_assert_eq!(rec.committed.len(), committed.len());
        for (got, (seq, op, id, outcome)) in rec.committed.iter().zip(&committed) {
            prop_assert_eq!(got.seq, *seq);
            prop_assert_eq!(&got.op, op);
            prop_assert_eq!(&got.request_id, id);
            prop_assert_eq!(&got.outcome, outcome);
        }
        let dangling: Vec<_> = entries
            .iter()
            .enumerate()
            .filter(|(_, (_, _, outcome))| outcome.is_none())
            .map(|(i, (op, _, _))| (i as u64, op.clone()))
            .collect();
        prop_assert_eq!(rec.rolled_back, dangling);
        cleanup(&dir);
    }

    // Cutting the log at any byte models the partial write of a crash:
    // recovery must keep exactly the fully-contained prefix (committed
    // ops stay committed, in order), flag the torn tail, and leave the
    // file physically clean for the next reopen.
    #[test]
    fn any_byte_cut_recovers_a_clean_prefix(
        entries in proptest::collection::vec(arb_entry(), 1..6),
        cut_frac in 0.0f64..1.0,
    ) {
        let dir = temp_dir("cut-src");
        write_log(&dir, &entries);
        let bytes = fs::read(dir.join("wal.log")).unwrap();
        cleanup(&dir);

        let full_committed: Vec<_> = entries
            .iter()
            .enumerate()
            .filter_map(|(i, (op, _, outcome))| {
                outcome.clone().map(|o| (i as u64, op.clone(), o))
            })
            .collect();

        let cut = (bytes.len() as f64 * cut_frac) as usize;
        let dir2 = temp_dir("cut");
        fs::create_dir_all(&dir2).unwrap();
        fs::write(dir2.join("wal.log"), &bytes[..cut]).unwrap();
        let (_wal, rec) = Wal::open(&dir2, SEED).unwrap();

        // Recovered committed ops are a prefix of the uncut history.
        prop_assert!(rec.committed.len() <= full_committed.len());
        for (got, (seq, op, outcome)) in rec.committed.iter().zip(&full_committed) {
            prop_assert_eq!(got.seq, *seq);
            prop_assert_eq!(&got.op, op);
            prop_assert_eq!(&got.outcome, outcome);
        }
        // The truncation is physical: a second open sees a whole log.
        let (_wal2, rec2) = Wal::open(&dir2, SEED).unwrap();
        prop_assert!(!rec2.truncated);
        prop_assert_eq!(rec2.committed, rec.committed);
        prop_assert_eq!(rec2.rolled_back, rec.rolled_back);
        cleanup(&dir2);
    }

    // A snapshot with any one byte replaced — a digit widened past its
    // field, a quote or brace broken, invalid UTF-8 — opens or is
    // refused as corrupt state; it never panics.
    #[test]
    fn a_damaged_snapshot_opens_or_is_corrupt_state(at in any::<usize>(), byte in any::<u8>()) {
        let mut snapshot = compacted_snapshot();
        let at = at % snapshot.len();
        snapshot[at] = byte;
        let dir = temp_dir("snap-byte");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("snapshot.json"), &snapshot).unwrap();
        let opened = Wal::open(&dir, SEED);
        cleanup(&dir);
        prop_assert!(
            matches!(opened, Ok(_) | Err(CtlError::CorruptState { .. })),
            "{:?}",
            opened.err()
        );
    }
}
