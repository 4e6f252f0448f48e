//! The decoders on the wire layer's one seam: what they refuse, and that
//! nothing fed to them — arbitrary bytes, or a corpus document with one
//! token damaged — makes them panic. Socket frames, the four file
//! formats and the state directory all enter the program here, so the
//! answer is always a value or a typed error. The same holds one layer
//! out: the frame reader under the socket, the option grammar under
//! every command line, and `escape top`'s reading of a daemon-supplied
//! series document.

use escape_ctl::oneshot::{self, Command};
use escape_ctl::proto::{CtlError, CtlEvent, CtlRequest, CtlResponse};
use escape_ctl::wal::{SNAPSHOT_FILE, WAL_FILE};
use escape_ctl::{launch, read_frame, remote, Wal, MAX_FRAME};
use escape_domain::DomainSpec;
use escape_netem::FaultPlan;
use escape_sg::{ResourceTopology, ServiceGraph};
use proptest::prelude::*;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

const GOLDEN: &str = include_str!("golden.txt");

/// The reason of an `Invalid`, or a panic naming what came instead.
fn invalid_reason<T: std::fmt::Debug>(r: Result<T, CtlError>) -> String {
    match r {
        Err(CtlError::Invalid { reason }) => reason,
        other => panic!("expected Invalid, got {other:?}"),
    }
}

/// A present-but-mistyped optional field used to be ignored: the watcher
/// silently got no replay, the mutation silently lost its idempotency.
#[test]
fn a_mistyped_optional_field_is_refused_by_name() {
    let watch = r#"{"verb":"watch","topics":[],"since":"7"}"#;
    let reason = invalid_reason(CtlRequest::decode(watch));
    assert!(reason.starts_with("since:"), "{reason}");

    let stamped = r#"{"verb":"heal","request_id":7}"#;
    let reason = invalid_reason(CtlRequest::decode_enveloped(stamped));
    assert!(reason.starts_with("request_id:"), "{reason}");

    let verdict = r#"{"kind":"sla","verdicts":[{"chain":"c","pass":true,"delivered":0,"dropped":0,"loss":0.0,"max_latency_ns":"soon","violations":[]}]}"#;
    let reason = invalid_reason(CtlResponse::decode(verdict));
    assert!(
        reason.starts_with("verdicts[0].max_latency_ns:"),
        "{reason}"
    );

    // Absent and `null` still mean "none".
    for ok in [
        r#"{"verb":"watch","topics":[]}"#,
        r#"{"verb":"watch","topics":[],"since":null}"#,
    ] {
        assert_eq!(
            CtlRequest::decode(ok).unwrap(),
            CtlRequest::Watch {
                topics: vec![],
                since: None
            }
        );
    }
    assert_eq!(
        CtlRequest::decode_enveloped(r#"{"verb":"heal","request_id":null}"#).unwrap(),
        (CtlRequest::Heal, None)
    );
}

/// The three error kinds of a request frame stay where they were.
#[test]
fn error_kinds_do_not_move() {
    assert!(matches!(
        CtlRequest::decode("{\"verb\": nope}"),
        Err(CtlError::Malformed { offset: 9, .. })
    ));
    assert_eq!(
        CtlRequest::decode(r#"{"verb":"dance","chain":7}"#),
        Err(CtlError::UnknownVerb {
            verb: "dance".into()
        })
    );
    let reason = invalid_reason(CtlRequest::decode(r#"{"verb":"teardown"}"#));
    assert_eq!(reason, "chain: missing field");
    let reason = invalid_reason(CtlRequest::decode(r#"{"verb":7}"#));
    assert_eq!(reason, "verb: expected a string");
    let reason = invalid_reason(CtlRequest::decode("[]"));
    assert_eq!(reason, "expected an object");
    let reason = invalid_reason(CtlResponse::decode(
        r#"{"kind":"error","error":{"code":"x"}}"#,
    ));
    assert!(
        reason.starts_with("error: unknown \"code\" \"x\""),
        "{reason}"
    );
}

/// Every JSON document of the golden corpus: the one-line frames, the
/// payload of each log record, and the pretty-printed files.
fn corpus() -> Vec<String> {
    let mut docs = Vec::new();
    for section in GOLDEN.split("### ").skip(1) {
        let (name, body) = section.split_once('\n').expect("a body under the header");
        if name == "wal log" {
            // `<8 hex digits> <payload>` per record.
            docs.extend(body.lines().map(|l| l[9..].to_string()));
        } else {
            docs.push(body.trim_end().to_string());
        }
    }
    docs
}

/// Splits JSON text into its tokens (strings whole, numbers and
/// literals as runs, structural characters alone); whitespace is
/// dropped, so the tokens concatenate back to a compact document.
fn tokens(doc: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut chars = doc.chars().peekable();
    while let Some(c) = chars.next() {
        let mut tok = String::from(c);
        if c == '"' {
            while let Some(c) = chars.next() {
                tok.push(c);
                match c {
                    '\\' => tok.extend(chars.next()),
                    '"' => break,
                    _ => {}
                }
            }
        } else if c.is_whitespace() {
            continue;
        } else if !"{}[],:".contains(c) {
            while let Some(c) = chars.next_if(|c| !"{}[],:\"".contains(*c) && !c.is_whitespace()) {
                tok.push(c);
            }
        }
        out.push(tok);
    }
    out
}

/// What a damaged token is replaced with: every JSON type, the integer
/// boundaries, and loose structure.
const POOL: &[&str] = &[
    "null",
    "true",
    "-1",
    "0.5",
    "1e999",
    "18446744073709551615",
    "18446744073709551616",
    "\"\"",
    "\"7\"",
    "\"kind\"",
    "[]",
    "{}",
    "[",
    "}",
    ",",
    ":",
];

/// One corpus document with one token replaced, deleted, doubled or
/// swapped for another of its own.
fn arb_damaged_doc() -> impl Strategy<Value = String> {
    let docs: Vec<Vec<String>> = corpus().iter().map(|d| tokens(d)).collect();
    (0..docs.len(), any::<u32>(), any::<u32>(), 0..POOL.len() + 3).prop_map(
        move |(doc, at, other, op)| {
            let mut toks = docs[doc].clone();
            let at = at as usize % toks.len();
            match op.checked_sub(POOL.len()) {
                None => toks[at] = POOL[op].to_string(),
                Some(0) => drop(toks.remove(at)),
                Some(1) => toks.insert(at, toks[at].clone()),
                Some(_) => toks[at] = toks[other as usize % toks.len()].clone(),
            }
            toks.concat()
        },
    )
}

/// Bytes that look enough like JSON to get past the first token.
fn arb_jsonish_text() -> impl Strategy<Value = String> {
    const STRUCTURAL: &[u8] = b"{}[]\",:\\u0123456789abcdeftrnl-+.E \n";
    let byte = prop_oneof![
        any::<u8>(),
        (0..STRUCTURAL.len()).prop_map(|i| STRUCTURAL[i]),
        (0..STRUCTURAL.len()).prop_map(|i| STRUCTURAL[i]),
    ];
    proptest::collection::vec(byte, 0..256)
        .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned())
}

/// Runs every JSON decoder of the seam over `text`; the answers are
/// values or typed errors, so returning at all is the property.
fn decode_everything(text: &str) {
    let _ = CtlRequest::decode(text);
    let _ = CtlRequest::decode_enveloped(text);
    let _ = CtlResponse::decode(text);
    let _ = CtlEvent::decode(text);
    let _ = ServiceGraph::from_json(text);
    let _ = ResourceTopology::from_json(text);
    let _ = FaultPlan::from_json(text);
    let _ = DomainSpec::from_json(text);
}

static DIRS: AtomicU64 = AtomicU64::new(0);

const SEED: u64 = 7;

/// Opens a state directory holding exactly these files. `Wal::open`
/// answers with recovered state or a typed `CorruptState` — anything
/// else (a panic, an untyped error) fails the property.
fn open_state_dir(log: Option<&[u8]>, snapshot: Option<&[u8]>) -> Result<(), String> {
    let n = DIRS.fetch_add(1, Ordering::SeqCst);
    let dir: PathBuf =
        std::env::temp_dir().join(format!("escape-decoders-{}-{n}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    if let Some(bytes) = log {
        fs::write(dir.join(WAL_FILE), bytes).unwrap();
    }
    if let Some(bytes) = snapshot {
        fs::write(dir.join(SNAPSHOT_FILE), bytes).unwrap();
    }
    let answer = Wal::open(&dir, SEED).map(|_| ());
    let _ = fs::remove_dir_all(&dir);
    match answer {
        Ok(()) | Err(CtlError::CorruptState { .. }) => Ok(()),
        Err(other) => Err(format!("untyped answer {other:?}")),
    }
}

fn framed(payloads: &[String]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for p in payloads {
        bytes.extend_from_slice(&(p.len() as u32).to_be_bytes());
        bytes.extend_from_slice(p.as_bytes());
    }
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn decoder_never_panics_on_arbitrary_text(text in arb_jsonish_text()) {
        decode_everything(&text);
    }

    #[test]
    fn decoder_never_panics_on_a_damaged_document(text in arb_damaged_doc()) {
        decode_everything(&text);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn wal_open_never_panics_on_arbitrary_files(
        log in proptest::option::of(proptest::collection::vec(any::<u8>(), 0..256)),
        snapshot in proptest::option::of(proptest::collection::vec(any::<u8>(), 0..256)),
    ) {
        prop_assert_eq!(open_state_dir(log.as_deref(), snapshot.as_deref()), Ok(()));
    }

    /// Well-framed records and a well-formed file, each a damaged corpus
    /// document: past the framing, into the record and snapshot tables.
    #[test]
    fn wal_open_never_panics_on_damaged_records(
        records in proptest::collection::vec(arb_damaged_doc(), 0..4),
        snapshot in proptest::option::of(arb_damaged_doc()),
    ) {
        let log = framed(&records);
        let snapshot = snapshot.as_ref().map(|s| s.as_bytes());
        prop_assert_eq!(open_state_dir(Some(&log), snapshot), Ok(()));
    }
}

/// A stream of frames whose length prefixes lie in every way a hostile
/// peer's can: short, exact, long, zero, at the cap and past it.
fn arb_frame_stream() -> impl Strategy<Value = Vec<u8>> {
    let len = prop_oneof![
        0u32..64,
        (0u32..4).prop_map(|d| MAX_FRAME - 1 + d),
        any::<u32>(),
    ];
    let frame = (
        len,
        proptest::collection::vec(any::<u8>(), 0..64),
        0usize..5,
    )
        .prop_map(|(len, payload, header)| {
            // `header` < 4 tears the prefix itself.
            let mut bytes = len.to_be_bytes()[..header.min(4)].to_vec();
            bytes.extend(payload);
            bytes
        });
    proptest::collection::vec(frame, 0..4).prop_map(|frames| frames.concat())
}

/// Words a command line is made of: every flag of every grammar, every
/// verb, values at and past the numeric boundaries, loose syntax.
const WORDS: &[&str] = &[
    "--algorithm",
    "--steering",
    "--traffic",
    "--ping",
    "--duration-ms",
    "--monitor",
    "--seed",
    "--json",
    "--faults",
    "--chrome",
    "--domains",
    "--workers",
    "--workload",
    "--steps",
    "--format",
    "--socket",
    "--topo",
    "--tick-ms",
    "--artifacts",
    "--admission",
    "--flight-recorder",
    "--sample-ms",
    "--sample-retention",
    "--state-dir",
    "--wal-compact",
    "--prom",
    "--topics",
    "--since",
    "--request-id",
    "--frobnicate",
    "--",
    "-",
    "status",
    "deploy",
    "teardown",
    "run-for",
    "fault",
    "heal",
    "metrics",
    "sla",
    "series",
    "journal",
    "fingerprint",
    "watch",
    "traffic",
    "scale",
    "shutdown",
    "0",
    "1",
    "-1",
    "18446744073709551615",
    "18446744073709551616",
    "1e9",
    "0.5",
    "nan",
    "",
    ":",
    "::",
    "a:b",
    "a:b:1",
    "a:b:1:2:3:4",
    "a:b:x",
    ":::::",
    "0.5:0.8",
    "1:1:18446744073709551616",
    "proactive",
    "json",
    "events,sla",
    "events,,",
    "no-such-file",
    "é→",
];

fn arb_argv() -> impl Strategy<Value = Vec<String>> {
    let word = prop_oneof![
        (0..WORDS.len()).prop_map(|i| WORDS[i].to_string()),
        (0..WORDS.len()).prop_map(|i| WORDS[i].to_string()),
        "\\PC{0,12}".prop_map(|s| s),
    ];
    proptest::collection::vec(word, 0..10)
}

/// A well-formed series document for `escape top` to be damaged.
const SERIES: &str = r#"{"period_ns":5000000,"evicted":2,"at_ns":[5000000,10000000,15000000],
  "series":[{"name":"netem.events","labels":{},"kind":"counter","points":[155.0,400.0]},
            {"name":"netem.drops","labels":{"reason":"loss"},"kind":"gauge","points":[0.5,-1.0]}]}"#;

fn arb_damaged_series() -> impl Strategy<Value = String> {
    let toks = tokens(SERIES);
    (any::<u32>(), any::<u32>(), 0..POOL.len() + 3).prop_map(move |(at, other, op)| {
        let mut toks = toks.clone();
        let at = at as usize % toks.len();
        match op.checked_sub(POOL.len()) {
            None => toks[at] = POOL[op].to_string(),
            Some(0) => drop(toks.remove(at)),
            Some(1) => toks.insert(at, toks[at].clone()),
            Some(_) => toks[at] = toks[other as usize % toks.len()].clone(),
        }
        toks.concat()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Frames until the stream ends or is refused; a length prefix never
    /// allocates past the cap and never indexes past the bytes.
    #[test]
    fn read_frame_never_panics(stream in arb_frame_stream()) {
        let mut cursor = std::io::Cursor::new(stream);
        while let Ok(Some(payload)) = read_frame(&mut cursor) {
            prop_assert!(payload.len() <= MAX_FRAME as usize);
        }
    }

    /// Every grammar answers a parsed command line or a usage message.
    #[test]
    fn option_grammar_never_panics(argv in arb_argv(), explicit in any::<bool>()) {
        for cmd in [Command::Run, Command::Metrics, Command::Trace, Command::Soak] {
            let _ = oneshot::parse(cmd, argv.clone(), explicit);
        }
        let _ = launch::parse_daemon_args(argv.clone());
        let _ = remote::parse_ctl(argv);
    }

    #[test]
    fn render_top_never_panics_on_arbitrary_text(text in arb_jsonish_text()) {
        let _ = remote::render_top(&text);
    }

    #[test]
    fn render_top_never_panics_on_a_damaged_document(text in arb_damaged_series()) {
        let _ = remote::render_top(&text);
    }
}

/// What the damage starts from renders, and the cases the properties are
/// aimed at do not depend on the generator finding them: sample times
/// running backwards, a sampler period too large to scale.
#[test]
fn the_hostile_cases_are_answered() {
    let table = remote::render_top(SERIES).expect("the series document renders");
    assert!(
        table.contains("3 samples @ 5.0 ms (window 10.0 ms, 2 evicted)"),
        "{table}"
    );
    assert!(table.contains("netem.drops{reason=loss}"), "{table}");
    let backwards = remote::render_top(r#"{"at_ns":[9,3]}"#).expect("renders");
    assert!(backwards.contains("window 0.0 ms"), "{backwards}");
    let l = launch::parse_daemon_args(vec!["--sample-ms".into(), u64::MAX.to_string()]);
    assert_eq!(l.unwrap().session.sampler.unwrap().period_ns, u64::MAX);
}

/// The damage above reaches the decoders it is aimed at: undamaged, the
/// log records, the snapshots and a frame of every kind all decode.
#[test]
fn the_corpus_itself_decodes() {
    let docs = corpus();
    let decodes = |f: &dyn Fn(&str) -> bool| docs.iter().filter(|d| f(d)).count();
    assert!(decodes(&|d| CtlRequest::decode(d).is_ok()) >= 19);
    assert!(decodes(&|d| CtlResponse::decode(d).is_ok()) >= 31);
    assert!(decodes(&|d| CtlEvent::decode(d).is_ok()) >= 5);
    assert!(decodes(&|d| ServiceGraph::from_json(d).is_ok()) >= 3);
    assert!(decodes(&|d| FaultPlan::from_json(d).is_ok()) >= 1);
    let records: Vec<String> = docs
        .iter()
        .filter(|d| d.starts_with("{\"rec\":"))
        .cloned()
        .collect();
    assert_eq!(records.len(), 6);
    assert_eq!(open_state_dir(Some(&framed(&records)), None), Ok(()));
    let snapshots: Vec<&String> = docs
        .iter()
        .filter(|d| d.contains("\"journal_base\""))
        .collect();
    assert_eq!(snapshots.len(), 2);
    for snap in snapshots {
        assert_eq!(open_state_dir(None, Some(snap.as_bytes())), Ok(()));
        // A sequence number with no successor does not overflow the cursor.
        let doctored = snap.replace("\"next_seq\": 9", "\"next_seq\": 18446744073709551615");
        assert_ne!(&doctored, snap);
        assert_eq!(open_state_dir(None, Some(doctored.as_bytes())), Ok(()));
    }
    let last = r#"{"rec":"intent","seq":18446744073709551615,"op":{"verb":"heal"}}"#;
    assert_eq!(
        open_state_dir(Some(&framed(&[last.to_string()])), None),
        Ok(())
    );
}
