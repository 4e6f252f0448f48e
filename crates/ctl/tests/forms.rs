//! Every document of the golden corpus reads back to the same value from
//! five forms of its text: compact, pretty, every object's keys permuted
//! (discriminators included), padded with unknown keys, and one key
//! repeated after itself with another value, where the first copy wins.
//! The decoders read a document in one pass, in whatever order its keys
//! come; this holds them to the answer the declared shape gives.

#[path = "../../json/tests/forms/mod.rs"]
mod forms;

use escape_ctl::proto::{CtlEvent, CtlRequest, CtlResponse};
use escape_ctl::wal::WAL_FILE;
use escape_ctl::{Recovered, Snapshot, Wal};
use escape_domain::DomainSpec;
use escape_json::wire::decode;
use escape_json::Value;
use escape_netem::FaultPlan;
use escape_sg::{ResourceTopology, ServiceGraph};
use proptest::prelude::*;
use std::fmt::Debug;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

const GOLDEN: &str = include_str!("golden.txt");

/// `(section name, body)` for every section of the corpus.
fn sections() -> Vec<(&'static str, &'static str)> {
    GOLDEN
        .split("### ")
        .skip(1)
        .map(|section| {
            let (name, body) = section.split_once('\n').expect("a body under the header");
            (name, body.trim_end())
        })
        .collect()
}

/// Reads `text` and each of its forms with `decode`: all must give the
/// value the text itself gives.
fn same_from_every_form<T: PartialEq + Debug, E: Debug>(
    name: &str,
    text: &str,
    seed: u64,
    decode: impl Fn(&str) -> Result<T, E>,
) {
    let want = decode(text).unwrap_or_else(|e| panic!("{name} decodes: {e:?}"));
    let tree = Value::parse(text).expect("the corpus is JSON");
    for (form, text) in forms::forms(&tree, seed) {
        let got = decode(&text).map_err(|e| format!("{e:?}"));
        prop_assert_eq!(got.as_ref(), Ok(&want), "{} ({}): {}", name, form, text);
    }
}

static DIRS: AtomicU64 = AtomicU64::new(0);

/// What `Wal::open` recovers from a log of exactly these records.
fn recover(records: &[String]) -> Recovered {
    let n = DIRS.fetch_add(1, Ordering::SeqCst);
    let dir: PathBuf =
        std::env::temp_dir().join(format!("escape-forms-{}-{n}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    let mut bytes = Vec::new();
    for r in records {
        bytes.extend_from_slice(&(r.len() as u32).to_be_bytes());
        bytes.extend_from_slice(r.as_bytes());
    }
    fs::write(dir.join(WAL_FILE), bytes).unwrap();
    let (_wal, recovered) = Wal::open(&dir, 7).expect("the log opens");
    let _ = fs::remove_dir_all(&dir);
    recovered
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_corpus_document_reads_the_same_from_every_form(seed in any::<u64>()) {
        let mut kinds = 0;
        for (name, text) in sections() {
            let check = |decoder| {
                match decoder {
                    "enveloped" => same_from_every_form(name, text, seed, CtlRequest::decode_enveloped),
                    "request" => same_from_every_form(name, text, seed, CtlRequest::decode),
                    "response" | "error" => same_from_every_form(name, text, seed, CtlResponse::decode),
                    "event" => same_from_every_form(name, text, seed, CtlEvent::decode),
                    "snapshot" => same_from_every_form(name, text, seed, decode::<Snapshot>),
                    "service" => same_from_every_form(name, text, seed, ServiceGraph::from_json),
                    "topology" => same_from_every_form(name, text, seed, ResourceTopology::from_json),
                    "fault" => same_from_every_form(name, text, seed, FaultPlan::from_json),
                    "domain" => same_from_every_form(name, text, seed, DomainSpec::from_json),
                    other => panic!("section {name}: no decoder for {other:?}"),
                }
            };
            if name == "wal log" {
                // `<8 hex digits> <payload>` per record; the records are
                // read back by recovering the log they make up.
                let records: Vec<&str> = text.lines().map(|l| &l[9..]).collect();
                let want = recover(&records.iter().map(|r| r.to_string()).collect::<Vec<_>>());
                let forms: Vec<Vec<(&str, String)>> = records
                    .iter()
                    .enumerate()
                    .map(|(i, r)| forms::forms(&Value::parse(r).expect("JSON"), seed ^ i as u64))
                    .collect();
                for f in 0..forms[0].len() {
                    let log: Vec<String> = forms.iter().map(|fs| fs[f].1.clone()).collect();
                    prop_assert_eq!(&recover(&log), &want, "wal log ({})", forms[0][f].0);
                }
            } else if name == "request enveloped teardown" {
                check("enveloped");
            } else {
                check(name.split(' ').next().expect("a name"));
            }
            kinds += 1;
        }
        prop_assert_eq!(kinds, sections().len());
    }
}
