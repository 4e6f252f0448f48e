//! Behaviour corpus: the seeded op mix ([`escape::ops`]) driven through
//! one `Session` per run, one line per step, pinned in `behaviour.txt`.
//!
//! A line holds the step's op and its outcome, the virtual clock after
//! it, hashes of what a client reads after it — the metrics exposition
//! outside `wallclock.*`, the sampler's series document and
//! `state_fingerprint` — the span count, a hash of the SLA verdicts, and
//! every journal entry the step added. Run A steers proactively, run B
//! reactively; both run on the session [`escape::ops::session`] builds:
//! the autoscaler, the sampler (small retention), the flight recorder and
//! admission control over a small leaf-spine fabric. After every step of
//! both runs `check_invariants` must come back empty (the conservation
//! invariants `tests/soak.rs` lists); run B is the only op mix that
//! checks them under reactive steering.
//!
//! A change meant to be invisible leaves the file untouched. A
//! deliberate model change re-records it in one reviewed diff: on a
//! mismatch the current corpus is written to
//! `target/tmp/witness/tests/behaviour.txt`, which `scripts/rerecord.sh`
//! copies over. Because the file
//! is compared across builds, it also catches nondeterminism that
//! depends on the process image (a hash-map order leaking into an `f64`
//! sum), which a same-process witness cannot see.

use escape::ops::{self, OpMix};
use escape_pox::SteeringMode;
use escape_witness::fnv1a;
use std::fmt::Write as _;

/// Steps per run.
const STEPS: u64 = 500;

/// One run of [`STEPS`] steps; every line starts with `tag`. Panics on
/// the first step after which an invariant is broken.
fn run(tag: &str, seed: u64, steering: SteeringMode) -> String {
    let mut s = ops::session(seed, steering);
    let mut mix = OpMix::new(seed);
    let mut seq = s.escape().journal().seq_end();
    let mut out = String::new();
    for step in 0..STEPS {
        let op = mix.step(&mut s).text;
        let esc = s.escape();
        let violations = esc.check_invariants();
        assert!(
            violations.is_empty(),
            "{tag}{step:03} {op}: {violations:#?}"
        );
        let metrics: String = s
            .metrics_exposition(false)
            .lines()
            .filter(|l| !l.contains("wallclock_"))
            .map(|l| format!("{l}\n"))
            .collect();
        let verdicts: String = s.sla_verdicts().iter().map(|v| format!("{v}\n")).collect();
        write!(
            out,
            "{tag}{step:03} t={} {op} | m={:016x} s={:016x} fp={:016x} spans={} sla={:016x}",
            esc.now().as_ns(),
            fnv1a(metrics.as_bytes()),
            fnv1a(s.series_json().as_bytes()),
            fnv1a(s.state_fingerprint().as_bytes()),
            esc.tracer().records().count(),
            fnv1a(verdicts.as_bytes()),
        )
        .expect("writing to a String");
        for e in esc.journal().events_since(seq) {
            write!(out, " | {e}").expect("writing to a String");
        }
        out.push('\n');
        seq = esc.journal().seq_end();
    }
    out
}

#[test]
fn behaviour_corpus_is_unchanged() {
    let (a, b) = std::thread::scope(|scope| {
        let a = scope.spawn(|| run("A", 11, SteeringMode::Proactive));
        let b = scope.spawn(|| run("B", 23, SteeringMode::Reactive));
        (
            a.join().expect("run A panicked"),
            b.join().expect("run B panicked"),
        )
    });
    escape_witness::corpus!("behaviour.txt").check(&(a + &b));
}
