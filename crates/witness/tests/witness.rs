//! The witness helper on fixtures: what it writes, where, and what its
//! failures say. Each test mirrors under its own directory outside
//! `target/tmp/witness`, so nothing here is ever re-recorded.

use escape_witness::{fnv1a, Corpus, Sections, SplitMix64};
use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

macro_rules! tmp {
    ($test:literal) => {
        concat!(env!("CARGO_TARGET_TMPDIR"), "/witness-selftest/", $test)
    };
}

/// A corpus committed beside this file.
fn fixture(text: &'static str, path: &'static str, tmp: &'static str) -> Corpus {
    Corpus {
        text,
        source: file!(),
        path,
        tmp,
    }
}

/// The message `f` panics with.
fn failure(f: impl FnOnce()) -> String {
    let payload = catch_unwind(AssertUnwindSafe(f)).expect_err("a mismatch fails");
    payload
        .downcast_ref::<String>()
        .cloned()
        .expect("a formatted panic message")
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).expect("the mirror was written")
}

#[test]
fn a_match_writes_nothing_and_removes_a_stale_mirror() {
    let corpus = fixture("a\nb\n", "fixture.txt", tmp!("match"));
    assert_eq!(
        corpus.repo_path(),
        Path::new("crates/witness/tests/fixture.txt"),
        "the path from the repository root"
    );
    let mirror = corpus.mirror();
    assert_eq!(
        mirror,
        Path::new(tmp!("match")).join("witness/crates/witness/tests/fixture.txt")
    );
    fs::create_dir_all(mirror.parent().unwrap()).unwrap();
    fs::write(&mirror, "stale").unwrap();
    corpus.check("a\nb\n");
    assert!(!mirror.exists(), "the stale mirror is gone");

    let up = Corpus {
        text: "",
        source: "tests/experiments.rs",
        path: "../EXPERIMENTS.md",
        tmp: tmp!("match"),
    };
    assert_eq!(up.repo_path(), Path::new("EXPERIMENTS.md"));
}

#[test]
fn a_mismatch_mirrors_the_whole_document_and_names_the_first_differing_line() {
    let corpus = fixture("a\nb\nc\n", "fixture.txt", tmp!("whole"));
    let message = failure(|| corpus.check("a\nB\nc\n"));
    assert!(
        message.starts_with("crates/witness/tests/fixture.txt differs, first at line 2\n"),
        "{message}"
    );
    assert!(message.contains(&corpus.mirror().display().to_string()));
    assert!(message.contains("scripts/rerecord.sh"));
    assert_eq!(read(&corpus.mirror()), "a\nB\nc\n");

    let message = failure(|| corpus.check("a\nb\nc\nd\n"));
    assert!(
        message.contains("first at a missing or extra line"),
        "{message}"
    );
    assert_eq!(read(&corpus.mirror()), "a\nb\nc\nd\n");
}

#[test]
fn a_sectioned_mismatch_names_changed_new_and_never_produced_sections() {
    let committed = "### a\n1\n### b\n2\n2\n### c\n3\n### e\n\n";
    let mirror = fixture("", "sections.txt", tmp!("sections")).mirror();
    let corpus = Sections::new(fixture(committed, "sections.txt", tmp!("sections")), "### ");
    assert_eq!(corpus.pin("a", "1".into()), "1");
    assert_eq!(
        corpus.pin("b", "2\n2 moved".into()),
        "2\n2",
        "the committed body"
    );
    assert_eq!(corpus.pin("d", "4".into()), "4", "a new section's own body");
    assert_eq!(corpus.pin("e", String::new()), "");
    let message = failure(|| corpus.finish());
    assert!(
        message.ends_with(&format!(
            "sections.txt differs, in these sections:\n  changed: b\n  new: d\n  \
             never produced: c\nthe current document is in {}; \
             scripts/rerecord.sh re-records every witness",
            mirror.display()
        )),
        "{message}"
    );
    assert_eq!(
        read(&mirror),
        "### a\n1\n### b\n2\n2 moved\n### d\n4\n### e\n\n"
    );
}

#[test]
fn a_section_checked_alone_mirrors_the_committed_document_with_it_replaced() {
    let committed = "# preamble\n\n## one\nx  1\n\n## two\nx  2\n\n";
    let mirror = fixture("", "titled.txt", tmp!("titled")).mirror();
    let corpus = Sections::new(fixture(committed, "titled.txt", tmp!("titled")), "## ");
    corpus.check("one", "x  1\n");
    assert!(!mirror.exists());
    let message = failure(|| corpus.check("two", "x  22\n"));
    assert!(
        message.contains("in these sections:\n  changed: two\n"),
        "{message}"
    );
    assert_eq!(
        read(&mirror),
        "# preamble\n\n## one\nx  1\n\n## two\nx  22\n\n"
    );
    let message = failure(|| corpus.check("three", "x  3\n"));
    assert!(
        message.contains("in these sections:\n  new: three\n"),
        "{message}"
    );
    assert_eq!(
        read(&mirror),
        "# preamble\n\n## one\nx  1\n\n## two\nx  22\n\n## three\nx  3\n\n",
        "every mismatch of the process, new sections last"
    );
}

#[test]
fn the_seeded_helpers_keep_their_published_values() {
    let mut rng = SplitMix64(0);
    assert_eq!(rng.next_u64(), 0xe220_a839_7b1d_cdaf);
    assert_eq!(rng.next_u64(), 0x6e78_9e6a_a1b9_65f4);
    assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
}
