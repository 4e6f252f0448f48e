//! Test support for the pinned witnesses: the committed corpus files
//! that tests compare this build's output with, byte for byte.
//!
//! A test names its committed file with [`corpus!`] (one document) or
//! [`sections!`] (a document of titled sections), relative to the test's
//! own source file as `include_str!` takes it, and hands over what this
//! build produced. On a match nothing is written, and a mirrored file an
//! earlier run left is removed. On a mismatch the test fails naming what
//! differs, and the whole current document is written to
//! `<target>/tmp/witness/<the committed file's path from the repository
//! root>`. A red run therefore leaves the exact bytes a re-record would
//! commit, and `scripts/rerecord.sh` copies every mirrored file over its
//! committed path.
//!
//! The crate also holds the seeded helpers the corpus tests draw inputs
//! from ([`SplitMix64`]) and hash outputs with ([`fnv1a`]), so a pinned
//! value cannot drift between two copies of one algorithm.

use std::fs;
use std::io::ErrorKind;
use std::path::{Component, Path, PathBuf};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// A committed corpus file: its text as this build compiled it, and
/// where a mismatch is mirrored. Made by [`corpus!`].
pub struct Corpus {
    /// The committed text.
    pub text: &'static str,
    /// The source file that names the corpus, as `file!()` spells it.
    pub source: &'static str,
    /// The corpus path, relative to `source`'s directory.
    pub path: &'static str,
    /// The target tmp dir of the test (`CARGO_TARGET_TMPDIR`); a
    /// mismatch is mirrored under its `witness` directory.
    pub tmp: &'static str,
}

/// The committed file at `$path` (relative to the calling source file,
/// as `include_str!` takes it) as a [`Corpus`].
#[macro_export]
macro_rules! corpus {
    ($path:literal) => {
        $crate::Corpus {
            text: include_str!($path),
            source: file!(),
            path: $path,
            tmp: env!("CARGO_TARGET_TMPDIR"),
        }
    };
}

/// The committed file at `$path` as [`Sections`] whose title lines
/// start with `$marker`.
#[macro_export]
macro_rules! sections {
    ($path:literal, $marker:literal) => {
        $crate::Sections::new($crate::corpus!($path), $marker)
    };
}

impl Corpus {
    /// The committed file's path from the repository root.
    pub fn repo_path(&self) -> PathBuf {
        let dir = Path::new(self.source).parent().unwrap_or(Path::new(""));
        let mut path = PathBuf::new();
        for part in dir.join(self.path).components() {
            match part {
                Component::ParentDir => assert!(path.pop(), "{} leaves the repository", self.path),
                Component::CurDir => {}
                part => path.push(part),
            }
        }
        // `file!()` is relative to the workspace root for its members.
        assert!(
            path.is_relative(),
            "{} is not in the workspace",
            self.source
        );
        path
    }

    /// Where a mismatch is written.
    pub fn mirror(&self) -> PathBuf {
        Path::new(self.tmp).join("witness").join(self.repo_path())
    }

    /// Passes when `actual` is the committed text. Otherwise writes
    /// `actual` to [`Corpus::mirror`] and fails naming the first line
    /// that differs.
    pub fn check(&self, actual: &str) {
        self.clear();
        if actual == self.text {
            return;
        }
        let first = actual
            .lines()
            .zip(self.text.lines())
            .position(|(a, c)| a != c)
            .map_or_else(
                || "a missing or extra line".to_string(),
                |i| format!("line {}", i + 1),
            );
        self.fail(actual, &format!("first at {first}"));
    }

    /// Removes the mirror an earlier run left.
    fn clear(&self) {
        let mirror = self.mirror();
        if let Err(e) = fs::remove_file(&mirror) {
            assert!(
                e.kind() == ErrorKind::NotFound,
                "removing {}: {e}",
                mirror.display()
            );
        }
    }

    /// Writes `doc` to the mirror and fails saying `what` differs.
    fn fail(&self, doc: &str, what: &str) -> ! {
        let mirror = self.mirror();
        let dir = mirror.parent().expect("a mirror lies under the tmp dir");
        fs::create_dir_all(dir).unwrap_or_else(|e| panic!("creating {}: {e}", dir.display()));
        fs::write(&mirror, doc).unwrap_or_else(|e| panic!("writing {}: {e}", mirror.display()));
        panic!(
            "{} differs, {what}\nthe current document is in {}; \
             scripts/rerecord.sh re-records every witness",
            self.repo_path().display(),
            mirror.display()
        );
    }
}

/// A committed document of sections: an optional preamble, then
/// sections that each open with a title line `{marker}{name}` and hold a
/// body up to the next title line. A section is written
/// `{marker}{name}\n{body}\n`, so a body that should end in a blank line
/// ends in `\n`. Made by [`sections!`]; a `static` one is shared by the
/// tests of one binary.
pub struct Sections {
    pub corpus: Corpus,
    marker: &'static str,
    /// The committed sections, parsed on first use, when the stale
    /// mirror is also removed.
    committed: OnceLock<Vec<(&'static str, &'static str)>>,
    /// `(name, body)` in production order.
    produced: Mutex<Vec<(String, String)>>,
}

impl Sections {
    pub const fn new(corpus: Corpus, marker: &'static str) -> Sections {
        Sections {
            corpus,
            marker,
            committed: OnceLock::new(),
            produced: Mutex::new(Vec::new()),
        }
    }

    /// Records `body` as section `name` for [`Sections::finish`] to judge,
    /// and hands back the committed body (`body` when the section is new).
    pub fn pin(&self, name: &str, body: String) -> String {
        let pinned = lookup(self.committed(), name).unwrap_or(&body).to_string();
        push(&mut self.produced(), name, body);
        pinned
    }

    /// Passes when every pinned section is its committed body and every
    /// committed section was pinned. Otherwise names each section that
    /// changed, is new or was never produced, writes the pinned sections
    /// in production order to the mirror, and fails.
    pub fn finish(&self) {
        let produced = self.produced();
        let mut bad = self.judge(&produced);
        for (name, _) in self.committed() {
            if lookup(&produced, name).is_none() {
                bad.push(format!("never produced: {name}"));
            }
        }
        if !bad.is_empty() {
            self.fail(&produced, &bad);
        }
    }

    /// Judges section `name` alone, for a document whose sections come
    /// from many tests. On a mismatch the mirror holds the committed
    /// document with every section produced so far in this process in
    /// place of its committed one, new sections last.
    pub fn check(&self, name: &str, body: &str) {
        let bad = self.judge(&[(name, body)]);
        let mut produced = self.produced();
        push(&mut produced, name, body.to_string());
        if bad.is_empty() {
            return;
        }
        let committed = self.committed();
        let mut doc: Vec<(&str, &str)> = committed
            .iter()
            .map(|&(n, b)| (n, lookup(&produced, n).unwrap_or(b)))
            .collect();
        for (n, b) in produced.iter() {
            if lookup(committed, n).is_none() {
                doc.push((n, b));
            }
        }
        // The lock is held while the mirror is written, so two failing
        // tests cannot interleave their documents.
        self.fail(&doc, &bad);
    }

    fn committed(&self) -> &[(&'static str, &'static str)] {
        self.committed.get_or_init(|| {
            self.corpus.clear();
            parse(self.corpus.text, self.marker).1
        })
    }

    fn produced(&self) -> MutexGuard<'_, Vec<(String, String)>> {
        // Every update is one push: a test that failed holding the lock
        // left the list whole.
        self.produced.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// `changed: …` / `new: …` for each of `produced` that is not its
    /// committed body.
    fn judge<N: AsRef<str>, B: AsRef<str>>(&self, produced: &[(N, B)]) -> Vec<String> {
        let committed = self.committed();
        produced
            .iter()
            .filter_map(|(name, body)| {
                let name = name.as_ref();
                match lookup(committed, name) {
                    Some(c) if c == body.as_ref() => None,
                    Some(_) => Some(format!("changed: {name}")),
                    None => Some(format!("new: {name}")),
                }
            })
            .collect()
    }

    /// Writes the committed preamble and then `sections` to the mirror,
    /// and fails naming the sections in `bad`.
    fn fail<N: AsRef<str>, B: AsRef<str>>(&self, sections: &[(N, B)], bad: &[String]) -> ! {
        let mut doc = parse(self.corpus.text, self.marker).0.to_string();
        for (name, body) in sections {
            doc.push_str(&format!(
                "{}{}\n{}\n",
                self.marker,
                name.as_ref(),
                body.as_ref()
            ));
        }
        let what = format!("in these sections:\n  {}", bad.join("\n  "));
        self.corpus.fail(&doc, &what)
    }
}

fn push(produced: &mut Vec<(String, String)>, name: &str, body: String) {
    assert!(
        lookup(produced, name).is_none(),
        "section `{name}` produced twice"
    );
    produced.push((name.to_string(), body));
}

/// The body of section `name`.
fn lookup<'a, N: AsRef<str>, B: AsRef<str>>(sections: &'a [(N, B)], name: &str) -> Option<&'a str> {
    sections
        .iter()
        .find(|(n, _)| n.as_ref() == name)
        .map(|(_, b)| b.as_ref())
}

/// The preamble and the `(name, body)` sections of `text`.
fn parse<'a>(text: &'a str, marker: &str) -> (&'a str, Vec<(&'a str, &'a str)>) {
    let mut starts = Vec::new();
    let mut at = 0;
    for line in text.split_inclusive('\n') {
        if line.starts_with(marker) {
            starts.push(at);
        }
        at += line.len();
    }
    let preamble = &text[..starts.first().copied().unwrap_or(text.len())];
    let sections = starts
        .iter()
        .enumerate()
        .map(|(i, &start)| {
            let end = starts.get(i + 1).copied().unwrap_or(text.len());
            let section = &text[start + marker.len()..end];
            let (name, body) = section.split_once('\n').unwrap_or((section, ""));
            (name, body.strip_suffix('\n').unwrap_or(body))
        })
        .collect();
    (preamble, sections)
}

/// SplitMix64: a fixed sequence on every toolchain, no dependency.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// FNV-1a, 64 bit: no dependency, and the same on every toolchain.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}
