//! The one JSON printer: a streaming [`Writer`] that puts keys and
//! values straight into its output, compact or 2-space indented.
//!
//! Everything that renders JSON goes through it — [`Value`]'s
//! `Display` and [`Value::to_string_pretty`], every [`Wire`] type and
//! the hand-written documents (sampler series, metrics and span dumps,
//! journal lines, Chrome traces) — so there
//! is one set of formatting rules: floats print with `{:?}` (the
//! shortest text that round-trips, always with a decimal point or an
//! exponent) and non-finite ones as `null`, integers never carry a
//! decimal point, and control characters below U+0020 are escaped.
//!
//! Writing a token allocates nothing beyond the output's own growth:
//! indentation is sliced from a static run of spaces, integers are
//! formatted on the stack, and the escaper copies unescaped byte runs
//! whole.
//!
//! [`Wire`]: crate::wire::Wire

use crate::Value;
use std::fmt::Write as _;

/// Indentation is cut from here, 32 levels at a time.
const SPACES: &str = "                                                                ";

/// A JSON document under construction.
///
/// Values are written in document order: `begin_object`, then per field
/// [`Writer::key`] followed by its value, then `end_object`; arrays the
/// same without keys. The writer places the commas, newlines and
/// indentation; a mis-nested sequence of calls is a caller bug.
#[derive(Debug)]
pub struct Writer {
    out: String,
    pretty: bool,
    /// Open containers.
    depth: usize,
    /// The innermost open container already holds an item.
    more: bool,
    /// A key was just written; its value follows on the same line.
    after_key: bool,
}

impl Writer {
    /// A writer of single-line output (`Value`'s `Display`).
    pub fn compact() -> Writer {
        Writer::new(false)
    }

    /// A writer of 2-space indented output (`Value::to_string_pretty`).
    pub fn pretty() -> Writer {
        Writer::new(true)
    }

    fn new(pretty: bool) -> Writer {
        Writer {
            out: String::new(),
            pretty,
            depth: 0,
            more: false,
            after_key: false,
        }
    }

    /// The rendered document.
    pub fn finish(self) -> String {
        debug_assert_eq!(self.depth, 0, "unclosed container");
        self.out
    }

    pub fn begin_object(&mut self) {
        self.open('{');
    }

    pub fn end_object(&mut self) {
        self.close('}');
    }

    pub fn begin_array(&mut self) {
        self.open('[');
    }

    pub fn end_array(&mut self) {
        self.close(']');
    }

    /// Writes an object key; the next value written is its value.
    pub fn key(&mut self, key: &str) -> &mut Writer {
        debug_assert!(!self.after_key, "a key needs a value before the next key");
        self.item();
        self.escaped(key);
        self.out.push_str(if self.pretty { ": " } else { ":" });
        self.after_key = true;
        self
    }

    pub fn null(&mut self) {
        self.scalar("null");
    }

    pub fn bool(&mut self, b: bool) {
        self.scalar(if b { "true" } else { "false" });
    }

    pub fn int(&mut self, i: i64) {
        self.item();
        if i < 0 {
            self.out.push('-');
        }
        self.digits(i.unsigned_abs());
        self.more = true;
    }

    pub fn uint(&mut self, u: u64) {
        self.item();
        self.digits(u);
        self.more = true;
    }

    /// A float with a decimal point or exponent; JSON has no NaN or
    /// infinity, so those are `null`.
    pub fn float(&mut self, f: f64) {
        if !f.is_finite() {
            self.null();
            return;
        }
        self.item();
        if f.fract() == 0.0 && f.abs() < 1e16 {
            // What `{:?}` writes for an integral value it gives no
            // exponent (below 1e16), without the general formatter.
            if f.is_sign_negative() {
                self.out.push('-');
            }
            self.digits(f.abs() as u64);
            self.out.push_str(".0");
        } else {
            // Writing into a `String` cannot fail.
            let _ = write!(self.out, "{f:?}");
        }
        self.more = true;
    }

    pub fn str(&mut self, s: &str) {
        self.item();
        self.escaped(s);
        self.more = true;
    }

    fn scalar(&mut self, text: &str) {
        self.item();
        self.out.push_str(text);
        self.more = true;
    }

    /// What goes before any value or key: nothing after a key or at the
    /// top level, else a comma after the container's previous item and,
    /// when pretty, a new indented line.
    fn item(&mut self) {
        if self.after_key {
            self.after_key = false;
        } else if self.depth > 0 {
            if self.more {
                self.out.push(',');
            }
            self.newline();
        }
    }

    fn open(&mut self, bracket: char) {
        self.item();
        self.out.push(bracket);
        self.depth += 1;
        self.more = false;
    }

    /// An empty container closes on its opening line.
    fn close(&mut self, bracket: char) {
        debug_assert!(self.depth > 0 && !self.after_key, "mis-nested close");
        self.depth -= 1;
        if self.more {
            self.newline();
        }
        self.out.push(bracket);
        self.more = true;
    }

    fn newline(&mut self) {
        if self.pretty {
            self.out.push('\n');
            let mut width = 2 * self.depth;
            while width > 0 {
                let run = width.min(SPACES.len());
                self.out.push_str(&SPACES[..run]);
                width -= run;
            }
        }
    }

    fn digits(&mut self, mut n: u64) {
        let mut buf = [0u8; 20];
        let mut at = buf.len();
        loop {
            at -= 1;
            buf[at] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        for &d in &buf[at..] {
            self.out.push(char::from(d));
        }
    }

    /// `s` as a quoted string. The bytes that need an escape are all
    /// ASCII, so every run between two of them ends on a char boundary
    /// and is copied in one piece.
    fn escaped(&mut self, s: &str) {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        self.out.push('"');
        let mut run = 0;
        for (i, &b) in s.as_bytes().iter().enumerate() {
            let short = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0..=0x1f => "",
                _ => continue,
            };
            self.out.push_str(&s[run..i]);
            if short.is_empty() {
                self.out.push_str("\\u00");
                self.out.push(char::from(HEX[usize::from(b >> 4)]));
                self.out.push(char::from(HEX[usize::from(b & 0xf)]));
            } else {
                self.out.push_str(short);
            }
            run = i + 1;
        }
        self.out.push_str(&s[run..]);
        self.out.push('"');
    }
}

impl Value {
    /// Writes this value (and everything under it) into `w`.
    pub fn write(&self, w: &mut Writer) {
        match self {
            Value::Null => w.null(),
            Value::Bool(b) => w.bool(*b),
            Value::Int(i) => w.int(*i),
            Value::UInt(u) => w.uint(*u),
            Value::Float(f) => w.float(*f),
            Value::Str(s) => w.str(s),
            Value::Arr(items) => {
                w.begin_array();
                for item in items {
                    item.write(w);
                }
                w.end_array();
            }
            Value::Obj(fields) => {
                w.begin_object();
                for (k, v) in fields {
                    w.key(k);
                    v.write(w);
                }
                w.end_object();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every token the writer emits, nested, empty and escaped.
    fn every_token(mut w: Writer) -> String {
        w.begin_object();
        w.key("null").null();
        w.key("bools").begin_array();
        w.bool(true);
        w.bool(false);
        w.end_array();
        w.key("ints").begin_array();
        for i in [0, -1, i64::MIN, i64::MAX] {
            w.int(i);
        }
        w.uint(u64::MAX);
        w.end_array();
        w.key("floats").begin_array();
        for f in [
            0.0,
            -0.0,
            2.0,
            0.25,
            1e300,
            -1.5e-7,
            f64::NAN,
            f64::INFINITY,
        ] {
            w.float(f);
        }
        w.end_array();
        w.key("str").str("q\"b\\n\nr\rt\tc\u{1}\u{1f}é→😀 /");
        w.key("esc\"aped").begin_object();
        w.end_object();
        w.key("empty").begin_array();
        w.end_array();
        w.key("nest").begin_array();
        w.begin_object();
        w.key("a").begin_array();
        w.begin_array();
        w.end_array();
        w.end_array();
        w.end_object();
        w.end_array();
        w.end_object();
        w.finish()
    }

    /// The same document parsed and printed again as a [`Value`].
    fn through_a_tree(text: &str, mut w: Writer) -> String {
        Value::parse(text).expect("valid JSON").write(&mut w);
        w.finish()
    }

    const COMPACT: &str = concat!(
        r#"{"null":null,"bools":[true,false],"ints":[0,-1,-9223372036854775808,"#,
        r#"9223372036854775807,18446744073709551615],"floats":[0.0,-0.0,2.0,0.25,"#,
        r#"1e300,-1.5e-7,null,null],"str":"q\"b\\n\nr\rt\tc\u0001\u001fé→😀 /","#,
        r#""esc\"aped":{},"empty":[],"nest":[{"a":[[]]}]}"#
    );

    const PRETTY: &str = r#"{
  "null": null,
  "bools": [
    true,
    false
  ],
  "ints": [
    0,
    -1,
    -9223372036854775808,
    9223372036854775807,
    18446744073709551615
  ],
  "floats": [
    0.0,
    -0.0,
    2.0,
    0.25,
    1e300,
    -1.5e-7,
    null,
    null
  ],
  "str": "q\"b\\n\nr\rt\tc\u0001\u001fé→😀 /",
  "esc\"aped": {},
  "empty": [],
  "nest": [
    {
      "a": [
        []
      ]
    }
  ]
}"#;

    #[test]
    fn every_token_renders_compact() {
        assert_eq!(every_token(Writer::compact()), COMPACT);
        assert_eq!(through_a_tree(COMPACT, Writer::compact()), COMPACT);
        assert_eq!(through_a_tree(PRETTY, Writer::compact()), COMPACT);
    }

    #[test]
    fn every_token_renders_pretty() {
        assert_eq!(every_token(Writer::pretty()), PRETTY);
        assert_eq!(through_a_tree(COMPACT, Writer::pretty()), PRETTY);
    }

    #[test]
    fn indentation_runs_past_one_slice_of_spaces() {
        let depth = SPACES.len();
        let mut w = Writer::pretty();
        for _ in 0..depth {
            w.begin_array();
        }
        w.uint(7);
        for _ in 0..depth {
            w.end_array();
        }
        let text = w.finish();
        let line = text.lines().nth(depth).expect("the innermost line");
        assert_eq!(line, format!("{}7", " ".repeat(2 * depth)));
        assert_eq!(text.lines().count(), 2 * depth + 1);
    }

    #[test]
    fn a_top_level_scalar_has_no_decoration() {
        let mut w = Writer::pretty();
        w.str("x");
        assert_eq!(w.finish(), "\"x\"");
        let mut w = Writer::compact();
        w.float(f64::NEG_INFINITY);
        assert_eq!(w.finish(), "null");
    }
}
