//! Dependency-free JSON for ESCAPE-RS.
//!
//! The workspace builds in a container without crates.io access, so the
//! machine interchange formats (service graphs, topologies, telemetry
//! snapshots) run on this small hand-rolled JSON library instead of
//! serde. It provides one pull [`Reader`] over the input text, a
//! [`Value`] tree built with it, and one streaming printer, [`Writer`],
//! whose output matches the shapes the previous serde-based format
//! produced (objects keep insertion order; floats always carry a decimal
//! point, integers never do).
//!
//! The reader accepts any RFC 8259 document; the printer emits compact
//! or 2-space indented output like `serde_json::to_string_pretty`.
//!
//! Typed documents sit on top through the [`wire`] layer: each message
//! declares its fields once; it is written straight into a [`Writer`]
//! and read back in one pass from a [`Reader`], with no [`Value`] on
//! the way. The tree is for untyped documents.

mod read;
pub mod wire;
mod write;

pub use read::{Kind, Mark, Reader};
pub use write::Writer;

/// A parse failure with the byte offset it occurred at. The offset is
/// into the raw input handed to the [`Reader`] — control planes surface
/// it verbatim so clients can point at the broken byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte position in the input where parsing failed.
    pub offset: usize,
    /// What went wrong there.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl From<ParseError> for String {
    fn from(e: ParseError) -> String {
        e.to_string()
    }
}

/// A JSON document node.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    /// Integral number (printed without a decimal point).
    Int(i64),
    /// An integer above `i64::MAX`, and only that: `From<u64>` and the
    /// parser produce `Int` for everything `Int` can hold, so equal
    /// numbers compare equal.
    UInt(u64),
    /// Floating number (printed with a decimal point).
    Float(f64),
    Str(String),
    Arr(Vec<Value>),
    /// Insertion-ordered object.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// An empty object.
    pub fn obj() -> Value {
        Value::Obj(Vec::new())
    }

    /// Builder-style field insert (replaces an existing key).
    pub fn set(mut self, key: &str, v: impl Into<Value>) -> Value {
        if let Value::Obj(fields) = &mut self {
            if let Some(slot) = fields.iter_mut().find(|(k, _)| k == key) {
                slot.1 = v.into();
            } else {
                fields.push((key.to_string(), v.into()));
            }
            self
        } else {
            panic!("set() on non-object {self:?}");
        }
    }

    /// Field lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String content.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric content widened to f64.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::UInt(u) => Some(*u as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Non-negative integral content that fits a `u64`: `5.0` is 5,
    /// and `1e30` is nothing, not `u64::MAX`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(i) if *i >= 0 => Some(*i as u64),
            Value::UInt(u) => Some(*u),
            Value::Float(f) if *f >= 0.0 && f.fract() == 0.0 && *f < U64_END => Some(*f as u64),
            _ => None,
        }
    }

    /// True for an integral number too large for a `u64`.
    pub(crate) fn is_past_u64(&self) -> bool {
        matches!(self, Value::Float(f) if *f >= U64_END)
    }

    /// Boolean content.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array elements.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// True for `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Parses a JSON document (the whole input must be one value).
    pub fn parse(src: &str) -> Result<Value, String> {
        Value::parse_detailed(src).map_err(|e| e.to_string())
    }

    /// [`Value::parse`] with a structured error carrying the byte
    /// offset of the failure.
    pub fn parse_detailed(src: &str) -> Result<Value, ParseError> {
        let mut r = Reader::new(src);
        let v = r.value()?;
        r.end()?;
        Ok(v)
    }

    /// 2-space indented rendering.
    pub fn to_string_pretty(&self) -> String {
        let mut w = Writer::pretty();
        self.write(&mut w);
        w.finish()
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Value {
        Value::Int(i)
    }
}
impl From<u64> for Value {
    fn from(u: u64) -> Value {
        i64::try_from(u).map_or(Value::UInt(u), Value::Int)
    }
}
impl From<u32> for Value {
    fn from(u: u32) -> Value {
        Value::Int(u as i64)
    }
}
impl From<usize> for Value {
    fn from(u: usize) -> Value {
        Value::from(u as u64)
    }
}
impl From<f64> for Value {
    fn from(f: f64) -> Value {
        Value::Float(f)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}
impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Value {
        Value::Arr(v.into_iter().map(Into::into).collect())
    }
}
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Value {
        v.map_or(Value::Null, Into::into)
    }
}

/// Deepest nesting of arrays and objects the reader follows. It
/// recurses per level, so without a cap a frame of nothing but `[`
/// overflows the stack of whichever thread reads it.
pub const MAX_DEPTH: usize = 128;

/// Where integers stop being `u64`s: 2^64.
const U64_END: f64 = 18_446_744_073_709_551_616.0;

/// Compact single-line rendering (`value.to_string()`).
impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut w = Writer::compact();
        self.write(&mut w);
        f.write_str(&w.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_structures() {
        let v = Value::obj()
            .set("name", "s0")
            .set("cpu", 2.0)
            .set("mem", 256u64)
            .set("tags", vec!["a", "b"])
            .set("opt", Value::Null)
            .set("on", true);
        let text = v.to_string_pretty();
        let back = Value::parse(&text).unwrap();
        assert_eq!(v, back);
        assert_eq!(back.get("cpu").unwrap().as_f64(), Some(2.0));
        assert_eq!(back.get("mem").unwrap().as_u64(), Some(256));
    }

    #[test]
    fn floats_keep_decimal_point_ints_do_not() {
        assert_eq!(Value::Float(2.0).to_string(), "2.0");
        assert_eq!(Value::Float(0.25).to_string(), "0.25");
        assert_eq!(Value::Int(10).to_string(), "10");
    }

    #[test]
    fn every_u64_and_i64_round_trips_exactly() {
        for u in [
            0,
            i64::MAX as u64,
            (1 << 63) + 1,
            11400714819323198485,
            u64::MAX,
        ] {
            let text = Value::from(u).to_string();
            assert_eq!(text, u.to_string());
            let back = Value::parse(&text).unwrap();
            assert_eq!(back, Value::from(u));
            assert_eq!(back.as_u64(), Some(u));
        }
        let min = Value::parse(&Value::from(i64::MIN).to_string()).unwrap();
        assert_eq!(min, Value::Int(i64::MIN));
        assert_eq!(min.as_u64(), None);
        // Past `u64` there is nothing exact to hold it: still a float.
        let big = Value::parse("18446744073709551616").unwrap();
        assert_eq!(big, Value::Float(18446744073709551616.0));
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = Value::Str("a\"b\\c\nd\té\u{1}".to_string());
        let back = Value::parse(&v.to_string()).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn utf16_surrogate_pairs_make_one_scalar() {
        let parse = |text: &str| Value::parse(text).unwrap();
        assert_eq!(parse(r#""\ud83d\ude00""#), Value::from("\u{1f600}"));
        assert_eq!(parse(r#""a\uD800\uDC00b""#), Value::from("a\u{10000}b"));
        assert_eq!(parse(r#""\udbff\udfff""#), Value::from("\u{10ffff}"));
        // A surrogate without its partner stays a replacement character.
        assert_eq!(parse(r#""\ud83d""#), Value::from("\u{fffd}"));
        assert_eq!(parse(r#""\ude00\ud83d""#), Value::from("\u{fffd}\u{fffd}"));
        assert_eq!(
            parse(r#""\ud83dx\ude00""#),
            Value::from("\u{fffd}x\u{fffd}")
        );
        assert_eq!(parse(r#""\ud83d\u0041""#), Value::from("\u{fffd}A"));
        assert_eq!(
            parse(r#""\ud83d\ud83d\ude00""#),
            Value::from("\u{fffd}\u{1f600}")
        );
        // A broken second escape is still an error, at its own offset.
        let e = Value::parse_detailed(r#""\ud83d\uzzzz""#).unwrap_err();
        assert_eq!((e.offset, e.message.as_str()), (8, "bad \\u escape"));
        let e = Value::parse_detailed(r#""\ud83d\ude0"#).unwrap_err();
        assert_eq!(e.message, "truncated \\u escape");
        // Four hex digits, nothing else: no sign.
        let e = Value::parse_detailed(r#""\u+041""#).unwrap_err();
        assert_eq!((e.offset, e.message.as_str()), (2, "bad \\u escape"));
    }

    #[test]
    fn parse_errors_carry_byte_offsets() {
        let e = Value::parse_detailed("{\"a\": nope}").unwrap_err();
        assert_eq!(e.offset, 6, "{e}");
        let e = Value::parse_detailed("{} trailing").unwrap_err();
        assert_eq!(e.offset, 3, "{e}");
        assert!(e.to_string().contains("at byte 3"));
        let e = Value::parse_detailed("[1, 2").unwrap_err();
        assert_eq!(e.offset, 5, "{e}");
        // The String-typed wrapper renders the same diagnostics.
        assert_eq!(
            Value::parse("{} trailing").unwrap_err(),
            "trailing garbage at byte 3"
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(Value::parse("{nope}").is_err());
        assert!(Value::parse("").is_err());
        assert!(Value::parse("[1,]").is_err());
        assert!(Value::parse("{} x").is_err());
    }

    #[test]
    fn nesting_is_capped_instead_of_overflowing_the_stack() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Value::parse(&nested(MAX_DEPTH)).is_ok());
        let e = Value::parse_detailed(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(e.offset, MAX_DEPTH, "{e}");
        assert!(Value::parse(&"[{\"a\":".repeat(1_000_000)).is_err());
    }

    #[test]
    fn parses_hand_written_documents() {
        let v = Value::parse(r#"{"a": [1, 2.5, null, {"b": "c"}], "d": -3, "e": 1e3}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 4);
        assert_eq!(v.get("d").unwrap().as_f64(), Some(-3.0));
        assert_eq!(v.get("e").unwrap().as_f64(), Some(1000.0));
    }
}
