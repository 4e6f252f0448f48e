//! Dependency-free JSON for ESCAPE-RS.
//!
//! The workspace builds in a container without crates.io access, so the
//! machine interchange formats (service graphs, topologies, telemetry
//! snapshots) run on this small hand-rolled JSON library instead of
//! serde. It provides a [`Value`] model, a strict parser and a pretty
//! printer whose output matches the shapes the previous serde-based
//! format produced (objects keep insertion order; floats always carry a
//! decimal point, integers never do).
//!
//! The parser accepts any RFC 8259 document; the printer emits 2-space
//! indented output like `serde_json::to_string_pretty`.
//!
//! Typed documents sit on top of [`Value`] through the [`wire`] layer:
//! each message declares its fields once and both directions follow.

pub mod wire;

/// A parse failure with the byte offset it occurred at. The offset is
/// into the raw input handed to [`Value::parse_detailed`] — control
/// planes surface it verbatim so clients can point at the broken byte.
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

    /// Non-negative integral content.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(i) if *i >= 0 => Some(*i as u64),
            Value::UInt(u) => Some(*u),
            Value::Float(f) if *f >= 0.0 && f.fract() == 0.0 => Some(*f as u64),
            _ => None,
        }
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
        let mut p = Parser {
            src,
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.src.len() {
            return Err(p.err("trailing garbage"));
        }
        Ok(v)
    }

    /// 2-space indented rendering.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(i) => out.push_str(&i.to_string()),
            Value::UInt(u) => out.push_str(&u.to_string()),
            Value::Float(f) => {
                if f.is_finite() {
                    // {:?} prints the shortest representation that
                    // round-trips, always with a decimal point or exponent.
                    out.push_str(&format!("{f:?}"));
                } else {
                    out.push_str("null"); // JSON has no NaN/Inf
                }
            }
            Value::Str(s) => write_escaped(out, s),
            Value::Arr(items) => write_seq(out, indent, depth, '[', ']', items.len(), |out, i| {
                items[i].write(out, indent, depth + 1)
            }),
            Value::Obj(fields) => {
                write_seq(out, indent, depth, '{', '}', fields.len(), |out, i| {
                    write_escaped(out, &fields[i].0);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    fields[i].1.write(out, indent, depth + 1)
                })
            }
        }
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    n: usize,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    if n == 0 {
        out.push(close);
        return;
    }
    for i in 0..n {
        if i > 0 {
            out.push(',');
        }
        if let Some(w) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(w * (depth + 1)));
        }
        item(out, i);
    }
    if let Some(w) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(w * depth));
    }
    out.push(close);
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
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

/// Deepest nesting of arrays and objects the parser follows. The parser
/// recurses per level, so without a cap a frame of nothing but `[`
/// overflows the stack of whichever thread reads it.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    src: &'a str,
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{') => self.nested(Parser::object),
            Some(b'[') => self.nested(Parser::array),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.keyword("true", Value::Bool(true)),
            Some(b'f') => self.keyword("false", Value::Bool(false)),
            Some(b'n') => self.keyword("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Value, ParseError>,
    ) -> Result<Value, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn keyword(&mut self, word: &str, v: Value) -> Result<Value, ParseError> {
        if self.src.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err("bad literal"))
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            fields.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .src
                                .as_bytes()
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?,
                                16,
                            )
                            .map_err(|_| self.err("bad \\u escape"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole run up to the next quote or escape.
                    // Both are ASCII, so the run ends on a char boundary.
                    let start = self.pos;
                    while self.peek().is_some_and(|b| b != b'"' && b != b'\\') {
                        self.pos += 1;
                    }
                    out.push_str(&self.src[start..self.pos]);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = &self.src[start..self.pos];
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|e| self.err(e.to_string()))
        } else {
            // Integers beyond both `i64` and `u64` degrade to float like
            // serde_json's arbitrary-precision-off behaviour.
            text.parse::<i64>()
                .map(Value::Int)
                .or_else(|_| text.parse::<u64>().map(Value::UInt))
                .or_else(|_| text.parse::<f64>().map(Value::Float))
                .map_err(|e| self.err(e.to_string()))
        }
    }
}

/// Compact single-line rendering (`value.to_string()`).
impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        f.write_str(&out)
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
