//! The pull reader: one pass over JSON text, one value at a time.
//!
//! [`Reader`] is the crate's one lexer. [`Value::parse`] builds a tree
//! with it, and every typed decode in [`wire`](crate::wire) reads
//! straight from it, so a wire document never becomes a tree: a key is
//! compared where it lies in the text, a string without escapes is
//! borrowed (or copied as one run), and a value nobody asked for is
//! skipped. Whichever way a document is read, a syntax error is the
//! first broken byte, at its offset, with the same message.

use crate::{ParseError, Value, MAX_DEPTH};
use std::borrow::Cow;

/// What the next value is, judged by its first byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Null,
    Bool,
    Num,
    Str,
    Arr,
    Obj,
}

/// Where one key of an object and its value lie, so both can be read
/// again (see [`Reader::reread`]).
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    key: usize,
    value: usize,
}

/// A cursor over JSON text. Every value-level call skips whitespace
/// first; a syntax error leaves the reader unusable.
///
/// Objects are read as `begin_object`, then `next_key` until it answers
/// `None`, reading or skipping each key's value in between; arrays as
/// `begin_array`, then `next_item` until it answers `false`.
#[derive(Debug)]
pub struct Reader<'a> {
    src: &'a str,
    pos: usize,
    depth: usize,
    /// True between opening a container and asking for its first entry.
    fresh: bool,
    /// Offset of the opening quote of the key `next_key` read last.
    key_at: usize,
}

impl<'a> Reader<'a> {
    pub fn new(src: &'a str) -> Reader<'a> {
        Reader {
            src,
            pos: 0,
            depth: 0,
            fresh: false,
            key_at: 0,
        }
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.into(),
        }
    }

    #[inline]
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    #[inline]
    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    #[inline]
    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    /// The kind of the next value; an error when no value starts there.
    pub fn kind(&mut self) -> Result<Kind, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => Ok(Kind::Obj),
            Some(b'[') => Ok(Kind::Arr),
            Some(b'"') => Ok(Kind::Str),
            Some(b't' | b'f') => Ok(Kind::Bool),
            Some(b'n') => Ok(Kind::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => Ok(Kind::Num),
            Some(c) => Err(self.err(format!("unexpected {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Checks that only whitespace follows the document.
    pub fn end(&mut self) -> Result<(), ParseError> {
        self.skip_ws();
        if self.pos == self.src.len() {
            Ok(())
        } else {
            Err(self.err("trailing garbage"))
        }
    }

    fn open(&mut self, bracket: u8) -> Result<(), ParseError> {
        self.skip_ws();
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.expect(bracket)?;
        self.depth += 1;
        self.fresh = true;
        Ok(())
    }

    /// Whether the open container has another entry: steps over the
    /// `,` before it, or over the `close` bracket that ends it.
    fn more(&mut self, close: u8, after: &'static str) -> Result<bool, ParseError> {
        self.skip_ws();
        if std::mem::take(&mut self.fresh) {
            if self.peek() != Some(close) {
                return Ok(true);
            }
        } else {
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                    return Ok(true);
                }
                Some(c) if c == close => {}
                _ => return Err(self.err(after)),
            }
        }
        self.pos += 1;
        self.depth -= 1;
        Ok(false)
    }

    /// Enters an object.
    pub fn begin_object(&mut self) -> Result<(), ParseError> {
        self.open(b'{')
    }

    /// The open object's next key, with the reader at its value; `None`
    /// past the closing brace.
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, ParseError> {
        if !self.more(b'}', "expected ',' or '}'")? {
            return Ok(None);
        }
        self.skip_ws();
        self.key_at = self.pos;
        let key = self.str()?;
        self.skip_ws();
        self.expect(b':')?;
        Ok(Some(key))
    }

    /// Enters an array.
    pub fn begin_array(&mut self) -> Result<(), ParseError> {
        self.open(b'[')
    }

    /// True with the reader at the open array's next element; false
    /// past the closing bracket.
    pub fn next_item(&mut self) -> Result<bool, ParseError> {
        self.more(b']', "expected ',' or ']'")
    }

    /// Where the key `next_key` just read and its value lie. Taken before
    /// the value is read or skipped.
    #[inline]
    pub fn mark(&self) -> Mark {
        Mark {
            key: self.key_at,
            value: self.pos,
        }
    }

    /// Reads the key at `mark` and hands it to `f` with the reader at its
    /// value, then puts the reader back where it was. The value has been
    /// read or skipped once already, so it is known to be well formed.
    pub fn reread<T>(
        &mut self,
        mark: Mark,
        f: impl FnOnce(&str, &mut Reader<'a>) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        let (pos, key_at) = (self.pos, self.key_at);
        self.pos = mark.key;
        let key = self.str()?;
        self.pos = mark.value;
        let out = f(&key, self);
        (self.pos, self.key_at) = (pos, key_at);
        out
    }

    /// A string. One without escapes is borrowed from the input.
    pub fn str(&mut self) -> Result<Cow<'a, str>, ParseError> {
        self.skip_ws();
        self.expect(b'"')?;
        let start = self.pos;
        self.run();
        match self.peek() {
            Some(b'"') => {
                self.pos += 1;
                Ok(Cow::Borrowed(&self.src[start..self.pos - 1]))
            }
            Some(_) => {
                let mut out = self.src[start..self.pos].to_string();
                self.escaped(&mut out)?;
                Ok(Cow::Owned(out))
            }
            None => Err(self.err("unterminated string")),
        }
    }

    /// Steps over the run of string bytes up to the next quote or escape
    /// (or the end of the input). Both are ASCII, so the run ends on a
    /// char boundary.
    #[inline]
    fn run(&mut self) {
        let rest = &self.src.as_bytes()[self.pos..];
        self.pos += rest
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .unwrap_or(rest.len());
    }

    /// The rest of a string, from an escape on, appended to `out`.
    fn escaped(&mut self, out: &mut String) -> Result<(), ParseError> {
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(());
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
                            if self.src.len() < self.pos + 5 {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let code = self
                                .hex4(self.pos + 1)
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            out.push(self.scalar_of(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    let start = self.pos;
                    self.run();
                    out.push_str(&self.src[start..self.pos]);
                }
            }
        }
    }

    /// The four hex digits at `at`, if that is what is there.
    fn hex4(&self, at: usize) -> Option<u32> {
        let hex = self.src.as_bytes().get(at..at + 4)?;
        hex.iter()
            .try_fold(0, |code, &b| Some(code << 4 | char::from(b).to_digit(16)?))
    }

    /// The scalar a `\uXXXX` escape ending at `self.pos` stands for. A
    /// high surrogate directly followed by an escaped low one is half of
    /// a UTF-16 pair: both escapes make one scalar, and `self.pos` moves
    /// to the end of the second. A surrogate without its partner is not
    /// a scalar.
    fn scalar_of(&mut self, code: u32) -> Option<char> {
        if (0xd800..0xdc00).contains(&code)
            && self.src.as_bytes().get(self.pos + 1..self.pos + 3) == Some(&b"\\u"[..])
        {
            if let Some(low @ 0xdc00..=0xdfff) = self.hex4(self.pos + 3) {
                self.pos += 6;
                return char::from_u32(0x1_0000 + ((code - 0xd800) << 10) + (low - 0xdc00));
            }
        }
        char::from_u32(code)
    }

    /// A number, held the way [`Value`] holds it: `Int` when `i64` can,
    /// `UInt` above that, `Float` for a fraction, an exponent, or an
    /// integer past `u64`.
    pub fn number(&mut self) -> Result<Value, ParseError> {
        self.skip_ws();
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        self.digits();
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            self.digits();
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits();
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

    #[inline]
    fn digits(&mut self) {
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
    }

    fn keyword(&mut self, word: &str) -> Result<(), ParseError> {
        self.skip_ws();
        if self.src.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.err("bad literal"))
        }
    }

    /// `true` or `false`.
    pub fn bool(&mut self) -> Result<bool, ParseError> {
        self.skip_ws();
        let word = self.peek() == Some(b't');
        self.keyword(if word { "true" } else { "false" })?;
        Ok(word)
    }

    /// `null`.
    pub fn null(&mut self) -> Result<(), ParseError> {
        self.keyword("null")
    }

    /// Steps over the next value, checking it as closely as reading it
    /// would.
    pub fn skip_value(&mut self) -> Result<(), ParseError> {
        match self.kind()? {
            Kind::Obj => {
                self.begin_object()?;
                while self.next_key()?.is_some() {
                    self.skip_value()?;
                }
            }
            Kind::Arr => {
                self.begin_array()?;
                while self.next_item()? {
                    self.skip_value()?;
                }
            }
            Kind::Str => drop(self.str()?),
            Kind::Num => drop(self.number()?),
            Kind::Bool => drop(self.bool()?),
            Kind::Null => self.null()?,
        }
        Ok(())
    }

    /// The next value as a tree.
    pub fn value(&mut self) -> Result<Value, ParseError> {
        Ok(match self.kind()? {
            Kind::Obj => {
                self.begin_object()?;
                let mut fields = Vec::new();
                while let Some(key) = self.next_key()? {
                    fields.push((key.into_owned(), self.value()?));
                }
                Value::Obj(fields)
            }
            Kind::Arr => {
                self.begin_array()?;
                let mut items = Vec::new();
                while self.next_item()? {
                    items.push(self.value()?);
                }
                Value::Arr(items)
            }
            Kind::Str => Value::Str(self.str()?.into_owned()),
            Kind::Num => self.number()?,
            Kind::Bool => Value::Bool(self.bool()?),
            Kind::Null => {
                self.null()?;
                Value::Null
            }
        })
    }
}
