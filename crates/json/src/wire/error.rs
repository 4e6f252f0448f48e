//! The two ways a typed decode fails: text that is not JSON, and JSON
//! of the wrong shape.

use crate::ParseError;

/// A document of the wrong shape: what is wrong and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Path from the document root to the offending value, e.g.
    /// `events[3].loss`; empty when the root itself is wrong.
    pub path: String,
    pub message: String,
}

impl WireError {
    pub fn new(message: impl Into<String>) -> WireError {
        WireError {
            path: String::new(),
            message: message.into(),
        }
    }

    fn under(mut self, step: std::fmt::Arguments<'_>) -> WireError {
        let dot = if self.path.is_empty() || self.path.starts_with('[') {
            ""
        } else {
            "."
        };
        self.path = format!("{step}{dot}{}", self.path);
        self
    }

    /// The error, seen from the object whose field `key` it is in.
    pub fn in_field(self, key: &str) -> WireError {
        self.under(format_args!("{key}"))
    }

    /// The error, seen from the array whose element `index` it is in.
    pub fn in_item(self, index: usize) -> WireError {
        self.under(format_args!("[{index}]"))
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.path.is_empty() {
            f.write_str(&self.message)
        } else {
            write!(f, "{}: {}", self.path, self.message)
        }
    }
}

impl std::error::Error for WireError {}

impl From<WireError> for String {
    fn from(e: WireError) -> String {
        e.to_string()
    }
}

/// Why a typed decode failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The text is not JSON. Reported over any shape error, wherever in
    /// the text each lies.
    Syntax(ParseError),
    /// JSON, but not of the type's shape.
    Shape(WireError),
}

impl From<ParseError> for DecodeError {
    fn from(e: ParseError) -> DecodeError {
        DecodeError::Syntax(e)
    }
}

impl From<WireError> for DecodeError {
    fn from(e: WireError) -> DecodeError {
        DecodeError::Shape(e)
    }
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Syntax(e) => e.fmt(f),
            DecodeError::Shape(e) => e.fmt(f),
        }
    }
}

impl From<DecodeError> for String {
    fn from(e: DecodeError) -> String {
        e.to_string()
    }
}
