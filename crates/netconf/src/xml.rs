//! A minimal XML document model: parse, build, serialize.
//!
//! NETCONF payloads are machine-generated and well-formed, so this reader
//! supports exactly what NETCONF needs — elements, attributes, text
//! content, entity escaping, self-closing tags — and rejects everything
//! else (no DTDs, no processing instructions besides an optional leading
//! `<?xml ...?>`, no CDATA).

/// An XML element: name, attributes, text and child elements.
///
/// Mixed content is not modelled: an element holds either text or
/// children (text is ignored once children exist), which NETCONF never
/// violates.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct XmlElement {
    pub name: String,
    pub attrs: Vec<(String, String)>,
    pub children: Vec<XmlElement>,
    pub text: String,
}

/// XML parse error with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlError {
    pub pos: usize,
    pub message: String,
}

impl std::fmt::Display for XmlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "XML error at byte {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for XmlError {}

impl XmlElement {
    /// An element with no content.
    pub fn new(name: impl Into<String>) -> XmlElement {
        XmlElement {
            name: name.into(),
            ..Default::default()
        }
    }

    /// An element holding text.
    pub fn text_node(name: impl Into<String>, text: impl Into<String>) -> XmlElement {
        XmlElement {
            name: name.into(),
            text: text.into(),
            ..Default::default()
        }
    }

    /// Builder: adds an attribute.
    pub fn attr(mut self, k: impl Into<String>, v: impl Into<String>) -> XmlElement {
        self.attrs.push((k.into(), v.into()));
        self
    }

    /// Builder: adds a child.
    pub fn child(mut self, c: XmlElement) -> XmlElement {
        self.children.push(c);
        self
    }

    /// First child with the given name.
    pub fn find(&self, name: &str) -> Option<&XmlElement> {
        self.children.iter().find(|c| c.name == name)
    }

    /// All children with the given name.
    pub fn find_all<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a XmlElement> {
        self.children.iter().filter(move |c| c.name == name)
    }

    /// Text of the first child with the given name.
    pub fn child_text(&self, name: &str) -> Option<&str> {
        self.find(name).map(|c| c.text.as_str())
    }

    /// Attribute value by name.
    pub fn get_attr(&self, name: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Serializes to a compact XML string.
    pub fn to_xml(&self) -> String {
        let mut s = String::new();
        self.write(&mut s);
        s
    }

    fn write(&self, out: &mut String) {
        out.push('<');
        out.push_str(&self.name);
        for (k, v) in &self.attrs {
            out.push(' ');
            out.push_str(k);
            out.push_str("=\"");
            escape_into(v, out);
            out.push('"');
        }
        if self.children.is_empty() && self.text.is_empty() {
            out.push_str("/>");
            return;
        }
        out.push('>');
        if self.children.is_empty() {
            escape_into(&self.text, out);
        } else {
            for c in &self.children {
                c.write(out);
            }
        }
        out.push_str("</");
        out.push_str(&self.name);
        out.push('>');
    }

    /// Parses a document, returning its root element. A leading
    /// `<?xml ...?>` declaration is allowed and skipped.
    pub fn parse(src: &str) -> Result<XmlElement, XmlError> {
        let mut p = Parser {
            b: src.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        p.skip_decl()?;
        p.skip_ws();
        let root = p.element()?;
        p.skip_ws();
        if p.pos != p.b.len() {
            return Err(p.err("trailing content after root element"));
        }
        Ok(root)
    }
}

/// Escapes text for XML content or attribute values.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(s, &mut out);
    out
}

fn escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            other => out.push(other),
        }
    }
}

fn unescape(s: &str, at: usize) -> Result<String, XmlError> {
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(i) = rest.find('&') {
        out.push_str(&rest[..i]);
        rest = &rest[i..];
        let semi = rest.find(';').ok_or(XmlError {
            pos: at,
            message: "unterminated entity".into(),
        })?;
        match &rest[..=semi] {
            "&amp;" => out.push('&'),
            "&lt;" => out.push('<'),
            "&gt;" => out.push('>'),
            "&quot;" => out.push('"'),
            "&apos;" => out.push('\''),
            other => {
                return Err(XmlError {
                    pos: at,
                    message: format!("unknown entity {other}"),
                })
            }
        }
        rest = &rest[semi + 1..];
    }
    out.push_str(rest);
    Ok(out)
}

struct Parser<'a> {
    b: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, m: impl Into<String>) -> XmlError {
        XmlError {
            pos: self.pos,
            message: m.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(c) if c.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn skip_decl(&mut self) -> Result<(), XmlError> {
        if self.b[self.pos..].starts_with(b"<?xml") {
            match self.b[self.pos..].windows(2).position(|w| w == b"?>") {
                Some(i) => self.pos += i + 2,
                None => return Err(self.err("unterminated XML declaration")),
            }
        }
        Ok(())
    }

    fn name(&mut self) -> Result<String, XmlError> {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b':' | b'.'))
        {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected name"));
        }
        Ok(std::str::from_utf8(&self.b[start..self.pos])
            .expect("the name scanner accepts only ASCII bytes")
            .to_string())
    }

    fn element(&mut self) -> Result<XmlElement, XmlError> {
        if self.peek() != Some(b'<') {
            return Err(self.err("expected '<'"));
        }
        self.pos += 1;
        let name = self.name()?;
        let mut el = XmlElement::new(name);
        // Attributes.
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'/') => {
                    self.pos += 1;
                    if self.peek() != Some(b'>') {
                        return Err(self.err("expected '>' after '/'"));
                    }
                    self.pos += 1;
                    return Ok(el);
                }
                Some(b'>') => {
                    self.pos += 1;
                    break;
                }
                Some(_) => {
                    let k = self.name()?;
                    self.skip_ws();
                    if self.peek() != Some(b'=') {
                        return Err(self.err("expected '=' in attribute"));
                    }
                    self.pos += 1;
                    self.skip_ws();
                    let quote = self.peek().ok_or_else(|| self.err("eof in attribute"))?;
                    if quote != b'"' && quote != b'\'' {
                        return Err(self.err("expected quoted attribute value"));
                    }
                    self.pos += 1;
                    let start = self.pos;
                    while self.peek().is_some_and(|c| c != quote) {
                        self.pos += 1;
                    }
                    if self.peek().is_none() {
                        return Err(self.err("unterminated attribute value"));
                    }
                    let raw = std::str::from_utf8(&self.b[start..self.pos])
                        .map_err(|_| self.err("attribute not UTF-8"))?;
                    let v = unescape(raw, start)?;
                    self.pos += 1;
                    el.attrs.push((k, v));
                }
                None => return Err(self.err("eof in tag")),
            }
        }
        // Content: text and/or children until the close tag.
        let mut text = String::new();
        loop {
            match self.peek() {
                Some(b'<') => {
                    if self.b[self.pos..].starts_with(b"</") {
                        self.pos += 2;
                        let close = self.name()?;
                        if close != el.name {
                            return Err(self.err(format!(
                                "mismatched close tag: expected </{}>, got </{close}>",
                                el.name
                            )));
                        }
                        self.skip_ws();
                        if self.peek() != Some(b'>') {
                            return Err(self.err("expected '>' in close tag"));
                        }
                        self.pos += 1;
                        if el.children.is_empty() {
                            el.text = text.trim().to_string();
                        }
                        return Ok(el);
                    }
                    if self.b[self.pos..].starts_with(b"<!--") {
                        match self.b[self.pos..].windows(3).position(|w| w == b"-->") {
                            Some(i) => self.pos += i + 3,
                            None => return Err(self.err("unterminated comment")),
                        }
                        continue;
                    }
                    el.children.push(self.element()?);
                }
                Some(_) => {
                    let start = self.pos;
                    while self.peek().is_some_and(|c| c != b'<') {
                        self.pos += 1;
                    }
                    let raw = std::str::from_utf8(&self.b[start..self.pos])
                        .map_err(|_| self.err("text not UTF-8"))?;
                    text.push_str(&unescape(raw, start)?);
                }
                None => return Err(self.err(format!("eof inside <{}>", el.name))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_serialize() {
        let el = XmlElement::new("rpc")
            .attr("message-id", "101")
            .child(XmlElement::new("get"))
            .child(XmlElement::text_node("note", "a<b"));
        assert_eq!(
            el.to_xml(),
            r#"<rpc message-id="101"><get/><note>a&lt;b</note></rpc>"#
        );
    }

    #[test]
    fn parse_roundtrip() {
        let src = r#"<hello xmlns="urn:ietf:params:xml:ns:netconf:base:1.0"><capabilities><capability>urn:x</capability></capabilities><session-id>4</session-id></hello>"#;
        let el = XmlElement::parse(src).unwrap();
        assert_eq!(el.name, "hello");
        assert_eq!(
            el.get_attr("xmlns").unwrap(),
            "urn:ietf:params:xml:ns:netconf:base:1.0"
        );
        assert_eq!(
            el.find("capabilities")
                .unwrap()
                .find_all("capability")
                .count(),
            1
        );
        assert_eq!(el.child_text("session-id"), Some("4"));
        assert_eq!(XmlElement::parse(&el.to_xml()).unwrap(), el);
    }

    #[test]
    fn entities_roundtrip() {
        let el = XmlElement::text_node("t", r#"<>&"' and text"#).attr("a", "x&y");
        let back = XmlElement::parse(&el.to_xml()).unwrap();
        assert_eq!(back, el);
    }

    #[test]
    fn self_closing_and_decl() {
        let el = XmlElement::parse("<?xml version=\"1.0\"?>\n<a><b/><c x='1'/></a>").unwrap();
        assert_eq!(el.children.len(), 2);
        assert_eq!(el.find("c").unwrap().get_attr("x"), Some("1"));
    }

    #[test]
    fn comments_are_skipped() {
        let el = XmlElement::parse("<a><!-- hi --><b/></a>").unwrap();
        assert_eq!(el.children.len(), 1);
    }

    #[test]
    fn whitespace_around_text_is_trimmed() {
        let el = XmlElement::parse("<a>\n  hello\n</a>").unwrap();
        assert_eq!(el.text, "hello");
    }

    #[test]
    fn errors_are_reported() {
        assert!(XmlElement::parse("<a><b></a>").is_err()); // mismatched
        assert!(XmlElement::parse("<a>").is_err()); // unterminated
        assert!(XmlElement::parse("<a x=1/>").is_err()); // unquoted attr
        assert!(XmlElement::parse("<a/><b/>").is_err()); // two roots
        assert!(XmlElement::parse("<a>&bogus;</a>").is_err()); // bad entity
        assert!(XmlElement::parse("").is_err());
    }

    #[test]
    fn error_display_has_position() {
        let e = XmlElement::parse("<a x=1/>").unwrap_err();
        assert!(e.to_string().contains("byte"));
    }
}
