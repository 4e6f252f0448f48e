//! The Click configuration language.
//!
//! Supported syntax (the subset real-world simple configs use, which is
//! what ESCAPE's VNF catalog needs):
//!
//! ```text
//! // comment        /* block comment */
//! src :: FromDevice(0);          // declaration
//! cnt :: Counter;                // declaration without arguments
//! src -> cnt -> ToDevice(0);     // chain with an anonymous element
//! cls [1] -> [0] q;              // explicit output and input ports
//! ```
//!
//! Rules, matching Click:
//! * `name :: Class(args)` declares an element; arguments are split on
//!   top-level commas (quotes and nested parentheses are respected);
//! * in a connection chain, `[n]` *after* an element selects its output
//!   port and `[n]` *before* an element selects its input port (default 0);
//! * a chain may instantiate elements inline — `Class(args)` or a bare
//!   capitalized class name — which get generated names `Class@k`;
//! * every output port must be connected exactly once.

/// A parse or elaboration error, with a 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    pub line: usize,
    pub message: String,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "config error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ConfigError {}

/// A declared element instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decl {
    pub name: String,
    pub class: String,
    pub args: Vec<String>,
    pub line: usize,
}

/// A directed connection between element ports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Conn {
    pub from: String,
    pub from_port: usize,
    pub to: String,
    pub to_port: usize,
    pub line: usize,
}

/// The result of parsing: declarations (including generated anonymous
/// ones) plus connections.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParsedConfig {
    pub decls: Vec<Decl>,
    pub conns: Vec<Conn>,
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Num(usize),
    Args(Vec<String>), // parenthesized argument list
    ColonColon,
    Arrow,
    LBracket,
    RBracket,
    Semi,
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: usize,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            src: src.as_bytes(),
            pos: 0,
            line: 1,
        }
    }

    fn err(&self, message: impl Into<String>) -> ConfigError {
        ConfigError {
            line: self.line,
            message: message.into(),
        }
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.src.get(self.pos).copied();
        if c == Some(b'\n') {
            self.line += 1;
        }
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.pos + 1).copied()
    }

    fn skip_trivia(&mut self) -> Result<(), ConfigError> {
        loop {
            match self.peek() {
                Some(c) if c.is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b'/') if self.peek2() == Some(b'/') => {
                    while let Some(c) = self.bump() {
                        if c == b'\n' {
                            break;
                        }
                    }
                }
                Some(b'/') if self.peek2() == Some(b'*') => {
                    self.bump();
                    self.bump();
                    loop {
                        match self.bump() {
                            Some(b'*') if self.peek() == Some(b'/') => {
                                self.bump();
                                break;
                            }
                            Some(_) => {}
                            None => return Err(self.err("unterminated block comment")),
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    /// Reads a balanced parenthesized argument list, starting after `(`.
    /// Splits on top-level commas; respects quotes and nesting.
    fn read_args(&mut self) -> Result<Vec<String>, ConfigError> {
        let mut args = Vec::new();
        let mut cur = String::new();
        let mut depth = 1usize;
        let mut in_quote = false;
        loop {
            let Some(c) = self.bump() else {
                return Err(self.err("unterminated argument list"));
            };
            match c {
                b'"' => {
                    in_quote = !in_quote;
                    cur.push('"');
                }
                b'(' if !in_quote => {
                    depth += 1;
                    cur.push('(');
                }
                b')' if !in_quote => {
                    depth -= 1;
                    if depth == 0 {
                        let t = cur.trim().to_string();
                        if !t.is_empty() || !args.is_empty() {
                            args.push(t);
                        }
                        // An empty "()" yields no arguments at all.
                        if args.len() == 1 && args[0].is_empty() {
                            args.clear();
                        }
                        return Ok(args);
                    }
                    cur.push(')');
                }
                b',' if !in_quote && depth == 1 => {
                    args.push(cur.trim().to_string());
                    cur.clear();
                }
                _ => cur.push(c as char),
            }
        }
    }

    fn next_tok(&mut self) -> Result<Option<(Tok, usize)>, ConfigError> {
        self.skip_trivia()?;
        let line = self.line;
        let Some(c) = self.peek() else {
            return Ok(None);
        };
        let tok = match c {
            b':' if self.peek2() == Some(b':') => {
                self.bump();
                self.bump();
                Tok::ColonColon
            }
            b'-' if self.peek2() == Some(b'>') => {
                self.bump();
                self.bump();
                Tok::Arrow
            }
            b'[' => {
                self.bump();
                Tok::LBracket
            }
            b']' => {
                self.bump();
                Tok::RBracket
            }
            b';' => {
                self.bump();
                Tok::Semi
            }
            b'(' => {
                self.bump();
                Tok::Args(self.read_args()?)
            }
            b'0'..=b'9' => {
                let mut n = 0usize;
                while let Some(d) = self.peek() {
                    if d.is_ascii_digit() {
                        n = n * 10 + (d - b'0') as usize;
                        self.bump();
                    } else {
                        break;
                    }
                }
                Tok::Num(n)
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let mut s = String::new();
                while let Some(d) = self.peek() {
                    if d.is_ascii_alphanumeric() || d == b'_' || d == b'@' {
                        s.push(d as char);
                        self.bump();
                    } else {
                        break;
                    }
                }
                Tok::Ident(s)
            }
            other => return Err(self.err(format!("unexpected character {:?}", other as char))),
        };
        Ok(Some((tok, line)))
    }
}

/// One endpoint of a connection as written in the source.
struct Endpoint {
    in_port: usize,
    name: String,
    out_port: usize,
}

struct Parser {
    toks: Vec<(Tok, usize)>,
    pos: usize,
    cfg: ParsedConfig,
    anon_counter: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(t, _)| t)
    }

    fn line(&self) -> usize {
        self.toks
            .get(self.pos.min(self.toks.len().saturating_sub(1)))
            .map(|(_, l)| *l)
            .unwrap_or(1)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|(t, _)| t.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, message: impl Into<String>) -> ConfigError {
        ConfigError {
            line: self.line(),
            message: message.into(),
        }
    }

    fn is_declared(&self, name: &str) -> bool {
        self.cfg.decls.iter().any(|d| d.name == name)
    }

    /// Parses one endpoint; declares anonymous/inline elements as needed.
    fn endpoint(&mut self) -> Result<Endpoint, ConfigError> {
        let line = self.line();
        let mut in_port = 0usize;
        if matches!(self.peek(), Some(Tok::LBracket)) {
            self.bump();
            let Some(Tok::Num(n)) = self.bump() else {
                return Err(self.err("expected port number after '['"));
            };
            let Some(Tok::RBracket) = self.bump() else {
                return Err(self.err("expected ']'"));
            };
            in_port = n;
        }
        let Some(Tok::Ident(first)) = self.bump() else {
            return Err(self.err("expected element name or class"));
        };
        let name;
        // `first :: Class(args)` inline declaration?
        if matches!(self.peek(), Some(Tok::ColonColon)) {
            self.bump();
            let Some(Tok::Ident(class)) = self.bump() else {
                return Err(self.err("expected class name after '::'"));
            };
            let args = if let Some(Tok::Args(_)) = self.peek() {
                match self.bump() {
                    Some(Tok::Args(a)) => a,
                    _ => unreachable!(),
                }
            } else {
                Vec::new()
            };
            if self.is_declared(&first) {
                return Err(self.err(format!("duplicate element name '{first}'")));
            }
            self.cfg.decls.push(Decl {
                name: first.clone(),
                class,
                args,
                line,
            });
            name = first;
        } else if let Some(Tok::Args(_)) = self.peek() {
            // Anonymous `Class(args)`.
            let args = match self.bump() {
                Some(Tok::Args(a)) => a,
                _ => unreachable!(),
            };
            let gen = format!("{}@{}", first, self.anon_counter);
            self.anon_counter += 1;
            self.cfg.decls.push(Decl {
                name: gen.clone(),
                class: first,
                args,
                line,
            });
            name = gen;
        } else if self.is_declared(&first) {
            name = first;
        } else {
            // Bare capitalized identifier: anonymous element with no args.
            let gen = format!("{}@{}", first, self.anon_counter);
            self.anon_counter += 1;
            self.cfg.decls.push(Decl {
                name: gen.clone(),
                class: first,
                args: Vec::new(),
                line,
            });
            name = gen;
        }
        let mut out_port = 0usize;
        if matches!(self.peek(), Some(Tok::LBracket)) {
            self.bump();
            let Some(Tok::Num(n)) = self.bump() else {
                return Err(self.err("expected port number after '['"));
            };
            let Some(Tok::RBracket) = self.bump() else {
                return Err(self.err("expected ']'"));
            };
            out_port = n;
        }
        Ok(Endpoint {
            in_port,
            name,
            out_port,
        })
    }

    fn statement(&mut self) -> Result<(), ConfigError> {
        let line = self.line();
        let first = self.endpoint()?;
        match self.peek() {
            Some(Tok::Semi) => {
                // Pure declaration statement.
                self.bump();
                Ok(())
            }
            Some(Tok::Arrow) => {
                let mut prev = first;
                while matches!(self.peek(), Some(Tok::Arrow)) {
                    self.bump();
                    let next = self.endpoint()?;
                    self.cfg.conns.push(Conn {
                        from: prev.name.clone(),
                        from_port: prev.out_port,
                        to: next.name.clone(),
                        to_port: next.in_port,
                        line,
                    });
                    prev = next;
                }
                match self.bump() {
                    Some(Tok::Semi) => Ok(()),
                    _ => Err(self.err("expected ';' after connection")),
                }
            }
            _ => Err(self.err("expected '->' or ';'")),
        }
    }
}

/// Parses a Click configuration into declarations and connections.
pub fn parse_config(src: &str) -> Result<ParsedConfig, ConfigError> {
    let mut lx = Lexer::new(src);
    let mut toks = Vec::new();
    while let Some(t) = lx.next_tok()? {
        toks.push(t);
    }
    let mut p = Parser {
        toks,
        pos: 0,
        cfg: ParsedConfig::default(),
        anon_counter: 0,
    };
    while p.peek().is_some() {
        p.statement()?;
    }
    Ok(p.cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declarations_and_chain() {
        let cfg = parse_config(
            "// demo\n\
             src :: FromDevice(0);\n\
             cnt :: Counter;\n\
             src -> cnt -> ToDevice(0);\n",
        )
        .unwrap();
        assert_eq!(cfg.decls.len(), 3); // src, cnt, anonymous ToDevice
        assert_eq!(cfg.decls[0].class, "FromDevice");
        assert_eq!(cfg.decls[0].args, vec!["0"]);
        assert_eq!(cfg.conns.len(), 2);
        assert_eq!(cfg.conns[0].from, "src");
        assert_eq!(cfg.conns[1].to, "ToDevice@0");
    }

    #[test]
    fn explicit_ports() {
        let cfg = parse_config(
            "c :: IPFilter(allow dst net 10.0.0.0/8, deny udp, -);\n\
             h :: HashSwitch(3);\n\
             a :: Discard; b :: Discard; d :: Discard;\n\
             h [0] -> a; h [1] -> b; h [2] -> d;\n",
        )
        .unwrap();
        assert_eq!(cfg.conns[1].from_port, 1);
        assert_eq!(cfg.conns[2].from_port, 2);
        // Args with '/' content survive as raw strings.
        assert_eq!(
            cfg.decls[0].args,
            vec!["allow dst net 10.0.0.0/8", "deny udp", "-"]
        );
    }

    #[test]
    fn input_ports_before_names() {
        let cfg = parse_config("a :: Tee(2); b :: Join2; a [0] -> [0] b; a [1] -> [1] b;").unwrap();
        assert_eq!(cfg.conns[0].to_port, 0);
        assert_eq!(cfg.conns[1].to_port, 1);
    }

    #[test]
    fn inline_declaration_in_chain() {
        let cfg =
            parse_config("FromDevice(0) -> s :: BandwidthShaper(100) -> Counter -> ToDevice(0);")
                .unwrap();
        assert!(cfg
            .decls
            .iter()
            .any(|d| d.name == "s" && d.class == "BandwidthShaper"));
        assert!(cfg.decls.iter().any(|d| d.class == "Counter"));
        assert_eq!(cfg.conns.len(), 3);
    }

    #[test]
    fn quoted_and_nested_args() {
        let cfg =
            parse_config(r#"m :: StringMatcher("attack, or not", 7); m -> Discard;"#).unwrap();
        assert_eq!(cfg.decls[0].args[0], r#""attack, or not""#);
        assert_eq!(cfg.decls[0].args[1], "7");
    }

    #[test]
    fn block_comments_are_skipped() {
        let cfg = parse_config("/* a -> b; */ x :: Discard;").unwrap();
        assert_eq!(cfg.decls.len(), 1);
        assert!(cfg.conns.is_empty());
    }

    #[test]
    fn duplicate_names_rejected() {
        let err = parse_config("a :: Discard; a :: Counter;").unwrap_err();
        assert!(err.message.contains("duplicate"));
    }

    #[test]
    fn error_carries_line_number() {
        let err = parse_config("a :: Discard;\n%%%").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn unterminated_args_rejected() {
        assert!(parse_config("a :: Foo(1, 2").is_err());
        assert!(parse_config("/* never closed").is_err());
    }

    #[test]
    fn missing_semicolon_rejected() {
        assert!(parse_config("a :: Discard").is_err());
        assert!(parse_config("a :: Discard; b :: Discard; a -> b").is_err());
    }

    #[test]
    fn empty_config_is_ok() {
        let cfg = parse_config("  \n// nothing\n").unwrap();
        assert!(cfg.decls.is_empty() && cfg.conns.is_empty());
    }

    #[test]
    fn reuse_of_declared_name_does_not_redeclare() {
        let cfg = parse_config("a :: Counter; b :: Discard; a -> b; a -> b;").unwrap();
        assert_eq!(cfg.decls.len(), 2);
        assert_eq!(cfg.conns.len(), 2);
    }
}
