//! The one option grammar behind `escape` and `escaped`.
//!
//! Every subcommand walks its argument list with the same cursor: take
//! the next word, and if it is a flag the subcommand knows, take the
//! flag's value from the cursor — raw ([`Args::value`]) or typed
//! ([`Args::parsed`]). The cursor remembers which flag it last handed
//! out, so the `--x needs a value` / `bad x` messages are spelled here
//! and nowhere else. The value syntaxes more than one subcommand accepts
//! (`--steering`, colon-separated specs such as
//! `FROM:TO:COUNT[:LEN[:US]]`, the default socket) are parsed here too.
//!
//! A subcommand's options are therefore one `match` inside one
//! `while let Some(word) = args.next()` — a plain declaration, no
//! registry or builder behind it.

use escape_pox::SteeringMode;
use std::process::ExitCode;
use std::str::FromStr;

/// Socket `escaped` listens on, and `escape ctl` / `escape top` dial,
/// when `--socket` is not given.
pub const DEFAULT_SOCKET: &str = "escaped.sock";

/// How every subcommand ends: 0, or the failure on stderr and 1.
pub fn exit(result: Result<(), String>) -> ExitCode {
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A cursor over one subcommand's arguments.
pub struct Args {
    words: std::vec::IntoIter<String>,
    /// The word [`Args::next`] handed out last.
    flag: String,
}

impl Args {
    pub fn new(words: Vec<String>) -> Args {
        Args {
            words: words.into_iter(),
            flag: String::new(),
        }
    }

    /// The value of the flag just taken.
    pub fn value(&mut self) -> Result<String, String> {
        self.words
            .next()
            .ok_or_else(|| format!("{} needs a value", self.flag))
    }

    /// The value of the flag just taken, parsed; `what` names it in the
    /// `bad <what>` message.
    pub fn parsed<T: FromStr>(&mut self, what: &str) -> Result<T, String> {
        self.value()?.parse().map_err(|_| format!("bad {what}"))
    }
}

/// The next word, flag or positional.
impl Iterator for Args {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        self.flag = self.words.next()?;
        Some(self.flag.clone())
    }
}

/// `--steering proactive|reactive`.
pub fn steering(mode: &str) -> Result<SteeringMode, String> {
    match mode {
        "proactive" => Ok(SteeringMode::Proactive),
        "reactive" => Ok(SteeringMode::Reactive),
        other => Err(format!("unknown steering mode {other:?}")),
    }
}

/// The fields of a colon-separated spec.
pub fn fields(spec: &str) -> Vec<&str> {
    spec.split(':').collect()
}

/// Field `i` of a colon-separated spec, or `default` when the spec stops
/// short of it; `what` names the field in the `bad <what> in <spec>`
/// message.
pub fn field<T: FromStr>(spec: &str, i: usize, default: T, what: &str) -> Result<T, String> {
    let parsed = fields(spec).get(i).map_or(Ok(default), |s| s.parse());
    parsed.map_err(|_| format!("bad {what} in {spec:?}"))
}

/// One UDP stream: `(from, to, frames, frame length, interval in µs)`.
pub type Flow = (String, String, u64, u64, u64);

/// Parses `FROM:TO:COUNT[:LEN[:INTERVAL_US]]`; `what` names the flag or
/// verb the spec came from.
pub fn flow(spec: &str, what: &str) -> Result<Flow, String> {
    let ends = fields(spec);
    if ends.len() < 3 {
        return Err(format!("{what} {spec:?}: need FROM:TO:COUNT"));
    }
    let count = field(spec, 2, 0, "count")?;
    let len = field(spec, 3, 128, "len")?;
    let interval_us = field(spec, 4, 200, "interval")?;
    Ok((ends[0].into(), ends[1].into(), count, len, interval_us))
}
