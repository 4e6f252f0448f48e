//! The standard element library: the push elements the VNF catalog's
//! templates are built from, plus `Tee`.
//!
//! Organized by concern:
//! * [`basic`] — device endpoints, counters, tees, discard
//! * [`classify`] — the IP header expressions `IPFilter` rules match on
//! * [`headers`] — header surgery: TTL, DSCP, header checks
//! * [`security`] — `IPFilter` (firewall) and `StringMatcher` (DPI)
//! * [`nat`] — the stateful `IPRewriter`
//! * [`shaping`] — bandwidth/delay shapers and random sampling
//! * [`balance`] — flow-hash load spreading

pub mod balance;
pub mod basic;
pub mod classify;
pub mod headers;
pub mod nat;
pub mod security;
pub mod shaping;

use crate::registry::Registry;

/// Registers every standard element class.
pub fn install_standard(r: &mut Registry) {
    basic::install(r);
    headers::install(r);
    security::install(r);
    nat::install(r);
    shaping::install(r);
    balance::install(r);
}

/// Shared argument parsing helpers for element factories.
pub(crate) mod args {
    /// Parses args[idx] as T, with a default when absent.
    pub fn opt<T: std::str::FromStr>(args: &[String], idx: usize, default: T) -> Result<T, String> {
        match args.get(idx) {
            None => Ok(default),
            Some(s) if s.is_empty() => Ok(default),
            Some(s) => s
                .parse()
                .map_err(|_| format!("bad argument {:?} at position {}", s, idx)),
        }
    }

    /// Parses required args[idx] as T.
    pub fn req<T: std::str::FromStr>(args: &[String], idx: usize, what: &str) -> Result<T, String> {
        args.get(idx)
            .ok_or_else(|| format!("missing argument {idx}: {what}"))?
            .parse()
            .map_err(|_| format!("bad {what}: {:?}", args[idx]))
    }

    /// Rejects extra arguments.
    pub fn max(args: &[String], n: usize) -> Result<(), String> {
        if args.len() > n {
            Err(format!(
                "expected at most {n} arguments, got {}",
                args.len()
            ))
        } else {
            Ok(())
        }
    }
}
