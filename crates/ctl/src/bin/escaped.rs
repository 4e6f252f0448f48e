//! `escaped`: the long-running ESCAPE-RS daemon.
//!
//! Builds one live environment (topology + mapping algorithm + seed),
//! then serves the typed control protocol on a unix socket until a
//! `shutdown` verb or SIGINT/SIGTERM arrives. Drive it with
//! `escape ctl <verb>`. See `escape-ctl`'s crate docs for the protocol
//! and DESIGN.md §12 for the architecture.

use std::process::ExitCode;

fn main() -> ExitCode {
    escape_ctl::launch::main(std::env::args().skip(1).collect())
}
