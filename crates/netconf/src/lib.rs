//! # escape-netconf
//!
//! A NETCONF (RFC 6241 subset) implementation — the OpenYuma role in
//! ESCAPE-RS.
//!
//! The paper manages VNF containers through NETCONF: an agent per
//! container exposes RPCs described in YANG (ESCAPE's `vnf_starter`
//! module) and the orchestrator drives them as a NETCONF client. This
//! crate reimplements that stack from scratch:
//!
//! * [`xml`] — a small, strict XML reader/writer (the only consumer is
//!   NETCONF itself, so namespaces are carried as plain attributes);
//! * [`framing`] — NETCONF 1.0 end-of-message framing (`]]>]]>`);
//! * [`message`] — `<hello>`, `<rpc>`, `<rpc-reply>`, `<rpc-error>`
//!   envelopes;
//! * [`yang`] — a YANG-lite schema model that validates RPC input;
//! * [`vnf_starter`] — the `vnf_starter` module: its six RPC names and
//!   their input schema;
//! * [`agent`] — the server side: a **sans-IO** session state machine
//!   (bytes in → bytes out) serving the hello exchange, `close-session`
//!   and the `vnf_starter` RPCs, which it dispatches into a pluggable
//!   [`agent::VnfInstrumentation`] — mirroring the paper's note that
//!   porting to real platforms only requires swapping the
//!   instrumentation. Every other operation is answered
//!   `operation-not-supported`: the orchestrator manages a container
//!   through `vnf_starter` alone, so there is no configuration datastore;
//! * [`client`] — the orchestrator-side client with typed wrappers for
//!   every `vnf_starter` RPC;
//! * [`retry`] — deterministic exponential-backoff schedules (with cap
//!   and seeded jitter) for driving RPC retries in virtual time.

pub mod agent;
pub mod client;
pub mod framing;
pub mod message;
pub mod retry;
pub mod vnf_starter;
pub mod xml;
pub mod yang;

pub use agent::{Agent, VnfInstrumentation};
pub use client::{Client, ClientEvent};
pub use framing::Framer;
pub use message::{NetconfError, Rpc, RpcReply};
pub use retry::RetryPolicy;
pub use xml::XmlElement;
