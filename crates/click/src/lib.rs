//! # escape-click
//!
//! A Click modular router engine — the VNF substrate of ESCAPE-RS.
//!
//! In the paper, VNFs are Click configurations: graphs of small packet
//! processing elements wired together by the Click language and managed
//! through read/write handlers. This crate reimplements that model:
//!
//! * the [`element::Element`] trait: push ports, handlers, timed wake-ups
//!   for elements that hold packets back, and a per-packet CPU cost (fed
//!   into the emulator's cgroup model);
//! * the Click configuration language ([`lang`]): `name :: Class(args);`
//!   declarations, `a [1] -> [0] b` connections with implicit ports,
//!   anonymous elements in chains, comments;
//! * a [`router::Router`] that compiles a parsed config against an element
//!   [`registry::Registry`] and processes packets deterministically;
//! * a standard element library ([`elements`]) holding the classes the VNF
//!   catalog uses — device endpoints, counters, firewall filters, DPI
//!   string matching, NAT, flow-hash load spreading, shapers, sampling,
//!   IP header checks and rewrites — plus `Tee`, which copies frames;
//! * read handlers addressed as `element.handler` — the mechanism behind
//!   the paper's "monitor the VNFs with Clicky" demo step.
//!
//! Packets enter a router through `FromDevice(N)` elements and leave
//! through `ToDevice(N)` elements; the integer `N` is the VNF container
//! port the frame arrived on / departs from.

pub mod element;
pub mod elements;
pub mod lang;
pub mod registry;
pub mod router;

pub use element::{ElemCtx, Element};
pub use lang::{parse_config, ConfigError, ParsedConfig};
pub use registry::Registry;
pub use router::Router;
