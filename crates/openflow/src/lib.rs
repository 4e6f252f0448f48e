//! # escape-openflow
//!
//! OpenFlow 1.0 and a software switch — the Open vSwitch role in ESCAPE-RS.
//!
//! The paper's infrastructure layer consists of OpenFlow switches (Open
//! vSwitch) steered by a POX controller. This crate provides:
//!
//! * the OpenFlow 1.0 **wire protocol** ([`wire`]): binary encode/decode of
//!   exactly the messages ESCAPE's steering exchanges (hello/features
//!   handshake, packet-in/out, flow-mod add/delete/delete-strict with
//!   cookies, barrier, errors), with the real on-wire layout (40-byte
//!   `ofp_match`, action TLVs, 8-byte header);
//! * the OF 1.0 **match** semantics ([`ofmatch`]): wildcard bits including
//!   CIDR-masked `nw_src`/`nw_dst`;
//! * **actions** ([`action`]): output to a physical port and the
//!   header-rewrite set, applied to real frames;
//! * a **flow table** ([`table`]) of permanent entries: priority lookup,
//!   cookie-scoped deletes, per-entry counters, fronted by an exact-match
//!   **flow cache** ([`cache`], the OvS EMC role) with strict
//!   invalidation on every mutation;
//! * a **switch** ([`switch::Switch`]): an [`escape_netem::NodeLogic`] that
//!   forwards frames per its flow table, punts misses to the controller
//!   over a control channel, and executes controller commands. A
//!   flow-mod it does not implement (modify, a timeout, a flag) gets an
//!   `OFPT_ERROR` reply, as any undecodable message does.

pub mod action;
pub mod cache;
pub mod ofmatch;
pub mod switch;
pub mod table;
pub mod wire;

pub use action::Action;
pub use cache::FlowCache;
pub use ofmatch::Match;
pub use switch::Switch;
pub use table::{FlowEntry, FlowTable};
pub use wire::{FlowModCommand, OfMessage, PortDesc, WireError};

/// Port numbers from OpenFlow 1.0 (`ofp_port`). An output to any port
/// the switch does not have, a virtual one included, drops the frame.
pub mod port {
    /// Wildcard used in flow-mod `out_port`.
    pub const NONE: u16 = 0xffff;
}
