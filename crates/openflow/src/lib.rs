//! # escape-openflow
//!
//! OpenFlow 1.0 and a software switch — the Open vSwitch role in ESCAPE-RS.
//!
//! The paper's infrastructure layer consists of OpenFlow switches (Open
//! vSwitch) steered by a POX controller. This crate provides:
//!
//! * the OpenFlow 1.0 **wire protocol** ([`wire`]): binary encode/decode of
//!   the messages the control loop needs (hello/echo/features handshake,
//!   packet-in/out, flow-mod, flow-removed, barrier, errors), with the real on-wire layout (40-byte `ofp_match`, action
//!   TLVs, 8-byte header);
//! * the OF 1.0 **match** semantics ([`ofmatch`]): wildcard bits including
//!   CIDR-masked `nw_src`/`nw_dst`;
//! * **actions** ([`action`]): output (physical and virtual ports) and the
//!   header-rewrite set, applied to real frames;
//! * a **flow table** ([`table`]): priority lookup, overlap checks,
//!   idle/hard timeouts, per-entry counters, fronted by an exact-match
//!   **flow cache** ([`cache`], the OvS EMC role) with strict
//!   invalidation on every mutation;
//! * a **switch** ([`switch::Switch`]): an [`escape_netem::NodeLogic`] that
//!   forwards frames per its flow table, punts misses to the controller
//!   over a control channel, and executes controller commands.

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
pub use wire::{FlowModCommand, OfMessage, PacketInReason, PortDesc, WireError};

/// Virtual port numbers from OpenFlow 1.0 (`ofp_port`).
pub mod port {
    /// Send the packet out the port it came in on.
    pub const IN_PORT: u16 = 0xfff8;
    /// All physical ports except input and those disabled.
    pub const FLOOD: u16 = 0xfffb;
    /// All physical ports except input.
    pub const ALL: u16 = 0xfffc;
    /// Encapsulate and send to the controller.
    pub const CONTROLLER: u16 = 0xfffd;
    /// Wildcard used in flow-mod `out_port`.
    pub const NONE: u16 = 0xffff;
}
