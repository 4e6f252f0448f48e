//! What the controller hands its steering app: the packet-in event and
//! the capability handle for sending flow-mods.

use escape_netem::{CtrlId, NodeCtx};
use escape_openflow::{port, Action, FlowModCommand, Match, OfMessage};
use escape_packet::FlowKey;
use escape_telemetry::Counter;
use std::collections::HashMap;

/// A packet-in event as delivered to steering.
#[derive(Debug, Clone)]
pub struct PacketInEvent {
    pub dpid: u64,
    pub buffer_id: u32,
    pub in_port: u16,
    /// Parsed flow key of the punted frame, if parseable.
    pub key: Option<FlowKey>,
}

/// The capability handle steering uses to talk to switches.
pub struct Ctl<'a, 'b> {
    pub(crate) ctx: &'a mut NodeCtx<'b>,
    pub(crate) by_dpid: &'a HashMap<u64, CtrlId>,
    pub(crate) flow_mods_sent: &'a Counter,
    pub(crate) xid: &'a mut u32,
}

impl Ctl<'_, '_> {
    /// Sends a flow-mod to a switch. Returns false if the datapath is
    /// unknown.
    fn flow_mod(&mut self, dpid: u64, msg: OfMessage) -> bool {
        let Some(&conn) = self.by_dpid.get(&dpid) else {
            return false;
        };
        *self.xid = self.xid.wrapping_add(1);
        self.flow_mods_sent.inc();
        let wire = msg.encode(*self.xid);
        self.ctx.ctrl_send(conn, wire);
        true
    }

    /// Installs a flow: `OFPFC_ADD` with the given parameters and an
    /// opaque cookie (the flight recorder reads it back from flow-match
    /// trace records to attribute packets to chains).
    #[allow(clippy::too_many_arguments)]
    pub fn flow_add_with_cookie(
        &mut self,
        dpid: u64,
        match_: Match,
        priority: u16,
        actions: Vec<Action>,
        idle_timeout: u16,
        hard_timeout: u16,
        buffer_id: u32,
        flags: u16,
        cookie: u64,
    ) -> bool {
        self.flow_mod(
            dpid,
            OfMessage::FlowMod {
                match_,
                cookie,
                command: FlowModCommand::Add,
                idle_timeout,
                hard_timeout,
                priority,
                buffer_id,
                out_port: port::NONE,
                flags,
                actions,
            },
        )
    }

    /// Removes flows matching `match_` (non-strict) that carry `cookie`
    /// (0 = any). Steering uses the chain id as the cookie, so teardown
    /// and resteer only touch the one chain's rules even when another
    /// chain's match overlaps.
    pub fn flow_delete_with_cookie(&mut self, dpid: u64, match_: Match, cookie: u64) -> bool {
        self.flow_mod(
            dpid,
            OfMessage::FlowMod {
                match_,
                cookie,
                command: FlowModCommand::Delete,
                idle_timeout: 0,
                hard_timeout: 0,
                priority: 0,
                buffer_id: escape_openflow::switch::NO_BUFFER,
                out_port: port::NONE,
                flags: 0,
                actions: vec![],
            },
        )
    }
}
