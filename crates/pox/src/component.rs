//! The component (POX app) model.

use bytes::Bytes;
use escape_netem::{CtrlId, NodeCtx, Time};
use escape_openflow::{port, Action, FlowModCommand, Match, OfMessage, PortDesc};
use escape_packet::FlowKey;
use escape_telemetry::Counter;
use std::any::Any;
use std::collections::HashMap;

/// A packet-in event as delivered to components.
#[derive(Debug, Clone)]
pub struct PacketInEvent {
    pub dpid: u64,
    pub buffer_id: u32,
    pub in_port: u16,
    pub total_len: u16,
    pub data: Bytes,
    /// Parsed flow key of the punted frame, if parseable.
    pub key: Option<FlowKey>,
}

/// `Any` plumbing for typed component access in tests and tooling.
pub trait AsAnyComponent {
    fn as_any(&self) -> &dyn Any;
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<T: Any> AsAnyComponent for T {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A controller component (a "POX app").
///
/// Events are offered to components in registration order; a component
/// returning `true` from [`Component::on_packet_in`] consumes the event.
pub trait Component: AsAnyComponent + Send {
    /// Component name (diagnostics).
    fn name(&self) -> &'static str;

    /// A switch completed the handshake.
    fn on_connection_up(&mut self, _ctl: &mut Ctl<'_, '_>, _dpid: u64, _ports: &[PortDesc]) {}

    /// A packet was punted to the controller. Return `true` to consume.
    fn on_packet_in(&mut self, _ctl: &mut Ctl<'_, '_>, _ev: &PacketInEvent) -> bool {
        false
    }

    /// A flow entry expired or was deleted on a switch.
    fn on_flow_removed(&mut self, _ctl: &mut Ctl<'_, '_>, _dpid: u64, _msg: &OfMessage) {}

    /// A statistics reply arrived from a switch.
    fn on_stats(&mut self, _dpid: u64, _msg: &OfMessage) {}
}

/// The capability handle components use to talk to switches.
pub struct Ctl<'a, 'b> {
    pub(crate) ctx: &'a mut NodeCtx<'b>,
    pub(crate) by_dpid: &'a HashMap<u64, CtrlId>,
    pub(crate) flow_mods_sent: &'a Counter,
    pub(crate) packet_outs_sent: &'a Counter,
    pub(crate) xid: &'a mut u32,
}

impl Ctl<'_, '_> {
    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.ctx.now()
    }

    /// Datapaths currently connected.
    pub fn dpids(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.by_dpid.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Sends a raw OpenFlow message to a switch. Returns false if the
    /// datapath is unknown.
    pub fn send(&mut self, dpid: u64, msg: OfMessage) -> bool {
        let Some(&conn) = self.by_dpid.get(&dpid) else {
            return false;
        };
        *self.xid = self.xid.wrapping_add(1);
        if matches!(msg, OfMessage::FlowMod { .. }) {
            self.flow_mods_sent.inc();
        }
        if matches!(msg, OfMessage::PacketOut { .. }) {
            self.packet_outs_sent.inc();
        }
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
        self.send(
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

    /// Installs a flow with cookie 0.
    #[allow(clippy::too_many_arguments)]
    pub fn flow_add(
        &mut self,
        dpid: u64,
        match_: Match,
        priority: u16,
        actions: Vec<Action>,
        idle_timeout: u16,
        hard_timeout: u16,
        buffer_id: u32,
        flags: u16,
    ) -> bool {
        self.flow_add_with_cookie(
            dpid,
            match_,
            priority,
            actions,
            idle_timeout,
            hard_timeout,
            buffer_id,
            flags,
            0,
        )
    }

    /// Removes flows matching `match_` (non-strict).
    pub fn flow_delete(&mut self, dpid: u64, match_: Match) -> bool {
        self.flow_delete_with_cookie(dpid, match_, 0)
    }

    /// Removes flows matching `match_` (non-strict) that carry `cookie`
    /// (0 = any). Steering uses the chain id as the cookie, so teardown
    /// and resteer only touch the one chain's rules even when another
    /// chain's match overlaps.
    pub fn flow_delete_with_cookie(&mut self, dpid: u64, match_: Match, cookie: u64) -> bool {
        self.send(
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

    /// Emits a packet-out, either releasing a buffered packet or carrying
    /// `data`.
    pub fn packet_out(
        &mut self,
        dpid: u64,
        buffer_id: u32,
        in_port: u16,
        actions: Vec<Action>,
        data: Bytes,
    ) -> bool {
        self.send(
            dpid,
            OfMessage::PacketOut {
                buffer_id,
                in_port,
                actions,
                data,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Quiet;
    impl Component for Quiet {
        fn name(&self) -> &'static str {
            "quiet"
        }
    }

    #[test]
    fn default_component_ignores_packet_in() {
        // A packet-in event value can be constructed and inspected.
        let ev = PacketInEvent {
            dpid: 1,
            buffer_id: 2,
            in_port: 3,
            total_len: 64,
            data: Bytes::from_static(b"x"),
            key: None,
        };
        assert_eq!(ev.dpid, 1);
        let q = Quiet;
        assert_eq!(q.name(), "quiet");
    }
}
