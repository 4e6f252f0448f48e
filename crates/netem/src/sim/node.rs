//! The node-facing surface of the kernel: node and channel ids, the
//! [`NodeLogic`] trait, and the capabilities [`NodeCtx`] offers a node
//! while it handles an event — its trace and fault-injection hooks.

use super::Sim;
use crate::link::{LinkId, LinkState};
use crate::time::Time;
use crate::trace::{DropReason, HopDetail, TraceDir, TraceRecord};
use bytes::Bytes;
use escape_packet::Packet;
use std::any::Any;

/// Identifies a node within a [`Sim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Identifies a control channel within a [`Sim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CtrlId(pub u32);

/// Object-safe `Any` access for node logic, so callers can downcast a node
/// back to its concrete type (e.g. to read host counters after a run).
pub trait AsAny {
    fn as_any(&self) -> &dyn Any;
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<T: Any> AsAny for T {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Behaviour of a node. Implementations are state machines driven by the
/// kernel: frames in, timers, control messages — frames out via the ctx.
pub trait NodeLogic: AsAny + Send {
    /// A frame arrived on `port`.
    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, port: u16, pkt: Packet);

    /// A timer armed with [`NodeCtx::set_timer`] fired.
    fn on_timer(&mut self, _ctx: &mut NodeCtx<'_>, _token: u64) {}

    /// A message arrived on a control channel this node terminates.
    fn on_ctrl(&mut self, _ctx: &mut NodeCtx<'_>, _conn: CtrlId, _msg: Vec<u8>) {}
}

/// The capability surface a node sees while handling an event.
pub struct NodeCtx<'a> {
    pub(super) sim: &'a mut Sim,
    pub(super) node: NodeId,
}

impl NodeCtx<'_> {
    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.sim.clock
    }

    /// Creates a packet stamped with a fresh id and the current time.
    pub fn new_packet(&mut self, data: Bytes) -> Packet {
        Packet {
            data,
            id: self.sim.alloc_packet_id(),
            born_ns: self.sim.clock.as_ns(),
        }
    }

    /// Arms a timer that fires `delay` from now with `token`.
    pub fn set_timer(&mut self, delay: Time, token: u64) {
        self.sim.set_timer_for(self.node, delay, token);
    }

    /// Sends a message on a control channel this node terminates.
    pub fn ctrl_send(&mut self, conn: CtrlId, msg: Vec<u8>) {
        self.sim.ctrl_send_from(self.node, conn, msg);
    }

    // ------------- flight-recorder capabilities ---------------------
    // Node logic annotates the packet trace with what happened *inside*
    // the node: which flow rule matched, which Click elements ran, why a
    // frame died. The journey reconstructor (escape::flight) correlates
    // these with the kernel's wire records by packet id.

    /// True when packet tracing is enabled — logic can skip building hop
    /// annotations otherwise.
    pub fn tracing(&self) -> bool {
        self.sim.trace.is_some()
    }

    /// Records an in-node processing annotation for a traced packet.
    pub fn trace_hop(&mut self, packet_id: u64, len: usize, port: u16, detail: HopDetail) {
        if let Some(tr) = &mut self.sim.trace {
            let mut rec = TraceRecord::wire(
                self.sim.clock,
                self.node,
                port,
                TraceDir::Hop,
                len,
                packet_id,
            );
            rec.hop = Some(detail);
            tr.record(rec);
        }
    }

    /// Records an in-node drop with a typed reason, counted under
    /// `netem.drops{reason=...}` alongside the kernel's own drops.
    pub fn trace_drop(&mut self, packet_id: u64, len: usize, port: u16, reason: DropReason) {
        self.sim.count_drop_reason(reason);
        if let Some(tr) = &mut self.sim.trace {
            let mut rec = TraceRecord::wire(
                self.sim.clock,
                self.node,
                port,
                TraceDir::Drop,
                len,
                packet_id,
            );
            rec.drop = Some(reason);
            tr.record(rec);
        }
    }

    // ------------- fault-injection capabilities ---------------------
    // Used by the fault injector node (crate::fault): a node dispatched
    // by the kernel may manipulate links and *other* nodes.

    /// Administratively flips a link.
    pub fn set_link_state(&mut self, link: LinkId, state: LinkState) {
        self.sim.set_link_state(link, state);
    }

    /// Changes a link's random loss probability.
    pub fn set_link_loss(&mut self, link: LinkId, loss: f64) {
        self.sim.set_link_loss(link, loss);
    }

    /// Changes a link's propagation delay.
    pub fn set_link_delay(&mut self, link: LinkId, delay: Time) {
        self.sim.set_link_delay(link, delay);
    }

    /// Kills another node (no-op on self: logic is already taken).
    pub fn kill_node(&mut self, node: NodeId) {
        self.sim.kill_node(node);
    }

    /// Pauses another node.
    pub fn pause_node(&mut self, node: NodeId) -> bool {
        self.sim.pause_node(node)
    }

    /// Resumes a paused node.
    pub fn resume_node(&mut self, node: NodeId) -> bool {
        self.sim.resume_node(node)
    }

    /// Increments `faults.injected{kind=...}` in the sim's registry.
    pub fn count_fault(&mut self, kind: &str) {
        self.sim
            .telemetry
            .counter_with("faults.injected", &[("kind", kind)])
            .inc();
    }
}
