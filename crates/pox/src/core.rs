//! The controller core: connection handshake and event dispatch.

use crate::component::{Component, Ctl, PacketInEvent};
use escape_netem::{CtrlId, NodeCtx, NodeLogic, Time};
use escape_openflow::{OfMessage, PortDesc};
use escape_packet::{FlowKey, Packet};
use escape_telemetry::{Counter, Registry};
use std::collections::{BTreeMap, HashMap};

/// Timer token: kick off handshakes on registered connections.
const HANDSHAKE_TOKEN: u64 = 0xC0DE;
/// Timer token: components asked to flush queued work (see
/// [`Controller::request_flush`]).
pub const FLUSH_TOKEN: u64 = 0xF1;

/// Counters exposed by the controller — a point-in-time view over the
/// telemetry registry (`pox.*` counters), kept for API compatibility.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ControllerStats {
    pub packet_ins: u64,
    pub flow_mods_sent: u64,
    pub packet_outs_sent: u64,
    pub connections_up: u64,
    pub unhandled_packet_ins: u64,
}

/// Cached registry handles for the controller hot path.
struct CoreCounters {
    packet_ins: Counter,
    flow_mods: Counter,
    packet_outs: Counter,
    connections_up: Counter,
    unhandled_packet_ins: Counter,
}

impl CoreCounters {
    fn new(reg: &Registry) -> CoreCounters {
        CoreCounters {
            packet_ins: reg.counter("pox.packet_ins"),
            flow_mods: reg.counter("pox.flow_mods"),
            packet_outs: reg.counter("pox.packet_outs"),
            connections_up: reg.counter("pox.connections_up"),
            unhandled_packet_ins: reg.counter("pox.unhandled_packet_ins"),
        }
    }
}

struct ConnState {
    dpid: Option<u64>,
    hello_sent: bool,
}

/// The POX-style controller node. Register switch control channels with
/// [`Controller::register_switch`] and components with
/// [`Controller::add_component`]; then arm the handshake with
/// [`Controller::start`].
pub struct Controller {
    /// Ordered, so the handshake greets switches in connection-id order.
    conns: BTreeMap<u32, ConnState>,
    by_dpid: HashMap<u64, CtrlId>,
    ports_by_dpid: HashMap<u64, Vec<PortDesc>>,
    components: Vec<Option<Box<dyn Component>>>,
    counters: CoreCounters,
    xid: u32,
}

impl Controller {
    /// An empty controller with a private telemetry registry.
    pub fn new() -> Controller {
        Controller::with_registry(&Registry::new())
    }

    /// An empty controller publishing its counters into `registry` —
    /// the environment passes the simulation-wide registry here, and
    /// builds its components on the same one.
    pub fn with_registry(registry: &Registry) -> Controller {
        Controller {
            conns: BTreeMap::new(),
            by_dpid: HashMap::new(),
            ports_by_dpid: HashMap::new(),
            components: Vec::new(),
            counters: CoreCounters::new(registry),
            xid: 0,
        }
    }

    /// Current counter values (compat view over the telemetry registry).
    pub fn stats(&self) -> ControllerStats {
        ControllerStats {
            packet_ins: self.counters.packet_ins.get(),
            flow_mods_sent: self.counters.flow_mods.get(),
            packet_outs_sent: self.counters.packet_outs.get(),
            connections_up: self.counters.connections_up.get(),
            unhandled_packet_ins: self.counters.unhandled_packet_ins.get(),
        }
    }

    /// Registers the control channel of one switch. Call before `start`.
    pub fn register_switch(&mut self, conn: CtrlId) {
        self.conns.insert(
            conn.0,
            ConnState {
                dpid: None,
                hello_sent: false,
            },
        );
    }

    /// Adds a component at the end of the dispatch chain.
    pub fn add_component(&mut self, c: Box<dyn Component>) {
        self.components.push(Some(c));
    }

    /// Typed access to a registered component.
    pub fn component_as<T: Component + 'static>(&self) -> Option<&T> {
        self.components
            .iter()
            .filter_map(|c| c.as_deref())
            .find_map(|c| c.as_any().downcast_ref::<T>())
    }

    /// Typed mutable access to a registered component.
    pub fn component_as_mut<T: Component + 'static>(&mut self) -> Option<&mut T> {
        self.components
            .iter_mut()
            .filter_map(|c| c.as_deref_mut())
            .find_map(|c| c.as_any_mut().downcast_mut::<T>())
    }

    /// Arms the handshake timer; call once after building the topology.
    pub fn start(sim: &mut escape_netem::Sim, me: escape_netem::NodeId) {
        sim.set_timer_for(me, Time::ZERO, HANDSHAKE_TOKEN);
    }

    /// Asks the controller to give components a `FLUSH` timer event at
    /// `delay` from now — used by the orchestrator after enqueueing rules
    /// into a component from outside the event loop.
    pub fn request_flush(sim: &mut escape_netem::Sim, me: escape_netem::NodeId, delay: Time) {
        sim.set_timer_for(me, delay, FLUSH_TOKEN);
    }

    /// Datapaths that completed the handshake.
    pub fn connected_dpids(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.by_dpid.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Ports reported by a datapath in its features reply.
    pub fn ports_of(&self, dpid: u64) -> Option<&[PortDesc]> {
        self.ports_by_dpid.get(&dpid).map(|v| v.as_slice())
    }

    /// Runs `f` over each component with a [`Ctl`], stopping early if `f`
    /// returns true (event consumed).
    fn dispatch(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        mut f: impl FnMut(&mut Box<dyn Component>, &mut Ctl<'_, '_>) -> bool,
    ) -> bool {
        for i in 0..self.components.len() {
            let Some(mut c) = self.components[i].take() else {
                continue;
            };
            let mut ctl = Ctl {
                ctx,
                by_dpid: &self.by_dpid,
                flow_mods_sent: &self.counters.flow_mods,
                packet_outs_sent: &self.counters.packet_outs,
                xid: &mut self.xid,
            };
            let consumed = f(&mut c, &mut ctl);
            self.components[i] = Some(c);
            if consumed {
                return true;
            }
        }
        false
    }

    fn send_on(&mut self, ctx: &mut NodeCtx<'_>, conn: CtrlId, msg: OfMessage) {
        self.xid = self.xid.wrapping_add(1);
        ctx.ctrl_send(conn, msg.encode(self.xid));
    }
}

impl Default for Controller {
    fn default() -> Self {
        Self::new()
    }
}

impl NodeLogic for Controller {
    fn on_packet(&mut self, _ctx: &mut NodeCtx<'_>, _port: u16, _pkt: Packet) {
        // The controller has no dataplane ports in the dedicated
        // control-network configuration.
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, token: u64) {
        match token {
            HANDSHAKE_TOKEN => {
                let mut pending = Vec::new();
                for (&c, st) in &mut self.conns {
                    if !st.hello_sent {
                        st.hello_sent = true;
                        pending.push(c);
                    }
                }
                for c in pending {
                    self.send_on(ctx, CtrlId(c), OfMessage::Hello);
                    self.send_on(ctx, CtrlId(c), OfMessage::FeaturesRequest);
                }
            }
            FLUSH_TOKEN => {
                self.dispatch(ctx, |c, ctl| {
                    // Reuse connection-up as the "re-sync your state" hook:
                    // steering flushes queued rules for every known dpid.
                    for dpid in ctl.dpids() {
                        c.on_connection_up(ctl, dpid, &[]);
                    }
                    false
                });
            }
            _ => {}
        }
    }

    fn on_ctrl(&mut self, ctx: &mut NodeCtx<'_>, conn: CtrlId, msg: Vec<u8>) {
        let Ok((msg, _xid)) = OfMessage::decode(&msg) else {
            return;
        };
        match msg {
            OfMessage::Hello => {} // our hello was already sent
            OfMessage::EchoRequest(d) => self.send_on(ctx, conn, OfMessage::EchoReply(d)),
            OfMessage::FeaturesReply {
                datapath_id, ports, ..
            } => {
                if let Some(st) = self.conns.get_mut(&conn.0) {
                    st.dpid = Some(datapath_id);
                }
                self.by_dpid.insert(datapath_id, conn);
                self.ports_by_dpid.insert(datapath_id, ports.clone());
                self.counters.connections_up.inc();
                self.dispatch(ctx, |c, ctl| {
                    c.on_connection_up(ctl, datapath_id, &ports);
                    false
                });
            }
            OfMessage::PacketIn {
                buffer_id,
                total_len,
                in_port,
                data,
                ..
            } => {
                let Some(dpid) = self.conns.get(&conn.0).and_then(|s| s.dpid) else {
                    return;
                };
                self.counters.packet_ins.inc();
                let ev = PacketInEvent {
                    dpid,
                    buffer_id,
                    in_port,
                    total_len,
                    key: FlowKey::extract(&data).ok(),
                    data,
                };
                let consumed = self.dispatch(ctx, |c, ctl| c.on_packet_in(ctl, &ev));
                if !consumed {
                    self.counters.unhandled_packet_ins.inc();
                }
            }
            OfMessage::FlowRemoved { .. } => {
                let Some(dpid) = self.conns.get(&conn.0).and_then(|s| s.dpid) else {
                    return;
                };
                let m = msg.clone();
                self.dispatch(ctx, |c, ctl| {
                    c.on_flow_removed(ctl, dpid, &m);
                    false
                });
            }
            OfMessage::FlowStatsReply(_) | OfMessage::PortStatsReply(_) => {
                let Some(dpid) = self.conns.get(&conn.0).and_then(|s| s.dpid) else {
                    return;
                };
                let m = msg.clone();
                self.dispatch(ctx, |c, _ctl| {
                    c.on_stats(dpid, &m);
                    false
                });
            }
            // Barriers, errors: currently informational.
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use escape_netem::Sim;
    use escape_openflow::Switch;

    #[test]
    fn handshake_brings_connections_up() {
        let mut sim = Sim::new(1);
        let s1 = sim.add_node("s1", 2, Box::new(Switch::new(11, 2)));
        let s2 = sim.add_node("s2", 2, Box::new(Switch::new(22, 2)));
        let c = sim.add_node("c0", 0, Box::new(Controller::new()));
        let l1 = sim.ctrl_connect(s1, c, Time::from_us(50));
        let l2 = sim.ctrl_connect(s2, c, Time::from_us(50));
        sim.node_as_mut::<Switch>(s1).unwrap().attach_controller(l1);
        sim.node_as_mut::<Switch>(s2).unwrap().attach_controller(l2);
        {
            let ctl = sim.node_as_mut::<Controller>(c).unwrap();
            ctl.register_switch(l1);
            ctl.register_switch(l2);
        }
        Controller::start(&mut sim, c);
        sim.run(100);
        let ctl = sim.node_as::<Controller>(c).unwrap();
        assert_eq!(ctl.connected_dpids(), vec![11, 22]);
        assert_eq!(ctl.stats().connections_up, 2);
        assert_eq!(ctl.ports_of(11).unwrap().len(), 2);
    }

    #[test]
    fn echo_requests_are_answered() {
        // A switch doesn't send echo requests by itself; simulate one.
        let mut sim = Sim::new(1);
        let s1 = sim.add_node("s1", 1, Box::new(Switch::new(1, 1)));
        let c = sim.add_node("c0", 0, Box::new(Controller::new()));
        let l = sim.ctrl_connect(s1, c, Time::from_us(10));
        sim.node_as_mut::<Switch>(s1).unwrap().attach_controller(l);
        sim.node_as_mut::<Controller>(c).unwrap().register_switch(l);
        Controller::start(&mut sim, c);
        sim.run(50);
        // Now fire an echo from the switch side.
        sim.ctrl_send_from(s1, l, OfMessage::EchoRequest(vec![7]).encode(99));
        let before = sim.stats().ctrl_messages;
        sim.run(50);
        assert!(sim.stats().ctrl_messages > before, "echo reply flowed");
    }
}
