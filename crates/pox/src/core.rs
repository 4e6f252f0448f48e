//! The controller core: connection handshake, and the events it hands
//! to its one app, ESCAPE's traffic steering.

use crate::component::{Ctl, PacketInEvent};
use crate::steering::{SteeringMode, TrafficSteering};
use escape_netem::{CtrlId, NodeCtx, NodeLogic, Time};
use escape_openflow::OfMessage;
use escape_packet::{FlowKey, Packet};
use escape_telemetry::{Counter, Registry};
use std::collections::BTreeMap;

/// Timer token: kick off handshakes on registered connections.
const HANDSHAKE_TOKEN: u64 = 0xC0DE;
/// Timer token: steering asked to flush queued work (see
/// [`Controller::request_flush`]).
pub const FLUSH_TOKEN: u64 = 0xF1;

/// Counters exposed by the controller — a point-in-time view over the
/// telemetry registry (`pox.*` counters), kept for API compatibility.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ControllerStats {
    pub packet_ins: u64,
    pub flow_mods_sent: u64,
    pub connections_up: u64,
    pub unhandled_packet_ins: u64,
}

/// Cached registry handles for the controller hot path.
struct CoreCounters {
    packet_ins: Counter,
    flow_mods: Counter,
    connections_up: Counter,
    unhandled_packet_ins: Counter,
}

impl CoreCounters {
    fn new(reg: &Registry) -> CoreCounters {
        let packet_ins = reg.counter("pox.packet_ins");
        let flow_mods = reg.counter("pox.flow_mods");
        // Registered so the series exists; nothing sends packet-outs.
        reg.counter("pox.packet_outs");
        CoreCounters {
            packet_ins,
            flow_mods,
            connections_up: reg.counter("pox.connections_up"),
            unhandled_packet_ins: reg.counter("pox.unhandled_packet_ins"),
        }
    }
}

struct ConnState {
    dpid: Option<u64>,
    hello_sent: bool,
}

/// The POX-style controller node running ESCAPE's traffic steering.
/// Register switch control channels with [`Controller::register_switch`],
/// then arm the handshake with [`Controller::start`].
pub struct Controller {
    /// Ordered, so the handshake greets switches in connection-id order.
    conns: BTreeMap<u32, ConnState>,
    by_dpid: BTreeMap<u64, CtrlId>,
    steering: TrafficSteering,
    counters: CoreCounters,
    xid: u32,
}

impl Controller {
    /// A controller whose steering installs rules per `mode`, publishing
    /// `pox.*` and then `pox.steering.*` counters into `registry` — the
    /// environment passes the simulation-wide registry here.
    pub fn new(mode: SteeringMode, registry: &Registry) -> Controller {
        // `pox.*` registers before `pox.steering.*`: sampler series are
        // ordered by registry slot.
        let counters = CoreCounters::new(registry);
        Controller {
            conns: BTreeMap::new(),
            by_dpid: BTreeMap::new(),
            steering: TrafficSteering::new(mode, registry),
            counters,
            xid: 0,
        }
    }

    /// Current counter values (compat view over the telemetry registry).
    pub fn stats(&self) -> ControllerStats {
        ControllerStats {
            packet_ins: self.counters.packet_ins.get(),
            flow_mods_sent: self.counters.flow_mods.get(),
            connections_up: self.counters.connections_up.get(),
            unhandled_packet_ins: self.counters.unhandled_packet_ins.get(),
        }
    }

    /// The traffic-steering app.
    pub fn steering(&self) -> &TrafficSteering {
        &self.steering
    }

    /// The traffic-steering app, for queueing, staging and removing rules.
    pub fn steering_mut(&mut self) -> &mut TrafficSteering {
        &mut self.steering
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

    /// Arms the handshake timer; call once after building the topology.
    pub fn start(sim: &mut escape_netem::Sim, me: escape_netem::NodeId) {
        sim.set_timer_for(me, Time::ZERO, HANDSHAKE_TOKEN);
    }

    /// Asks the controller to flush steering at `delay` from now — used
    /// by the orchestrator after enqueueing rules from outside the event
    /// loop.
    pub fn request_flush(sim: &mut escape_netem::Sim, me: escape_netem::NodeId, delay: Time) {
        sim.set_timer_for(me, delay, FLUSH_TOKEN);
    }

    /// Datapaths that completed the handshake, in dpid order.
    pub fn connected_dpids(&self) -> Vec<u64> {
        self.by_dpid.keys().copied().collect()
    }

    /// Runs `f` over steering with a [`Ctl`] onto the connected switches.
    fn with_steering<R>(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        f: impl FnOnce(&mut TrafficSteering, &mut Ctl<'_, '_>) -> R,
    ) -> R {
        let mut ctl = Ctl {
            ctx,
            by_dpid: &self.by_dpid,
            flow_mods_sent: &self.counters.flow_mods,
            xid: &mut self.xid,
        };
        f(&mut self.steering, &mut ctl)
    }

    fn send_on(&mut self, ctx: &mut NodeCtx<'_>, conn: CtrlId, msg: OfMessage) {
        self.xid = self.xid.wrapping_add(1);
        ctx.ctrl_send(conn, msg.encode(self.xid));
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
            FLUSH_TOKEN => self.with_steering(ctx, |st, ctl| st.flush(ctl)),
            _ => {}
        }
    }

    fn on_ctrl(&mut self, ctx: &mut NodeCtx<'_>, conn: CtrlId, msg: Vec<u8>) {
        let Ok((msg, _xid)) = OfMessage::decode(&msg) else {
            return;
        };
        match msg {
            OfMessage::Hello => {} // our hello was already sent
            OfMessage::FeaturesReply { datapath_id, .. } => {
                if let Some(st) = self.conns.get_mut(&conn.0) {
                    st.dpid = Some(datapath_id);
                }
                self.by_dpid.insert(datapath_id, conn);
                self.counters.connections_up.inc();
                // A switch coming up is a moment to sync queued rules.
                self.with_steering(ctx, |st, ctl| st.flush(ctl));
            }
            OfMessage::PacketIn {
                buffer_id,
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
                    key: FlowKey::extract(&data).ok(),
                };
                if !self.with_steering(ctx, |st, ctl| st.on_packet_in(ctl, &ev)) {
                    self.counters.unhandled_packet_ins.inc();
                }
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

    fn controller() -> Controller {
        Controller::new(SteeringMode::Proactive, &Registry::new())
    }

    #[test]
    fn handshake_brings_connections_up() {
        let mut sim = Sim::new(1);
        let s1 = sim.add_node("s1", 2, Box::new(Switch::new(11, 2)));
        let s2 = sim.add_node("s2", 2, Box::new(Switch::new(22, 2)));
        let c = sim.add_node("c0", 0, Box::new(controller()));
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
    }
}
