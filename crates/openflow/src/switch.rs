//! The software OpenFlow switch (the Open vSwitch role).

use crate::action::{self, Action};
use crate::port;
use crate::table::{FlowEntry, FlowTable, RemovedReason};
use crate::wire::{FlowModCommand, OfMessage, PacketInReason, PortDesc, OFPFF_SEND_FLOW_REM};
use escape_netem::{CtrlId, DropReason, HopDetail, NodeCtx, NodeLogic, Time};
use escape_packet::{FlowKey, LookupMap, MacAddr, Packet};
use escape_telemetry::Registry;

/// `buffer_id` meaning "packet not buffered, full frame attached".
pub const NO_BUFFER: u32 = 0xffff_ffff;
/// Timer token used for flow expiry.
const EXPIRY_TOKEN: u64 = 0xE0F1;
/// Maximum packets parked awaiting controller verdicts.
const MAX_BUFFERS: usize = 256;

/// An OpenFlow 1.0 switch as an emulator node.
///
/// Dataplane frames arrive on ports `0..n_ports`; the controller talks
/// over a control channel attached with [`Switch::attach_controller`].
/// Table misses are punted as packet-ins; flow-mods, packet-outs and
/// barriers behave per the 1.0 spec subset documented in DESIGN.md.
pub struct Switch {
    pub dpid: u64,
    n_ports: u16,
    pub table: FlowTable,
    ctrl: Option<CtrlId>,
    buffers: LookupMap<u32, (u16, Packet)>,
    buffer_order: Vec<u32>,
    next_buffer: u32,
    /// Bytes of a missed packet sent to the controller (OF `miss_send_len`).
    pub miss_send_len: u16,
    xid: u32,
    /// Packet-ins dropped because no controller is attached.
    pub orphan_misses: u64,
    /// Where set-field actions write the edited frame.
    scratch: Vec<u8>,
}

impl Switch {
    /// A switch with `n_ports` dataplane ports whose flow cache counts
    /// into a private registry.
    pub fn new(dpid: u64, n_ports: u16) -> Switch {
        Switch::with_table(dpid, n_ports, FlowTable::new())
    }

    /// A switch whose flow cache counts `openflow.cache_*` into
    /// `registry`; every switch of one environment shares its series.
    pub fn with_registry(dpid: u64, n_ports: u16, registry: &Registry) -> Switch {
        Switch::with_table(dpid, n_ports, FlowTable::with_registry(registry))
    }

    fn with_table(dpid: u64, n_ports: u16, table: FlowTable) -> Switch {
        Switch {
            dpid,
            n_ports,
            table,
            ctrl: None,
            buffers: LookupMap::new(),
            buffer_order: Vec::new(),
            next_buffer: 1,
            miss_send_len: 0xffff,
            xid: 1,
            orphan_misses: 0,
            scratch: Vec::new(),
        }
    }

    /// Attaches the control channel to the controller. Must be called
    /// before traffic flows if reactive control is wanted.
    pub fn attach_controller(&mut self, ctrl: CtrlId) {
        self.ctrl = Some(ctrl);
    }

    /// Enables or disables the table's exact-match flow cache (off =
    /// every lookup walks the table, the seed behaviour).
    pub fn set_flow_cache(&mut self, enabled: bool) {
        self.table.set_cache_enabled(enabled);
    }

    /// Dataplane port count.
    pub fn n_ports(&self) -> u16 {
        self.n_ports
    }

    fn send_ctrl(&mut self, ctx: &mut NodeCtx<'_>, msg: OfMessage) {
        if let Some(c) = self.ctrl {
            self.xid = self.xid.wrapping_add(1);
            ctx.ctrl_send(c, msg.encode(self.xid));
        }
    }

    fn buffer_packet(&mut self, ctx: &mut NodeCtx<'_>, in_port: u16, pkt: Packet) -> u32 {
        if self.buffers.len() >= MAX_BUFFERS {
            // Evict the oldest buffered packet — it will never get a
            // controller verdict, so it dies here.
            if let Some(old) = self.buffer_order.first().copied() {
                if let Some((old_port, old_pkt)) = self.buffers.remove(&old) {
                    ctx.trace_drop(
                        old_pkt.id,
                        old_pkt.len(),
                        old_port,
                        DropReason::TableMissPolicy,
                    );
                }
                self.buffer_order.remove(0);
            }
        }
        let id = self.next_buffer;
        self.next_buffer = self.next_buffer.wrapping_add(1).max(1);
        self.buffers.insert(id, (in_port, pkt));
        self.buffer_order.push(id);
        id
    }

    /// Resolves one output port spec into transmissions.
    fn emit(&mut self, ctx: &mut NodeCtx<'_>, out: u16, in_port: u16, pkt: &Packet) {
        match out {
            port::FLOOD | port::ALL => {
                for p in 0..self.n_ports {
                    if p != in_port {
                        ctx.send(p, pkt.clone());
                    }
                }
            }
            // A packet-out may name no ingress port (`NONE`) or any
            // other number: only a real port can send it back.
            port::IN_PORT if in_port < self.n_ports => ctx.send(in_port, pkt.clone()),
            port::CONTROLLER => {
                let data = pkt.data.clone();
                let total_len = data.len() as u16;
                let msg = OfMessage::PacketIn {
                    buffer_id: NO_BUFFER,
                    total_len,
                    in_port,
                    reason: PacketInReason::Action,
                    data,
                };
                self.send_ctrl(ctx, msg);
            }
            p if (p as usize) < self.n_ports as usize => ctx.send(p, pkt.clone()),
            _ => {} // unknown port: drop
        }
    }

    /// Runs `actions` on `pkt` (from `in_port`) in order and transmits.
    fn run_actions(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        actions: &[Action],
        in_port: u16,
        pkt: &Packet,
    ) {
        let mut scratch = std::mem::take(&mut self.scratch);
        action::apply(actions, pkt, &mut scratch, |out, p| {
            self.emit(ctx, out, in_port, p)
        });
        self.scratch = scratch;
    }

    fn arm_expiry(&mut self, ctx: &mut NodeCtx<'_>) {
        if let Some(t) = self.table.next_expiry() {
            let now = ctx.now();
            let delay = Time::from_ns(t.since(now).max(1));
            ctx.set_timer(delay, EXPIRY_TOKEN);
        }
    }

    fn notify_removed(&mut self, ctx: &mut NodeCtx<'_>, removed: Vec<(FlowEntry, RemovedReason)>) {
        let now = ctx.now();
        for (e, reason) in removed {
            if e.notify_removed {
                let msg = OfMessage::FlowRemoved {
                    match_: e.match_,
                    cookie: e.cookie,
                    priority: e.priority,
                    reason: reason as u8,
                    duration_ns: now.since(e.installed_at),
                    packet_count: e.packet_count,
                    byte_count: e.byte_count,
                };
                self.send_ctrl(ctx, msg);
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_flow_mod(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        match_: crate::Match,
        cookie: u64,
        command: FlowModCommand,
        idle_timeout: u16,
        hard_timeout: u16,
        priority: u16,
        buffer_id: u32,
        out_port: u16,
        flags: u16,
        actions: Vec<Action>,
    ) {
        let now = ctx.now();
        match command {
            FlowModCommand::Add => {
                let mut e = FlowEntry::new(match_, priority, actions.clone(), now);
                e.cookie = cookie;
                e.idle_timeout = idle_timeout;
                e.hard_timeout = hard_timeout;
                e.notify_removed = flags & OFPFF_SEND_FLOW_REM != 0;
                self.table.add(e);
                self.arm_expiry(ctx);
                // Apply to the buffered packet that triggered this, if any.
                if buffer_id != NO_BUFFER {
                    if let Some((in_port, pkt)) = self.buffers.remove(&buffer_id) {
                        self.buffer_order.retain(|&b| b != buffer_id);
                        self.run_actions(ctx, &actions, in_port, &pkt);
                    }
                }
            }
            FlowModCommand::Modify | FlowModCommand::ModifyStrict => {
                let strict = command == FlowModCommand::ModifyStrict;
                if self.table.modify(&match_, priority, strict, &actions) == 0 {
                    // Per spec, modify with no match behaves like add.
                    let mut e = FlowEntry::new(match_, priority, actions, now);
                    e.cookie = cookie;
                    e.idle_timeout = idle_timeout;
                    e.hard_timeout = hard_timeout;
                    e.notify_removed = flags & OFPFF_SEND_FLOW_REM != 0;
                    self.table.add(e);
                    self.arm_expiry(ctx);
                }
            }
            FlowModCommand::Delete | FlowModCommand::DeleteStrict => {
                let strict = command == FlowModCommand::DeleteStrict;
                let removed = self
                    .table
                    .delete(&match_, priority, strict, out_port, cookie);
                let removed: Vec<_> = removed
                    .into_iter()
                    .map(|e| (e, RemovedReason::Delete))
                    .collect();
                self.notify_removed(ctx, removed);
            }
        }
    }
}

impl NodeLogic for Switch {
    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, in_port: u16, pkt: Packet) {
        let Ok(key) = FlowKey::extract(&pkt.data) else {
            ctx.trace_drop(pkt.id, pkt.len(), in_port, DropReason::Malformed);
            return;
        };
        let now = ctx.now();
        if let Some(idx) = self.table.lookup_idx(&key, in_port, pkt.len(), now) {
            // Borrow the winning entry's action list for the dispatch
            // instead of cloning it per packet; nothing below touches the
            // table, so the slot is restored intact afterwards.
            let e = self.table.entry_mut(idx);
            let (cookie, priority) = (e.cookie, e.priority);
            let actions = std::mem::take(&mut e.actions);
            if ctx.tracing() {
                ctx.trace_hop(
                    pkt.id,
                    pkt.len(),
                    in_port,
                    HopDetail::FlowMatch {
                        dpid: self.dpid,
                        cookie,
                        priority,
                    },
                );
            }
            self.run_actions(ctx, &actions, in_port, &pkt);
            self.table.entry_mut(idx).actions = actions;
            return;
        }
        // Table miss: punt to controller.
        if self.ctrl.is_none() {
            self.orphan_misses += 1;
            ctx.trace_drop(pkt.id, pkt.len(), in_port, DropReason::TableMissPolicy);
            return;
        }
        if ctx.tracing() {
            ctx.trace_hop(
                pkt.id,
                pkt.len(),
                in_port,
                HopDetail::TableMiss { dpid: self.dpid },
            );
        }
        let total_len = pkt.data.len() as u16;
        let buffer_id = self.buffer_packet(ctx, in_port, pkt.clone());
        let keep = (self.miss_send_len as usize).min(pkt.data.len());
        let msg = OfMessage::PacketIn {
            buffer_id,
            total_len,
            in_port,
            reason: PacketInReason::NoMatch,
            data: pkt.data.slice(..keep),
        };
        self.send_ctrl(ctx, msg);
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, token: u64) {
        if token == EXPIRY_TOKEN {
            let removed = self.table.expire(ctx.now());
            self.notify_removed(ctx, removed);
            self.arm_expiry(ctx);
        }
    }

    fn on_ctrl(&mut self, ctx: &mut NodeCtx<'_>, _conn: CtrlId, msg: Vec<u8>) {
        let (msg, _) = match OfMessage::decode(&msg) {
            Ok(ok) => ok,
            Err(_) => {
                self.send_ctrl(
                    ctx,
                    OfMessage::Error {
                        err_type: 0,
                        code: 0,
                        data: msg,
                    },
                );
                return;
            }
        };
        match msg {
            OfMessage::Hello => self.send_ctrl(ctx, OfMessage::Hello),
            OfMessage::EchoRequest(d) => self.send_ctrl(ctx, OfMessage::EchoReply(d)),
            OfMessage::FeaturesRequest => {
                let ports = (0..self.n_ports)
                    .map(|p| PortDesc {
                        port_no: p,
                        hw_addr: MacAddr::from_id(self.dpid << 8 | p as u64),
                        name: format!("s{}-eth{}", self.dpid, p),
                    })
                    .collect();
                let reply = OfMessage::FeaturesReply {
                    datapath_id: self.dpid,
                    n_buffers: MAX_BUFFERS as u32,
                    n_tables: 1,
                    ports,
                };
                self.send_ctrl(ctx, reply);
            }
            OfMessage::FlowMod {
                match_,
                cookie,
                command,
                idle_timeout,
                hard_timeout,
                priority,
                buffer_id,
                out_port,
                flags,
                actions,
            } => {
                self.handle_flow_mod(
                    ctx,
                    match_,
                    cookie,
                    command,
                    idle_timeout,
                    hard_timeout,
                    priority,
                    buffer_id,
                    out_port,
                    flags,
                    actions,
                );
            }
            OfMessage::PacketOut {
                buffer_id,
                in_port,
                actions,
                data,
            } => {
                let pkt = if buffer_id != NO_BUFFER {
                    self.buffer_order.retain(|&b| b != buffer_id);
                    self.buffers.remove(&buffer_id).map(|(_, p)| p)
                } else {
                    Some(Packet::from_bytes(data))
                };
                if let Some(pkt) = pkt {
                    self.run_actions(ctx, &actions, in_port, &pkt);
                }
            }
            OfMessage::BarrierRequest => self.send_ctrl(ctx, OfMessage::BarrierReply),
            // Decodable messages a switch does not handle (replies and
            // errors addressed to it as if it were a controller) are
            // ignored.
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Match, WireError};
    use bytes::Bytes;
    use escape_netem::{LinkConfig, Sim};
    use escape_packet::PacketBuilder;
    use std::net::Ipv4Addr;

    /// A controller-side stub that records messages and can queue replies.
    #[derive(Default)]
    struct CtrlStub {
        inbox: Vec<OfMessage>,
        outbox: Vec<Vec<u8>>,
    }
    impl NodeLogic for CtrlStub {
        fn on_packet(&mut self, _: &mut NodeCtx<'_>, _: u16, _: Packet) {}
        fn on_ctrl(&mut self, ctx: &mut NodeCtx<'_>, conn: CtrlId, msg: Vec<u8>) {
            let (m, _) = OfMessage::decode(&msg).unwrap();
            self.inbox.push(m);
            for out in self.outbox.drain(..) {
                ctx.ctrl_send(conn, out);
            }
        }
    }

    /// Counts frames received (host stand-in).
    #[derive(Default)]
    struct Sink {
        rx: Vec<(u16, Packet)>,
    }
    impl NodeLogic for Sink {
        fn on_packet(&mut self, _: &mut NodeCtx<'_>, port: u16, pkt: Packet) {
            self.rx.push((port, pkt));
        }
    }

    fn frame(dport: u16) -> Bytes {
        PacketBuilder::udp(
            MacAddr::from_id(1),
            MacAddr::from_id(2),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            7,
            dport,
            Bytes::from_static(b"sw"),
        )
    }

    /// Sim with: switch (3 ports), sinks on ports 0..3, controller stub.
    fn rig() -> (
        Sim,
        escape_netem::NodeId,
        Vec<escape_netem::NodeId>,
        escape_netem::NodeId,
        CtrlId,
    ) {
        let mut sim = Sim::new(3);
        let sw = sim.add_node("s1", 3, Box::new(Switch::new(1, 3)));
        let mut sinks = Vec::new();
        for p in 0..3u16 {
            let h = sim.add_node(format!("h{p}"), 1, Box::new(Sink::default()));
            sim.connect((sw, p), (h, 0), LinkConfig::ideal());
            sinks.push(h);
        }
        let c = sim.add_node("ctrl", 0, Box::new(CtrlStub::default()));
        let conn = sim.ctrl_connect(sw, c, escape_netem::Time::from_us(100));
        sim.node_as_mut::<Switch>(sw)
            .unwrap()
            .attach_controller(conn);
        (sim, sw, sinks, c, conn)
    }

    fn flow_mod_add(match_: Match, priority: u16, actions: Vec<Action>) -> OfMessage {
        OfMessage::FlowMod {
            match_,
            cookie: 0,
            command: FlowModCommand::Add,
            idle_timeout: 0,
            hard_timeout: 0,
            priority,
            buffer_id: NO_BUFFER,
            out_port: port::NONE,
            flags: 0,
            actions,
        }
    }

    #[test]
    fn miss_generates_packet_in_with_buffer() {
        let (mut sim, sw, _sinks, c, _) = rig();
        sim.inject(sw, 0, frame(80), escape_netem::Time::ZERO);
        sim.run(100);
        let stub = sim.node_as::<CtrlStub>(c).unwrap();
        assert_eq!(stub.inbox.len(), 1);
        match &stub.inbox[0] {
            OfMessage::PacketIn {
                buffer_id,
                in_port,
                reason,
                ..
            } => {
                assert_ne!(*buffer_id, NO_BUFFER);
                assert_eq!(*in_port, 0);
                assert_eq!(*reason, PacketInReason::NoMatch);
            }
            other => panic!("expected packet-in, got {other:?}"),
        }
    }

    #[test]
    fn installed_flow_forwards_without_controller_round_trip() {
        let (mut sim, sw, sinks, c, conn) = rig();
        // Install: udp dst port 80 -> output port 2.
        let fm = flow_mod_add(
            Match::any().with_dl_type(0x0800).with_tp_dst(80),
            10,
            vec![Action::out(2)],
        );
        sim.ctrl_send_from(c, conn, fm.encode(1));
        sim.run(10);
        sim.inject(sw, 0, frame(80), sim.now());
        sim.run(100);
        assert_eq!(sim.node_as::<Sink>(sinks[2]).unwrap().rx.len(), 1);
        assert_eq!(
            sim.node_as::<CtrlStub>(c).unwrap().inbox.len(),
            0,
            "no packet-in"
        );
        // A different flow still misses.
        sim.inject(sw, 0, frame(443), sim.now());
        sim.run(100);
        assert_eq!(sim.node_as::<CtrlStub>(c).unwrap().inbox.len(), 1);
    }

    #[test]
    fn flood_replicates_to_all_but_ingress() {
        let (mut sim, sw, sinks, c, conn) = rig();
        let fm = flow_mod_add(Match::any(), 1, vec![Action::out(port::FLOOD)]);
        sim.ctrl_send_from(c, conn, fm.encode(1));
        sim.run(10);
        sim.inject(sw, 1, frame(80), sim.now());
        sim.run(100);
        assert_eq!(sim.node_as::<Sink>(sinks[0]).unwrap().rx.len(), 1);
        assert_eq!(
            sim.node_as::<Sink>(sinks[1]).unwrap().rx.len(),
            0,
            "not back out ingress"
        );
        assert_eq!(sim.node_as::<Sink>(sinks[2]).unwrap().rx.len(), 1);
    }

    #[test]
    fn actions_run_in_order() {
        // OpenFlow 1.0 runs an action list in order: a port named before
        // a set-field action gets the frame as it arrived.
        let (mut sim, sw, sinks, c, conn) = rig();
        let mac = MacAddr::from_id(42);
        let actions = vec![Action::out(1), Action::SetDlDst(mac), Action::out(2)];
        sim.ctrl_send_from(c, conn, flow_mod_add(Match::any(), 1, actions).encode(1));
        sim.run(10);
        let original = frame(80);
        sim.inject(sw, 0, original.clone(), sim.now());
        sim.run(100);
        let rx = |p: usize| -> Vec<Bytes> {
            let sink = sim.node_as::<Sink>(sinks[p]).unwrap();
            sink.rx.iter().map(|(_, pkt)| pkt.data.clone()).collect()
        };
        let mut rewritten = original.to_vec();
        rewritten[0..6].copy_from_slice(&mac.0);
        assert_eq!(rx(1), vec![original]);
        assert_eq!(rx(2), vec![Bytes::from(rewritten)]);
    }

    #[test]
    fn packet_out_with_buffer_releases_parked_packet() {
        let (mut sim, sw, sinks, c, conn) = rig();
        sim.inject(sw, 0, frame(80), escape_netem::Time::ZERO);
        sim.run(100);
        let buffer_id = match sim.node_as::<CtrlStub>(c).unwrap().inbox[0] {
            OfMessage::PacketIn { buffer_id, .. } => buffer_id,
            _ => unreachable!(),
        };
        let po = OfMessage::PacketOut {
            buffer_id,
            in_port: 0,
            actions: vec![Action::out(1)],
            data: Bytes::new(),
        };
        sim.ctrl_send_from(c, conn, po.encode(2));
        sim.run(100);
        assert_eq!(sim.node_as::<Sink>(sinks[1]).unwrap().rx.len(), 1);
    }

    #[test]
    fn flow_mod_with_buffer_id_forwards_and_installs() {
        let (mut sim, sw, sinks, c, conn) = rig();
        sim.inject(sw, 0, frame(80), escape_netem::Time::ZERO);
        sim.run(100);
        let buffer_id = match sim.node_as::<CtrlStub>(c).unwrap().inbox[0] {
            OfMessage::PacketIn { buffer_id, .. } => buffer_id,
            _ => unreachable!(),
        };
        let fm = OfMessage::FlowMod {
            match_: Match::any().with_dl_type(0x0800).with_tp_dst(80),
            cookie: 0,
            command: FlowModCommand::Add,
            idle_timeout: 0,
            hard_timeout: 0,
            priority: 5,
            buffer_id,
            out_port: port::NONE,
            flags: 0,
            actions: vec![Action::out(2)],
        };
        sim.ctrl_send_from(c, conn, fm.encode(3));
        sim.run(100);
        // Buffered packet released...
        assert_eq!(sim.node_as::<Sink>(sinks[2]).unwrap().rx.len(), 1);
        // ...and the flow serves the next packet without a miss.
        sim.inject(sw, 0, frame(80), sim.now());
        sim.run(100);
        assert_eq!(sim.node_as::<Sink>(sinks[2]).unwrap().rx.len(), 2);
        assert_eq!(sim.node_as::<CtrlStub>(c).unwrap().inbox.len(), 1);
    }

    #[test]
    fn handshake_features() {
        let (mut sim, _sw, _sinks, c, conn) = rig();
        sim.ctrl_send_from(c, conn, OfMessage::Hello.encode(1));
        sim.ctrl_send_from(c, conn, OfMessage::FeaturesRequest.encode(2));
        sim.run(10);
        let stub = sim.node_as::<CtrlStub>(c).unwrap();
        assert!(matches!(stub.inbox[0], OfMessage::Hello));
        match &stub.inbox[1] {
            OfMessage::FeaturesReply {
                datapath_id, ports, ..
            } => {
                assert_eq!(*datapath_id, 1);
                assert_eq!(ports.len(), 3);
                assert_eq!(ports[2].name, "s1-eth2");
            }
            other => panic!("expected features reply, got {other:?}"),
        }
    }

    #[test]
    fn hard_timeout_sends_flow_removed() {
        let (mut sim, sw, _sinks, c, conn) = rig();
        let fm = OfMessage::FlowMod {
            match_: Match::any(),
            cookie: 77,
            command: FlowModCommand::Add,
            idle_timeout: 0,
            hard_timeout: 1,
            priority: 1,
            buffer_id: NO_BUFFER,
            out_port: port::NONE,
            flags: OFPFF_SEND_FLOW_REM,
            actions: vec![Action::out(1)],
        };
        sim.ctrl_send_from(c, conn, fm.encode(1));
        sim.run_until(escape_netem::Time::from_secs(2));
        let stub = sim.node_as::<CtrlStub>(c).unwrap();
        assert!(
            stub.inbox
                .iter()
                .any(|m| matches!(m, OfMessage::FlowRemoved { cookie: 77, .. })),
            "no flow-removed in {:?}",
            stub.inbox
        );
        assert!(sim.node_as::<Switch>(sw).unwrap().table.is_empty());
    }

    #[test]
    fn no_controller_drops_misses() {
        let mut sim = Sim::new(0);
        let sw = sim.add_node("s1", 1, Box::new(Switch::new(1, 1)));
        let h = sim.add_node("h", 1, Box::new(Sink::default()));
        sim.connect((sw, 0), (h, 0), LinkConfig::ideal());
        sim.inject(sw, 0, frame(80), escape_netem::Time::ZERO);
        sim.run(100);
        assert_eq!(sim.node_as::<Switch>(sw).unwrap().orphan_misses, 1);
        let snap = sim.telemetry().snapshot();
        assert_eq!(
            snap.counter("netem.drops", &[("reason", "table_miss_policy")]),
            Some(1)
        );
    }

    #[test]
    fn flow_match_and_miss_are_annotated_in_trace() {
        let (mut sim, sw, _sinks, c, conn) = rig();
        sim.enable_trace(1000);
        let fm = flow_mod_add(
            Match::any().with_dl_type(0x0800).with_tp_dst(80),
            10,
            vec![Action::out(2)],
        );
        sim.ctrl_send_from(c, conn, fm.encode(1));
        sim.run(10);
        let hit = sim.inject(sw, 0, frame(80), sim.now());
        sim.run(100);
        let miss = sim.inject(sw, 0, frame(443), sim.now());
        sim.run(100);
        let tr = sim.trace.as_ref().unwrap();
        let hop = tr
            .for_packet(hit)
            .find(|r| r.dir == escape_netem::TraceDir::Hop)
            .expect("matched packet has a hop record");
        assert!(
            matches!(hop.hop, Some(HopDetail::FlowMatch { dpid: 1, .. })),
            "unexpected hop {:?}",
            hop.hop
        );
        let hop = tr
            .for_packet(miss)
            .find(|r| r.dir == escape_netem::TraceDir::Hop)
            .expect("missed packet has a hop record");
        assert_eq!(hop.hop, Some(HopDetail::TableMiss { dpid: 1 }));
    }

    #[test]
    fn malformed_ctrl_message_triggers_error_reply() {
        // A bare STATS_REQUEST header: the statistics exchange is not
        // supported, so its types decode as unknown.
        let stats_request = vec![1, 16, 0, 8, 0, 0, 0, 1];
        let mut stats_reply = stats_request.clone();
        stats_reply[1] = 17;
        assert_eq!(
            OfMessage::decode(&stats_request),
            Err(WireError::UnknownType(16))
        );
        assert_eq!(
            OfMessage::decode(&stats_reply),
            Err(WireError::UnknownType(17))
        );
        for bad in [vec![0xde, 0xad], stats_request] {
            let (mut sim, _sw, _sinks, c, conn) = rig();
            sim.ctrl_send_from(c, conn, bad);
            sim.run(10);
            let stub = sim.node_as::<CtrlStub>(c).unwrap();
            assert!(matches!(stub.inbox[0], OfMessage::Error { .. }));
        }
    }

    #[test]
    fn packet_out_back_through_no_ingress_port_is_dropped() {
        let (mut sim, _sw, sinks, c, conn) = rig();
        for in_port in [port::NONE, 3] {
            let out = OfMessage::PacketOut {
                buffer_id: NO_BUFFER,
                in_port,
                actions: vec![Action::out(port::IN_PORT)],
                data: frame(80),
            };
            sim.ctrl_send_from(c, conn, out.encode(1));
        }
        sim.run(100);
        for h in sinks {
            assert!(sim.node_as::<Sink>(h).unwrap().rx.is_empty());
        }
    }
}
