//! The emulator node: [`VnfContainer`] terminates the NETCONF control
//! channel and forwards dataplane frames through its [`VnfHost`],
//! releasing outputs when the virtual CPU finishes the work.

use super::{VnfHost, VnfStatus};
use escape_netconf::agent::Agent;
use escape_netem::{CtrlId, DropReason, HopDetail, NodeCtx, NodeLogic, Time};
use escape_packet::Packet;
use std::collections::BinaryHeap;

/// Timer token layout for the container node.
const TOKEN_KIND_SHIFT: u64 = 48;
const KIND_TICK: u64 = 1;
const KIND_RELEASE: u64 = 2;

/// A deferred emission waiting for the virtual CPU.
struct PendingOut {
    at: Time,
    seq: u64,
    port: u16,
    pkt: Packet,
}

impl PartialEq for PendingOut {
    fn eq(&self, o: &Self) -> bool {
        self.at == o.at && self.seq == o.seq
    }
}
impl Eq for PendingOut {}
impl PartialOrd for PendingOut {
    fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(o))
    }
}
impl Ord for PendingOut {
    fn cmp(&self, o: &Self) -> std::cmp::Ordering {
        // Min-heap on (at, seq).
        (o.at, o.seq).cmp(&(self.at, self.seq))
    }
}

/// The emulator node: NETCONF agent + dataplane forwarding through the
/// hosted VNFs.
pub struct VnfContainer {
    pub agent: Agent<VnfHost>,
    conn: Option<CtrlId>,
    pending: BinaryHeap<PendingOut>,
    seq: u64,
    /// Fire time of the earliest outstanding `KIND_RELEASE` timer, if
    /// any. The kernel cannot cancel timers, so without this marker
    /// every deferred frame would start its own release chain re-arming
    /// at the shared earliest-pending time — O(backlog²) timer events
    /// under sustained overload. Arming only when the new deadline beats
    /// the marker keeps exactly one live chain.
    release_armed: Option<Time>,
    /// Same coalescing for `KIND_TICK`, per VNF slot (see
    /// [`VnfContainer::release_armed`]). Indexed like `vnfs`; grown on
    /// demand when replicas are added.
    tick_armed: Vec<Option<Time>>,
    /// Frames the last `process` or `tick_vnf` emitted, reused across
    /// frames; `schedule_outputs` drains it.
    outputs: Vec<(u16, Packet)>,
}

impl VnfContainer {
    /// Creates a container node. `session_id` seeds the agent; `attach`
    /// pre-provisions attachment points (see [`VnfHost::new`]).
    pub fn new(
        name: impl Into<String>,
        session_id: u32,
        attach: Vec<(String, u16, u16)>,
        seed: u64,
    ) -> VnfContainer {
        VnfContainer {
            agent: Agent::new(session_id, VnfHost::new(name, attach, seed)),
            conn: None,
            pending: BinaryHeap::new(),
            seq: 0,
            release_armed: None,
            tick_armed: Vec::new(),
            outputs: Vec::new(),
        }
    }

    /// The hosted VNF table.
    pub fn host(&self) -> &VnfHost {
        &self.agent.instr
    }

    /// Mutable access to the hosted VNF table (tests, fault injection).
    pub fn host_mut(&mut self) -> &mut VnfHost {
        &mut self.agent.instr
    }

    /// Frames finished by the Click routers but still waiting on the
    /// virtual CPU — the container's output backlog. The autoscaler reads
    /// this as the queue-depth signal for replicas hosted here.
    pub fn pending_depth(&self) -> usize {
        self.pending.len()
    }

    /// Sends (or, until the CPU is `done`, defers) the frames in
    /// `outputs`, leaving it empty.
    fn schedule_outputs(&mut self, ctx: &mut NodeCtx<'_>, done: Time) {
        let now = ctx.now();
        if done <= now {
            for (port, pkt) in self.outputs.drain(..) {
                ctx.send(port, pkt);
            }
        } else {
            for (port, pkt) in self.outputs.drain(..) {
                self.seq += 1;
                self.pending.push(PendingOut {
                    at: done,
                    seq: self.seq,
                    port,
                    pkt,
                });
            }
            self.arm_release(ctx, done);
        }
    }

    /// Arms a `KIND_RELEASE` timer at `at` unless an outstanding one
    /// already fires no later than that (timers cannot be canceled, so
    /// a duplicate would start a second chain — see `release_armed`).
    fn arm_release(&mut self, ctx: &mut NodeCtx<'_>, at: Time) {
        let fire_at = at.max(ctx.now().add_ns(1));
        if self.release_armed.is_none_or(|t| fire_at < t) {
            ctx.set_timer(
                Time::from_ns(fire_at.since(ctx.now())),
                KIND_RELEASE << TOKEN_KIND_SHIFT,
            );
            self.release_armed = Some(fire_at);
        }
    }

    fn arm_ticks(&mut self, ctx: &mut NodeCtx<'_>) {
        let now = ctx.now();
        if self.tick_armed.len() < self.agent.instr.vnfs.len() {
            self.tick_armed.resize(self.agent.instr.vnfs.len(), None);
        }
        for (i, v) in self.agent.instr.vnfs.iter().enumerate() {
            if v.status != VnfStatus::Running {
                continue;
            }
            if let Some(w) = v.router.next_wake() {
                let fire_at = w.max(now.add_ns(1));
                if self.tick_armed[i].is_none_or(|t| fire_at < t) {
                    let delay = Time::from_ns(fire_at.since(now));
                    ctx.set_timer(delay, (KIND_TICK << TOKEN_KIND_SHIFT) | i as u64);
                    self.tick_armed[i] = Some(fire_at);
                }
            }
        }
    }
}

impl NodeLogic for VnfContainer {
    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, port: u16, pkt: Packet) {
        let (pkt_id, pkt_len) = (pkt.id, pkt.len());
        let Some((vnf, dev)) = self.agent.instr.binding_at(port) else {
            ctx.trace_drop(pkt_id, pkt_len, port, DropReason::NoRoute);
            return;
        };
        let now = ctx.now();
        self.agent.instr.set_trace_paths(ctx.tracing());
        let was_running = self.agent.instr.vnfs[vnf].status == VnfStatus::Running;
        let host = &mut self.agent.instr;
        let (done, path) = host.process(vnf, dev, pkt, now, &mut self.outputs);
        if let Some(path) = path {
            ctx.trace_hop(pkt_id, pkt_len, port, HopDetail::VnfPath(path));
        }
        if self.outputs.is_empty() {
            if !was_running {
                ctx.trace_drop(pkt_id, pkt_len, port, DropReason::VnfDown);
            } else if self.agent.instr.next_wake().is_none() {
                // Nothing deferred anywhere: the VNF consumed the frame
                // (e.g. a firewall deny rule). A frame parked behind a
                // shaper would have left a pending wake instead.
                ctx.trace_drop(pkt_id, pkt_len, port, DropReason::Filtered);
            }
        }
        self.schedule_outputs(ctx, done);
        self.arm_ticks(ctx);
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, token: u64) {
        let kind = token >> TOKEN_KIND_SHIFT;
        match kind {
            KIND_RELEASE => {
                let now = ctx.now();
                if self.release_armed.is_some_and(|t| t <= now) {
                    self.release_armed = None;
                }
                while self.pending.peek().is_some_and(|p| p.at <= now) {
                    let p = self.pending.pop().expect("peek just saw this entry");
                    ctx.send(p.port, p.pkt);
                }
                if let Some(p) = self.pending.peek() {
                    let at = p.at;
                    self.arm_release(ctx, at);
                }
            }
            KIND_TICK => {
                let vnf = (token & 0xffff_ffff) as usize;
                if vnf < self.tick_armed.len()
                    && self.tick_armed[vnf].is_some_and(|t| t <= ctx.now())
                {
                    self.tick_armed[vnf] = None;
                }
                if vnf < self.agent.instr.vnfs.len() {
                    let now = ctx.now();
                    let due = self.agent.instr.vnfs[vnf]
                        .router
                        .next_wake()
                        .is_some_and(|w| w <= now);
                    if due {
                        let host = &mut self.agent.instr;
                        let done = host.tick_vnf(vnf, now, &mut self.outputs);
                        self.schedule_outputs(ctx, done);
                    }
                    self.arm_ticks(ctx);
                }
            }
            _ => {}
        }
    }

    fn on_ctrl(&mut self, ctx: &mut NodeCtx<'_>, conn: CtrlId, msg: Vec<u8>) {
        if self.conn.is_none() {
            // First contact: this is our management session — greet.
            self.conn = Some(conn);
            let hello = self.agent.start();
            ctx.ctrl_send(conn, hello);
        }
        let out = self.agent.on_bytes(&msg);
        if !out.is_empty() {
            ctx.ctrl_send(conn, out);
        }
        // Control actions may have started VNFs with scheduled work.
        self.arm_ticks(ctx);
    }
}
