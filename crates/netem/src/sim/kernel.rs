//! The event loop: scheduling, dispatch, transmission over links and the
//! retirement of transmit completions. A frame's whole path through the
//! kernel — `step` → `dispatch` → [`NodeCtx::send`] →
//! [`Sim::transmit_from`] → `retire` — stays in this one module.

use super::{CtrlId, NodeCtx, NodeId, NodeLogic, Sim};
use crate::link::LinkState;
use crate::queue::Event;
use crate::time::Time;
use crate::trace::{DropReason, TraceDir, TraceRecord};
use bytes::Bytes;
use escape_packet::Packet;
use rand::Rng;

impl Sim {
    /// Sends `msg` on `conn` as `from`; it will be delivered to the other
    /// endpoint after the channel latency.
    pub fn ctrl_send_from(&mut self, from: NodeId, conn: CtrlId, msg: Vec<u8>) {
        let c = &self.ctrls[conn.0 as usize];
        let to = if c.ends[0] == from.0 {
            c.ends[1]
        } else if c.ends[1] == from.0 {
            c.ends[0]
        } else {
            panic!("node {} is not an endpoint of ctrl {}", from.0, conn.0)
        };
        let at = self.clock + c.latency;
        self.queue.push(
            at,
            Event::CtrlDeliver {
                conn: conn.0,
                to_node: to,
                msg,
            },
        );
    }

    /// Injects a frame so it arrives at `node` on `port` at time `at`
    /// (which must not be in the past). Returns the packet id for tracing.
    pub fn inject(&mut self, node: NodeId, port: u16, data: Bytes, at: Time) -> u64 {
        assert!(at >= self.clock, "cannot inject into the past");
        let id = self.next_packet_id;
        self.next_packet_id += 1;
        let pkt = Packet {
            data,
            id,
            born_ns: at.as_ns(),
        };
        self.queue.push(
            at,
            Event::PacketArrive {
                node: node.0,
                port,
                pkt,
            },
        );
        id
    }

    /// Arms a timer for `node` (used by node constructors; inside a
    /// dispatch use [`NodeCtx::set_timer`]).
    pub fn set_timer_for(&mut self, node: NodeId, delay: Time, token: u64) {
        let at = self.clock + delay;
        self.queue.push(
            at,
            Event::Timer {
                node: node.0,
                token,
            },
        );
    }

    /// Time of the next pending event, if any.
    pub fn peek_time(&self) -> Option<Time> {
        self.queue.peek_time()
    }

    /// Runs until the queue drains or `limit` events have been dispatched
    /// from the heap. Returns that number of heap dispatches, which leaves
    /// out transmit completions (retired, not dispatched; `netem.events`
    /// counts both). Callers pass a limit only as a bound on a drain.
    pub fn run(&mut self, limit: u64) -> u64 {
        let mut n = 0;
        while n < limit && self.step() {
            n += 1;
        }
        n
    }

    /// Runs while events are scheduled at or before `deadline`, then
    /// retires every transmit completion due by then. Events scheduled
    /// later stay queued; the clock advances to at most `deadline`.
    /// Returns the number of heap dispatches, as [`Sim::run`] does.
    pub fn run_until(&mut self, deadline: Time) -> u64 {
        let mut n = 0;
        while let Some(t) = self.peek_time() {
            if t > deadline {
                break;
            }
            self.step();
            n += 1;
        }
        self.retire((deadline, u64::MAX));
        if self.clock < deadline {
            self.clock = deadline;
        }
        n
    }

    /// Dispatches one event. Returns false when the queue is empty, having
    /// retired every transmit completion: each frame's arrival comes
    /// after its completion, so with no arrival left all are due.
    pub fn step(&mut self) -> bool {
        let Some((key, ev)) = self.queue.pop() else {
            self.retire((Time::MAX, u64::MAX));
            return false;
        };
        let at = key.0;
        debug_assert!(at >= self.clock, "time went backwards");
        self.clock = at;
        self.cursor = key;
        self.counters.events.inc();
        match ev {
            Event::PacketArrive { node, port, pkt } => {
                self.counters.frames_delivered.inc();
                if let Some(tr) = &mut self.trace {
                    let rec = TraceRecord::wire(
                        self.clock,
                        NodeId(node),
                        port,
                        TraceDir::Rx,
                        pkt.len(),
                        pkt.id,
                    );
                    tr.record_wire(rec, &pkt.data);
                }
                self.dispatch(node, |logic, ctx| logic.on_packet(ctx, port, pkt));
            }
            Event::Timer { node, token } => {
                self.counters.timers.inc();
                self.dispatch(node, |logic, ctx| logic.on_timer(ctx, token));
            }
            Event::CtrlDeliver { conn, to_node, msg } => {
                self.counters.ctrl_messages.inc();
                self.dispatch(to_node, |logic, ctx| logic.on_ctrl(ctx, CtrlId(conn), msg));
            }
        }
        true
    }

    fn dispatch<F: FnOnce(&mut Box<dyn NodeLogic>, &mut NodeCtx<'_>)>(&mut self, node: u32, f: F) {
        let mut logic = match self.nodes[node as usize].logic.take() {
            Some(l) => l,
            // Node was removed (e.g. crashed VNF container) — drop event.
            None => return,
        };
        let mut ctx = NodeCtx {
            sim: self,
            node: NodeId(node),
        };
        f(&mut logic, &mut ctx);
        self.nodes[node as usize].logic = Some(logic);
    }

    /// Transmits `pkt` from `node` out of `port` over the attached link,
    /// modelling queueing, serialization, propagation and loss.
    pub fn transmit_from(&mut self, node: NodeId, port: u16, pkt: Packet) {
        let slot = &self.nodes[node.0 as usize];
        let Some(Some((link_idx, dir))) = slot.ports.get(port as usize).copied() else {
            // Unwired port: the frame falls on the floor, as with a real
            // cable-less interface — but the drop is attributed.
            self.record_drop(node, port, &pkt, DropReason::NoRoute, None);
            return;
        };
        self.counters.frames_sent.inc();
        if let Some(tr) = &mut self.trace {
            let rec = TraceRecord::wire(self.clock, node, port, TraceDir::Tx, pkt.len(), pkt.id);
            tr.record_wire(rec, &pkt.data);
        }
        let now = self.clock;
        let (state, loss) = {
            let l = &self.links[link_idx as usize];
            (l.state, l.cfg.loss)
        };
        if state == LinkState::Down {
            self.counters.drops_link_down.inc();
            self.record_drop(node, port, &pkt, DropReason::LinkDown, Some(link_idx));
            return;
        }
        if loss > 0.0 && self.rng.gen::<f64>() < loss {
            self.counters.drops_loss.inc();
            self.record_drop(node, port, &pkt, DropReason::RandomLoss, Some(link_idx));
            return;
        }
        // Every queue first sheds the frames whose transmission completed
        // before this event, so the depth that decides a tail drop and the
        // gauges are exact.
        self.retire(self.cursor);
        let full = {
            let l = &self.links[link_idx as usize];
            l.tx[dir as usize].pending.len() >= l.cfg.queue_capacity
        };
        if full {
            self.counters.drops_queue.inc();
            self.record_drop(node, port, &pkt, DropReason::QueueFull, Some(link_idx));
            return;
        }
        let link = &mut self.links[link_idx as usize];
        let tx = &mut link.tx[dir as usize];
        let start = if tx.next_free > now {
            tx.next_free
        } else {
            now
        };
        let done = start.add_ns(link.cfg.serialize_ns(pkt.len()));
        tx.next_free = done;
        if tx.pending.is_empty() {
            self.busy.push((link_idx, dir));
        }
        tx.pending.push_back((done, self.queue.reserve()));
        self.counters.enqueue();
        let (peer_node, peer_port) = link.ends[1 - dir as usize];
        let arrive = done + link.cfg.delay;
        self.queue.push(
            arrive,
            Event::PacketArrive {
                node: peer_node,
                port: peer_port,
                pkt,
            },
        );
    }

    /// Retires every queued frame whose transmission completes before
    /// `bound` in (time, sequence number) order, exactly where the
    /// completion would sit among the dispatched events: the frame leaves
    /// its queue and the gauge, and counts as one model event.
    fn retire(&mut self, bound: (Time, u64)) {
        let mut i = 0;
        while let Some(&(link, dir)) = self.busy.get(i) {
            let tx = &mut self.links[link as usize].tx[dir as usize];
            let due = tx.retire(bound);
            if due > 0 {
                self.counters.events.add(due as u64);
                self.counters.queued_frames.sub(due as i64);
            }
            if tx.pending.is_empty() {
                self.busy.swap_remove(i);
            } else {
                i += 1;
            }
        }
    }
}

impl NodeCtx<'_> {
    /// Transmits a frame out of `port`.
    pub fn send(&mut self, port: u16, pkt: Packet) {
        self.sim.transmit_from(self.node, port, pkt);
    }
}
