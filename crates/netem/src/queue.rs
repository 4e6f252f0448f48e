//! The kernel's event queue.
//!
//! Events dispatch in (virtual time, scheduling order): ties at one
//! timestamp break on a sequence number that counts every push, so the
//! order is a function of the workload alone. The heap holds only
//! 24-byte (time, sequence, slot) keys; the events themselves, frames
//! included, stay put in a slab whose freed slots are reused, so a sift
//! moves keys and never a frame.
//!
//! A frame's transmit completion is not an event here: its link direction
//! keeps the completion's key (see `crate::link::TxState`), numbered by
//! [`EventQueue::reserve`] so the events after it keep their numbers, and
//! the kernel retires it at the point in this order where it is due.

use crate::time::Time;
use escape_packet::Packet;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// What the kernel dispatches.
pub(crate) enum Event {
    PacketArrive {
        node: u32,
        port: u16,
        pkt: Packet,
    },
    Timer {
        node: u32,
        token: u64,
    },
    CtrlDeliver {
        conn: u32,
        to_node: u32,
        msg: Vec<u8>,
    },
}

/// A queued event's place in the order, and the slab slot holding it.
#[derive(PartialEq, Eq)]
struct Key {
    at: Time,
    seq: u64,
    slot: u32,
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    // Reversed: BinaryHeap is a max-heap, we want the earliest event
    // first. `seq` is unique, so `slot` never decides.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Pending events, earliest first; see the module docs.
#[derive(Default)]
pub(crate) struct EventQueue {
    heap: BinaryHeap<Key>,
    slab: Vec<Option<Event>>,
    /// Slab slots no key points at.
    free: Vec<u32>,
    /// Events pushed so far: the next event's sequence number.
    seq: u64,
}

impl EventQueue {
    /// Takes the next sequence number without queueing an event: the key
    /// of something ordered among the events but kept outside the heap.
    pub(crate) fn reserve(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    /// Queues `ev` to dispatch at `at`, after everything already queued
    /// for the same time.
    pub(crate) fn push(&mut self, at: Time, ev: Event) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(ev);
                slot
            }
            None => {
                self.slab.push(Some(ev));
                u32::try_from(self.slab.len() - 1).expect("fewer than 2^32 queued events")
            }
        };
        let seq = self.reserve();
        self.heap.push(Key { at, seq, slot });
    }

    /// Takes the earliest event out of the queue, with its (time,
    /// sequence number) key.
    pub(crate) fn pop(&mut self) -> Option<((Time, u64), Event)> {
        let Key { at, seq, slot } = self.heap.pop()?;
        let ev = self.slab[slot as usize]
            .take()
            .expect("a queued key owns its slot");
        self.free.push(slot);
        Some(((at, seq), ev))
    }

    /// Time of the earliest queued event.
    pub(crate) fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|k| k.at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use proptest::prelude::*;

    /// A name for each event that survives the queue: its kind and the
    /// number the test gave it.
    fn tag(ev: &Event) -> (u8, u64) {
        match ev {
            Event::PacketArrive { pkt, .. } => (0, pkt.id),
            Event::Timer { token, .. } => (1, *token),
            Event::CtrlDeliver { conn, .. } => (2, u64::from(*conn)),
        }
    }

    fn event(kind: u8, n: u64) -> Event {
        match kind % 3 {
            0 => Event::PacketArrive {
                node: 0,
                port: 0,
                pkt: Packet {
                    data: Bytes::from_static(b"frame"),
                    id: n,
                    born_ns: 0,
                },
            },
            1 => Event::Timer { node: 0, token: n },
            _ => Event::CtrlDeliver {
                conn: n as u32,
                to_node: 0,
                msg: vec![1],
            },
        }
    }

    #[test]
    fn one_timestamp_dispatches_in_push_order_across_reused_slots() {
        let mut q = EventQueue::default();
        let t = Time::from_us(5);
        let mut want = Vec::new();
        let mut got = Vec::new();
        for n in 0..12 {
            let kind = (n % 3) as u8;
            q.push(t, event(kind, n));
            want.push((kind, n));
            // Every third push frees a slot the next push takes back.
            if n % 3 == 2 {
                let ((at, _), ev) = q.pop().expect("queued");
                assert_eq!(at, t);
                got.push(tag(&ev));
            }
        }
        assert!(q.slab.len() < 12, "freed slots are reused");
        while let Some((_, ev)) = q.pop() {
            got.push(tag(&ev));
        }
        assert_eq!(got, want);
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn a_reserved_number_keeps_its_place_in_the_tie_order() {
        let mut q = EventQueue::default();
        let t = Time::from_us(5);
        q.push(t, event(0, 1));
        let reserved = q.reserve();
        q.push(t, event(1, 2));
        let (first, _) = q.pop().expect("queued");
        let (second, _) = q.pop().expect("queued");
        assert!(first < (t, reserved) && (t, reserved) < second);
        assert_eq!((first.1, reserved, second.1), (0, 1, 2));
    }

    proptest! {
        /// Random pushes (few distinct times, so ties are common),
        /// reserved numbers and pops come out as a reference list sorted
        /// by (time, sequence number) does, each with its own key.
        #[test]
        fn pops_follow_time_then_push_order(
            ops in prop::collection::vec(prop::option::of((0u64..4, 0u8..4)), 0..200)
        ) {
            let mut q = EventQueue::default();
            let mut seq = 0;
            let mut reference: Vec<((Time, u64), (u8, u64))> = Vec::new();
            for (n, op) in (0u64..).zip(ops) {
                match op {
                    Some((_, 3)) => {
                        prop_assert_eq!(q.reserve(), seq);
                        seq += 1;
                    }
                    Some((at, kind)) => {
                        let at = Time::from_ns(at);
                        q.push(at, event(kind, n));
                        reference.push(((at, seq), (kind, n)));
                        reference.sort_by_key(|&(key, _)| key);
                        seq += 1;
                    }
                    None => {
                        let want = (!reference.is_empty()).then(|| reference.remove(0));
                        prop_assert_eq!(q.peek_time(), want.map(|w| w.0 .0));
                        let got = q.pop().map(|(key, ev)| (key, tag(&ev)));
                        prop_assert_eq!(got, want);
                    }
                }
            }
            while let Some((key, ev)) = q.pop() {
                prop_assert_eq!((key, tag(&ev)), reference.remove(0));
            }
            prop_assert!(reference.is_empty());
        }
    }
}
