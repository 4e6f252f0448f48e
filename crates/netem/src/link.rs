//! Emulated links: bandwidth, propagation delay, loss, drop-tail queues.

use crate::time::Time;
use std::collections::VecDeque;

/// Identifies a link within a [`crate::Sim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkId(pub u32);

/// Administrative state of a link (fault injection).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkState {
    Up,
    Down,
}

/// Static configuration of a full-duplex point-to-point link, mirroring the
/// parameters Mininet's `TCLink` exposes (bw, delay, loss, max_queue_size).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkConfig {
    /// Capacity in bits per second. `u64::MAX` disables serialization delay.
    pub bandwidth_bps: u64,
    /// One-way propagation delay.
    pub delay: Time,
    /// Probability in [0, 1] that a frame is dropped in transit.
    pub loss: f64,
    /// Egress queue capacity in packets, per direction. When the queue is
    /// full further frames are tail-dropped.
    pub queue_capacity: usize,
}

impl LinkConfig {
    /// A fast LAN-ish default: 1 Gbit/s, 50 µs delay, lossless, 100-packet
    /// queue.
    pub fn lan() -> Self {
        LinkConfig {
            bandwidth_bps: 1_000_000_000,
            delay: Time::from_us(50),
            loss: 0.0,
            queue_capacity: 100,
        }
    }

    /// An ideal link: infinite bandwidth, zero delay, lossless. Useful for
    /// isolating other effects in tests.
    pub fn ideal() -> Self {
        LinkConfig {
            bandwidth_bps: u64::MAX,
            delay: Time::ZERO,
            loss: 0.0,
            queue_capacity: usize::MAX,
        }
    }

    /// Builder-style bandwidth override (bits/s).
    pub fn with_bandwidth(mut self, bps: u64) -> Self {
        self.bandwidth_bps = bps;
        self
    }

    /// Builder-style delay override.
    pub fn with_delay(mut self, delay: Time) -> Self {
        self.delay = delay;
        self
    }

    /// Builder-style loss override.
    pub fn with_loss(mut self, loss: f64) -> Self {
        assert!((0.0..=1.0).contains(&loss), "loss must be a probability");
        self.loss = loss;
        self
    }

    /// Builder-style queue capacity override.
    pub fn with_queue(mut self, packets: usize) -> Self {
        self.queue_capacity = packets;
        self
    }

    /// Serialization time of `len` bytes at this link's bandwidth.
    pub fn serialize_ns(&self, len: usize) -> u64 {
        if self.bandwidth_bps == u64::MAX {
            return 0;
        }
        // bits * 1e9 / bps, computed in u128 to avoid overflow.
        ((len as u128 * 8 * 1_000_000_000) / self.bandwidth_bps as u128) as u64
    }
}

impl Default for LinkConfig {
    fn default() -> Self {
        Self::lan()
    }
}

/// Per-direction transmit state of a link: when the transmitter frees up
/// and which frames are queued behind it.
#[derive(Debug, Default)]
pub(crate) struct TxState {
    /// Virtual time at which the transmitter finishes its current backlog.
    pub next_free: Time,
    /// The (serialisation end, sequence number) key of every frame queued
    /// or in transmission, oldest first: the queue depth is its length.
    /// Both halves rise along the queue, so it is sorted.
    pub pending: VecDeque<(Time, u64)>,
}

impl TxState {
    /// Retires the frames whose transmission completes before `bound`
    /// in the kernel's (time, sequence number) order, and returns how
    /// many left the queue.
    pub fn retire(&mut self, bound: (Time, u64)) -> usize {
        let mut due = 0;
        while self.pending.front().is_some_and(|&key| key < bound) {
            self.pending.pop_front();
            due += 1;
        }
        due
    }
}

/// A link instance inside the simulator.
#[derive(Debug)]
pub(crate) struct Link {
    pub cfg: LinkConfig,
    pub state: LinkState,
    /// Endpoints as (node index, port) pairs; direction 0 is a→b.
    pub ends: [(u32, u16); 2],
    pub tx: [TxState; 2],
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_delay_math() {
        let l = LinkConfig::lan(); // 1 Gbps
        assert_eq!(l.serialize_ns(125), 1_000); // 1000 bits at 1 Gbps = 1 µs
        assert_eq!(l.serialize_ns(1500), 12_000);
        let slow = LinkConfig::lan().with_bandwidth(1_000_000); // 1 Mbps
        assert_eq!(slow.serialize_ns(125), 1_000_000);
    }

    #[test]
    fn ideal_link_has_zero_serialization() {
        assert_eq!(LinkConfig::ideal().serialize_ns(100_000), 0);
    }

    #[test]
    fn builders_compose() {
        let l = LinkConfig::lan()
            .with_bandwidth(10_000_000)
            .with_delay(Time::from_ms(5))
            .with_loss(0.25)
            .with_queue(10);
        assert_eq!(l.bandwidth_bps, 10_000_000);
        assert_eq!(l.delay, Time::from_ms(5));
        assert!((l.loss - 0.25).abs() < f64::EPSILON);
        assert_eq!(l.queue_capacity, 10);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn loss_out_of_range_panics() {
        LinkConfig::lan().with_loss(1.5);
    }

    #[test]
    fn no_overflow_on_jumbo_at_low_bandwidth() {
        let l = LinkConfig::lan().with_bandwidth(1);
        // 65536 bytes at 1 bps = 524288 seconds; must not overflow.
        assert_eq!(l.serialize_ns(65536), 65536 * 8 * 1_000_000_000);
    }
}
