//! Run-level counters.

/// Aggregate statistics of a simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Events dispatched.
    pub events: u64,
    /// Frames handed to links.
    pub frames_sent: u64,
    /// Frames delivered to nodes.
    pub frames_delivered: u64,
    /// Frames dropped by full egress queues.
    pub drops_queue: u64,
    /// Frames dropped by random loss.
    pub drops_loss: u64,
    /// Frames dropped because the link was administratively down.
    pub drops_link_down: u64,
    /// Control-channel messages delivered.
    pub ctrl_messages: u64,
    /// Timer events fired.
    pub timers: u64,
}

impl SimStats {
    /// All frames dropped, regardless of cause.
    pub fn drops_total(&self) -> u64 {
        self.drops_queue + self.drops_loss + self.drops_link_down
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drop_total_sums_causes() {
        let s = SimStats {
            drops_queue: 1,
            drops_loss: 2,
            drops_link_down: 3,
            ..Default::default()
        };
        assert_eq!(s.drops_total(), 6);
    }
}
