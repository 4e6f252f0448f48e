//! Drop accounting: every dropped frame is counted under
//! `netem.drops{reason=...}` and leaves a typed `Drop` trace record.

use super::{NodeId, Sim};
use crate::trace::{DropReason, TraceDir, TraceRecord};
use escape_packet::Packet;

impl Sim {
    /// Counts a drop under `netem.drops{reason=...}` (plus the per-link
    /// counter when the drop happened on a link) and records a typed
    /// `Drop` trace record.
    pub(super) fn record_drop(
        &mut self,
        node: NodeId,
        port: u16,
        pkt: &Packet,
        reason: DropReason,
        link_idx: Option<u32>,
    ) {
        self.count_drop_reason(reason);
        if let Some(idx) = link_idx {
            self.link_drops[idx as usize].inc();
        }
        if let Some(tr) = &mut self.trace {
            let mut rec =
                TraceRecord::wire(self.clock, node, port, TraceDir::Drop, pkt.len(), pkt.id);
            rec.drop = Some(reason);
            tr.record(rec);
        }
    }

    pub(super) fn count_drop_reason(&mut self, reason: DropReason) {
        self.drops_by_reason[reason as usize]
            .get_or_insert_with(|| {
                let labels = [("reason", reason.label())];
                self.telemetry.counter_with("netem.drops", &labels)
            })
            .inc();
    }
}
