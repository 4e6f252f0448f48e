//! Structured event journal: a bounded, severity-tagged ring of typed
//! operational events stamped on the virtual clock.
//!
//! This is the environment's one event log. Entries are *typed* (kind +
//! severity + detail), so operators and tools filter and stream without
//! parsing prose; rendered as text (`Display`, one line per entry) the
//! same entries are `event_trace()`, the determinism witness. Like the
//! sampler and the netem packet trace, the ring counts its own evictions
//! (`escape.journal_evicted`) so silent truncation is observable.
//!
//! Timestamps come from the simulator's virtual clock, which makes the
//! journal deterministic: two same-seed runs export byte-identical
//! JSON-lines documents.

use escape_json::Value;
use escape_telemetry::{Counter, Registry, Ring};

/// How loud an event is. `Warn` marks degraded-but-handled situations
/// (rollback, admission rejection, heal retry); `Error` marks outcomes
/// the environment could not repair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Info,
    Warn,
    Error,
}

impl Severity {
    pub fn label(&self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// What happened. One variant per operational decision site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalKind {
    DeployCommitted,
    DeployRolledBack,
    Teardown,
    AdmissionQueued,
    AdmissionRejected,
    AdmissionDropped,
    FaultInjected,
    LinkRestored,
    HealRecovered,
    HealFailed,
    HealEscalated,
    SlaFlip,
    CacheInvalidationStorm,
    GatewayDown,
    GatewayRestored,
    ChainRestitched,
    ChainAbandoned,
    MalformedReply,
    ScaleOut,
    ScaleIn,
    MigrationCommitted,
    MigrationRolledBack,
    DaemonRestarted,
    ChainRecovered,
    TxnRolledBack,
    WalTruncated,
}

impl JournalKind {
    pub fn label(&self) -> &'static str {
        match self {
            JournalKind::DeployCommitted => "deploy-committed",
            JournalKind::DeployRolledBack => "deploy-rolled-back",
            JournalKind::Teardown => "teardown",
            JournalKind::AdmissionQueued => "admission-queued",
            JournalKind::AdmissionRejected => "admission-rejected",
            JournalKind::AdmissionDropped => "admission-dropped",
            JournalKind::FaultInjected => "fault-injected",
            JournalKind::LinkRestored => "link-restored",
            JournalKind::HealRecovered => "heal-recovered",
            JournalKind::HealFailed => "heal-failed",
            JournalKind::HealEscalated => "heal-escalated",
            JournalKind::SlaFlip => "sla-flip",
            JournalKind::CacheInvalidationStorm => "cache-invalidation-storm",
            JournalKind::GatewayDown => "gateway-down",
            JournalKind::GatewayRestored => "gateway-restored",
            JournalKind::ChainRestitched => "chain-restitched",
            JournalKind::ChainAbandoned => "chain-abandoned",
            JournalKind::MalformedReply => "malformed-reply",
            JournalKind::ScaleOut => "scale-out",
            JournalKind::ScaleIn => "scale-in",
            JournalKind::MigrationCommitted => "migration-committed",
            JournalKind::MigrationRolledBack => "migration-rolled-back",
            JournalKind::DaemonRestarted => "daemon-restarted",
            JournalKind::ChainRecovered => "chain-recovered",
            JournalKind::TxnRolledBack => "txn-rolled-back",
            JournalKind::WalTruncated => "wal-truncated",
        }
    }
}

impl std::fmt::Display for JournalKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One journal entry.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalEvent {
    /// Virtual-clock timestamp.
    pub at_ns: u64,
    pub severity: Severity,
    pub kind: JournalKind,
    /// Human-readable specifics ("chain demo", "link s0-s1 loss 0.10").
    pub detail: String,
}

impl JournalEvent {
    pub fn json_value(&self) -> Value {
        Value::obj()
            .set("at_ns", self.at_ns)
            .set("severity", self.severity.label())
            .set("kind", self.kind.label())
            .set("detail", self.detail.as_str())
    }

    /// One compact JSON line (no trailing newline).
    pub fn json_line(&self) -> String {
        self.json_value().to_string()
    }
}

impl std::fmt::Display for JournalEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}ns] {} {}: {}",
            self.at_ns, self.severity, self.kind, self.detail
        )
    }
}

/// Bounded ring of [`JournalEvent`]s with a monotonic sequence cursor.
pub struct Journal {
    entries: Ring<JournalEvent>,
    evicted_ctr: Counter,
}

/// Default journal capacity (entries).
pub const DEFAULT_JOURNAL_CAP: usize = 4_096;

impl Journal {
    /// Builds a journal and registers its eviction counter
    /// (`escape.journal_evicted`) on `registry`.
    pub fn new(registry: &Registry, cap: usize) -> Journal {
        assert!(cap > 0, "journal capacity must be positive");
        Journal {
            entries: Ring::new(cap),
            evicted_ctr: registry.counter("escape.journal_evicted"),
        }
    }

    pub fn record(&mut self, at_ns: u64, severity: Severity, kind: JournalKind, detail: String) {
        let event = JournalEvent {
            at_ns,
            severity,
            kind,
            detail,
        };
        if self.entries.push(event).is_some() {
            self.evicted_ctr.inc();
        }
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// How many entries have been dropped off the front of the ring.
    pub fn evicted(&self) -> u64 {
        self.entries.evicted()
    }

    /// Rebases the sequence cursor of an *empty* journal so numbering
    /// continues where a previous incarnation left off. Crash recovery
    /// uses this to keep `watch --since <seq>` cursors valid across a
    /// daemon restart: entries before `base` are treated as evicted
    /// (they are gone with the old process), not renumbered.
    pub fn restore_base(&mut self, base: u64) {
        self.entries.rebase(base);
    }

    /// Sequence number one past the newest entry. Monotonic over the
    /// journal's whole life (evictions included), so it works as a
    /// resumable cursor for streaming consumers.
    pub fn seq_end(&self) -> u64 {
        self.entries.seq_end()
    }

    pub fn entries(&self) -> impl Iterator<Item = &JournalEvent> {
        self.entries.iter()
    }

    /// Entries with sequence number `>= seq` that are still in the
    /// ring. A consumer that fell behind the eviction horizon simply
    /// gets everything retained (the gap shows up in `evicted()`).
    pub fn events_since(&self, seq: u64) -> impl Iterator<Item = &JournalEvent> {
        self.entries.since(seq)
    }

    /// The whole retained journal as JSON lines (one event per line,
    /// trailing newline after each).
    pub fn json_lines(&self) -> String {
        let mut out = String::new();
        for e in self.entries.iter() {
            out.push_str(&e.json_line());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn j(cap: usize) -> (Registry, Journal) {
        let r = Registry::new();
        let j = Journal::new(&r, cap);
        (r, j)
    }

    #[test]
    fn ring_evicts_and_counts() {
        let (r, mut j) = j(2);
        for i in 0..5u64 {
            j.record(i, Severity::Info, JournalKind::Teardown, format!("c{i}"));
        }
        assert_eq!(j.len(), 2);
        assert_eq!(j.evicted(), 3);
        assert_eq!(j.seq_end(), 5);
        assert_eq!(r.snapshot().counter("escape.journal_evicted", &[]), Some(3));
        let kept: Vec<&str> = j.entries().map(|e| e.detail.as_str()).collect();
        assert_eq!(kept, vec!["c3", "c4"]);
        // The cursor and the restart base are the ring's (its tests pin
        // them); the journal only passes them through.
        assert_eq!(j.events_since(4).count(), 1);
    }

    #[test]
    fn json_lines_are_compact_and_typed() {
        let (_r, mut j) = j(8);
        j.record(
            1_500,
            Severity::Warn,
            JournalKind::DeployRolledBack,
            "chain demo: netconf phase".into(),
        );
        let lines = j.json_lines();
        assert_eq!(lines.lines().count(), 1);
        let doc = escape_json::Value::parse(lines.lines().next().unwrap()).unwrap();
        assert_eq!(doc.get("at_ns").unwrap().as_u64(), Some(1_500));
        assert_eq!(doc.get("severity").unwrap().as_str(), Some("warn"));
        assert_eq!(
            doc.get("kind").unwrap().as_str(),
            Some("deploy-rolled-back")
        );
        assert!(doc
            .get("detail")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("demo"));
    }
}
