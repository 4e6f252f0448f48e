//! The snapshot document: its record types, and the one conversion each
//! way between a record and the live environment's own types. Capture
//! (compaction) and restore (recovery) both go through these, so a field
//! added to a record is wired in exactly two places, both in this file.

use escape::env::Escape;
use escape::AutoscalerConfig;
use escape_json::wire::{Omit, Pairs};
use escape_json::wire_struct;
use escape_orch::{ChainMapping, PathSegment};
use escape_sg::ServiceGraph;

use crate::proto::CtlResponse;

wire_struct! {
    /// One chain in the snapshot: everything needed to restore it
    /// *verbatim* — recorded placement and cookie are committed without
    /// re-running the (history-dependent) mapping algorithm.
    #[derive(Debug, Clone, PartialEq)]
    pub struct ChainRecord {
        pub name: String,
        pub cookie: u64,
        /// The service graph as its canonical JSON document.
        pub sg_json: String as "sg",
        /// `(vnf_name, container)` in placement order.
        pub placement: Vec<(String, String)> => Pairs("vnf", "container"),
        /// `(hop node names, delay_us)` per chain segment.
        pub segments: Vec<(Vec<String>, u64)> => Pairs("nodes", "delay_us"),
        pub total_delay_us: u64,
        /// `(vnf_name, replica_count)` for every VNF scaled past 1.
        pub replicas: Vec<(String, u64)> => Pairs("vnf", "count"),
    }
}

impl ChainRecord {
    /// Captures live chain `name`: graph, placement, segments, cookie
    /// and the replica count of every VNF scaled past one.
    pub fn capture(esc: &Escape, name: &str) -> ChainRecord {
        let dc = esc.deployed(name).expect("listed chain is live");
        let sg = esc
            .chain_graph(name)
            .expect("deployed chain keeps its graph");
        let mapping = &dc.mapping;
        ChainRecord {
            name: name.to_string(),
            cookie: dc.cookie,
            sg_json: sg.to_json(),
            placement: mapping.placement.clone(),
            segments: mapping
                .segments
                .iter()
                .map(|s| (s.nodes.clone(), s.delay_us))
                .collect(),
            total_delay_us: mapping.total_delay_us,
            replicas: mapping
                .placement
                .iter()
                .filter_map(|(vnf, _)| {
                    let n = esc.replica_count(name, vnf) as u64;
                    (n > 1).then(|| (vnf.clone(), n))
                })
                .collect(),
        }
    }

    /// The graph and mapping [`Escape::restore_chain`] takes. The error
    /// says why this record cannot be the chain it names.
    pub fn restore(&self) -> Result<(ServiceGraph, ChainMapping), String> {
        let sg = ServiceGraph::from_json(&self.sg_json)
            .map_err(|e| format!("chain {}: service graph: {e}", self.name))?;
        let chain = sg
            .chains
            .iter()
            .find(|ch| ch.name == self.name)
            .cloned()
            .ok_or_else(|| format!("chain {} is missing from its own service graph", self.name))?;
        let mapping = ChainMapping {
            chain,
            placement: self.placement.clone(),
            segments: self
                .segments
                .iter()
                .map(|(nodes, delay_us)| PathSegment {
                    nodes: nodes.clone(),
                    delay_us: *delay_us,
                })
                .collect(),
            total_delay_us: self.total_delay_us,
        };
        Ok((sg, mapping))
    }
}

wire_struct! {
    /// Autoscaler configuration as captured in the snapshot.
    #[derive(Debug, Clone, PartialEq)]
    pub struct AutoscalerRecord {
        pub high_watermark: f64,
        pub low_watermark: f64,
        pub queue_high: u64,
        pub cooldown_ticks: u64,
        pub min_replicas: u64,
        pub max_replicas: u64,
        pub max_actions_per_tick: u64,
    }
}

impl From<&AutoscalerConfig> for AutoscalerRecord {
    fn from(c: &AutoscalerConfig) -> AutoscalerRecord {
        AutoscalerRecord {
            high_watermark: c.high_watermark,
            low_watermark: c.low_watermark,
            queue_high: c.queue_high,
            cooldown_ticks: c.cooldown_ticks as u64,
            min_replicas: c.min_replicas as u64,
            max_replicas: c.max_replicas as u64,
            max_actions_per_tick: c.max_actions_per_tick as u64,
        }
    }
}

impl From<&AutoscalerRecord> for AutoscalerConfig {
    fn from(a: &AutoscalerRecord) -> AutoscalerConfig {
        AutoscalerConfig {
            high_watermark: a.high_watermark,
            low_watermark: a.low_watermark,
            queue_high: a.queue_high,
            cooldown_ticks: a.cooldown_ticks as u32,
            min_replicas: a.min_replicas as u32,
            max_replicas: a.max_replicas as u32,
            max_actions_per_tick: a.max_actions_per_tick as usize,
        }
    }
}

wire_struct! {
    /// Versioned capture of desired state at a compaction point.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Snapshot {
        pub version: u64,
        pub seed: u64,
        /// Virtual clock at capture time.
        pub now_ns: u64,
        /// Next flow cookie the environment would mint.
        pub next_cookie: u64,
        /// Next WAL sequence number (log records before this are folded
        /// in).
        pub next_seq: u64,
        /// Journal sequence cursor at capture time, so `watch --since`
        /// cursors stay valid across the restart.
        pub journal_base: u64,
        /// Live chains in cookie order.
        pub chains: Vec<ChainRecord>,
        /// The idempotency window: `(request_id, original outcome)`.
        pub dedup: Vec<(String, CtlResponse)> => Pairs("id", "outcome"),
        pub autoscaler: Option<AutoscalerRecord> => Omit,
    }
}
