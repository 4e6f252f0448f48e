//! The exact-match flow cache (the Open vSwitch EMC role).
//!
//! A [`FlowCache`] sits in front of the priority/wildcard table walk in
//! [`crate::table::FlowTable`]: the first packet of a flow pays the full
//! walk and deposits `(flow key, in_port) → winning entry index`; every
//! later packet of the same microflow resolves in one hash probe. The
//! cache is **strictly invalidated** — any table mutation (flow-mod
//! add/modify/delete, timeout expiry) flushes it wholesale, so a cached
//! lookup can never disagree with the table walk. Correctness therefore
//! never depends on partial-invalidation bookkeeping; the differential
//! property suite in `tests/prop.rs` holds the two paths equal under
//! randomized rule churn.
//!
//! Determinism: the map is a [`LookupMap`], so it can only be probed,
//! never iterated; eviction is FIFO by insertion order, and flushes are
//! total — so runs with the cache on and off produce byte-identical
//! event traces. Its fixed [`escape_packet::lookup::FxHasher`] folds the
//! key a word at a time: the lookup hashes it on every frame.

use escape_packet::{FlowKey, LookupMap};
use escape_telemetry::{Counter, Registry};
use std::collections::VecDeque;

/// Default bound on cached microflows per switch.
pub const DEFAULT_CACHE_CAP: usize = 8192;

/// Cache key: the OF 1.0 12-tuple plus ingress port — everything the
/// table walk can discriminate on, so an exact-key hit is decisive.
pub type CacheKey = (FlowKey, u16);

/// An exact-match cache over a flow table's lookup results.
///
/// Stores indices into the owning table's entry vector. Indices stay
/// valid between mutations because the only operations that reorder or
/// remove entries ([`crate::table::FlowTable::add`] / `modify` /
/// `delete` / `expire`) flush the cache first.
///
/// The cache's three counters are the only count of each fact: every
/// switch built on one registry adds into the same `openflow.cache_*`
/// series.
#[derive(Debug)]
pub struct FlowCache {
    map: LookupMap<CacheKey, usize>,
    /// Insertion order for deterministic FIFO eviction.
    order: VecDeque<CacheKey>,
    cap: usize,
    enabled: bool,
    /// Probes answered from the cache (`openflow.cache_hits`).
    hits: Counter,
    /// Probes that fell through to the table walk
    /// (`openflow.cache_misses`).
    misses: Counter,
    /// Entries dropped by flushes (strict invalidation, disabling) and
    /// by evictions (`openflow.cache_invalidations`).
    invalidations: Counter,
}

impl FlowCache {
    /// An enabled cache with the default capacity, counting into
    /// `registry`.
    pub fn new(registry: &Registry) -> FlowCache {
        FlowCache {
            map: LookupMap::new(),
            order: VecDeque::new(),
            cap: DEFAULT_CACHE_CAP,
            enabled: true,
            hits: registry.counter("openflow.cache_hits"),
            misses: registry.counter("openflow.cache_misses"),
            invalidations: registry.counter("openflow.cache_invalidations"),
        }
    }

    /// Turns the cache on or off. Disabling flushes it so a later
    /// re-enable starts cold instead of serving stale indices.
    pub fn set_enabled(&mut self, enabled: bool) {
        if !enabled {
            self.flush();
        }
        self.enabled = enabled;
    }

    /// Number of cached microflows.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Probes the cache. Counts a hit or miss only when enabled.
    pub fn get(&mut self, key: &CacheKey) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        match self.map.get(key) {
            Some(&idx) => {
                self.hits.inc();
                Some(idx)
            }
            None => {
                self.misses.inc();
                None
            }
        }
    }

    /// Deposits a walk result, evicting the oldest insertion at capacity.
    pub fn insert(&mut self, key: CacheKey, idx: usize) {
        if !self.enabled {
            return;
        }
        if self.map.len() >= self.cap {
            self.forget_oldest(1);
        }
        if self.map.insert(key, idx).is_none() {
            self.order.push_back(key);
        }
    }

    /// Strict invalidation: forgets every cached microflow. Called on
    /// every table mutation.
    pub fn flush(&mut self) {
        self.forget_oldest(self.order.len());
    }

    /// Forgets the `n` oldest cached microflows (`order` holds exactly
    /// the map's keys). Every entry the cache drops, by eviction or by
    /// flush, is counted here.
    fn forget_oldest(&mut self, n: usize) {
        for old in self.order.drain(..n) {
            self.map.remove(&old);
        }
        self.invalidations.add(n as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use escape_packet::{MacAddr, PacketBuilder};
    use std::net::Ipv4Addr;

    /// `[hits, misses, invalidations]` as the registry reads them.
    fn counts(reg: &Registry) -> [u64; 3] {
        ["hits", "misses", "invalidations"]
            .map(|c| reg.counter_total(&format!("openflow.cache_{c}")))
    }

    fn key(dport: u16) -> CacheKey {
        let f = PacketBuilder::udp(
            MacAddr::from_id(1),
            MacAddr::from_id(2),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            5,
            dport,
            Bytes::from_static(b"c"),
        );
        (FlowKey::extract(&f).unwrap(), 0)
    }

    #[test]
    fn hit_after_insert_miss_before() {
        let reg = Registry::new();
        let mut c = FlowCache::new(&reg);
        assert_eq!(c.get(&key(80)), None);
        c.insert(key(80), 3);
        assert_eq!(c.get(&key(80)), Some(3));
        assert_eq!(counts(&reg), [1, 1, 0]);
    }

    #[test]
    fn flush_forgets_and_counts() {
        let reg = Registry::new();
        let mut c = FlowCache::new(&reg);
        c.insert(key(80), 0);
        c.insert(key(81), 1);
        c.flush();
        assert_eq!(c.get(&key(80)), None);
        assert_eq!(counts(&reg)[2], 2);
        assert!(c.is_empty());
    }

    #[test]
    fn disabled_cache_never_answers() {
        let reg = Registry::new();
        let mut c = FlowCache::new(&reg);
        c.insert(key(80), 0);
        c.set_enabled(false);
        assert_eq!(c.get(&key(80)), None);
        assert_eq!(counts(&reg), [0, 0, 1], "disabled probes are uncounted");
        // Re-enabling starts cold.
        c.set_enabled(true);
        assert_eq!(c.get(&key(80)), None);
    }

    #[test]
    fn eviction_is_fifo_and_bounded() {
        let reg = Registry::new();
        let mut c = FlowCache::new(&reg);
        c.cap = 2;
        c.insert(key(1), 0);
        c.insert(key(2), 1);
        c.insert(key(3), 2); // evicts key(1)
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&key(1)), None);
        assert_eq!(c.get(&key(2)), Some(1));
        assert_eq!(c.get(&key(3)), Some(2));
    }
}
