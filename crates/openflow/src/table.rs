//! The flow table: permanent entries, priority lookup, counters —
//! fronted by an exact-match cache ([`crate::cache::FlowCache`]) so repeat flows skip
//! the priority/wildcard walk. Every mutating operation strictly
//! invalidates the cache, keeping the two lookup paths provably equal.

use crate::action::Action;
use crate::cache::FlowCache;
use crate::ofmatch::Match;
use crate::port;
use escape_netem::Time;
use escape_packet::FlowKey;
use escape_telemetry::Registry;

/// One installed flow. It stays until a delete removes it.
#[derive(Debug, Clone)]
pub struct FlowEntry {
    pub match_: Match,
    pub priority: u16,
    pub actions: Vec<Action>,
    pub cookie: u64,
    pub packet_count: u64,
    pub byte_count: u64,
}

/// A single OpenFlow 1.0 flow table.
#[derive(Debug)]
pub struct FlowTable {
    entries: Vec<FlowEntry>,
    /// Lookups that matched / missed (table stats).
    pub matched: u64,
    pub missed: u64,
    /// Exact-match fast path over the walk (see [`crate::cache`]).
    cache: FlowCache,
}

impl Default for FlowTable {
    fn default() -> Self {
        FlowTable::new()
    }
}

impl FlowTable {
    /// An empty table with the cache enabled, counting into a private
    /// registry.
    pub fn new() -> Self {
        FlowTable::with_registry(&Registry::new())
    }

    /// An empty table with the cache enabled, counting
    /// `openflow.cache_*` into `registry` (the environment's, so
    /// `escape metrics` reports the hit rate).
    pub fn with_registry(registry: &Registry) -> Self {
        FlowTable {
            entries: Vec::new(),
            matched: 0,
            missed: 0,
            cache: FlowCache::new(registry),
        }
    }

    /// Turns the exact-match cache on or off (off = every lookup walks
    /// the table, the seed behaviour).
    pub fn set_cache_enabled(&mut self, enabled: bool) {
        self.cache.set_enabled(enabled);
    }

    /// Read access to the cache (occupancy).
    pub fn cache(&self) -> &FlowCache {
        &self.cache
    }

    /// Number of installed entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no flows are installed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up the highest-priority entry matching `key` on `in_port`,
    /// updating its counters. Ties break towards the earliest installed
    /// entry (stable order).
    pub fn lookup(&mut self, key: &FlowKey, in_port: u16, len: usize) -> Option<&FlowEntry> {
        self.lookup_idx(key, in_port, len, Time::ZERO)
            .map(|i| &self.entries[i])
    }

    /// Core lookup returning the winning entry's index. Cache hits and
    /// table walks bump the *same* per-entry packet/byte counters, so
    /// the counters cannot tell the two paths apart.
    // `_now` is unused; `benchmark/` calls this signature.
    pub fn lookup_idx(
        &mut self,
        key: &FlowKey,
        in_port: u16,
        len: usize,
        _now: Time,
    ) -> Option<usize> {
        let cache_key = (*key, in_port);
        let mut best = self.cache.get(&cache_key);
        if best.is_none() {
            best = self.walk(key, in_port);
            if let Some(i) = best {
                self.cache.insert(cache_key, i);
            }
        }
        match best {
            Some(i) => {
                self.matched += 1;
                let e = &mut self.entries[i];
                e.packet_count += 1;
                e.byte_count += len as u64;
                Some(i)
            }
            None => {
                self.missed += 1;
                None
            }
        }
    }

    /// The full priority/wildcard walk (reference path, no counters).
    fn walk(&self, key: &FlowKey, in_port: u16) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (i, e) in self.entries.iter().enumerate() {
            if e.match_.matches(key, in_port)
                && best.is_none_or(|b| e.priority > self.entries[b].priority)
            {
                best = Some(i);
            }
        }
        best
    }

    /// Mutable access to an entry by index (from [`FlowTable::lookup_idx`]).
    pub fn entry_mut(&mut self, idx: usize) -> &mut FlowEntry {
        &mut self.entries[idx]
    }

    /// `OFPFC_ADD`: install, replacing an entry with identical match and
    /// priority (per spec).
    pub fn add(&mut self, entry: FlowEntry) {
        self.cache.flush();
        if let Some(e) = self
            .entries
            .iter_mut()
            .find(|e| e.match_ == entry.match_ && e.priority == entry.priority)
        {
            *e = entry;
        } else {
            self.entries.push(entry);
        }
    }

    /// `OFPFC_DELETE[_STRICT]`: remove matching entries; `out_port`
    /// (unless `port::NONE`) further restricts to entries with an output
    /// action to that port, and `cookie` (unless 0) to entries stamped
    /// with that cookie — the hook the steering layer uses to tear down
    /// or resteer exactly one chain's flows even when matches overlap.
    /// Returns how many entries it removed.
    pub fn delete(
        &mut self,
        match_: &Match,
        priority: u16,
        strict: bool,
        out_port: u16,
        cookie: u64,
    ) -> usize {
        self.cache.flush();
        let before = self.entries.len();
        self.entries.retain(|e| {
            let m = if strict {
                e.match_ == *match_ && e.priority == priority
            } else {
                e.match_.is_subset_of(match_)
            };
            let port_ok = out_port == port::NONE
                || e.actions
                    .iter()
                    .any(|a| matches!(a, Action::Output { port, .. } if *port == out_port));
            let cookie_ok = cookie == 0 || e.cookie == cookie;
            !(m && port_ok && cookie_ok)
        });
        before - self.entries.len()
    }

    /// Iterates entries (diagnostics).
    pub fn entries(&self) -> &[FlowEntry] {
        &self.entries
    }
}

/// Convenience constructor for a flow entry with zeroed counters.
impl FlowEntry {
    // `_now` is unused; `benchmark/` calls this signature.
    pub fn new(match_: Match, priority: u16, actions: Vec<Action>, _now: Time) -> FlowEntry {
        FlowEntry {
            match_,
            priority,
            actions,
            cookie: 0,
            packet_count: 0,
            byte_count: 0,
        }
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

    fn key(dport: u16) -> FlowKey {
        let f = PacketBuilder::udp(
            MacAddr::from_id(1),
            MacAddr::from_id(2),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            5,
            dport,
            Bytes::from_static(b"t"),
        );
        FlowKey::extract(&f).unwrap()
    }

    #[test]
    fn priority_wins_over_order() {
        let mut t = FlowTable::new();
        t.add(FlowEntry::new(
            Match::any(),
            1,
            vec![Action::out(1)],
            Time::ZERO,
        ));
        t.add(FlowEntry::new(
            Match::any().with_dl_type(0x0800),
            100,
            vec![Action::out(2)],
            Time::ZERO,
        ));
        let e = t.lookup(&key(80), 0, 60).unwrap();
        assert_eq!(e.actions, vec![Action::out(2)]);
        assert_eq!(t.matched, 1);
    }

    #[test]
    fn equal_priority_ties_break_to_first_installed() {
        let mut t = FlowTable::new();
        t.add(FlowEntry::new(
            Match::any(),
            5,
            vec![Action::out(1)],
            Time::ZERO,
        ));
        t.add(FlowEntry::new(
            Match::any().with_dl_type(0x0800),
            5,
            vec![Action::out(2)],
            Time::ZERO,
        ));
        let e = t.lookup(&key(80), 0, 60).unwrap();
        assert_eq!(e.actions, vec![Action::out(1)]);
    }

    #[test]
    fn add_replaces_same_match_and_priority() {
        let mut t = FlowTable::new();
        t.add(FlowEntry::new(
            Match::any(),
            5,
            vec![Action::out(1)],
            Time::ZERO,
        ));
        t.add(FlowEntry::new(
            Match::any(),
            5,
            vec![Action::out(9)],
            Time::ZERO,
        ));
        assert_eq!(t.len(), 1);
        assert_eq!(t.entries()[0].actions, vec![Action::out(9)]);
    }

    #[test]
    fn counters_accumulate() {
        let mut t = FlowTable::new();
        t.add(FlowEntry::new(
            Match::any(),
            1,
            vec![Action::out(1)],
            Time::ZERO,
        ));
        t.lookup(&key(80), 0, 100);
        t.lookup(&key(81), 0, 50);
        let e = &t.entries()[0];
        assert_eq!(e.packet_count, 2);
        assert_eq!(e.byte_count, 150);
    }

    #[test]
    fn miss_counts() {
        let mut t = FlowTable::new();
        assert!(t.lookup(&key(80), 0, 60).is_none());
        assert_eq!(t.missed, 1);
    }

    #[test]
    fn delete_nonstrict_uses_subset() {
        let mut t = FlowTable::new();
        t.add(FlowEntry::new(
            Match::any().with_tp_dst(80),
            1,
            vec![Action::out(1)],
            Time::ZERO,
        ));
        t.add(FlowEntry::new(
            Match::any().with_tp_dst(443),
            1,
            vec![Action::out(2)],
            Time::ZERO,
        ));
        assert_eq!(t.delete(&Match::any(), 0, false, port::NONE, 0), 2);
        assert!(t.is_empty());
    }

    #[test]
    fn delete_strict_requires_exact() {
        let mut t = FlowTable::new();
        t.add(FlowEntry::new(
            Match::any().with_tp_dst(80),
            7,
            vec![Action::out(1)],
            Time::ZERO,
        ));
        assert_eq!(t.delete(&Match::any(), 7, true, port::NONE, 0), 0);
        assert_eq!(
            t.delete(&Match::any().with_tp_dst(80), 7, true, port::NONE, 0),
            1
        );
    }

    #[test]
    fn delete_filters_by_out_port() {
        let mut t = FlowTable::new();
        t.add(FlowEntry::new(
            Match::any().with_tp_dst(80),
            1,
            vec![Action::out(1)],
            Time::ZERO,
        ));
        t.add(FlowEntry::new(
            Match::any().with_tp_dst(443),
            1,
            vec![Action::out(2)],
            Time::ZERO,
        ));
        assert_eq!(t.delete(&Match::any(), 0, false, 2, 0), 1);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn delete_filters_by_cookie() {
        let mut t = FlowTable::new();
        let mut a = FlowEntry::new(
            Match::any().with_tp_dst(80),
            1,
            vec![Action::out(1)],
            Time::ZERO,
        );
        a.cookie = 7;
        let mut b = FlowEntry::new(
            Match::any().with_tp_dst(443),
            1,
            vec![Action::out(2)],
            Time::ZERO,
        );
        b.cookie = 9;
        t.add(a);
        t.add(b);
        // Cookie-scoped delete under an overlapping wildcard only tears
        // down the one chain's rule.
        assert_eq!(t.delete(&Match::any(), 0, false, port::NONE, 7), 1);
        assert_eq!(t.len(), 1);
        assert_eq!(t.entries()[0].cookie, 9);
    }

    #[test]
    fn cached_lookup_matches_walk_and_invalidates_on_mutation() {
        let reg = Registry::new();
        let mut t = FlowTable::with_registry(&reg);
        t.add(FlowEntry::new(
            Match::any().with_tp_dst(80),
            10,
            vec![Action::out(1)],
            Time::ZERO,
        ));
        t.add(FlowEntry::new(
            Match::any(),
            1,
            vec![Action::out(9)],
            Time::ZERO,
        ));
        // First packet walks and caches; second hits.
        t.lookup(&key(80), 0, 60);
        t.lookup(&key(80), 0, 60);
        assert_eq!(counts(&reg), [1, 1, 0]);
        assert_eq!(t.entries()[0].packet_count, 2, "hit bumps same counters");
        // A higher-priority add must invalidate: next lookup re-walks and
        // picks the new winner.
        t.add(FlowEntry::new(
            Match::any().with_tp_dst(80),
            100,
            vec![Action::out(5)],
            Time::ZERO,
        ));
        let e = t.lookup(&key(80), 0, 60).unwrap();
        assert_eq!(e.actions, vec![Action::out(5)]);
        assert_eq!(counts(&reg)[1], 2, "post-mutation lookup is a miss");
    }

    #[test]
    fn cache_disabled_walks_every_time() {
        let reg = Registry::new();
        let mut t = FlowTable::with_registry(&reg);
        t.set_cache_enabled(false);
        t.add(FlowEntry::new(
            Match::any(),
            1,
            vec![Action::out(1)],
            Time::ZERO,
        ));
        t.lookup(&key(80), 0, 60);
        t.lookup(&key(80), 0, 60);
        assert_eq!(counts(&reg), [0; 3]);
        assert_eq!(t.entries()[0].packet_count, 2);
    }

    #[test]
    fn evictions_and_disabling_count_as_invalidations() {
        let reg = Registry::new();
        let mut t = FlowTable::with_registry(&reg);
        t.add(FlowEntry::new(
            Match::any(),
            1,
            vec![Action::out(1)],
            Time::ZERO,
        ));
        let cap = crate::cache::DEFAULT_CACHE_CAP as u64;
        for dport in 0..=cap {
            t.lookup(&key(dport as u16), 0, 60);
        }
        assert_eq!(counts(&reg)[2], 1, "one past capacity evicts one");
        t.set_cache_enabled(false);
        assert_eq!(counts(&reg)[2], 1 + cap, "disabling drops them all");
    }
}
