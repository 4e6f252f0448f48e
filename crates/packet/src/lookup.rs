//! Hashing for the maps a frame is looked up in.
//!
//! std's default hasher is SipHash with per-map random keys: sound
//! against adversarial keys, but the per-frame maps hash keys the
//! emulation builds itself (flow keys, ports, packet ids), and SipHash
//! was the largest single cost of a cached flow lookup. [`FxHasher`]
//! folds each word with one rotate, xor and multiply instead.
//!
//! A fixed hasher makes a map's iteration order a function of its hash
//! values, and a random one makes it differ per process; neither may
//! reach an output. So the per-frame maps are [`LookupMap`]s, which have
//! no iteration at all: a map that must be walked is a `BTreeMap`.

use std::borrow::Borrow;
use std::collections::hash_map::{Entry, HashMap};
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// The FxHash multiplier (rustc's `FxHasher`).
const K: u64 = 0x517c_c1b7_2722_0a95;

/// A fast, fixed (unkeyed) hasher: `h = (h.rotl(5) ^ word) * K` per
/// 8-byte word. Not collision-resistant against chosen keys.
#[derive(Default)]
pub struct FxHasher(u64);

impl FxHasher {
    #[inline]
    fn fold(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    /// Folds 8 bytes per step and the tail as one zero-padded word, so a
    /// MAC address costs one step.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let mut word = [0; 8];
            word.copy_from_slice(w);
            self.fold(u64::from_le_bytes(word));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut word = [0; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.fold(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.fold(i.into());
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.fold(i.into());
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.fold(i.into());
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.fold(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.fold(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Builds [`FxHasher`]s, for a std `HashMap` whose iteration order
/// cannot leak (a sum over its values, say).
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A hash map with [`FxHasher`] and no iteration: keys go in, values
/// come out by key, and nothing reveals the order they are stored in.
/// Its `Debug` prints the length only, for the same reason.
#[derive(Clone)]
pub struct LookupMap<K, V>(HashMap<K, V, FxBuildHasher>);

impl<K: Eq + Hash, V> LookupMap<K, V> {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// The value under `k`.
    #[inline]
    pub fn get<Q: ?Sized + Hash + Eq>(&self, k: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
    {
        self.0.get(k)
    }

    /// The value under `k`, mutably.
    #[inline]
    pub fn get_mut<Q: ?Sized + Hash + Eq>(&mut self, k: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
    {
        self.0.get_mut(k)
    }

    /// True when `k` has a value.
    #[inline]
    pub fn contains_key<Q: ?Sized + Hash + Eq>(&self, k: &Q) -> bool
    where
        K: Borrow<Q>,
    {
        self.0.contains_key(k)
    }

    /// Stores `v` under `k`, returning the value it replaces.
    #[inline]
    pub fn insert(&mut self, k: K, v: V) -> Option<V> {
        self.0.insert(k, v)
    }

    /// Takes the value under `k` out of the map.
    #[inline]
    pub fn remove<Q: ?Sized + Hash + Eq>(&mut self, k: &Q) -> Option<V>
    where
        K: Borrow<Q>,
    {
        self.0.remove(k)
    }

    /// The slot for `k`, to fill or update in place.
    #[inline]
    pub fn entry(&mut self, k: K) -> Entry<'_, K, V> {
        self.0.entry(k)
    }

    /// Keeps the entries `keep` accepts. `keep` sees them in storage
    /// order, so it must not depend on which it saw first.
    pub fn retain(&mut self, keep: impl FnMut(&K, &mut V) -> bool) {
        self.0.retain(keep);
    }

    /// Drops every entry.
    pub fn clear(&mut self) {
        self.0.clear();
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when the map is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl<K, V> Default for LookupMap<K, V> {
    fn default() -> Self {
        LookupMap(HashMap::default())
    }
}

impl<K, V> fmt::Debug for LookupMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LookupMap")
            .field("len", &self.0.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FlowKey, MacAddr};
    use std::collections::HashSet;
    use std::hash::BuildHasher;
    use std::net::Ipv4Addr;

    fn hash<T: Hash>(v: &T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn the_tail_folds_as_one_zero_padded_word() {
        let mut h = FxHasher::default();
        h.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        let mut w = FxHasher::default();
        w.fold(u64::from_le_bytes([1, 2, 3, 4, 5, 6, 7, 8]));
        w.fold(u64::from_le_bytes([9, 10, 0, 0, 0, 0, 0, 0]));
        assert_eq!(h.finish(), w.finish());
        let mut mac = FxHasher::default();
        mac.write(&[0xaa; 6]);
        assert_eq!(mac.finish(), 0x0000_aaaa_aaaa_aaaa_u64.wrapping_mul(K));
    }

    #[test]
    fn map_operations() {
        let mut m: LookupMap<String, u32> = LookupMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert("a".into(), 1), None);
        assert_eq!(m.insert("a".into(), 2), Some(1));
        *m.entry("b".into()).or_default() += 5;
        *m.get_mut("b").expect("just inserted") += 1;
        assert_eq!((m.get("a"), m.get("b"), m.len()), (Some(&2), Some(&6), 2));
        m.retain(|_, v| *v > 2);
        assert!(!m.contains_key("a"));
        assert_eq!(m.remove("b"), Some(6));
        m.insert("c".into(), 0);
        m.clear();
        assert!(m.is_empty());
        assert_eq!(format!("{m:?}"), "LookupMap { len: 0 }");
    }

    /// A flow cache key the way the switch builds one: a flow key plus
    /// the ingress port.
    type CacheKey = (FlowKey, u16);

    /// Sets one field of a key from a counter.
    type Vary = fn(&mut CacheKey, u32);

    /// A UDP flow's cache key.
    fn base() -> CacheKey {
        let key = FlowKey {
            eth_src: MacAddr::from_id(1),
            eth_dst: MacAddr::from_id(2),
            eth_type: 0x0800,
            vlan_id: None,
            ip_src: Some(Ipv4Addr::new(10, 0, 0, 1)),
            ip_dst: Some(Ipv4Addr::new(10, 0, 0, 2)),
            ip_proto: Some(17),
            ip_dscp: Some(0),
            tp_src: Some(5000),
            tp_dst: Some(80),
        };
        (key, 1)
    }

    /// Hashes 4 096 keys that differ in one field each, and counts the
    /// distinct low 12 bits (the bucket index of a 4 096-bucket table)
    /// and distinct top 7 bits (the tag hashbrown probes with). A
    /// uniform hash gives about 2 590 and all 128.
    fn spread(vary: Vary) -> (usize, usize) {
        let (mut low, mut top) = (HashSet::new(), HashSet::new());
        for i in 0..4096 {
            let mut k = base();
            vary(&mut k, i);
            let h = hash(&k);
            low.insert(h & 0xfff);
            top.insert(h >> 57);
        }
        (low.len(), top.len())
    }

    #[test]
    fn dataplane_keys_spread_over_buckets_and_tags() {
        let fields: [(&str, Vary); 4] = [
            ("tp_src", |k, i| k.0.tp_src = Some(i as u16)),
            ("ip_dst", |k, i| {
                k.0.ip_dst = Some(Ipv4Addr::from(0x0a00_0000 | i));
            }),
            ("eth_src", |k, i| k.0.eth_src = MacAddr::from_id(i.into())),
            ("in_port", |k, i| k.1 = i as u16),
        ];
        for (name, vary) in fields {
            let (low, top) = spread(vary);
            assert!(low >= 2300, "{name}: {low} distinct bucket indices");
            assert!(top >= 120, "{name}: {top} distinct tags");
        }
    }
}
