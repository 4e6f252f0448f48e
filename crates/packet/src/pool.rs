//! Frame reuse for the emulation hot path.
//!
//! A paced traffic stream builds the *same* Ethernet frame every tick:
//! [`crate::PacketBuilder`] writes it into a fresh buffer, an allocation
//! and a payload copy per packet. A [`FramePool`] caches the built frame
//! once per key and serves later emissions as [`Bytes`] refcount clones —
//! zero allocation, zero copy, byte-identical output. The emulation's
//! frames are immutable once on the wire (every header edit writes a new
//! frame through [`crate::rewrite()`]), so sharing the backing storage is
//! safe by construction.

use crate::LookupMap;
use bytes::Bytes;
use std::hash::Hash;

/// A keyed cache of prebuilt immutable frames.
///
/// The key captures everything the frame's bytes depend on (for a host
/// stream: the stream identity plus the resolved destination MAC), so a
/// stale frame can never be served — a changed input is a different key.
#[derive(Debug, Clone, Default)]
pub struct FramePool<K: Eq + Hash> {
    map: LookupMap<K, Bytes>,
    /// Emissions served from the pool.
    pub hits: u64,
    /// Emissions that had to build the frame.
    pub builds: u64,
}

impl<K: Eq + Hash> FramePool<K> {
    /// An empty pool.
    pub fn new() -> Self {
        FramePool {
            map: LookupMap::new(),
            hits: 0,
            builds: 0,
        }
    }

    /// Returns the cached frame for `key`, building and caching it with
    /// `build` on first use. The returned [`Bytes`] shares storage with
    /// the pooled copy.
    pub fn get_or_build(&mut self, key: K, build: impl FnOnce() -> Bytes) -> Bytes {
        match self.map.get(&key) {
            Some(f) => {
                self.hits += 1;
                f.clone()
            }
            None => {
                self.builds += 1;
                let f = build();
                self.map.insert(key, f.clone());
                f
            }
        }
    }

    /// Drops one cached frame (e.g. the keyed input changed shape in a
    /// way the key does not capture).
    pub fn invalidate(&mut self, key: &K) {
        self.map.remove(key);
    }

    /// Drops the cached frames whose key fails `keep` (e.g. a component
    /// of the key is being reused for a different frame).
    pub fn retain(&mut self, mut keep: impl FnMut(&K) -> bool) {
        self.map.retain(|k, _| keep(k));
    }

    /// Drops every cached frame.
    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// Number of distinct frames held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is pooled.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn second_get_is_a_hit_and_shares_storage() {
        let mut p: FramePool<u32> = FramePool::new();
        let a = p.get_or_build(1, || Bytes::from(vec![7u8; 64]));
        let b = p.get_or_build(1, || panic!("must not rebuild"));
        assert_eq!(a, b);
        assert_eq!((p.hits, p.builds), (1, 1));
        // Refcount clone: same backing storage, not a copy.
        assert_eq!(a.as_ptr(), b.as_ptr());
    }

    #[test]
    fn distinct_keys_build_distinct_frames() {
        let mut p: FramePool<(u32, u8)> = FramePool::new();
        let a = p.get_or_build((1, 0), || Bytes::from_static(b"aa"));
        let b = p.get_or_build((1, 1), || Bytes::from_static(b"bb"));
        assert_ne!(a, b);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn invalidate_forces_rebuild() {
        let mut p: FramePool<u32> = FramePool::new();
        p.get_or_build(1, || Bytes::from_static(b"old"));
        p.invalidate(&1);
        let f = p.get_or_build(1, || Bytes::from_static(b"new"));
        assert_eq!(&f[..], b"new");
        assert_eq!(p.builds, 2);
    }
}
