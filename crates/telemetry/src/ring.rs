//! The one bounded history: keep the newest `cap` entries, count what
//! fell off the front, number entries over the ring's whole life.
//!
//! The sampler, the span trace, the event journal (`escape::journal`)
//! and the packet trace (`netem::trace`) are each a [`Ring`] of their
//! own record type plus their own eviction counter in the registry.

use std::collections::vec_deque::{Iter, VecDeque};

#[derive(Debug)]
pub struct Ring<T> {
    cap: usize,
    entries: VecDeque<T>,
    evicted: u64,
}

impl<T> Ring<T> {
    /// A ring that retains at most `cap` entries. A capacity of zero
    /// retains nothing: every push is evicted at once.
    pub fn new(cap: usize) -> Ring<T> {
        Ring {
            cap,
            entries: VecDeque::new(),
            evicted: 0,
        }
    }

    /// Appends `entry` and returns the entry that fell off the front to
    /// make room, if one did. The owner counts it in its own metric.
    pub fn push(&mut self, entry: T) -> Option<T> {
        if self.entries.len() < self.cap {
            self.entries.push_back(entry);
            return None;
        }
        self.evicted += 1;
        // Room is made first, so a full ring never grows its buffer.
        let Some(fell) = self.entries.pop_front() else {
            return Some(entry); // capacity zero
        };
        self.entries.push_back(entry);
        Some(fell)
    }

    pub fn capacity(&self) -> usize {
        self.cap
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Retained entries, oldest first.
    pub fn iter(&self) -> Iter<'_, T> {
        self.entries.iter()
    }

    /// How many entries have fallen off the front — equally, the
    /// sequence number of the oldest retained entry.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Sequence number one past the newest entry. Monotonic over the
    /// ring's whole life (evictions included), so it works as a
    /// resumable cursor for streaming consumers.
    pub fn seq_end(&self) -> u64 {
        self.evicted + self.entries.len() as u64
    }

    /// Entries with sequence number `>= seq` that are still retained. A
    /// cursor behind the eviction horizon gets everything retained (the
    /// gap shows in [`Ring::evicted`]).
    pub fn since(&self, seq: u64) -> Iter<'_, T> {
        let skip = usize::try_from(seq.saturating_sub(self.evicted)).unwrap_or(usize::MAX);
        self.entries.range(skip.min(self.entries.len())..)
    }

    /// The entry numbered `seq`, unless it was evicted (or never pushed).
    pub fn get_mut(&mut self, seq: u64) -> Option<&mut T> {
        let i = usize::try_from(seq.checked_sub(self.evicted)?).ok()?;
        self.entries.get_mut(i)
    }

    /// Continues an *empty* ring's numbering at `base`, as if `base`
    /// entries had come and gone: a restarted owner keeps its consumers'
    /// cursors valid. Entries before `base` count as evicted.
    pub fn rebase(&mut self, base: u64) {
        assert!(
            self.entries.is_empty(),
            "sequence base can only be restored before any entry is recorded"
        );
        self.evicted = self.evicted.max(base);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(cap: usize, pushed: u64) -> Ring<u64> {
        let mut r = Ring::new(cap);
        for i in 0..pushed {
            // Entry i pushes out entry i - cap, never anything else.
            assert_eq!(r.push(i), i.checked_sub(cap as u64));
        }
        r
    }

    fn since(r: &Ring<u64>, seq: u64) -> Vec<u64> {
        r.since(seq).copied().collect()
    }

    /// Pinned against what `escape::journal::Journal` did on its own
    /// `VecDeque` before it moved here.
    #[test]
    fn numbering_cursors_and_eviction_count() {
        let mut r = ring(3, 5);
        assert_eq!((r.len(), r.evicted(), r.seq_end()), (3, 2, 5));
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), [2, 3, 4]);
        // A cursor inside the window resumes there; one behind the
        // horizon gets everything retained; one at the end, nothing.
        assert_eq!(since(&r, 3), [3, 4]);
        assert_eq!(since(&r, 0), [2, 3, 4]);
        assert_eq!(since(&r, 5), [] as [u64; 0]);
        assert_eq!(since(&r, u64::MAX), [] as [u64; 0]);
        // Entries answer to their sequence number while retained.
        assert_eq!(r.get_mut(1), None);
        assert_eq!(r.get_mut(2), Some(&mut 2));
        assert_eq!(r.get_mut(5), None);
        // Capacity zero retains nothing and counts everything.
        let off = ring(0, 4);
        assert_eq!((off.len(), off.evicted(), off.seq_end()), (0, 4, 4));
    }

    #[test]
    fn rebase_resumes_numbering_on_an_empty_ring() {
        let mut r: Ring<u64> = Ring::new(4);
        r.rebase(17);
        assert_eq!((r.len(), r.evicted(), r.seq_end()), (0, 17, 17));
        r.push(100);
        // A cursor from before the restart resumes at the new entries.
        assert_eq!(
            (r.seq_end(), since(&r, 17), since(&r, 3)),
            (18, vec![100], vec![100])
        );
    }

    #[test]
    #[should_panic(expected = "before any entry is recorded")]
    fn rebase_refuses_a_ring_that_holds_entries() {
        ring(4, 1).rebase(9);
    }
}
