//! Caching tables — the LCT/RCT metadata of Figure 3.
//!
//! * The **Local Caching Table (LCT)** indexes the pages in the local buffer;
//!   in this implementation it is the page map inside
//!   [`crate::buffer::BufferManager`].
//! * The **[`RemoteStore`]** is the memory a server donates to hold its
//!   *peer's* replicated pages (the "remote buffer" half of Figure 3). It is
//!   also the **Remote Caching Table (RCT)**: after a local failure the
//!   server "reads RCT from neighbouring server" — i.e. fetches
//!   [`RemoteStore::snapshot`] — and replays those pages into its SSD
//!   (Section III.D).
//!
//! Pages carry a monotonically increasing version so recovery and the
//! consistency checker can prove no acknowledged write is lost or rolled
//! back.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Memory donated to the peer: holds the peer's replicated dirty pages.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RemoteStore {
    entries: HashMap<u64, u64>,
    capacity: usize,
}

impl RemoteStore {
    /// A store that holds up to `capacity` pages.
    pub fn new(capacity: usize) -> Self {
        RemoteStore {
            entries: HashMap::new(),
            capacity,
        }
    }

    /// Resize the store (dynamic memory allocation adjusts θ at runtime).
    /// Shrinking below the current occupancy is allowed — the entries stay
    /// until the owner flushes/discards them; new writes are refused instead.
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
    }

    /// Pages held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Store a replicated page. Returns false (rejected) when full — the
    /// writer must then fall back to a synchronous flush.
    pub fn write(&mut self, lpn: u64, version: u64) -> bool {
        if !self.entries.contains_key(&lpn) && self.entries.len() >= self.capacity {
            return false;
        }
        let e = self.entries.entry(lpn).or_insert(version);
        *e = (*e).max(version);
        true
    }

    /// Discard a page (its owner flushed it to SSD).
    pub fn discard(&mut self, lpn: u64) {
        self.entries.remove(&lpn);
    }

    /// Replicated version of `lpn`, if the store holds it.
    pub(crate) fn get(&self, lpn: u64) -> Option<u64> {
        self.entries.get(&lpn).copied()
    }

    /// Full contents, sorted by LPN — what a rebooted owner fetches during
    /// local-failure recovery ("reads RCT from neighboring server").
    pub fn snapshot(&self) -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = self.entries.iter().map(|(&l, &ver)| (l, ver)).collect();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remote_store_respects_capacity() {
        let mut s = RemoteStore::new(2);
        assert!(s.write(1, 1));
        assert!(s.write(2, 1));
        assert!(!s.write(3, 1), "full store rejects new pages");
        // Overwrite of an existing page is always accepted.
        assert!(s.write(1, 2));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn remote_store_snapshot_get_and_discard() {
        let mut s = RemoteStore::new(8);
        s.write(7, 1);
        s.write(3, 4);
        assert_eq!(s.snapshot(), vec![(3, 4), (7, 1)]);
        assert_eq!(s.get(3), Some(4));
        s.discard(3);
        assert_eq!(s.get(3), None);
        assert_eq!(s.snapshot(), vec![(7, 1)]);
        s.discard(7);
        assert!(s.is_empty());
    }

    #[test]
    fn remote_store_resize() {
        let mut s = RemoteStore::new(1);
        assert!(s.write(1, 1));
        assert!(!s.write(2, 1));
        s.set_capacity(2);
        assert!(s.write(2, 1));
        s.set_capacity(1); // shrink below occupancy: existing entries stay
        assert_eq!(s.len(), 2);
        assert!(!s.write(3, 1));
    }

    #[test]
    fn remote_store_version_monotone() {
        let mut s = RemoteStore::new(4);
        s.write(1, 5);
        s.write(1, 2);
        assert_eq!(s.get(1), Some(5));
    }
}
