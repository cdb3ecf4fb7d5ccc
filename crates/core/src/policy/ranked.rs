//! Page-granular LRU / LFU directories — the comparison policies.
//!
//! The paper evaluates FlashCoop with classic recency- and frequency-based
//! replacement to show that hit-ratio-only policies "are not effective for
//! SSD because sequential locality is unfortunately ignored" (Section V.A).
//! Both are page-granular: the victim is a single page, and a dirty victim
//! produces the small writes that dominate their Figure 8 distributions.

use std::collections::{BTreeSet, HashMap};

/// Ordering key: (rank, insertion stamp, lpn). For LRU the rank is the last
/// access stamp; for LFU it is the access count.
type Key = (u64, u64, u64);

/// Page directory in LRU or LFU eviction order.
#[derive(Debug, Clone)]
pub(crate) struct RankedDirectory {
    /// Least-frequently-used first (FIFO within a frequency class) when
    /// set, least-recently-used first when not.
    lfu: bool,
    stamp: u64,
    entries: HashMap<u64, Key>,
    index: BTreeSet<Key>,
}

impl RankedDirectory {
    /// Empty directory, LFU order if `lfu`, else LRU.
    pub fn new(lfu: bool) -> Self {
        RankedDirectory {
            lfu,
            stamp: 0,
            entries: HashMap::new(),
            index: BTreeSet::new(),
        }
    }

    /// True in LFU order.
    pub fn lfu(&self) -> bool {
        self.lfu
    }

    /// Record an access to `lpn`, inserting it if new.
    pub fn touch(&mut self, lpn: u64) {
        self.stamp += 1;
        let stamp = self.stamp;
        let old = self.entries.get(&lpn).copied();
        let new = match (self.lfu, old) {
            (false, _) => (stamp, stamp, lpn),
            (true, Some((freq, first, _))) => (freq + 1, first, lpn),
            (true, None) => (1, stamp, lpn),
        };
        if let Some(o) = old {
            self.index.remove(&o);
        }
        self.index.insert(new);
        self.entries.insert(lpn, new);
    }

    /// The current victim page.
    pub fn victim(&self) -> Option<u64> {
        self.index.first().map(|&(_, _, lpn)| lpn)
    }

    /// Remove a page (evicted or invalidated).
    pub fn remove(&mut self, lpn: u64) -> bool {
        match self.entries.remove(&lpn) {
            Some(k) => self.index.remove(&k),
            None => false,
        }
    }

    /// Forget every page; the order keeps its mode.
    pub fn clear(&mut self) {
        *self = RankedDirectory::new(self.lfu);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LRU: bool = false;
    const LFU: bool = true;

    #[test]
    fn lru_evicts_least_recent() {
        let mut d = RankedDirectory::new(LRU);
        d.touch(1);
        d.touch(2);
        d.touch(3);
        assert_eq!(d.victim(), Some(1));
        d.touch(1); // 2 becomes the oldest
        assert_eq!(d.victim(), Some(2));
        assert_eq!(d.entries.len(), 3);
    }

    #[test]
    fn lfu_evicts_least_frequent() {
        let mut d = RankedDirectory::new(LFU);
        d.touch(1);
        d.touch(1);
        d.touch(2);
        d.touch(3);
        d.touch(3);
        d.touch(3);
        assert_eq!(d.victim(), Some(2));
        d.touch(2);
        d.touch(2); // 2 now at 3 accesses; 1 has 2
        assert_eq!(d.victim(), Some(1));
    }

    #[test]
    fn lfu_breaks_frequency_ties_fifo() {
        let mut d = RankedDirectory::new(LFU);
        d.touch(10);
        d.touch(20);
        d.touch(30);
        // All at frequency 1: the first-inserted is the victim.
        assert_eq!(d.victim(), Some(10));
        d.remove(10);
        assert_eq!(d.victim(), Some(20));
    }

    #[test]
    fn remove_is_idempotent() {
        let mut d = RankedDirectory::new(LRU);
        d.touch(5);
        assert!(d.remove(5));
        assert!(!d.remove(5));
        assert!(d.entries.is_empty());
        assert_eq!(d.victim(), None);
    }

    #[test]
    fn contains_tracks_membership() {
        let mut d = RankedDirectory::new(LFU);
        assert!(!d.entries.contains_key(&1));
        d.touch(1);
        assert!(d.entries.contains_key(&1));
        d.remove(1);
        assert!(!d.entries.contains_key(&1));
    }

    #[test]
    fn clear_keeps_the_mode() {
        let mut d = RankedDirectory::new(LFU);
        d.touch(1);
        d.clear();
        assert!(d.entries.is_empty() && d.index.is_empty());
        assert!(d.lfu());
    }

    #[test]
    fn index_consistent_under_churn() {
        let mut d = RankedDirectory::new(LFU);
        for i in 0..200u64 {
            d.touch(i % 13);
            if i % 5 == 0 {
                d.remove((i + 1) % 13);
            }
        }
        let mut popped = 0;
        while let Some(v) = d.victim() {
            assert!(d.remove(v));
            popped += 1;
            assert!(popped <= 13);
        }
        assert!(d.entries.is_empty());
    }
}
