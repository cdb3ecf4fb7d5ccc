//! LAR block directory — the two-level sort of Section III.B.2.
//!
//! The first level orders logical blocks by **popularity**: the number of
//! block accesses, where one request touching several pages of the same block
//! counts once ("Sequentially accessing multiple pages of the block is
//! treated as one block access"). Blocks written by long sequential runs thus
//! stay *unpopular* and get flushed early — exactly what the SSD wants.
//!
//! The second level breaks popularity ties by **dirty-page count**: among
//! equally-popular blocks, the one with the most dirty pages is evicted
//! first, so each flush carries as many dirty pages as possible and
//! "logically continuous pages can be physically placed onto continuous
//! pages" (Figure 4's example: block 4 beats block 2 at popularity 2 because
//! it holds 3 dirty pages against 2).

use std::collections::{BTreeSet, HashMap};

/// Per-block metadata.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct LarBlock {
    /// Block accesses (reads and writes; one per request per block).
    pub popularity: u64,
    /// Dirty resident pages.
    pub dirty: u32,
    /// Resident pages (dirty + clean).
    pub resident: u32,
}

/// Ordering key: least popularity first, then most dirty pages first.
/// `u32::MAX - dirty` makes larger dirty counts sort earlier within a
/// popularity class; the lbn disambiguates.
type Key = (u64, u32, u64);

/// Directory of buffered logical blocks in LAR eviction order.
#[derive(Debug, Clone, Default)]
pub(crate) struct LarDirectory {
    blocks: HashMap<u64, LarBlock>,
    index: BTreeSet<Key>,
    /// The `index` keys of the blocks holding dirty pages, so the
    /// clustering pass's victim is a lookup, not a walk past clean blocks.
    dirty: BTreeSet<Key>,
    /// Ablation switch: ignore the dirty-count tie-break (pure popularity,
    /// ties broken by block number) — used to measure what Section
    /// III.B.2's second level buys.
    popularity_only: bool,
}

impl LarDirectory {
    /// Empty directory: the paper's two-level sort with `dirty_tiebreak`,
    /// the first level alone without it.
    pub fn new(dirty_tiebreak: bool) -> Self {
        LarDirectory {
            popularity_only: !dirty_tiebreak,
            ..LarDirectory::default()
        }
    }

    /// The one key rule.
    fn key(&self, lbn: u64, b: &LarBlock) -> Key {
        let tiebreak = if self.popularity_only {
            0
        } else {
            u32::MAX - b.dirty
        };
        (b.popularity, tiebreak, lbn)
    }

    /// Metadata for a block, if resident.
    #[cfg(test)]
    pub fn get(&self, lbn: u64) -> Option<&LarBlock> {
        self.blocks.get(&lbn)
    }

    /// Record one block access (one request touching this block) if the
    /// block is resident — and, with `only_new`, only if it has no access
    /// yet.
    pub fn access(&mut self, lbn: u64, only_new: bool) {
        if let Some(b) = self.blocks.get(&lbn) {
            if !only_new || b.popularity == 0 {
                self.update(lbn, |b| b.popularity += 1);
            }
        }
    }

    /// Adjust residency counters when pages enter/leave or change dirtiness.
    pub fn adjust(&mut self, lbn: u64, d_resident: i64, d_dirty: i64) {
        let b = self.update(lbn, |b| {
            b.resident = (b.resident as i64 + d_resident).max(0) as u32;
            b.dirty = (b.dirty as i64 + d_dirty).max(0) as u32;
        });
        // Blocks with no resident pages leave the directory.
        if b.resident == 0 {
            self.remove(lbn);
        }
    }

    /// The current victim: least popular, most dirty.
    pub fn victim(&self) -> Option<(u64, LarBlock)> {
        self.index
            .first()
            .map(|&(_, _, lbn)| (lbn, self.blocks[&lbn]))
    }

    /// Like [`LarDirectory::victim`] but only blocks holding dirty pages
    /// (used by the clustering pass, which gathers dirty tails).
    pub fn dirty_victim(&self) -> Option<(u64, LarBlock)> {
        self.dirty
            .first()
            .map(|&(_, _, lbn)| (lbn, self.blocks[&lbn]))
    }

    /// Forget every block; the sort keeps its mode.
    pub fn clear(&mut self) {
        self.blocks.clear();
        self.index.clear();
        self.dirty.clear();
    }

    fn remove(&mut self, lbn: u64) {
        if let Some(b) = self.blocks.remove(&lbn) {
            let k = self.key(lbn, &b);
            self.index.remove(&k);
            self.dirty.remove(&k);
        }
    }

    fn update(&mut self, lbn: u64, f: impl FnOnce(&mut LarBlock)) -> LarBlock {
        let entry = self.blocks.entry(lbn).or_default();
        let before = *entry;
        f(entry);
        let after = *entry;
        let (old, new) = (self.key(lbn, &before), self.key(lbn, &after));
        if old != new {
            self.index.remove(&old);
            self.dirty.remove(&old);
        }
        self.index.insert(new);
        if after.dirty > 0 {
            self.dirty.insert(new);
        } else {
            self.dirty.remove(&new);
        }
        after
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn victim(d: &LarDirectory) -> Option<u64> {
        d.victim().map(|(lbn, _)| lbn)
    }

    #[test]
    fn least_popular_is_victim() {
        let mut d = LarDirectory::new(true);
        d.adjust(1, 1, 1);
        d.access(1, false);
        d.access(1, false);
        d.adjust(2, 1, 1);
        d.access(2, false);
        assert_eq!(victim(&d), Some(2));
        d.access(2, false);
        d.access(2, false);
        assert_eq!(victim(&d), Some(1));
    }

    #[test]
    fn dirty_count_breaks_popularity_ties() {
        // Figure 4: blocks 2 and 4 both have popularity 2; block 4 has three
        // dirty pages against two, so block 4 is the victim.
        let mut d = LarDirectory::new(true);
        d.adjust(2, 4, 2);
        d.access(2, false);
        d.access(2, false);
        d.adjust(4, 4, 3);
        d.access(4, false);
        d.access(4, false);
        assert_eq!(victim(&d), Some(4));
    }

    #[test]
    fn sequential_multi_page_access_counts_once() {
        // The caller is responsible for calling access once per
        // request; verify popularity reflects that contract.
        let mut d = LarDirectory::new(true);
        d.adjust(7, 6, 6); // six pages inserted by one request…
        d.access(7, false); // …but one popularity increment
        assert_eq!(d.get(7).unwrap().popularity, 1);
        assert_eq!(d.get(7).unwrap().resident, 6);
    }

    #[test]
    fn empty_blocks_leave_directory() {
        let mut d = LarDirectory::new(true);
        d.adjust(3, 2, 1);
        assert_eq!(d.blocks.len(), 1);
        d.adjust(3, -2, -1);
        assert!(d.blocks.is_empty());
        assert_eq!(victim(&d), None);
    }

    #[test]
    fn remove_forgets_the_block() {
        let mut d = LarDirectory::new(true);
        d.adjust(5, 3, 2);
        d.access(5, false);
        let meta = LarBlock {
            popularity: 1,
            dirty: 2,
            resident: 3,
        };
        assert_eq!(d.get(5), Some(&meta));
        d.remove(5);
        assert!(d.get(5).is_none());
        assert!(d.blocks.is_empty() && d.index.is_empty() && d.dirty.is_empty());
    }

    #[test]
    fn access_counts_resident_blocks_only() {
        let mut d = LarDirectory::new(true);
        d.access(3, false);
        assert!(d.blocks.is_empty(), "no entry without a resident page");
        d.adjust(3, 1, 0);
        d.access(3, true);
        d.access(3, true); // only the first access of a new block counts
        assert_eq!(d.get(3).unwrap().popularity, 1);
        d.access(3, false);
        assert_eq!(d.get(3).unwrap().popularity, 2);
    }

    #[test]
    fn clear_keeps_the_mode() {
        let mut d = LarDirectory::new(false);
        d.adjust(1, 1, 1);
        d.clear();
        assert!(d.blocks.is_empty() && d.index.is_empty() && d.dirty.is_empty());
        assert!(d.popularity_only);
    }

    #[test]
    fn dirty_victim_skips_clean_blocks() {
        let mut d = LarDirectory::new(true);
        d.adjust(1, 2, 0); // clean block, least popular
        d.adjust(2, 2, 1); // dirty block
        d.access(2, false);
        assert_eq!(victim(&d), Some(1));
        assert_eq!(d.dirty_victim().map(|(lbn, _)| lbn), Some(2));
    }

    mod dirty_index_prop {
        use super::*;
        use proptest::prelude::*;

        /// The walk `dirty_victim` used to make: the first block in
        /// eviction order that holds a dirty page.
        fn scan(d: &LarDirectory) -> Option<u64> {
            d.index
                .iter()
                .map(|&(_, _, lbn)| lbn)
                .find(|lbn| d.blocks[lbn].dirty > 0)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            /// Over any access / adjust / remove sequence, with and without
            /// the dirty-count tie-break, the dirty index answers what the
            /// walk does.
            #[test]
            fn dirty_victim_equals_the_scan(
                popularity_only in prop::bool::ANY,
                ops in prop::collection::vec((0u8..3, 0u64..12, -3i64..4, -3i64..4), 1..200),
            ) {
                let mut d = if popularity_only {
                    LarDirectory::new(false)
                } else {
                    LarDirectory::new(true)
                };
                for (op, lbn, d_resident, d_dirty) in ops {
                    match op {
                        0 => d.access(lbn, false),
                        1 => d.adjust(lbn, d_resident, d_dirty),
                        _ => {
                            d.remove(lbn);
                        }
                    }
                    prop_assert_eq!(d.dirty_victim().map(|(lbn, _)| lbn), scan(&d));
                }
            }
        }
    }

    #[test]
    fn counters_never_go_negative() {
        let mut d = LarDirectory::new(true);
        d.adjust(9, 1, 0);
        d.adjust(9, 0, -5); // dirty underflow clamps
        assert_eq!(d.get(9).unwrap().dirty, 0);
        assert_eq!(d.get(9).unwrap().resident, 1);
    }

    #[test]
    fn popularity_only_ignores_dirty_tiebreak() {
        let mut d = LarDirectory::new(false);
        d.adjust(2, 4, 2);
        d.access(2, false);
        d.adjust(4, 4, 3);
        d.access(4, false);
        // Same popularity; without the second level, the lower lbn wins
        // regardless of dirty counts (Figure 4 would pick block 4).
        assert_eq!(victim(&d), Some(2));
        d.remove(2);
        assert_eq!(victim(&d), Some(4));
        d.remove(4);
        assert!(d.blocks.is_empty());
    }

    #[test]
    fn index_and_map_stay_consistent_under_churn() {
        let mut d = LarDirectory::new(true);
        for i in 0..50u64 {
            d.adjust(i % 7, 1, i64::from(i % 2 == 0));
            if i % 3 == 0 {
                d.access(i % 7, false);
            }
        }
        // Every victim pop must correspond to a real block until empty.
        let mut seen = 0;
        while let Some(v) = victim(&d) {
            assert!(d.get(v).is_some());
            d.remove(v);
            seen += 1;
            assert!(seen <= 7);
        }
        assert!(d.blocks.is_empty());
    }
}
