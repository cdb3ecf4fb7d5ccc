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
pub struct LarBlock {
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

fn key(lbn: u64, b: &LarBlock) -> Key {
    (b.popularity, u32::MAX - b.dirty, lbn)
}

/// Directory of buffered logical blocks in LAR eviction order.
#[derive(Debug, Clone, Default)]
pub struct LarDirectory {
    blocks: HashMap<u64, LarBlock>,
    index: BTreeSet<Key>,
    /// The `index` keys of the blocks holding dirty pages, so the
    /// clustering pass's victim is a lookup, not a walk past clean blocks.
    dirty: BTreeSet<Key>,
    /// Ablation switch: ignore the dirty-count tie-break (pure popularity).
    popularity_only: bool,
}

impl LarDirectory {
    /// Empty directory with the paper's full two-level sort.
    pub fn new() -> Self {
        LarDirectory::default()
    }

    /// Ablation variant: first-level sort only (ties break by block number,
    /// not dirty count) — used to measure what Section III.B.2's second
    /// level buys.
    pub fn popularity_only() -> Self {
        LarDirectory {
            popularity_only: true,
            ..LarDirectory::default()
        }
    }

    fn key_of(&self, lbn: u64, b: &LarBlock) -> Key {
        if self.popularity_only {
            (b.popularity, 0, lbn)
        } else {
            key(lbn, b)
        }
    }

    /// Number of blocks with at least one resident page.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// True when no blocks are resident.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Metadata for a block, if resident.
    pub fn get(&self, lbn: u64) -> Option<&LarBlock> {
        self.blocks.get(&lbn)
    }

    /// Record one block access (one request touching this block).
    pub fn on_block_access(&mut self, lbn: u64) {
        self.update(lbn, |b| b.popularity += 1);
    }

    /// Adjust residency counters when pages enter/leave or change dirtiness.
    pub fn adjust(&mut self, lbn: u64, d_resident: i64, d_dirty: i64) {
        self.update(lbn, |b| {
            b.resident = (b.resident as i64 + d_resident).max(0) as u32;
            b.dirty = (b.dirty as i64 + d_dirty).max(0) as u32;
        });
        // Blocks with no resident pages leave the directory.
        if self
            .blocks
            .get(&lbn)
            .map(|b| b.resident == 0)
            .unwrap_or(false)
        {
            self.remove(lbn);
        }
    }

    /// The current victim: least popular, most dirty.
    pub fn victim(&self) -> Option<u64> {
        self.index.first().map(|&(_, _, lbn)| lbn)
    }

    /// Like [`LarDirectory::victim`] but only blocks holding dirty pages
    /// (used by the clustering pass, which gathers dirty tails).
    pub fn dirty_victim(&self) -> Option<u64> {
        self.dirty.first().map(|&(_, _, lbn)| lbn)
    }

    /// Remove a block entirely (after eviction).
    pub fn remove(&mut self, lbn: u64) -> Option<LarBlock> {
        let b = self.blocks.remove(&lbn)?;
        let k = self.key_of(lbn, &b);
        self.index.remove(&k);
        self.dirty.remove(&k);
        Some(b)
    }

    fn update(&mut self, lbn: u64, f: impl FnOnce(&mut LarBlock)) {
        let popularity_only = self.popularity_only;
        let key_fn = |lbn: u64, b: &LarBlock| {
            if popularity_only {
                (b.popularity, 0, lbn)
            } else {
                key(lbn, b)
            }
        };
        let entry = self.blocks.entry(lbn).or_default();
        let old = key_fn(lbn, entry);
        f(entry);
        let new = key_fn(lbn, entry);
        if old != new {
            self.index.remove(&old);
            self.dirty.remove(&old);
        }
        self.index.insert(new);
        if entry.dirty > 0 {
            self.dirty.insert(new);
        } else {
            self.dirty.remove(&new);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn least_popular_is_victim() {
        let mut d = LarDirectory::new();
        d.adjust(1, 1, 1);
        d.on_block_access(1);
        d.on_block_access(1);
        d.adjust(2, 1, 1);
        d.on_block_access(2);
        assert_eq!(d.victim(), Some(2));
        d.on_block_access(2);
        d.on_block_access(2);
        assert_eq!(d.victim(), Some(1));
    }

    #[test]
    fn dirty_count_breaks_popularity_ties() {
        // Figure 4: blocks 2 and 4 both have popularity 2; block 4 has three
        // dirty pages against two, so block 4 is the victim.
        let mut d = LarDirectory::new();
        d.adjust(2, 4, 2);
        d.on_block_access(2);
        d.on_block_access(2);
        d.adjust(4, 4, 3);
        d.on_block_access(4);
        d.on_block_access(4);
        assert_eq!(d.victim(), Some(4));
    }

    #[test]
    fn sequential_multi_page_access_counts_once() {
        // The caller is responsible for calling on_block_access once per
        // request; verify popularity reflects that contract.
        let mut d = LarDirectory::new();
        d.adjust(7, 6, 6); // six pages inserted by one request…
        d.on_block_access(7); // …but one popularity increment
        assert_eq!(d.get(7).unwrap().popularity, 1);
        assert_eq!(d.get(7).unwrap().resident, 6);
    }

    #[test]
    fn empty_blocks_leave_directory() {
        let mut d = LarDirectory::new();
        d.adjust(3, 2, 1);
        assert_eq!(d.len(), 1);
        d.adjust(3, -2, -1);
        assert!(d.is_empty());
        assert_eq!(d.victim(), None);
    }

    #[test]
    fn remove_returns_metadata() {
        let mut d = LarDirectory::new();
        d.adjust(5, 3, 2);
        d.on_block_access(5);
        let b = d.remove(5).unwrap();
        assert_eq!(b.resident, 3);
        assert_eq!(b.dirty, 2);
        assert_eq!(b.popularity, 1);
        assert!(d.remove(5).is_none());
        assert!(d.is_empty());
    }

    #[test]
    fn dirty_victim_skips_clean_blocks() {
        let mut d = LarDirectory::new();
        d.adjust(1, 2, 0); // clean block, least popular
        d.adjust(2, 2, 1); // dirty block
        d.on_block_access(2);
        assert_eq!(d.victim(), Some(1));
        assert_eq!(d.dirty_victim(), Some(2));
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
                    LarDirectory::popularity_only()
                } else {
                    LarDirectory::new()
                };
                for (op, lbn, d_resident, d_dirty) in ops {
                    match op {
                        0 => d.on_block_access(lbn),
                        1 => d.adjust(lbn, d_resident, d_dirty),
                        _ => {
                            d.remove(lbn);
                        }
                    }
                    prop_assert_eq!(d.dirty_victim(), scan(&d));
                }
            }
        }
    }

    #[test]
    fn counters_never_go_negative() {
        let mut d = LarDirectory::new();
        d.adjust(9, 1, 0);
        d.adjust(9, 0, -5); // dirty underflow clamps
        assert_eq!(d.get(9).unwrap().dirty, 0);
        assert_eq!(d.get(9).unwrap().resident, 1);
    }

    #[test]
    fn popularity_only_ignores_dirty_tiebreak() {
        let mut d = LarDirectory::popularity_only();
        d.adjust(2, 4, 2);
        d.on_block_access(2);
        d.adjust(4, 4, 3);
        d.on_block_access(4);
        // Same popularity; without the second level, the lower lbn wins
        // regardless of dirty counts (Figure 4 would pick block 4).
        assert_eq!(d.victim(), Some(2));
        d.remove(2);
        assert_eq!(d.victim(), Some(4));
        d.remove(4);
        assert!(d.is_empty());
    }

    #[test]
    fn index_and_map_stay_consistent_under_churn() {
        let mut d = LarDirectory::new();
        for i in 0..50u64 {
            d.adjust(i % 7, 1, i64::from(i % 2 == 0));
            if i % 3 == 0 {
                d.on_block_access(i % 7);
            }
        }
        // Every victim pop must correspond to a real block until empty.
        let mut seen = 0;
        while let Some(v) = d.victim() {
            assert!(d.get(v).is_some());
            d.remove(v);
            seen += 1;
            assert!(seen <= 7);
        }
        assert!(d.is_empty());
    }
}
