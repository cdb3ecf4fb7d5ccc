//! Flash Translation Layers.
//!
//! Three FTLs from the paper's evaluation (Section IV.A.3):
//!
//! * [`page_level::PageFtl`] — pure page-level mapping with greedy garbage
//!   collection (the "Page-based FTL" columns of Figures 6–8).
//! * [`bast::BastFtl`] — Block-Associative Sector Translation (Kim et al.):
//!   block-level data map plus per-logical-block log blocks.
//! * [`fast::FastFtl`] — Fully-Associative Sector Translation (Lee et al.):
//!   one sequential log block plus a shared, fully-associative random log
//!   block pool.
//!
//! BAST and FAST are one hybrid log-block scheme and differ only in how a
//! log block is associated with logical blocks, so they share one core (the
//! private `hybrid` module): the block-level data map, block allocation and
//! the switch / partial / full merges, each counted in one place.
//!
//! All of them share the [`FreePool`] block allocator (optionally wear-aware,
//! which is this simulator's wear-leveling mechanism: free-block allocation
//! always picks the least-worn candidate, cf. Chang's dual-pool schemes),
//! which also owns the one erase step — a dead block is erased back into the
//! pool, or retired once worn out — and report costs through
//! [`CostBreakdown`].

pub mod bast;
pub mod dftl;
pub mod fast;
mod hybrid;
pub mod page_level;

use crate::cost::CostBreakdown;
use crate::geometry::{BlockId, Geometry, Lpn};
use crate::nand::{NandArray, NandError};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Which FTL a device runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FtlKind {
    /// Page-level mapping with an unbounded in-RAM table.
    PageLevel,
    /// Block-Associative Sector Translation.
    Bast,
    /// Fully-Associative Sector Translation.
    Fast,
    /// Demand-based FTL: page-level mapping behind a bounded cached mapping
    /// table (extension; the paper cites DFTL in Section V.B).
    Dftl,
}

impl FtlKind {
    /// The paper's three evaluated FTLs, in figure order.
    pub const ALL: [FtlKind; 3] = [FtlKind::Bast, FtlKind::Fast, FtlKind::PageLevel];

    /// The paper's FTLs plus the DFTL extension.
    pub const ALL_EXTENDED: [FtlKind; 4] = [
        FtlKind::Bast,
        FtlKind::Fast,
        FtlKind::PageLevel,
        FtlKind::Dftl,
    ];

    /// Short display name matching the paper's figure captions.
    pub fn name(self) -> &'static str {
        match self {
            FtlKind::PageLevel => "Page-based",
            FtlKind::Bast => "BAST",
            FtlKind::Fast => "FAST",
            FtlKind::Dftl => "DFTL",
        }
    }
}

impl std::fmt::Display for FtlKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// FTL tunables.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FtlConfig {
    /// Log-block pool size for the hybrid FTLs (BAST: per-block-associative
    /// pool; FAST: 1 sequential + `log_blocks - 1` random log blocks).
    pub log_blocks: usize,
    /// Fraction of physical blocks reserved as over-provisioning (spare
    /// blocks for GC headroom and log blocks). Typical consumer SSDs ~7 %,
    /// enterprise 12–28 %.
    pub spare_fraction: f64,
    /// Page-level GC: refill the free pool up to this many blocks…
    pub gc_high_watermark: usize,
    /// …whenever it drops below this many.
    pub gc_low_watermark: usize,
    /// Wear-aware free-block allocation (the wear-leveling mechanism).
    pub wear_aware_alloc: bool,
    /// DFTL only: SRAM budget for the cached mapping table, in mapping
    /// entries (grouped into translation pages of `page_bytes / 8` entries).
    pub cmt_entries: usize,
}

impl Default for FtlConfig {
    fn default() -> Self {
        FtlConfig {
            log_blocks: 32,
            spare_fraction: 0.12,
            gc_high_watermark: 12,
            gc_low_watermark: 6,
            wear_aware_alloc: true,
            cmt_entries: 32_768,
        }
    }
}

impl FtlConfig {
    /// A small configuration for unit tests over [`Geometry::tiny`]: a
    /// 4-entry log pool and tight GC watermarks so merge/GC paths trigger
    /// with tiny workloads while leaving a usable logical space.
    pub fn tiny_test() -> Self {
        FtlConfig {
            log_blocks: 4,
            spare_fraction: 0.25,
            gc_high_watermark: 4,
            gc_low_watermark: 2,
            wear_aware_alloc: true,
            cmt_entries: 1024,
        }
    }

    /// Number of spare (non-logical) blocks for a given geometry: enough for
    /// the configured over-provisioning and never fewer than the hybrids'
    /// structural minimum (log pool + active blocks + merge headroom).
    pub fn spare_blocks(&self, geo: &Geometry) -> u32 {
        let frac = (self.spare_fraction.clamp(0.0, 0.9) * geo.blocks_total() as f64) as u32;
        let structural =
            self.log_blocks as u32 + 2 * geo.planes_total() + self.gc_high_watermark as u32 + 8;
        frac.max(structural).min(geo.blocks_total() - 1)
    }

    /// Host-visible logical pages for a given geometry.
    pub fn logical_pages(&self, geo: &Geometry) -> u64 {
        (geo.blocks_total() - self.spare_blocks(geo)) as u64 * geo.pages_per_block as u64
    }
}

/// Counters specific to FTL-internal activity (merges, GC migrations).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FtlStats {
    /// Switch merges (log block promoted to data block without copies).
    pub switch_merges: u64,
    /// Partial merges (tail of the data block copied into the log block).
    pub partial_merges: u64,
    /// Full merges (newest version of every page copied to a fresh block).
    pub full_merges: u64,
    /// Page-level GC victim blocks reclaimed.
    pub gc_victims: u64,
    /// Live pages migrated by GC or merges.
    pub page_copies: u64,
    /// Blocks retired after exceeding their rated erase cycles.
    pub retired_blocks: u64,
    /// DFTL: translation pages read on CMT misses.
    pub translation_reads: u64,
    /// DFTL: translation pages written back on dirty CMT evictions.
    pub translation_writes: u64,
}

impl FtlStats {
    /// Total merges of any type.
    pub fn merges(&self) -> u64 {
        self.switch_merges + self.partial_merges + self.full_merges
    }
}

/// The interface every FTL exposes to the device layer.
///
/// Requests address whole pages; `start + pages` must stay within
/// [`Ftl::logical_pages`]. The returned [`CostBreakdown`] covers *everything*
/// the request triggered, including synchronous GC/merge work, which is how
/// background internal operations "compete for resources with incoming
/// foreground requests" (Section II.C.2).
pub trait Ftl {
    /// Service a write of `pages` pages starting at `start`.
    fn write(&mut self, start: Lpn, pages: u32) -> CostBreakdown;

    /// Service a read of `pages` pages starting at `start`.
    fn read(&mut self, start: Lpn, pages: u32) -> CostBreakdown;

    /// Discard `pages` pages starting at `start` (TRIM): the host declares
    /// the data dead, so the FTL invalidates the mappings without any media
    /// writes — dead pages become free GC profit. This is how "short lived
    /// files … never really written to SSD" stay cheap even when some of
    /// their pages did reach the device (Section III.A).
    fn trim(&mut self, start: Lpn, pages: u32) -> CostBreakdown;

    /// Host-visible capacity in pages.
    fn logical_pages(&self) -> u64;

    /// Which FTL this is.
    fn kind(&self) -> FtlKind;

    /// Merge/GC counters.
    fn ftl_stats(&self) -> FtlStats;

    /// The physical array (erase counts, wear, utilisation introspection).
    fn nand(&self) -> &NandArray;

    /// Mutable physical array access (endurance-limit configuration).
    fn nand_mut(&mut self) -> &mut NandArray;
}

/// Free-block pool shared by the FTL implementations.
///
/// `wear_aware` allocation scans the (small) free list for the least-erased
/// block; FIFO otherwise. Released blocks must already be erased.
#[derive(Debug, Clone)]
pub struct FreePool {
    free: VecDeque<BlockId>,
    wear_aware: bool,
}

impl FreePool {
    /// Build a pool owning every block in `blocks`.
    pub fn new(blocks: impl IntoIterator<Item = BlockId>, wear_aware: bool) -> Self {
        FreePool {
            free: blocks.into_iter().collect(),
            wear_aware,
        }
    }

    /// Blocks currently free.
    pub fn len(&self) -> usize {
        self.free.len()
    }

    /// True when no blocks are free.
    pub fn is_empty(&self) -> bool {
        self.free.is_empty()
    }

    /// Take a block, preferring the least-worn when wear-aware.
    pub fn alloc(&mut self, nand: &NandArray) -> Option<BlockId> {
        if self.free.is_empty() {
            return None;
        }
        if !self.wear_aware {
            return self.free.pop_front();
        }
        let mut best = 0usize;
        let mut best_wear = u32::MAX;
        for (i, &b) in self.free.iter().enumerate() {
            let w = nand.erase_count(b);
            if w < best_wear {
                best_wear = w;
                best = i;
            }
        }
        self.free.remove(best)
    }

    /// Remove and return every free block (used by allocators that need to
    /// scan with their own criteria, e.g. plane-affine allocation).
    pub fn take_all(&mut self) -> Vec<BlockId> {
        self.free.drain(..).collect()
    }

    /// Return an erased block to the pool.
    pub fn release(&mut self, block: BlockId) {
        debug_assert!(
            !self.free.contains(&block),
            "double release of block {block:?}"
        );
        self.free.push_back(block);
    }

    /// Erase a dead `block` and return it to the pool, charging the erase
    /// to `cost`. A block past its rated erase cycles is retired instead —
    /// counted in `stats` and never reused. Returns whether the block came
    /// back to the pool.
    pub(crate) fn erase_release(
        &mut self,
        nand: &mut NandArray,
        block: BlockId,
        cost: &mut CostBreakdown,
        stats: &mut FtlStats,
    ) -> bool {
        match nand.erase(block, false) {
            Ok(()) => {
                cost.erase_on(nand.geometry().plane_of_block(block));
                self.release(block);
                true
            }
            Err(NandError::WornOut { .. }) => {
                stats.retired_blocks += 1;
                false
            }
            Err(e) => panic!("erasing a block that still holds data: {e}"),
        }
    }
}

/// Construct a boxed FTL of the given kind over a fresh NAND array.
pub fn build_ftl(kind: FtlKind, geo: Geometry, cfg: FtlConfig) -> Box<dyn Ftl + Send> {
    match kind {
        FtlKind::PageLevel => Box::new(page_level::PageFtl::new(geo, cfg)),
        FtlKind::Bast => Box::new(bast::BastFtl::new(geo, cfg)),
        FtlKind::Fast => Box::new(fast::FastFtl::new(geo, cfg)),
        FtlKind::Dftl => Box::new(dftl::DftlFtl::new(geo, cfg)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spare_blocks_respects_fraction_and_structure() {
        let geo = Geometry::small(); // 2048 blocks
        let cfg = FtlConfig::default();
        let spare = cfg.spare_blocks(&geo);
        // 12% of 2048 = 245.
        assert_eq!(spare, 245);
        assert_eq!(cfg.logical_pages(&geo), (2048 - 245) as u64 * 64);
    }

    #[test]
    fn spare_blocks_never_below_structural_minimum() {
        let geo = Geometry::tiny(); // 64 blocks, 2 planes
        let cfg = FtlConfig {
            spare_fraction: 0.0,
            ..FtlConfig::default()
        };
        let spare = cfg.spare_blocks(&geo);
        // 32 log + 4 active + 12 gc + 8 = 56, capped at blocks-1 = 63.
        assert_eq!(spare, 56);
    }

    #[test]
    fn spare_blocks_capped_below_total() {
        let geo = Geometry::tiny();
        let cfg = FtlConfig {
            spare_fraction: 5.0, // silly value clamps to 0.9
            log_blocks: 1000,
            ..FtlConfig::default()
        };
        assert!(cfg.spare_blocks(&geo) < geo.blocks_total());
    }

    #[test]
    fn free_pool_fifo_order_when_not_wear_aware() {
        let nand = NandArray::new(Geometry::tiny());
        let mut pool = FreePool::new([BlockId(3), BlockId(1), BlockId(2)], false);
        assert_eq!(pool.alloc(&nand), Some(BlockId(3)));
        assert_eq!(pool.alloc(&nand), Some(BlockId(1)));
        pool.release(BlockId(3));
        assert_eq!(pool.alloc(&nand), Some(BlockId(2)));
        assert_eq!(pool.alloc(&nand), Some(BlockId(3)));
        assert_eq!(pool.alloc(&nand), None);
    }

    #[test]
    fn free_pool_wear_aware_picks_least_worn() {
        let mut nand = NandArray::new(Geometry::tiny());
        nand.erase(BlockId(1), false).unwrap();
        nand.erase(BlockId(1), false).unwrap();
        nand.erase(BlockId(2), false).unwrap();
        let mut pool = FreePool::new([BlockId(1), BlockId(2), BlockId(3)], true);
        // Block 3 has 0 erases, block 2 has 1, block 1 has 2.
        assert_eq!(pool.alloc(&nand), Some(BlockId(3)));
        assert_eq!(pool.alloc(&nand), Some(BlockId(2)));
        assert_eq!(pool.alloc(&nand), Some(BlockId(1)));
    }

    #[test]
    fn ftl_kind_names_match_paper() {
        assert_eq!(FtlKind::Bast.to_string(), "BAST");
        assert_eq!(FtlKind::Fast.to_string(), "FAST");
        assert_eq!(FtlKind::PageLevel.to_string(), "Page-based");
        assert_eq!(FtlKind::ALL.len(), 3);
    }

    #[test]
    fn ftl_stats_merge_total() {
        let s = FtlStats {
            switch_merges: 1,
            partial_merges: 2,
            full_merges: 3,
            gc_victims: 0,
            page_copies: 10,
            ..FtlStats::default()
        };
        assert_eq!(s.merges(), 6);
    }
}
