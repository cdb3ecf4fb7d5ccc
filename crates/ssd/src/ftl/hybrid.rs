//! The hybrid log-block core shared by BAST and FAST (Section II.B,
//! Section II.C.2).
//!
//! Both hybrids keep a block-level data map (logical block → data block)
//! and page-mapped log blocks, and fold a log back into the data map with
//! one of three merges:
//!
//! * **switch merge** — the log block holds every offset in identity order;
//!   it simply *becomes* the data block (no copies, one erase of the old
//!   data block).
//! * **partial merge** — the log block holds a sequential prefix; the tail
//!   is copied in from the old data block at identity offsets, then switch.
//! * **full merge** — the newest copy of every offset is copied into a fresh
//!   block, and the old blocks are erased.
//!
//! [`Hybrid`] owns the state both need — geometry, the array, the free
//! pool, the data map, the capacity and the counters — and the three
//! merges, each counting its own [`FtlStats`] field. The hybrids differ only
//! in how a log block is associated with logical blocks: BAST dedicates one
//! log block to one logical block, FAST shares its random logs among all of
//! them. Each keeps its log bookkeeping, decides when to merge, and tells
//! the full merge where a page's newest copy lives.

use super::{worn_out, FreePool, FtlConfig, FtlStats};
use crate::cost::CostBreakdown;
use crate::geometry::{BlockId, Geometry, Lpn, Ppn};
use crate::nand::{NandArray, PageState};

/// The state and merges BAST and FAST share.
pub(super) struct Hybrid {
    pub(super) geo: Geometry,
    pub(super) nand: NandArray,
    pool: FreePool,
    /// Logical block → data block.
    pub(super) data_map: Vec<Option<BlockId>>,
    pub(super) logical_pages: u64,
    pub(super) stats: FtlStats,
}

impl Hybrid {
    /// A fresh array with every block free and no logical block mapped.
    pub(super) fn new(geo: Geometry, cfg: FtlConfig) -> Self {
        let logical_pages = cfg.logical_pages(&geo);
        let logical_blocks = (logical_pages / geo.pages_per_block as u64) as usize;
        Hybrid {
            geo,
            nand: NandArray::new(geo),
            pool: FreePool::new((0..geo.blocks_total()).map(BlockId), cfg.wear_aware_alloc),
            data_map: vec![None; logical_blocks],
            logical_pages,
            stats: FtlStats::default(),
        }
    }

    /// An empty cost for a request over `pages` pages from `start`, which
    /// must lie inside the logical capacity.
    pub(super) fn request(&self, what: &str, start: Lpn, pages: u32) -> CostBreakdown {
        assert!(
            start.0 + pages as u64 <= self.logical_pages,
            "{what} beyond logical capacity"
        );
        CostBreakdown::new(self.geo.planes_total())
    }

    /// Take a free block for a log or a merge destination.
    pub(super) fn alloc(&mut self) -> BlockId {
        let free = self.pool.alloc(&self.nand);
        free.unwrap_or_else(|| worn_out(&self.stats))
    }

    /// Erase a dead block back into the pool, or retire it if worn out.
    pub(super) fn erase_release(&mut self, block: BlockId, cost: &mut CostBreakdown) {
        self.pool
            .erase_release(&mut self.nand, block, cost, &mut self.stats);
    }

    /// `(lbn, off)`'s valid copy in its data block, if it has one there.
    pub(super) fn data_copy(&self, lbn: u64, off: u32) -> Option<Ppn> {
        let db = self.data_map[lbn as usize]?;
        let ppn = self.geo.ppn(db, off);
        (self.nand.page_state(ppn) == PageState::Valid).then_some(ppn)
    }

    /// Switch merge: `log` holds every offset of `lbn` in identity order
    /// and becomes its data block.
    pub(super) fn switch_merge(&mut self, lbn: u64, log: BlockId, cost: &mut CostBreakdown) {
        // Every offset of the old data block was superseded, so it is dead.
        self.install(lbn, log, cost);
        self.stats.switch_merges += 1;
    }

    /// Partial merge: `log` holds `lbn`'s offsets `0..from` in identity
    /// order; copy the data block's valid tail into it at the same offsets,
    /// then switch.
    pub(super) fn partial_merge(
        &mut self,
        lbn: u64,
        log: BlockId,
        from: u32,
        cost: &mut CostBreakdown,
    ) {
        let n = self.geo.pages_per_block;
        let log_plane = self.geo.plane_of_block(log);
        if let Some(db) = self.data_map[lbn as usize] {
            for off in from..n {
                let src = self.geo.ppn(db, off);
                if self.nand.page_state(src) == PageState::Valid {
                    cost.read_on(self.geo.plane_of_block(db));
                    self.nand
                        .program_at(log, off, Lpn(lbn * n as u64 + off as u64))
                        .expect("tail pages of a sequential log are free");
                    cost.program_on(log_plane);
                    self.nand.invalidate(src);
                    self.stats.page_copies += 1;
                }
            }
        }
        self.install(lbn, log, cost);
        self.stats.partial_merges += 1;
    }

    /// Full merge: copy the newest copy of every offset of `lbn` — wherever
    /// `newest` finds it — into a fresh block, which becomes the data block.
    /// `log`, a log block that dies with the merge, is erased before the
    /// old data block.
    pub(super) fn full_merge(
        &mut self,
        lbn: u64,
        log: Option<BlockId>,
        mut newest: impl FnMut(&Self, Lpn) -> Option<Ppn>,
        cost: &mut CostBreakdown,
    ) {
        let n = self.geo.pages_per_block;
        let new = self.alloc();
        let new_plane = self.geo.plane_of_block(new);
        for off in 0..n {
            let lpn = Lpn(lbn * n as u64 + off as u64);
            if let Some(src) = newest(self, lpn) {
                cost.read_on(self.geo.plane_of_ppn(src));
                self.nand
                    .program_at(new, off, lpn)
                    .expect("fresh merge destination");
                cost.program_on(new_plane);
                self.nand.invalidate(src);
                self.stats.page_copies += 1;
            }
        }
        if let Some(log) = log {
            self.erase_release(log, cost);
        }
        self.install(lbn, new, cost);
        self.stats.full_merges += 1;
    }

    /// Make `block` `lbn`'s data block, erasing the one it replaces.
    fn install(&mut self, lbn: u64, block: BlockId, cost: &mut CostBreakdown) {
        if let Some(db) = self.data_map[lbn as usize] {
            self.erase_release(db, cost);
        }
        self.data_map[lbn as usize] = Some(block);
    }
}
