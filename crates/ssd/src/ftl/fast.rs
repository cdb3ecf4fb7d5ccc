//! FAST — Fully-Associative Sector Translation (Lee et al., 2007).
//!
//! Like BAST, FAST keeps a block-level data map plus log blocks (the
//! `hybrid` core), but the log pool is **fully associative**: one log block
//! is dedicated to sequential streams (the *SW log*), and the remaining
//! *RW log* blocks accept random writes from *any* logical block (Section
//! V.B). This postpones merges far longer than BAST — an RW log
//! block fills with pages from many logical blocks — but when the RW pool
//! finally overflows, the evicted block forces a *cascade* of full merges,
//! one per logical block with a page inside it ("At the worst case, each
//! individual page in a log block would belong to a different mapping unit
//! and needs expensive full merge operation correspondingly", Section
//! II.C.2).

use super::hybrid::Hybrid;
use super::{Ftl, FtlConfig, FtlKind, FtlStats};
use crate::cost::CostBreakdown;
use crate::geometry::{BlockId, Geometry, Lpn, Ppn};
use crate::nand::{NandArray, PageState};
use std::collections::{HashMap, VecDeque};

/// The sequential-write log block: dedicated to one logical block, filled in
/// identity order from offset 0.
#[derive(Debug, Clone, Copy)]
struct SwLog {
    phys: BlockId,
    lbn: u64,
    /// Next expected logical offset (== pages appended).
    next_off: u32,
}

/// Fully-Associative Sector Translation FTL.
pub struct FastFtl {
    core: Hybrid,
    sw: Option<SwLog>,
    /// Currently-filling random log block.
    rw_active: Option<BlockId>,
    /// Filled random log blocks, oldest first (eviction order).
    rw_full: VecDeque<BlockId>,
    /// LPN → physical page, for pages living in RW log blocks.
    page_map: HashMap<u64, Ppn>,
    max_rw: usize,
}

/// The valid copy of `lpn` outside the RW logs: in the SW log, else in its
/// data block.
fn sw_or_data(core: &Hybrid, sw: Option<SwLog>, lpn: Lpn) -> Option<Ppn> {
    let lbn = lpn.lbn(&core.geo);
    let off = lpn.block_offset(&core.geo);
    sw.filter(|sw| sw.lbn == lbn && off < sw.next_off)
        .map(|sw| core.geo.ppn(sw.phys, off))
        .filter(|&ppn| core.nand.page_state(ppn) == PageState::Valid)
        .or_else(|| core.data_copy(lbn, off))
}

impl FastFtl {
    /// Build over a fresh array. The log pool splits into 1 SW log and
    /// `log_blocks - 1` RW logs.
    pub fn new(geo: Geometry, cfg: FtlConfig) -> Self {
        FastFtl {
            core: Hybrid::new(geo, cfg),
            sw: None,
            rw_active: None,
            rw_full: VecDeque::new(),
            page_map: HashMap::new(),
            max_rw: cfg.log_blocks.saturating_sub(1).max(1),
        }
    }

    /// Number of RW log blocks currently holding data (full + active).
    pub fn live_rw_blocks(&self) -> usize {
        self.rw_full.len() + usize::from(self.rw_active.is_some())
    }

    /// The single valid physical copy of `lpn`, if any.
    fn valid_copy(&self, lpn: Lpn) -> Option<Ppn> {
        if let Some(&ppn) = self.page_map.get(&lpn.0) {
            debug_assert_eq!(self.core.nand.page_state(ppn), PageState::Valid);
            return Some(ppn);
        }
        sw_or_data(&self.core, self.sw, lpn)
    }

    /// Invalidate the current copy of `lpn` before writing a new version.
    fn invalidate_current(&mut self, lpn: Lpn) {
        let current = self.page_map.remove(&lpn.0);
        if let Some(ppn) = current.or_else(|| sw_or_data(&self.core, self.sw, lpn)) {
            self.core.nand.invalidate(ppn);
        }
    }

    /// Full merge of one logical block: gather the newest version of every
    /// page (RW logs, SW log, data block) into a fresh block, then erase the
    /// SW log if it belonged to this block (it is empty now).
    fn merge_full(&mut self, lbn: u64, cost: &mut CostBreakdown) {
        let (page_map, sw) = (&mut self.page_map, self.sw);
        let newest = |core: &Hybrid, lpn: Lpn| {
            page_map
                .remove(&lpn.0)
                .or_else(|| sw_or_data(core, sw, lpn))
        };
        self.core.full_merge(lbn, None, newest, cost);
        if let Some(sw) = self.sw.filter(|sw| sw.lbn == lbn) {
            debug_assert_eq!(self.core.nand.valid_pages(sw.phys), 0);
            self.core.erase_release(sw.phys, cost);
            self.sw = None;
        }
    }

    /// Reconcile the SW log with its data block and retire it.
    fn merge_sw(&mut self, cost: &mut CostBreakdown) {
        let Some(sw) = self.sw else { return };
        let valid = self.core.nand.valid_pages(sw.phys);
        if valid == self.core.geo.pages_per_block {
            // Full, and every offset's newest version is in the SW log.
            self.core.switch_merge(sw.lbn, sw.phys, cost);
        } else if valid == sw.next_off {
            // Clean sequential prefix: copy the tail from the data block.
            self.core.partial_merge(sw.lbn, sw.phys, sw.next_off, cost);
        } else {
            // Holes in the SW log (later random writes superseded pages):
            // fall back to a full merge, which gathers from all locations
            // and erases the SW log.
            self.merge_full(sw.lbn, cost);
            debug_assert!(self.sw.is_none());
        }
        self.sw = None;
    }

    fn append_sw(&mut self, lpn: Lpn, cost: &mut CostBreakdown) {
        self.invalidate_current(lpn);
        let sw = self.sw.as_mut().expect("SW log active");
        let phys = sw.phys;
        sw.next_off += 1;
        let n = self.core.geo.pages_per_block;
        let full = sw.next_off == n;
        self.core
            .nand
            .program_append(phys, lpn)
            .expect("SW log has room");
        cost.bus(1);
        cost.program_on(self.core.geo.plane_of_block(phys));
        if full {
            self.merge_sw(cost);
        }
    }

    /// Evict the oldest full RW log block: full-merge every logical block
    /// with a page inside it, then erase (the merge cascade).
    fn evict_rw(&mut self, cost: &mut CostBreakdown) {
        let victim = self.rw_full.pop_front().expect("evict called when full");
        let mut lbns: Vec<u64> = self
            .core
            .nand
            .valid_entries(victim)
            .into_iter()
            .map(|(_, lpn)| lpn.lbn(&self.core.geo))
            .collect();
        lbns.sort_unstable();
        lbns.dedup();
        for lbn in lbns {
            self.merge_full(lbn, cost);
        }
        debug_assert_eq!(self.core.nand.valid_pages(victim), 0);
        self.core.erase_release(victim, cost);
    }

    fn append_rw(&mut self, lpn: Lpn, cost: &mut CostBreakdown) {
        // Ensure an RW block with headroom.
        let need_new = match self.rw_active {
            None => true,
            Some(b) => {
                if self.core.nand.free_pages(b) == 0 {
                    self.rw_full.push_back(b);
                    self.rw_active = None;
                    true
                } else {
                    false
                }
            }
        };
        if need_new {
            if self.rw_full.len() >= self.max_rw {
                self.evict_rw(cost);
            }
            self.rw_active = Some(self.core.alloc());
        }
        let blk = self.rw_active.expect("just ensured");
        self.invalidate_current(lpn);
        let ppn = self
            .core
            .nand
            .program_append(blk, lpn)
            .expect("RW log has room");
        self.page_map.insert(lpn.0, ppn);
        cost.bus(1);
        cost.program_on(self.core.geo.plane_of_block(blk));
    }

    fn write_page(&mut self, lpn: Lpn, cost: &mut CostBreakdown) {
        let lbn = lpn.lbn(&self.core.geo);
        let off = lpn.block_offset(&self.core.geo);
        if off == 0 {
            // A new sequential stream starts: retire any active SW log and
            // dedicate a fresh one to this block.
            self.merge_sw(cost);
            let phys = self.core.alloc();
            self.sw = Some(SwLog {
                phys,
                lbn,
                next_off: 0,
            });
            self.append_sw(lpn, cost);
            return;
        }
        if let Some(sw) = &self.sw {
            if sw.lbn == lbn && sw.next_off == off {
                self.append_sw(lpn, cost);
                return;
            }
        }
        self.append_rw(lpn, cost);
    }
}

impl Ftl for FastFtl {
    fn write(&mut self, start: Lpn, pages: u32) -> CostBreakdown {
        let mut cost = self.core.request("write", start, pages);
        for i in 0..pages {
            self.write_page(Lpn(start.0 + i as u64), &mut cost);
        }
        cost
    }

    fn read(&mut self, start: Lpn, pages: u32) -> CostBreakdown {
        let mut cost = self.core.request("read", start, pages);
        for i in 0..pages {
            let lpn = Lpn(start.0 + i as u64);
            cost.bus(1);
            if let Some(ppn) = self.valid_copy(lpn) {
                cost.read_on(self.core.geo.plane_of_ppn(ppn));
            }
        }
        cost
    }

    fn trim(&mut self, start: Lpn, pages: u32) -> CostBreakdown {
        let cost = self.core.request("trim", start, pages);
        for i in 0..pages {
            self.invalidate_current(Lpn(start.0 + i as u64));
        }
        cost
    }

    fn logical_pages(&self) -> u64 {
        self.core.logical_pages
    }

    fn kind(&self) -> FtlKind {
        FtlKind::Fast
    }

    fn ftl_stats(&self) -> FtlStats {
        self.core.stats
    }

    fn nand(&self) -> &NandArray {
        &self.core.nand
    }

    fn nand_mut(&mut self) -> &mut NandArray {
        &mut self.core.nand
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_simkit::DetRng;

    fn ftl() -> FastFtl {
        FastFtl::new(Geometry::tiny(), FtlConfig::tiny_test())
    }

    fn check(f: &FastFtl, lpn: u64) {
        let copy = f.valid_copy(Lpn(lpn)).expect("page exists");
        assert_eq!(f.core.nand.read(copy).unwrap(), Lpn(lpn));
    }

    #[test]
    fn full_sequential_block_switch_merges() {
        let mut f = ftl();
        let n = f.core.geo.pages_per_block;
        let cost = f.write(Lpn(0), n);
        // Filling the SW log exactly triggers an immediate switch merge.
        assert_eq!(f.ftl_stats().switch_merges, 1);
        assert_eq!(f.ftl_stats().page_copies, 0);
        assert_eq!(cost.total_erases(), 0); // no old data block existed
        assert!(f.sw.is_none());
        for i in 0..n as u64 {
            check(&f, i);
        }
    }

    #[test]
    fn new_stream_retires_previous_sw_with_partial_merge() {
        let mut f = ftl();
        let n = f.core.geo.pages_per_block as u64;
        f.write(Lpn(0), 2); // sequential prefix of block 0 in SW
        f.write(Lpn(n), 1); // offset 0 of block 1 → merges block 0's SW first
        let s = f.ftl_stats();
        assert_eq!(s.partial_merges, 1, "stats {s:?}");
        check(&f, 0);
        check(&f, 1);
        check(&f, n);
    }

    #[test]
    fn random_writes_go_to_rw_log_and_survive() {
        let mut f = ftl();
        // Offsets != 0 with no active SW stream land in RW logs.
        f.write(Lpn(1), 1);
        f.write(Lpn(7), 1);
        f.write(Lpn(13), 1);
        assert_eq!(f.live_rw_blocks(), 1);
        assert_eq!(f.page_map.len(), 3);
        check(&f, 1);
        check(&f, 7);
        check(&f, 13);
    }

    #[test]
    fn rw_overflow_triggers_merge_cascade() {
        let mut f = ftl();
        let n = f.core.geo.pages_per_block as u64;
        let logical_blocks = f.core.data_map.len() as u64;
        // Scatter single-page writes (offset 1 of distinct blocks) until the
        // RW pool overflows. Each eviction full-merges several blocks.
        let writes = (f.max_rw as u64 + 2) * n + 4;
        for i in 0..writes {
            let lbn = i % logical_blocks;
            f.write(Lpn(lbn * n + 1 + (i / logical_blocks) % (n - 1)), 1);
        }
        let s = f.ftl_stats();
        assert!(s.full_merges > 0, "expected cascade, stats {s:?}");
        assert!(s.page_copies > 0);
        assert!(f.core.nand.total_erases() > 0);
    }

    #[test]
    fn rw_pool_respects_cap() {
        let mut f = ftl();
        let n = f.core.geo.pages_per_block as u64;
        for i in 0..200u64 {
            let lbn = i % (f.core.data_map.len() as u64);
            f.write(Lpn(lbn * n + 1), 1);
            assert!(f.live_rw_blocks() <= f.max_rw + 1);
        }
    }

    #[test]
    fn sw_with_holes_falls_back_to_full_merge() {
        let mut f = ftl();
        let n = f.core.geo.pages_per_block as u64;
        f.write(Lpn(0), 2); // SW holds offsets 0,1 of block 0
        f.write(Lpn(1), 1); // random rewrite of offset 1 → RW, hole in SW
        f.write(Lpn(n), 1); // new stream → SW merge must not resurrect stale page 1
        let s = f.ftl_stats();
        assert!(s.full_merges >= 1, "stats {s:?}");
        check(&f, 0);
        check(&f, 1);
        check(&f, n);
    }

    #[test]
    fn overwrite_via_mixed_paths_keeps_single_valid_copy() {
        let mut f = ftl();
        let n = f.core.geo.pages_per_block;
        f.write(Lpn(0), n); // switch-merged data block
        f.write(Lpn(2), 1); // RW overwrite of offset 2
                            // Exactly one valid copy of page 2.
        check(&f, 2);
        let db = f.core.data_map[0].unwrap();
        let data_page = f.core.geo.ppn(db, 2);
        assert_eq!(f.core.nand.page_state(data_page), PageState::Invalid);
    }

    #[test]
    fn data_survives_heavy_random_churn() {
        let mut f = ftl();
        let logical = f.logical_pages();
        let mut rng = DetRng::new(21);
        let mut written = std::collections::HashSet::new();
        for _ in 0..5000 {
            let lpn = rng.below(logical);
            f.write(Lpn(lpn), 1);
            written.insert(lpn);
        }
        for &lpn in &written {
            check(&f, lpn);
        }
    }

    #[test]
    fn data_survives_mixed_sequential_and_random_churn() {
        let mut f = ftl();
        let logical = f.logical_pages();
        let n = f.core.geo.pages_per_block as u64;
        let mut rng = DetRng::new(22);
        let mut written = std::collections::HashSet::new();
        for _ in 0..800 {
            if rng.chance(0.4) {
                // Sequential run, possibly spanning blocks.
                let len = rng.range_inclusive(2, 2 * n).min(logical);
                let start = rng.below(logical - len + 1);
                f.write(Lpn(start), len as u32);
                for l in start..start + len {
                    written.insert(l);
                }
            } else {
                let lpn = rng.below(logical);
                f.write(Lpn(lpn), 1);
                written.insert(lpn);
            }
        }
        for &lpn in &written {
            check(&f, lpn);
        }
    }

    #[test]
    fn reads_charge_bus_always_and_cell_reads_when_mapped() {
        let mut f = ftl();
        f.write(Lpn(1), 1);
        let c = f.read(Lpn(0), 3);
        assert_eq!(c.bus_transfers, 3);
        assert_eq!(c.total_reads(), 1);
    }
}
