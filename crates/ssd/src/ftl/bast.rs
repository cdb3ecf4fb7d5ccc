//! BAST — Block-Associative Sector Translation (Kim et al., 2002).
//!
//! A block-level data map plus a small pool of page-mapped **log blocks**,
//! each exclusively associated with one logical block (Section II.B,
//! "hybrid-level FTL"; Section V.B). Writes always append to the owning log
//! block; when a log block fills, the pool overflows, or its data must be
//! reconciled, a merge of the `hybrid` core folds log + data into a single
//! block: a switch merge when the log holds the whole block in order, a
//! partial merge when it holds an in-order prefix, a full merge otherwise.
//!
//! In the presence of small random writes each log block is evicted holding
//! only a few pages and almost every merge is a full merge — the behaviour
//! that makes BAST the FTL that benefits most from FlashCoop's
//! sequentialisation (Section IV.B.4).

use super::hybrid::Hybrid;
use super::{Ftl, FtlConfig, FtlKind, FtlStats};
use crate::cost::CostBreakdown;
use crate::geometry::{BlockId, Geometry, Lpn};
use crate::nand::{NandArray, PageState};
use std::collections::{HashMap, VecDeque};

/// Per-log-block metadata: the page-level map inside one log block.
#[derive(Debug, Clone)]
struct LogBlock {
    phys: BlockId,
    /// Logical offset → physical page offset of the *latest* version.
    slots: Vec<Option<u32>>,
    /// Pages appended so far.
    appended: u32,
    /// True while appends have followed identity order (offset i at page i).
    sequential: bool,
}

impl LogBlock {
    fn new(phys: BlockId, pages_per_block: u32) -> Self {
        LogBlock {
            phys,
            slots: vec![None; pages_per_block as usize],
            appended: 0,
            sequential: true,
        }
    }
}

/// Block-Associative Sector Translation FTL.
pub struct BastFtl {
    core: Hybrid,
    /// Logical block → its dedicated log block.
    logs: HashMap<u64, LogBlock>,
    /// FIFO of log-block owners for eviction.
    log_fifo: VecDeque<u64>,
    max_logs: usize,
}

impl BastFtl {
    /// Build over a fresh array.
    pub fn new(geo: Geometry, cfg: FtlConfig) -> Self {
        BastFtl {
            core: Hybrid::new(geo, cfg),
            logs: HashMap::new(),
            log_fifo: VecDeque::new(),
            max_logs: cfg.log_blocks.max(2),
        }
    }

    /// Number of log blocks currently in use.
    pub fn live_log_blocks(&self) -> usize {
        self.logs.len()
    }

    /// Invalidate the currently-valid copy of `(lbn, off)`, wherever it lives.
    fn invalidate_current(&mut self, lbn: u64, off: u32) {
        let core = &mut self.core;
        let in_log = self.logs.get(&lbn).and_then(|lb| {
            let p = lb.slots[off as usize]?;
            Some(core.geo.ppn(lb.phys, p))
        });
        if let Some(ppn) = in_log.or_else(|| core.data_copy(lbn, off)) {
            core.nand.invalidate(ppn);
        }
    }

    /// Fold the log block for `lbn` back into a single data block.
    fn merge(&mut self, lbn: u64, cost: &mut CostBreakdown) {
        let Some(lb) = self.logs.remove(&lbn) else {
            return;
        };
        self.log_fifo.retain(|&l| l != lbn);
        if lb.sequential && lb.appended == self.core.geo.pages_per_block {
            self.core.switch_merge(lbn, lb.phys, cost);
        } else if lb.sequential {
            self.core.partial_merge(lbn, lb.phys, lb.appended, cost);
        } else {
            // The newest copy is in the log if it holds the offset, else in
            // the data block.
            let newest = |core: &Hybrid, lpn: Lpn| {
                let off = lpn.block_offset(&core.geo);
                lb.slots[off as usize]
                    .map(|p| core.geo.ppn(lb.phys, p))
                    .filter(|&ppn| core.nand.page_state(ppn) == PageState::Valid)
                    .or_else(|| core.data_copy(lbn, off))
            };
            self.core.full_merge(lbn, Some(lb.phys), newest, cost);
        }
    }

    /// Get (or create, evicting if necessary) the log block for `lbn`, with
    /// at least one free page.
    fn log_for_write(&mut self, lbn: u64, cost: &mut CostBreakdown) -> &mut LogBlock {
        // A full log block must be merged before accepting another page.
        if self
            .logs
            .get(&lbn)
            .map(|lb| self.core.nand.free_pages(lb.phys) == 0)
            .unwrap_or(false)
        {
            self.merge(lbn, cost);
        }
        if !self.logs.contains_key(&lbn) {
            if self.logs.len() >= self.max_logs {
                let victim = self
                    .log_fifo
                    .front()
                    .copied()
                    .expect("log fifo tracks every log block");
                self.merge(victim, cost);
            }
            let phys = self.core.alloc();
            self.logs
                .insert(lbn, LogBlock::new(phys, self.core.geo.pages_per_block));
            self.log_fifo.push_back(lbn);
        }
        self.logs.get_mut(&lbn).expect("just ensured")
    }

    fn write_page(&mut self, lpn: Lpn, cost: &mut CostBreakdown) {
        let lbn = lpn.lbn(&self.core.geo);
        let off = lpn.block_offset(&self.core.geo);
        // Ensure the log block *before* invalidating the old copy: creating
        // it may merge (this block's full log, or an evicted one), and a
        // merge must still see the old copy as the valid version.
        let lb = self.log_for_write(lbn, cost);
        let (phys, expected_page) = (lb.phys, lb.appended);
        self.invalidate_current(lbn, off);
        let ppn = self
            .core
            .nand
            .program_append(phys, lpn)
            .expect("log block has a free page");
        let page = self.core.geo.page_of(ppn);
        debug_assert_eq!(page, expected_page);
        let lb = self.logs.get_mut(&lbn).expect("still present");
        lb.slots[off as usize] = Some(page);
        lb.appended += 1;
        lb.sequential = lb.sequential && page == off;
        cost.bus(1);
        cost.program_on(self.core.geo.plane_of_block(phys));
    }
}

impl Ftl for BastFtl {
    fn write(&mut self, start: Lpn, pages: u32) -> CostBreakdown {
        let mut cost = self.core.request("write", start, pages);
        for i in 0..pages {
            self.write_page(Lpn(start.0 + i as u64), &mut cost);
        }
        cost
    }

    fn read(&mut self, start: Lpn, pages: u32) -> CostBreakdown {
        let mut cost = self.core.request("read", start, pages);
        let geo = self.core.geo;
        for i in 0..pages {
            let lpn = Lpn(start.0 + i as u64);
            let lbn = lpn.lbn(&geo);
            let off = lpn.block_offset(&geo);
            cost.bus(1);
            if let Some(lb) = self.logs.get(&lbn) {
                if lb.slots[off as usize].is_some() {
                    cost.read_on(geo.plane_of_block(lb.phys));
                    continue;
                }
            }
            if let Some(ppn) = self.core.data_copy(lbn, off) {
                cost.read_on(geo.plane_of_ppn(ppn));
            }
        }
        cost
    }

    fn trim(&mut self, start: Lpn, pages: u32) -> CostBreakdown {
        let cost = self.core.request("trim", start, pages);
        for i in 0..pages {
            let lpn = Lpn(start.0 + i as u64);
            let lbn = lpn.lbn(&self.core.geo);
            let off = lpn.block_offset(&self.core.geo);
            self.invalidate_current(lbn, off);
            // The log-block slot (if any) no longer names live data.
            if let Some(lb) = self.logs.get_mut(&lbn) {
                lb.slots[off as usize] = None;
            }
        }
        cost
    }

    fn logical_pages(&self) -> u64 {
        self.core.logical_pages
    }

    fn kind(&self) -> FtlKind {
        FtlKind::Bast
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

    fn ftl() -> BastFtl {
        BastFtl::new(Geometry::tiny(), FtlConfig::tiny_test())
    }

    /// Read back the valid copy of a page for verification.
    fn valid_copy(f: &BastFtl, lpn: Lpn) -> Option<Lpn> {
        let lbn = lpn.lbn(&f.core.geo);
        let off = lpn.block_offset(&f.core.geo);
        if let Some(lb) = f.logs.get(&lbn) {
            if let Some(p) = lb.slots[off as usize] {
                return f.core.nand.read(f.core.geo.ppn(lb.phys, p)).ok();
            }
        }
        f.core.data_map[lbn as usize].and_then(|db| f.core.nand.read(f.core.geo.ppn(db, off)).ok())
    }

    #[test]
    fn sequential_full_block_write_causes_switch_merge() {
        let mut f = ftl();
        let n = f.core.geo.pages_per_block; // 4
                                            // Two full sequential passes over block 0: first fills the log
                                            // (switch-merged when it must accept the next round), second ditto.
        f.write(Lpn(0), n);
        f.write(Lpn(0), n);
        // The second pass forced a merge of the first full sequential log.
        assert_eq!(f.ftl_stats().switch_merges, 1);
        assert_eq!(f.ftl_stats().full_merges, 0);
        assert_eq!(f.ftl_stats().page_copies, 0);
        for i in 0..n as u64 {
            assert_eq!(valid_copy(&f, Lpn(i)), Some(Lpn(i)));
        }
    }

    #[test]
    fn random_single_page_writes_cause_full_merges() {
        let mut f = ftl();
        let logical = f.logical_pages();
        let mut rng = DetRng::new(3);
        // Out-of-order single-page writes across many blocks overflow the
        // log pool and force merges of scrambled logs.
        for _ in 0..2000 {
            let lpn = rng.below(logical);
            // Bias away from offset 0 so logs are non-sequential.
            let lpn = lpn | 1;
            f.write(Lpn(lpn.min(logical - 1)), 1);
        }
        let s = f.ftl_stats();
        assert!(s.full_merges > 0, "expected full merges, got {s:?}");
        assert!(s.page_copies > 0);
    }

    #[test]
    fn partial_sequential_log_gets_partial_merge() {
        let mut f = ftl();
        let n = f.core.geo.pages_per_block as u64;
        // Create a data block for lbn 0 via a full sequential pass + merge.
        f.write(Lpn(0), n as u32);
        f.write(Lpn(0), 1); // switch-merges the full log, starts a new one
        assert_eq!(f.ftl_stats().switch_merges, 1);
        // Now force eviction of lbn 0's (sequential, 1-page) log by filling
        // the log pool with other blocks.
        let max_logs = f.max_logs as u64;
        for b in 1..=max_logs {
            f.write(Lpn(b * n + 1), 1); // non-sequential logs elsewhere
        }
        let s = f.ftl_stats();
        assert_eq!(s.partial_merges, 1, "stats: {s:?}");
        // Data for lbn 0 survived the partial merge.
        for i in 0..n {
            assert_eq!(valid_copy(&f, Lpn(i)), Some(Lpn(i)));
        }
    }

    #[test]
    fn overwrites_within_log_keep_latest_version() {
        let mut f = ftl();
        f.write(Lpn(1), 1);
        f.write(Lpn(1), 1);
        f.write(Lpn(1), 1);
        // The log block holds three versions; only one is valid.
        let lb = f.logs.get(&0).unwrap();
        assert_eq!(f.core.nand.valid_pages(lb.phys), 1);
        assert_eq!(valid_copy(&f, Lpn(1)), Some(Lpn(1)));
    }

    #[test]
    fn data_survives_heavy_random_churn() {
        let mut f = ftl();
        let logical = f.logical_pages();
        let mut rng = DetRng::new(11);
        let mut written = std::collections::HashSet::new();
        for _ in 0..5000 {
            let lpn = rng.below(logical);
            f.write(Lpn(lpn), 1);
            written.insert(lpn);
        }
        for &lpn in &written {
            assert_eq!(valid_copy(&f, Lpn(lpn)), Some(Lpn(lpn)), "lost page {lpn}");
        }
    }

    #[test]
    fn reads_hit_log_then_data_then_nothing() {
        let mut f = ftl();
        let n = f.core.geo.pages_per_block;
        f.write(Lpn(0), n); // full sequential log
        f.write(Lpn(0), 1); // merge, then page 0 in fresh log
                            // Page 0 served from log, pages 1..n from data block.
        let c = f.read(Lpn(0), n);
        assert_eq!(c.total_reads() as u32, n);
        // Unwritten block: bus-only.
        let far = f.logical_pages() - n as u64;
        let c2 = f.read(Lpn(far), 1);
        assert_eq!(c2.total_reads(), 0);
        assert_eq!(c2.bus_transfers, 1);
    }

    #[test]
    fn log_pool_never_exceeds_cap() {
        let mut f = ftl();
        let n = f.core.geo.pages_per_block as u64;
        for b in 0..(f.max_logs as u64 * 3) {
            f.write(Lpn(b * n + 1), 1);
            assert!(f.live_log_blocks() <= f.max_logs);
        }
    }

    #[test]
    fn merge_costs_are_charged_to_triggering_write() {
        let mut f = ftl();
        let n = f.core.geo.pages_per_block as u64;
        // Fill the log pool with scrambled logs.
        for b in 0..f.max_logs as u64 {
            f.write(Lpn(b * n + 1), 1);
        }
        // The next new block forces an eviction + full merge.
        let cost = f.write(Lpn(f.max_logs as u64 * n + 1), 1);
        assert!(
            cost.total_erases() >= 1,
            "merge erase not charged: {cost:?}"
        );
    }
}
