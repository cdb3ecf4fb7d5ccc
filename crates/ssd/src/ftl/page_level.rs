//! Page-level FTL with greedy garbage collection.
//!
//! Every logical page maps independently to a physical page ("page-level FTL"
//! in Section II.B — efficient, great GC behaviour, large mapping table).
//! Host writes append round-robin across planes so sequential runs stripe and
//! program in parallel (Section II.C.4). When the free-block pool drops below
//! the low watermark, greedy GC reclaims the sealed block with the most
//! invalid pages, migrating survivors by plane-internal copy-back.

use super::{worn_out, FreePool, Ftl, FtlConfig, FtlKind, FtlStats};
use crate::cost::CostBreakdown;
use crate::geometry::{BlockId, Geometry, Lpn, Ppn};
use crate::nand::NandArray;
use std::collections::BinaryHeap;

/// What a physical block is currently used for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// In the free pool.
    Free,
    /// Receiving host writes on its plane.
    Active,
    /// Receiving GC migrations on its plane.
    GcActive,
    /// Fully written and closed; a GC victim candidate.
    Sealed,
    /// Worn out (rated erase cycles exhausted); never reused.
    Retired,
}

/// Page-level mapped FTL.
pub struct PageFtl {
    geo: Geometry,
    nand: NandArray,
    map: Vec<Option<Ppn>>,
    pool: FreePool,
    roles: Vec<Role>,
    /// Host-write active block per plane.
    active: Vec<Option<BlockId>>,
    /// GC destination block per plane (copy-back stays on-plane).
    gc_active: Vec<Option<BlockId>>,
    plane_cursor: u32,
    logical_pages: u64,
    gc_low: usize,
    gc_high: usize,
    stats: FtlStats,
    /// Max-heap of (invalid_count, block) victim candidates; entries go stale
    /// when counts grow (a fresher, larger entry is pushed) or the block is
    /// reclaimed — stale entries are skipped at pop time.
    victims: BinaryHeap<(u32, u32)>,
}

impl PageFtl {
    /// Build over a fresh array.
    pub fn new(geo: Geometry, cfg: FtlConfig) -> Self {
        let nand = NandArray::new(geo);
        let blocks = geo.blocks_total();
        let planes = geo.planes_total() as usize;
        let pool = FreePool::new((0..blocks).map(BlockId), cfg.wear_aware_alloc);
        PageFtl {
            geo,
            nand,
            map: vec![None; cfg.logical_pages(&geo) as usize],
            pool,
            roles: vec![Role::Free; blocks as usize],
            active: vec![None; planes],
            gc_active: vec![None; planes],
            plane_cursor: 0,
            logical_pages: cfg.logical_pages(&geo),
            gc_low: cfg.gc_low_watermark.max(planes + 2),
            gc_high: cfg.gc_high_watermark.max(cfg.gc_low_watermark + planes),
            stats: FtlStats::default(),
            victims: BinaryHeap::new(),
        }
    }

    /// Current physical location of a logical page, if mapped.
    pub fn lookup(&self, lpn: Lpn) -> Option<Ppn> {
        self.map.get(lpn.0 as usize).copied().flatten()
    }

    /// Fraction of logical pages currently mapped.
    pub fn mapped_fraction(&self) -> f64 {
        let mapped = self.map.iter().filter(|m| m.is_some()).count();
        mapped as f64 / self.map.len().max(1) as f64
    }

    fn invalidate_old(&mut self, lpn: Lpn) {
        if let Some(old) = self.map[lpn.0 as usize].take() {
            self.nand.invalidate(old);
            let b = self.geo.block_of(old);
            if self.roles[b.0 as usize] == Role::Sealed {
                self.victims.push((self.nand.invalid_pages(b), b.0));
            }
        }
    }

    fn seal(&mut self, b: BlockId) {
        self.roles[b.0 as usize] = Role::Sealed;
        let inv = self.nand.invalid_pages(b);
        if inv > 0 {
            self.victims.push((inv, b.0));
        }
    }

    /// Get the host-write active block for `plane`, allocating if needed.
    fn active_block(&mut self, plane: u32) -> BlockId {
        if let Some(b) = self.active[plane as usize] {
            if self.nand.free_pages(b) > 0 {
                return b;
            }
            self.seal(b);
            self.active[plane as usize] = None;
        }
        let b = self
            .alloc_on_plane(plane)
            .unwrap_or_else(|| worn_out(&self.stats));
        self.roles[b.0 as usize] = Role::Active;
        self.active[plane as usize] = Some(b);
        b
    }

    fn gc_block(&mut self, plane: u32) -> BlockId {
        if let Some(b) = self.gc_active[plane as usize] {
            if self.nand.free_pages(b) > 0 {
                return b;
            }
            self.seal(b);
            self.gc_active[plane as usize] = None;
        }
        let b = self
            .alloc_on_plane(plane)
            .unwrap_or_else(|| worn_out(&self.stats));
        self.roles[b.0 as usize] = Role::GcActive;
        self.gc_active[plane as usize] = Some(b);
        b
    }

    /// Allocate a free block on a specific plane. The pool is global, so scan
    /// for a plane match; fall back to any block if the plane has none free
    /// (cross-plane copy costs the same in this first-order model).
    fn alloc_on_plane(&mut self, plane: u32) -> Option<BlockId> {
        // The pool is small (watermark-sized); drain it, pick the least-worn
        // block on the requested plane, and return the rest.
        let mut candidate: Option<BlockId> = None;
        let mut best_wear = u32::MAX;
        let drained = self.pool.take_all();
        for &b in &drained {
            if self.geo.plane_of_block(b) == plane {
                let w = self.nand.erase_count(b);
                if w < best_wear {
                    best_wear = w;
                    candidate = Some(b);
                }
            }
        }
        let chosen = candidate.or_else(|| drained.first().copied());
        for b in drained {
            if Some(b) != chosen {
                self.pool.release(b);
            }
        }
        chosen
    }

    /// Pop the best live victim candidate: sealed, with the most invalid pages.
    fn pop_victim(&mut self) -> Option<BlockId> {
        while let Some((count, raw)) = self.victims.pop() {
            let b = BlockId(raw);
            if self.roles[raw as usize] != Role::Sealed {
                continue; // reclaimed since pushed
            }
            let current = self.nand.invalid_pages(b);
            if current != count {
                continue; // stale entry; a fresher one exists
            }
            return Some(b);
        }
        // Heap empty: fall back to a full scan for any sealed block with dead
        // pages (can happen after deserialisation or heavy sealing churn).
        let mut best: Option<(u32, BlockId)> = None;
        for raw in 0..self.roles.len() {
            if self.roles[raw] == Role::Sealed {
                let b = BlockId(raw as u32);
                let inv = self.nand.invalid_pages(b);
                if inv > 0 && best.map(|(bi, _)| inv > bi).unwrap_or(true) {
                    best = Some((inv, b));
                }
            }
        }
        best.map(|(_, b)| b)
    }

    /// Run greedy GC until the pool is back above the high watermark.
    fn collect_garbage(&mut self, cost: &mut CostBreakdown) {
        while self.pool.len() < self.gc_high {
            let Some(victim) = self.pop_victim() else {
                // Nothing reclaimable. Legal as long as the pool isn't
                // actually empty (writes bounded by logical capacity).
                assert!(
                    self.pool.len() >= self.geo.planes_total() as usize,
                    "page FTL: no GC victim and free pool critically low"
                );
                return;
            };
            let plane = self.geo.plane_of_block(victim);
            let survivors = self.nand.valid_entries(victim);
            for (page, lpn) in survivors {
                let src = self.geo.ppn(victim, page);
                let dst_block = self.gc_block(plane);
                let dst = self
                    .nand
                    .program_append(dst_block, lpn)
                    .expect("gc destination has free pages");
                self.nand.invalidate(src);
                self.map[lpn.0 as usize] = Some(dst);
                cost.read_on(plane);
                cost.program_on(self.geo.plane_of_block(dst_block));
                self.stats.page_copies += 1;
            }
            // A worn-out victim is retired: capacity shrinks by one spare
            // block.
            let released = self
                .pool
                .erase_release(&mut self.nand, victim, cost, &mut self.stats);
            self.roles[victim.0 as usize] = if released { Role::Free } else { Role::Retired };
            self.stats.gc_victims += 1;
        }
    }

    fn maybe_gc(&mut self, cost: &mut CostBreakdown) {
        if self.pool.len() < self.gc_low {
            self.collect_garbage(cost);
        }
    }
}

impl Ftl for PageFtl {
    fn write(&mut self, start: Lpn, pages: u32) -> CostBreakdown {
        let mut cost = CostBreakdown::new(self.geo.planes_total());
        assert!(
            start.0 + pages as u64 <= self.logical_pages,
            "write beyond logical capacity ({} + {} > {})",
            start.0,
            pages,
            self.logical_pages
        );
        for i in 0..pages {
            let lpn = Lpn(start.0 + i as u64);
            self.maybe_gc(&mut cost);
            let plane = self.plane_cursor % self.geo.planes_total();
            self.plane_cursor = self.plane_cursor.wrapping_add(1);
            let block = self.active_block(plane);
            self.invalidate_old(lpn);
            let ppn = self
                .nand
                .program_append(block, lpn)
                .expect("active block has room");
            self.map[lpn.0 as usize] = Some(ppn);
            cost.bus(1);
            cost.program_on(plane);
        }
        cost
    }

    fn read(&mut self, start: Lpn, pages: u32) -> CostBreakdown {
        let mut cost = CostBreakdown::new(self.geo.planes_total());
        assert!(
            start.0 + pages as u64 <= self.logical_pages,
            "read beyond logical capacity"
        );
        for i in 0..pages {
            let lpn = Lpn(start.0 + i as u64);
            cost.bus(1);
            if let Some(ppn) = self.map[lpn.0 as usize] {
                cost.read_on(self.geo.plane_of_ppn(ppn));
            }
            // Unmapped pages are served from the controller (all-zero data)
            // with only the bus transfer.
        }
        cost
    }

    fn trim(&mut self, start: Lpn, pages: u32) -> CostBreakdown {
        assert!(
            start.0 + pages as u64 <= self.logical_pages,
            "trim beyond logical capacity"
        );
        let cost = CostBreakdown::new(self.geo.planes_total());
        for i in 0..pages {
            self.invalidate_old(Lpn(start.0 + i as u64));
        }
        cost
    }

    fn logical_pages(&self) -> u64 {
        self.logical_pages
    }

    fn kind(&self) -> FtlKind {
        FtlKind::PageLevel
    }

    fn ftl_stats(&self) -> FtlStats {
        self.stats
    }

    fn nand(&self) -> &NandArray {
        &self.nand
    }

    fn nand_mut(&mut self) -> &mut NandArray {
        &mut self.nand
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ftl() -> PageFtl {
        PageFtl::new(Geometry::tiny(), FtlConfig::tiny_test())
    }

    #[test]
    fn write_then_read_maps_pages() {
        let mut f = ftl();
        f.write(Lpn(0), 3);
        for i in 0..3 {
            let ppn = f.lookup(Lpn(i)).expect("mapped");
            assert_eq!(f.nand.read(ppn).unwrap(), Lpn(i));
        }
        assert!(f.lookup(Lpn(3)).is_none());
        let cost = f.read(Lpn(0), 4);
        assert_eq!(cost.bus_transfers, 4);
        assert_eq!(cost.total_reads(), 3); // the unmapped page costs no cell read
    }

    #[test]
    fn overwrite_invalidates_previous_version() {
        let mut f = ftl();
        f.write(Lpn(5), 1);
        let first = f.lookup(Lpn(5)).unwrap();
        f.write(Lpn(5), 1);
        let second = f.lookup(Lpn(5)).unwrap();
        assert_ne!(first, second);
        assert_eq!(f.nand.page_state(first), crate::nand::PageState::Invalid);
    }

    #[test]
    fn sequential_write_stripes_across_planes() {
        let mut f = ftl();
        let cost = f.write(Lpn(0), 4); // tiny geometry has 2 planes
        assert_eq!(cost.total_programs(), 4);
        // Programs spread evenly: max per plane is 2, so they overlap.
        let max_plane = cost.plane_programs.iter().max().unwrap();
        assert_eq!(*max_plane, 2);
    }

    #[test]
    fn gc_reclaims_space_under_overwrite_pressure() {
        let mut f = ftl();
        let logical = f.logical_pages();
        // Hammer a small hot set far beyond physical capacity.
        let hot = (logical / 4).max(8);
        let mut cost_total = 0u64;
        for round in 0..40 {
            for lpn in 0..hot {
                let c = f.write(Lpn((lpn + round) % logical), 1);
                cost_total += c.total_erases();
            }
        }
        assert!(f.ftl_stats().gc_victims > 0, "GC never ran");
        assert!(cost_total > 0, "no erase cost charged to writes");
        assert!(f.nand.total_erases() > 0);
    }

    #[test]
    fn write_amplification_exceeds_one_for_random_and_stays_low_for_sequential() {
        use fc_simkit::DetRng;
        let geo = Geometry::tiny();
        let cfg = FtlConfig::tiny_test();

        // Random overwrites over the whole logical space.
        let mut f = PageFtl::new(geo, cfg);
        let logical = f.logical_pages();
        let mut rng = DetRng::new(7);
        let host_writes = logical * 6;
        for _ in 0..host_writes {
            f.write(Lpn(rng.below(logical)), 1);
        }
        let wa_random = f.nand.total_programs() as f64 / host_writes as f64;

        // Pure sequential wraps.
        let mut f2 = PageFtl::new(geo, cfg);
        for i in 0..host_writes {
            f2.write(Lpn(i % logical), 1);
        }
        let wa_seq = f2.nand.total_programs() as f64 / host_writes as f64;

        assert!(wa_random > 1.02, "random WA {wa_random} too low");
        assert!(
            wa_seq < wa_random,
            "sequential WA {wa_seq} should be below random {wa_random}"
        );
    }

    #[test]
    #[should_panic(expected = "beyond logical capacity")]
    fn write_past_capacity_panics() {
        let mut f = ftl();
        let logical = f.logical_pages();
        f.write(Lpn(logical), 1);
    }

    #[test]
    fn full_logical_fill_succeeds() {
        // Writing every logical page once must fit without GC deadlock.
        let mut f = ftl();
        let logical = f.logical_pages();
        for i in 0..logical {
            f.write(Lpn(i), 1);
        }
        for i in 0..logical {
            assert!(f.lookup(Lpn(i)).is_some());
        }
        assert!((f.mapped_fraction() - 1.0).abs() < 1e-12);
        // And a second full overwrite pass also fits (GC reclaims).
        for i in 0..logical {
            f.write(Lpn(i), 1);
        }
        assert!(f.ftl_stats().gc_victims > 0);
    }

    #[test]
    fn gc_preserves_all_live_data() {
        use fc_simkit::DetRng;
        let mut f = ftl();
        let logical = f.logical_pages();
        let mut rng = DetRng::new(99);
        // Random writes with churn, then verify every mapped page reads back
        // the right LPN (the nand owner check).
        for _ in 0..(logical * 8) {
            f.write(Lpn(rng.below(logical)), 1);
        }
        for i in 0..logical {
            if let Some(ppn) = f.lookup(Lpn(i)) {
                assert_eq!(f.nand.read(ppn).unwrap(), Lpn(i), "mapping corrupted");
            }
        }
    }
}
