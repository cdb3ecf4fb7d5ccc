//! The cooperative write buffer.
//!
//! [`BufferManager`] is the local half of FlashCoop's cooperative buffer: it
//! holds both read-cached and write-buffered pages ("LAR services both read
//! and write operations", Section III.B.1), tracks dirtiness, and produces
//! flush plans when capacity is exceeded.
//!
//! The buffer is the page table: each resident page carries a record `P`
//! of the caller's choosing (the simulation keeps `()`, a node keeps the
//! page's bytes and version), and an eviction hands back the records of
//! the pages it flushed, so a caller never keeps a second table in step.
//!
//! The policy is read once, to build the private replacement order
//! (`crate::policy`), which makes every replacement decision; every span
//! the buffer writes back goes through one helper, `write_back`, which
//! builds its runs, counts the flushed pages and hands the records out.
//!
//! Eviction behaviour per policy:
//!
//! * **LAR** — the victim is a whole logical block (least popular, most
//!   dirty). A victim with dirty pages flushes *all* its resident pages as
//!   sequential runs; a clean victim is dropped. With clustering on, small
//!   dirty tails from several least-popular blocks are grouped into one
//!   block-sized batch (Section III.B.3).
//! * **LRU / LFU** — the victim is a single page. A dirty victim is flushed
//!   together with contiguous dirty neighbours in the same logical block
//!   (flush-time combining — matching the paper's Figure 8, where LRU/LFU
//!   emit ~29 % single-page writes but some multi-page ones); neighbours stay
//!   resident, marked clean.

use crate::config::PolicyKind;
use crate::policy::{push_runs, Eviction, LarBlock, Order, Victim};
use fc_obs::{Counter, Obs};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::ops::Range;

/// Buffer construction parameters.
///
/// ```
/// use flashcoop::buffer::{BufferConfig, BufferManager};
///
/// // Each page carries a record; here, the text it holds.
/// let mut buf: BufferManager<&str> = BufferManager::from_config(BufferConfig {
///     capacity: 8,
///     pages_per_block: 4,
///     ..BufferConfig::default()
/// });
/// buf.write_pages(0, ["a", "b"]);
/// buf.write_pages(1, ["b2"]);
/// assert_eq!(buf.get(1), Some(&"b2"));
/// // Write-back hands the flushed pages' records over, in run order.
/// let ev = buf.drain_dirty();
/// assert_eq!(ev.pages().collect::<Vec<_>>(), [(0, &"a"), (1, &"b2")]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BufferConfig {
    /// Replacement policy.
    pub policy: PolicyKind,
    /// Capacity in pages.
    pub capacity: usize,
    /// Pages per logical block (LAR's eviction granularity).
    pub pages_per_block: u32,
    /// Group small dirty tails into block-sized batches (Section III.B.3).
    pub clustering: bool,
    /// LAR second-level sort toward dirtier blocks (Section III.B.2).
    pub lar_dirty_tiebreak: bool,
    /// Proactive background-cleaning watermark (dirty fraction); `None` =
    /// flush only on replacement, the paper's measured configuration.
    pub dirty_watermark: Option<f64>,
}

impl Default for BufferConfig {
    fn default() -> Self {
        BufferConfig {
            policy: PolicyKind::Lar,
            capacity: 4096,
            pages_per_block: 64,
            clustering: true,
            lar_dirty_tiebreak: true,
            dirty_watermark: None,
        }
    }
}

/// One buffered page: its dirtiness and the caller's record.
#[derive(Debug, Clone)]
struct Page<P> {
    dirty: bool,
    record: P,
}

/// Counters maintained by the buffer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BufferStats {
    /// Page accesses that found the page resident.
    pub page_hits: u64,
    /// Page accesses that missed.
    pub page_misses: u64,
    /// Eviction cycles run.
    pub evictions: u64,
    /// Pages flushed to the SSD (dirty + accompanying clean).
    pub flushed_pages: u64,
    /// Dirty pages among those flushed.
    pub flushed_dirty: u64,
    /// Clean pages dropped without a flush.
    pub clean_drops: u64,
    /// Eviction batches that grouped more than one victim block (clustering).
    pub clustered_batches: u64,
}

impl BufferStats {
    /// Hit ratio over all page accesses (Table III's metric).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.page_hits + self.page_misses;
        if total == 0 {
            0.0
        } else {
            self.page_hits as f64 / total as f64
        }
    }
}

/// One contiguous piece of a read request, classified hit or miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadSegment {
    /// First page of the segment.
    pub lpn: u64,
    /// Length in pages.
    pub pages: u32,
    /// True if every page was resident.
    pub hit: bool,
}

/// Observability handles cached at attach time so the hot paths stay at
/// relaxed atomic increments (no registry lock per access).
#[derive(Debug, Clone)]
struct BufObs {
    obs: Obs,
    hits: Counter,
    misses: Counter,
}

/// The local buffer of one cooperative server, keeping a record `P` per
/// resident page.
#[derive(Debug, Clone)]
pub struct BufferManager<P = ()> {
    capacity: usize,
    ppb: u32,
    clustering: bool,
    pages: HashMap<u64, Page<P>>,
    dirty_count: usize,
    /// The replacement order: every decision the policy makes.
    order: Order,
    stats: BufferStats,
    /// Background-cleaning high watermark as a dirty fraction of capacity
    /// (None = clean only on eviction, the paper's measured configuration).
    dirty_watermark: Option<f64>,
    obs: Option<BufObs>,
}

/// The record-free buffer the simulation replays traces through.
impl BufferManager {
    /// Create a buffer of `capacity` pages managing `pages_per_block`-page
    /// logical blocks under the given policy.
    pub fn new(
        policy: PolicyKind,
        capacity: usize,
        pages_per_block: u32,
        clustering: bool,
    ) -> Self {
        Self::from_config(BufferConfig {
            policy,
            capacity,
            pages_per_block,
            clustering,
            ..BufferConfig::default()
        })
    }

    /// Buffer a write of `pages` pages at `lpn`; returns the flush work the
    /// insertion forced (empty while the buffer has room).
    pub fn write(&mut self, lpn: u64, pages: u32) -> Eviction {
        self.write_pages(lpn, std::iter::repeat_n((), pages as usize))
    }

    /// Cache pages fetched from the SSD after a read miss; may evict.
    pub fn insert_clean(&mut self, lpn: u64, pages: u32) -> Eviction {
        self.fill_pages(lpn, std::iter::repeat_n((), pages as usize))
    }
}

impl<P: Clone> BufferManager<P> {
    /// Build a buffer from a [`BufferConfig`].
    pub fn from_config(cfg: BufferConfig) -> Self {
        assert!(cfg.capacity > 0, "buffer needs at least one page");
        assert!(cfg.pages_per_block > 0);
        let mut b = BufferManager {
            capacity: cfg.capacity,
            ppb: cfg.pages_per_block,
            clustering: cfg.clustering,
            pages: HashMap::new(),
            dirty_count: 0,
            order: Order::new(cfg.policy, cfg.lar_dirty_tiebreak),
            stats: BufferStats::default(),
            dirty_watermark: None,
            obs: None,
        };
        b.set_dirty_watermark(cfg.dirty_watermark);
        b
    }

    /// Wire this buffer into an observability handle: hit/miss counters
    /// (`core.buffer.page_hits`/`page_misses`, seeded with the current
    /// totals) plus `evict_block`/`evict_page` trace events carrying the
    /// replacement decision (LAR popularity/dirtiness scores).
    pub fn attach_obs(&mut self, obs: &Obs) {
        let hits = obs.registry().counter("core.buffer.page_hits");
        hits.store(self.stats.page_hits);
        let misses = obs.registry().counter("core.buffer.page_misses");
        misses.store(self.stats.page_misses);
        self.obs = Some(BufObs {
            obs: obs.clone(),
            hits,
            misses,
        });
    }

    /// Count one page access, hit or miss.
    #[inline]
    fn count_access(&mut self, hit: bool) {
        let (stat, cell) = if hit {
            (
                &mut self.stats.page_hits,
                self.obs.as_ref().map(|o| &o.hits),
            )
        } else {
            (
                &mut self.stats.page_misses,
                self.obs.as_ref().map(|o| &o.misses),
            )
        };
        *stat += 1;
        if let Some(c) = cell {
            c.inc();
        }
    }

    /// Enable proactive background cleaning: whenever the dirty fraction
    /// exceeds `high`, [`BufferManager::background_clean`] writes back
    /// least-popular dirty blocks (pages stay resident, now clean) until the
    /// fraction drops to half the watermark. This bounds how much data a
    /// failure window can expose and smooths flush bursts; the paper's
    /// evaluation runs without it (flush only on replacement).
    pub fn set_dirty_watermark(&mut self, high: Option<f64>) {
        self.dirty_watermark = high.map(|h| h.clamp(0.05, 1.0));
    }

    /// Policy in use.
    pub fn policy(&self) -> PolicyKind {
        self.order.policy()
    }

    /// Capacity in pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Pages currently resident.
    pub fn resident(&self) -> usize {
        self.pages.len()
    }

    /// Dirty pages currently resident.
    pub fn dirty(&self) -> usize {
        self.dirty_count
    }

    /// Occupancy fraction (the `m` input of the allocation monitor).
    pub fn occupancy(&self) -> f64 {
        self.pages.len() as f64 / self.capacity as f64
    }

    /// Counters.
    pub fn stats(&self) -> &BufferStats {
        &self.stats
    }

    /// Residency and dirtiness of a page: `None` = absent,
    /// `Some(true)` = dirty, `Some(false)` = clean.
    pub fn lookup(&self, lpn: u64) -> Option<bool> {
        self.pages.get(&lpn).map(|p| p.dirty)
    }

    /// The record of a resident page.
    pub fn get(&self, lpn: u64) -> Option<&P> {
        self.pages.get(&lpn).map(|p| &p.record)
    }

    /// The record of a resident page, to update in place (residency and
    /// dirtiness are unchanged).
    pub fn get_mut(&mut self, lpn: u64) -> Option<&mut P> {
        self.pages.get_mut(&lpn).map(|p| &mut p.record)
    }

    /// Every resident page and its record, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &P)> {
        self.pages.iter().map(|(&lpn, p)| (lpn, &p.record))
    }

    /// Resize the buffer (dynamic memory allocation moves the local/remote
    /// split at runtime, Section III.C). Shrinking evicts immediately;
    /// returns the flush work that forced.
    pub fn set_capacity(&mut self, capacity: usize) -> Eviction<P> {
        self.capacity = capacity.max(1);
        self.make_room()
    }

    /// Buffer a write of one page per record, from `lpn` up; returns the
    /// flush work the insertion forced (empty while the buffer has room).
    /// A resident page takes the new record and becomes dirty. No records,
    /// no access.
    pub fn write_pages(&mut self, lpn: u64, records: impl IntoIterator<Item = P>) -> Eviction<P> {
        let mut pages = 0u32;
        for record in records {
            let p = lpn + pages as u64;
            self.count_access(self.pages.contains_key(&p));
            self.insert_page(p, true, record);
            pages += 1;
        }
        self.order.access(self.blocks(lpn, pages), false);
        self.make_room()
    }

    /// Classify a read into hit/miss segments and record the accesses.
    /// The caller fetches miss segments from the SSD and then calls
    /// [`BufferManager::fill_pages`] for each.
    pub fn read(&mut self, lpn: u64, pages: u32) -> Vec<ReadSegment> {
        let mut segments: Vec<ReadSegment> = Vec::new();
        for p in lpn..lpn + pages as u64 {
            let hit = self.pages.contains_key(&p);
            self.count_access(hit);
            if hit {
                self.order.touch(p);
            }
            match segments.last_mut() {
                Some(seg) if seg.hit == hit && seg.lpn + seg.pages as u64 == p => {
                    seg.pages += 1;
                }
                _ => segments.push(ReadSegment {
                    lpn: p,
                    pages: 1,
                    hit,
                }),
            }
        }
        // One block access per block per request. Blocks that are not
        // resident at all get theirs when the post-fetch `fill_pages`
        // brings them in.
        self.order.access(self.blocks(lpn, pages), false);
        segments
    }

    /// Cache one page per record, from `lpn` up, fetched from the SSD after
    /// a read miss; may evict. A resident page takes the new record and
    /// keeps its dirtiness.
    pub fn fill_pages(&mut self, lpn: u64, records: impl IntoIterator<Item = P>) -> Eviction<P> {
        let mut pages = 0u32;
        for record in records {
            self.insert_page(lpn + pages as u64, false, record);
            pages += 1;
        }
        // The access the enclosing read could not give the blocks it
        // found absent.
        self.order.access(self.blocks(lpn, pages), true);
        self.make_room()
    }

    /// Discard `pages` pages at `lpn` (the data was deleted — a short-lived
    /// file, Section III.A): resident copies vanish without a flush, dirty
    /// or not. Returns how many resident pages were dropped.
    pub fn discard(&mut self, lpn: u64, pages: u32) -> u32 {
        (0..pages as u64)
            .filter(|i| self.remove(lpn + i).is_some())
            .count() as u32
    }

    /// Drop one resident page without a flush, dirty or not; returns its
    /// record.
    pub fn remove(&mut self, lpn: u64) -> Option<P> {
        let page = self.pages.remove(&lpn)?;
        self.dirty_count -= usize::from(page.dirty);
        self.order
            .adjust(lpn, self.lbn(lpn), -1, -i64::from(page.dirty));
        Some(page.record)
    }

    /// Run the background cleaner if the dirty watermark is exceeded.
    /// Returns write-back work (cleaned pages remain resident).
    pub fn background_clean(&mut self) -> Eviction<P> {
        let Some(high) = self.dirty_watermark else {
            return Eviction::default();
        };
        let mut ev = Eviction::default();
        let target = ((high * 0.5) * self.capacity as f64) as usize;
        if self.dirty_count <= ((high * self.capacity as f64) as usize).max(1) {
            return ev;
        }
        while self.dirty_count > target {
            let lowest_dirty = || {
                let dirty = self.pages.iter().filter(|(_, p)| p.dirty);
                dirty.map(|(&lpn, _)| lpn).min()
            };
            let Some(victim) = self.order.clean_victim(lowest_dirty) else {
                break;
            };
            // Every page stays resident, now clean.
            match victim {
                Victim::Block(lbn, meta) => {
                    let (pages, span) = self.block_pages(lbn, meta.resident);
                    if span.is_empty() {
                        break;
                    }
                    self.write_back(pages[span].iter().copied(), |_| false, &mut ev);
                }
                Victim::Page(lpn) => {
                    let run = self.dirty_run(lpn);
                    self.write_back(run.map(|l| (l, true)), |_| false, &mut ev);
                }
            }
        }
        ev
    }

    /// Flush every dirty page (remote-failure handling and shutdown:
    /// "dirty data in its local buffer will be immediately flushed into
    /// SSD"). Pages stay resident but become clean.
    pub fn drain_dirty(&mut self) -> Eviction<P> {
        let dirty = self.dirty_pages();
        let ppb = u64::from(self.ppb);
        let mut ev = Eviction::default();
        // Like eviction flushes, drain runs are per logical block.
        for block in dirty.chunk_by(|a, b| a / ppb == b / ppb) {
            self.write_back(block.iter().map(|&lpn| (lpn, true)), |_| false, &mut ev);
        }
        ev
    }

    /// Drop every resident page (a crash losing buffer contents). The
    /// policy keeps its configuration.
    pub fn clear(&mut self) {
        self.pages.clear();
        self.dirty_count = 0;
        self.order.clear();
    }

    /// All resident pages in ascending LPN order: the buffered half of the
    /// occupancy set an elastic-membership rebalance fences moved blocks
    /// from.
    pub fn resident_pages(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.pages.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// All dirty pages currently resident (recovery inspection).
    pub fn dirty_pages(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .pages
            .iter()
            .filter(|(_, p)| p.dirty)
            .map(|(&l, _)| l)
            .collect();
        v.sort_unstable();
        v
    }

    /// Mark one resident page clean (after the owning server or node has
    /// synchronously written it through to stable storage); returns its
    /// record.
    pub fn mark_clean(&mut self, lpn: u64) -> Option<&P> {
        let lbn = self.lbn(lpn);
        let page = self.pages.get_mut(&lpn)?;
        if page.dirty {
            page.dirty = false;
            self.dirty_count -= 1;
            self.order.adjust(lpn, lbn, 0, -1);
        }
        Some(&page.record)
    }

    // ---- internals ------------------------------------------------------

    fn lbn(&self, lpn: u64) -> u64 {
        lpn / u64::from(self.ppb)
    }

    /// The logical blocks a request of `pages` pages at `lpn` spans: none
    /// when it has no pages.
    fn blocks(&self, lpn: u64, pages: u32) -> Range<u64> {
        let first = self.lbn(lpn);
        match pages {
            0 => first..first,
            n => first..self.lbn(lpn + u64::from(n) - 1) + 1,
        }
    }

    fn insert_page(&mut self, lpn: u64, dirty: bool, record: P) {
        let lbn = self.lbn(lpn);
        match self.pages.get_mut(&lpn) {
            Some(page) => {
                page.record = record;
                if dirty && !page.dirty {
                    page.dirty = true;
                    self.dirty_count += 1;
                    self.order.adjust(lpn, lbn, 0, 1);
                }
                self.order.touch(lpn);
            }
            None => {
                self.pages.insert(lpn, Page { dirty, record });
                self.dirty_count += usize::from(dirty);
                self.order.adjust(lpn, lbn, 1, i64::from(dirty));
            }
        }
    }

    /// The one write-back path. Writes a sorted in-block `(lpn, dirty)`
    /// span back: its runs go out with `ev`, counted in the stats, and so
    /// does each page's record — given up by a page that `leaves` the
    /// buffer, cloned from one that stays, now clean.
    fn write_back(
        &mut self,
        span: impl Iterator<Item = (u64, bool)> + Clone,
        leaves: impl Fn(u64) -> bool,
        ev: &mut Eviction<P>,
    ) {
        let first = ev.runs.len();
        push_runs(&mut ev.runs, span.clone());
        for r in &ev.runs[first..] {
            self.stats.flushed_pages += u64::from(r.pages);
            self.stats.flushed_dirty += u64::from(r.dirty);
        }
        for (lpn, _) in span {
            let record = if leaves(lpn) {
                self.remove(lpn)
            } else {
                self.mark_clean(lpn).cloned()
            };
            ev.records.extend(record);
        }
    }

    /// Block `lbn`'s `resident` pages in LPN order (the directory counts
    /// them, so the probe stops at the last one instead of walking all
    /// `ppb` offsets of a block that usually holds a page or two), and the
    /// index range of its dirty span: first to last dirty page, interior
    /// clean pages included so "logically continuous pages can be
    /// physically placed onto continuous pages" (Section III.B.2).
    fn block_pages(&self, lbn: u64, resident: u32) -> (Vec<(u64, bool)>, Range<usize>) {
        let ppb = u64::from(self.ppb);
        let mut pages = Vec::with_capacity(resident as usize);
        for lpn in lbn * ppb..(lbn + 1) * ppb {
            if pages.len() == resident as usize {
                break;
            }
            if let Some(page) = self.pages.get(&lpn) {
                pages.push((lpn, page.dirty));
            }
        }
        let first = pages.iter().position(|&(_, d)| d);
        let last = pages.iter().rposition(|&(_, d)| d);
        let span = match (first, last) {
            (Some(lo), Some(hi)) => lo..hi + 1,
            _ => 0..0,
        };
        (pages, span)
    }

    /// The run of dirty pages around dirty page `lpn`, within its block
    /// (flush-time combining).
    fn dirty_run(&self, lpn: u64) -> Range<u64> {
        let ppb = u64::from(self.ppb);
        let block = self.lbn(lpn) * ppb..(self.lbn(lpn) + 1) * ppb;
        let mut lo = lpn;
        while lo > block.start && self.lookup(lo - 1) == Some(true) {
            lo -= 1;
        }
        let mut hi = lpn + 1;
        while hi < block.end && self.lookup(hi) == Some(true) {
            hi += 1;
        }
        lo..hi
    }

    fn make_room(&mut self) -> Eviction<P> {
        let mut ev = Eviction::default();
        let mut evicted_blocks = 0u32;
        while self.pages.len() > self.capacity {
            match self.order.victim() {
                Some(Victim::Block(lbn, meta)) => {
                    if !self.evict_block(lbn, meta, &mut ev) {
                        break;
                    }
                    evicted_blocks += 1;
                }
                Some(Victim::Page(lpn)) => self.evict_page(lpn, &mut ev),
                None => break,
            }
        }
        // Clustering pass: if the cycle produced a small dirty flush, gather
        // more least-popular dirty blocks until the batch reaches one
        // physical block of pages (Section III.B.3). Only blocks from the
        // same (least-popular) class — "the tails" — are grouped, and only
        // up to one physical block of pages.
        let ppb = u64::from(self.ppb);
        if self.clustering && !ev.is_empty() && ev.flushed_pages() < ppb {
            if let Some((_, anchor)) = self.order.dirty_block() {
                while ev.flushed_pages() < ppb {
                    let Some((lbn, meta)) = self.order.dirty_block() else {
                        break;
                    };
                    if meta.popularity != anchor.popularity
                        || ev.flushed_pages() + u64::from(meta.resident) > ppb
                        || !self.evict_block(lbn, meta, &mut ev)
                    {
                        break;
                    }
                    evicted_blocks += 1;
                }
            }
        }
        if evicted_blocks > 1 {
            self.stats.clustered_batches += 1;
        }
        if !ev.is_empty() || ev.clean_dropped > 0 {
            self.stats.evictions += 1;
        }
        ev
    }

    /// Evict block `lbn`, which LAR ranked by `meta`: its dirty span is
    /// written back, and every resident page leaves — the clean ones
    /// outside the span for free. False when no page of it is resident.
    fn evict_block(&mut self, lbn: u64, meta: LarBlock, ev: &mut Eviction<P>) -> bool {
        let (pages, span) = self.block_pages(lbn, meta.resident);
        if pages.is_empty() {
            return false;
        }
        self.write_back(pages[span.clone()].iter().copied(), |_| true, ev);
        let outside = pages[..span.start].iter().chain(&pages[span.end..]);
        for &(lpn, _) in outside {
            self.remove(lpn);
        }
        let dropped = (pages.len() - span.len()) as u32;
        ev.clean_dropped += dropped;
        self.stats.clean_drops += u64::from(dropped);
        if let Some(o) = &self.obs {
            // LAR's scores from before the eviction: what the policy
            // actually compared.
            o.obs.emit(
                o.obs
                    .event("core.buffer", "evict_block")
                    .u64_field("lbn", lbn)
                    .u64_field("popularity", meta.popularity)
                    .u64_field("dirty", u64::from(meta.dirty))
                    .u64_field("resident", u64::from(meta.resident))
                    .u64_field("flushed_pages", span.len() as u64)
                    .u64_field("clean_dropped", u64::from(dropped)),
            );
        }
        true
    }

    /// Evict page `lpn`: dropped when clean; when dirty, written back with
    /// its run of dirty neighbours, which stay resident, clean.
    fn evict_page(&mut self, lpn: u64, ev: &mut Eviction<P>) {
        let dirty = self.lookup(lpn) == Some(true);
        let flushed = if dirty {
            let run = self.dirty_run(lpn);
            let pages = run.end - run.start;
            self.write_back(run.map(|l| (l, true)), |l| l == lpn, ev);
            pages
        } else {
            self.remove(lpn);
            ev.clean_dropped += 1;
            self.stats.clean_drops += 1;
            0
        };
        if let Some(o) = &self.obs {
            o.obs.emit(
                o.obs
                    .event("core.buffer", "evict_page")
                    .u64_field("lpn", lpn)
                    .bool_field("dirty", dirty)
                    .u64_field("flushed_pages", flushed),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::FlushRun;

    const PPB: u32 = 4;

    fn buf(policy: PolicyKind, cap: usize) -> BufferManager {
        BufferManager::new(policy, cap, PPB, true)
    }

    #[test]
    fn writes_fit_until_capacity() {
        let mut b = buf(PolicyKind::Lar, 8);
        for i in 0..8 {
            let ev = b.write(i, 1);
            assert!(ev.is_empty(), "no eviction while under capacity");
        }
        assert_eq!(b.resident(), 8);
        assert_eq!(b.dirty(), 8);
    }

    #[test]
    fn lar_evicts_whole_least_popular_block() {
        let mut b = buf(PolicyKind::Lar, 8);
        // Block 0 (pages 0..4) popular: three accesses.
        b.write(0, 4);
        b.read(0, 2);
        b.read(2, 2);
        // Block 1 (pages 4..8) unpopular: one access.
        b.write(4, 4);
        // Overflow: block 1 must go, entirely, as one 4-page run.
        let ev = b.write(8, 1);
        assert_eq!(ev.runs.len(), 1);
        assert_eq!(
            ev.runs[0],
            FlushRun {
                lpn: 4,
                pages: 4,
                dirty: 4
            }
        );
        assert!(b.lookup(4).is_none());
        assert!(b.lookup(0).is_some());
    }

    #[test]
    fn lar_flushes_interior_clean_pages_and_drops_trailing_ones() {
        let mut b = buf(PolicyKind::Lar, 6);
        // Block 0: dirty pages 0 and 2, clean page 1 (read-cached), clean
        // page 3 — one access each way.
        b.write(0, 1);
        b.insert_clean(1, 1);
        b.write(2, 1);
        b.insert_clean(3, 1);
        // Block 1 more popular: four accesses.
        b.write(4, 1);
        b.read(4, 1);
        b.write(5, 1);
        // Overflow via block 1 again → victim is block 0 (popularity 2 vs 4).
        let ev = b.write(6, 1);
        // Dirty span 0..=2 flushed as one contiguous run (clean page 1
        // rides along); trailing clean page 3 is dropped for free.
        let total: u64 = ev.runs.iter().map(|r| r.pages as u64).sum();
        assert_eq!(total, 3, "dirty span flushed together: {ev:?}");
        let dirty: u64 = ev.runs.iter().map(|r| r.dirty as u64).sum();
        assert_eq!(dirty, 2);
        assert_eq!(ev.clean_dropped, 1);
        assert!(b.lookup(3).is_none());
    }

    #[test]
    fn lar_drops_clean_only_blocks_without_flush() {
        let mut b = buf(PolicyKind::Lar, 5);
        b.insert_clean(0, 4); // clean block 0, one access
        b.write(4, 1);
        b.read(4, 1); // block 1 now popularity 2
        let ev = b.insert_clean(8, 1); // overflow → clean block 0 is dropped
        assert!(ev.runs.is_empty(), "{ev:?}");
        assert_eq!(ev.clean_dropped, 4);
        assert_eq!(b.lookup(4), Some(true));
        assert_eq!(b.lookup(8), Some(false));
        assert!(b.lookup(0).is_none());
    }

    #[test]
    fn lru_evicts_single_oldest_page() {
        let mut b = buf(PolicyKind::Lru, 4);
        b.insert_clean(0, 1);
        b.insert_clean(10, 1);
        b.insert_clean(20, 1);
        b.insert_clean(30, 1);
        b.read(0, 1); // refresh page 0
        let ev = b.insert_clean(40, 1); // evict page 10 (oldest)
        assert!(ev.runs.is_empty());
        assert_eq!(ev.clean_dropped, 1);
        assert!(b.lookup(10).is_none());
        assert!(b.lookup(0).is_some());
    }

    #[test]
    fn lru_dirty_victim_combines_contiguous_dirty_neighbours() {
        let mut b = buf(PolicyKind::Lru, 4);
        b.write(0, 1);
        b.write(1, 1);
        b.write(2, 1);
        b.write(9, 1);
        // Overflow: victim is page 0; pages 1,2 are contiguous dirty in the
        // same block → combined 3-page write.
        let ev = b.write(13, 1);
        assert_eq!(
            ev.runs,
            vec![FlushRun {
                lpn: 0,
                pages: 3,
                dirty: 3
            }]
        );
        // Victim gone; combined neighbours stay, now clean.
        assert!(b.lookup(0).is_none());
        assert_eq!(b.lookup(1), Some(false));
        assert_eq!(b.lookup(2), Some(false));
    }

    #[test]
    fn lru_combining_respects_block_boundary() {
        let mut b = buf(PolicyKind::Lru, 4);
        b.write(3, 1); // last page of block 0
        b.write(4, 1); // first page of block 1 — contiguous LPN, new block
        b.write(8, 1);
        b.write(9, 1);
        let ev = b.write(13, 1); // victim: page 3
        assert_eq!(
            ev.runs,
            vec![FlushRun {
                lpn: 3,
                pages: 1,
                dirty: 1
            }]
        );
        assert_eq!(b.lookup(4), Some(true), "page in next block untouched");
    }

    #[test]
    fn lfu_evicts_least_frequent() {
        let mut b = buf(PolicyKind::Lfu, 3);
        b.insert_clean(1, 1);
        b.read(1, 1);
        b.read(1, 1);
        b.insert_clean(2, 1);
        b.read(2, 1);
        b.insert_clean(3, 1); // frequency 1 → victim
        let ev = b.insert_clean(4, 1);
        assert_eq!(ev.clean_dropped, 1);
        assert!(b.lookup(3).is_none());
    }

    #[test]
    fn read_segments_split_hits_and_misses() {
        let mut b = buf(PolicyKind::Lar, 8);
        b.write(2, 2); // pages 2,3 resident
        let segs = b.read(0, 6);
        assert_eq!(
            segs,
            vec![
                ReadSegment {
                    lpn: 0,
                    pages: 2,
                    hit: false
                },
                ReadSegment {
                    lpn: 2,
                    pages: 2,
                    hit: true
                },
                ReadSegment {
                    lpn: 4,
                    pages: 2,
                    hit: false
                },
            ]
        );
        assert_eq!(b.stats().page_hits, 2); // only the read's pages 2,3 hit
    }

    #[test]
    fn hit_ratio_counts_all_accesses() {
        let mut b = buf(PolicyKind::Lar, 8);
        b.write(0, 2); // 2 misses
        b.write(0, 2); // 2 hits
        b.read(0, 2); // 2 hits
        b.read(4, 2); // 2 misses
        let s = b.stats();
        assert_eq!(s.page_hits, 4);
        assert_eq!(s.page_misses, 4);
        assert!((s.hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn drain_dirty_flushes_everything_and_keeps_pages() {
        let mut b = buf(PolicyKind::Lar, 16);
        b.write(0, 3);
        b.write(8, 2);
        b.insert_clean(4, 1);
        let ev = b.drain_dirty();
        assert_eq!(ev.flushed_pages(), 5);
        assert_eq!(ev.dirty_pages(), 5);
        assert_eq!(b.dirty(), 0);
        assert_eq!(b.resident(), 6, "pages remain resident, clean");
        // A second drain is a no-op.
        assert!(b.drain_dirty().is_empty());
    }

    #[test]
    fn clear_drops_everything() {
        let mut b = buf(PolicyKind::Lru, 8);
        b.write(0, 4);
        b.clear();
        assert_eq!(b.resident(), 0);
        assert_eq!(b.dirty(), 0);
        assert!(b.dirty_pages().is_empty());
    }

    #[test]
    fn clear_keeps_the_popularity_only_ablation() {
        let mut b = BufferManager::from_config(BufferConfig {
            capacity: 8,
            pages_per_block: PPB,
            lar_dirty_tiebreak: false,
            ..BufferConfig::default()
        });
        for _ in 0..2 {
            b.write(0, 1);
            b.write(4, 4);
            // Blocks 0, 1 and 2 tie at popularity 1: without the dirty-count
            // tie-break the lowest block number goes, however few dirty
            // pages it holds.
            let ev = b.write(8, 4);
            let block0 = FlushRun {
                lpn: 0,
                pages: 1,
                dirty: 1,
            };
            assert_eq!(ev.runs, [block0], "{ev:?}");
            b.clear();
        }
    }

    #[test]
    fn a_call_with_no_pages_touches_no_block() {
        fn run(policy: PolicyKind, empty_calls_at: Option<u64>) -> (BufferStats, Eviction) {
            let mut b = buf(policy, 8);
            b.write(4, 4);
            b.write(8, 4);
            if let Some(lpn) = empty_calls_at {
                assert!(b.write(lpn, 0).is_empty());
                assert!(b.read(lpn, 0).is_empty());
                assert!(b.insert_clean(lpn, 0).is_empty());
            }
            let ev = b.write(12, 1);
            (*b.stats(), ev)
        }
        for policy in PolicyKind::ALL {
            let untouched = run(policy, None);
            assert!(!untouched.1.is_empty());
            for lpn in [0, 5] {
                assert_eq!(run(policy, Some(lpn)), untouched, "{policy} at lpn {lpn}");
            }
        }
    }

    #[test]
    fn clustering_groups_small_dirty_tails() {
        // Buffer with many 1-dirty-page unpopular blocks: one eviction cycle
        // should batch several of them toward a block-size write.
        let mut b = BufferManager::new(PolicyKind::Lar, 6, PPB, true);
        for blk in 0..6u64 {
            b.write(blk * PPB as u64, 1);
        }
        // Make one block popular so it is retained.
        b.read(0, 1);
        b.read(0, 1);
        let ev = b.write(100, 1); // overflow
        assert!(
            ev.runs.len() > 1,
            "clustering should gather multiple tails: {ev:?}"
        );
        assert!(ev.flushed_pages() <= PPB as u64);
        assert!(b.stats().clustered_batches >= 1);
    }

    #[test]
    fn clustering_off_evicts_single_victim() {
        let mut b = BufferManager::new(PolicyKind::Lar, 6, PPB, false);
        for blk in 0..6u64 {
            b.write(blk * PPB as u64, 1);
        }
        b.read(0, 1);
        b.read(0, 1);
        let ev = b.write(100, 1);
        assert_eq!(ev.runs.len(), 1, "{ev:?}");
        assert_eq!(b.stats().clustered_batches, 0);
    }

    #[test]
    fn background_cleaner_holds_the_watermark() {
        for policy in PolicyKind::ALL {
            let mut b = BufferManager::new(policy, 32, PPB, true);
            b.set_dirty_watermark(Some(0.5));
            let mut cleaned_total = 0u64;
            for i in 0..64u64 {
                b.write(i % 30, 1);
                let ev = b.background_clean();
                for r in &ev.runs {
                    assert_eq!(r.dirty, r.pages, "cleaner only writes dirty runs");
                }
                cleaned_total += ev.dirty_pages();
                assert!(
                    b.dirty() <= 16 + PPB as usize,
                    "{policy}: dirty {} exceeded watermark region",
                    b.dirty()
                );
            }
            assert!(cleaned_total > 0, "{policy}: cleaner never ran");
            // Cleaned pages remain resident.
            assert!(b.resident() >= b.dirty());
        }
    }

    #[test]
    fn cleaner_disabled_by_default() {
        let mut b = buf(PolicyKind::Lar, 8);
        for i in 0..8u64 {
            b.write(i, 1);
        }
        assert!(b.background_clean().is_empty());
        assert_eq!(b.dirty(), 8);
    }

    #[test]
    fn rewrite_of_clean_page_makes_it_dirty() {
        let mut b = buf(PolicyKind::Lar, 8);
        b.insert_clean(0, 1);
        assert_eq!(b.lookup(0), Some(false));
        assert_eq!(b.dirty(), 0);
        b.write(0, 1);
        assert_eq!(b.lookup(0), Some(true));
        assert_eq!(b.dirty(), 1);
    }

    #[test]
    fn obs_counters_and_eviction_events_mirror_stats() {
        let (obs, ring) = fc_obs::Obs::ring(256);
        let mut b = buf(PolicyKind::Lar, 8);
        b.attach_obs(&obs);
        b.write(0, 4);
        b.read(0, 2); // 2 hits
        b.write(4, 4);
        b.write(8, 1); // overflow → block eviction
        let snap = obs.registry().snapshot();
        assert_eq!(
            snap.counter("core.buffer.page_hits"),
            Some(b.stats().page_hits)
        );
        assert_eq!(
            snap.counter("core.buffer.page_misses"),
            Some(b.stats().page_misses)
        );
        let evicts: Vec<_> = ring
            .events()
            .into_iter()
            .filter(|e| e.kind == "evict_block")
            .collect();
        assert_eq!(evicts.len(), 1, "one LAR block eviction");
        let e = &evicts[0];
        assert_eq!(e.get("lbn").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(e.get("popularity").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(e.get("dirty").and_then(|v| v.as_u64()), Some(4));
        assert_eq!(e.get("flushed_pages").and_then(|v| v.as_u64()), Some(4));
    }

    #[test]
    fn obs_page_eviction_events_for_ranked_policies() {
        let (obs, ring) = fc_obs::Obs::ring(64);
        let mut b = buf(PolicyKind::Lru, 4);
        b.attach_obs(&obs);
        b.insert_clean(0, 4);
        b.insert_clean(10, 1); // evicts clean page 0
        let evicts: Vec<_> = ring
            .events()
            .into_iter()
            .filter(|e| e.kind == "evict_page")
            .collect();
        assert!(!evicts.is_empty());
        assert_eq!(
            evicts[0].get("dirty").and_then(|v| v.as_bool()),
            Some(false)
        );
    }

    #[test]
    fn dirty_pages_lists_sorted() {
        let mut b = buf(PolicyKind::Lar, 16);
        b.write(9, 1);
        b.write(2, 1);
        b.insert_clean(5, 1);
        assert_eq!(b.dirty_pages(), vec![2, 9]);
    }

    #[test]
    fn resident_pages_lists_all_sorted() {
        let mut b = buf(PolicyKind::Lar, 16);
        b.write(9, 1);
        b.write(2, 1);
        b.insert_clean(5, 1);
        assert_eq!(b.resident_pages(), vec![2, 5, 9]);
        b.discard(5, 1);
        assert_eq!(b.resident_pages(), vec![2, 9]);
    }
}
