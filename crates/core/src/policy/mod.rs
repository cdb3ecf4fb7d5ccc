//! Replacement-policy bookkeeping.
//!
//! The buffer manager ([`crate::buffer::BufferManager`]) owns the resident
//! pages; the one private `Order` here owns every replacement decision.
//! It is built once from the [`PolicyKind`] and has one arm per kind of
//! order:
//!
//! * `Order::Lar` — `lar::LarDirectory`, the block-granular two-level sort
//!   (popularity, then dirty-page count) of Section III.B.2, or its first
//!   level alone for the tie-break ablation.
//! * `Order::Ranked` — `ranked::RankedDirectory`, the page-granular LRU or
//!   LFU order of the comparison policies.
//!
//! The buffer tells the order about a request's block accesses and page
//! touches and each page entering, turning dirty or clean and leaving; the
//! order names the next victim (a block or a page) and the cleaner's next
//! dirty victim. A new policy is one more arm.
//!
//! Flush plans are expressed as [`FlushRun`]s: contiguous LPN runs written
//! sequentially to the SSD, the unit the write-length distribution
//! (Figure 8) is measured over.

mod lar;
mod ranked;

use crate::config::PolicyKind;
pub(crate) use lar::LarBlock;
use lar::LarDirectory;
use ranked::RankedDirectory;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// A replacement victim.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Victim {
    /// A logical block, with the scores LAR ranked it by.
    Block(u64, LarBlock),
    /// One page.
    Page(u64),
}

/// The buffer's replacement order: one arm per policy, chosen once.
#[derive(Debug, Clone)]
pub(crate) enum Order {
    /// LAR's block directory (Section III.B.2).
    Lar(LarDirectory),
    /// An LRU or LFU page directory.
    Ranked(RankedDirectory),
}

impl Order {
    /// The order `policy` keeps; `dirty_tiebreak` is LAR's second level.
    pub fn new(policy: PolicyKind, dirty_tiebreak: bool) -> Self {
        match policy {
            PolicyKind::Lar => Order::Lar(LarDirectory::new(dirty_tiebreak)),
            PolicyKind::Lru => Order::Ranked(RankedDirectory::new(false)),
            PolicyKind::Lfu => Order::Ranked(RankedDirectory::new(true)),
        }
    }

    /// The policy this order implements.
    pub fn policy(&self) -> PolicyKind {
        match self {
            Order::Lar(_) => PolicyKind::Lar,
            Order::Ranked(d) if d.lfu() => PolicyKind::Lfu,
            Order::Ranked(_) => PolicyKind::Lru,
        }
    }

    /// One request's access to the logical `blocks` it spans: one LAR
    /// popularity increment per resident block ("sequentially accessing
    /// multiple pages of the block is treated as one block access"). A
    /// read-miss `fill` only counts blocks it brought in, which the read
    /// could not.
    pub fn access(&mut self, blocks: Range<u64>, fill: bool) {
        if let Order::Lar(d) = self {
            for lbn in blocks {
                d.access(lbn, fill);
            }
        }
    }

    /// A resident page was read or rewritten (the page orders' access).
    pub fn touch(&mut self, lpn: u64) {
        if let Order::Ranked(d) = self {
            d.touch(lpn);
        }
    }

    /// Page `lpn` of block `lbn` entered (`d_resident` 1), left (-1) or
    /// changed dirtiness (`d_dirty`).
    pub fn adjust(&mut self, lpn: u64, lbn: u64, d_resident: i64, d_dirty: i64) {
        match self {
            Order::Lar(d) => d.adjust(lbn, d_resident, d_dirty),
            Order::Ranked(d) if d_resident > 0 => d.touch(lpn),
            Order::Ranked(d) if d_resident < 0 => {
                d.remove(lpn);
            }
            Order::Ranked(_) => {}
        }
    }

    /// The next page or block to evict.
    pub fn victim(&self) -> Option<Victim> {
        match self {
            Order::Lar(d) => d.victim().map(|(lbn, b)| Victim::Block(lbn, b)),
            Order::Ranked(d) => d.victim().map(Victim::Page),
        }
    }

    /// The least-popular block holding dirty pages, which clustering
    /// gathers (Section III.B.3); page orders have none.
    pub fn dirty_block(&self) -> Option<(u64, LarBlock)> {
        match self {
            Order::Lar(d) => d.dirty_victim(),
            Order::Ranked(_) => None,
        }
    }

    /// The background cleaner's next victim: LAR's least-popular dirty
    /// block; for the page orders, the `lowest_dirty` page.
    pub fn clean_victim(&self, lowest_dirty: impl FnOnce() -> Option<u64>) -> Option<Victim> {
        match self {
            Order::Lar(d) => d.dirty_victim().map(|(lbn, b)| Victim::Block(lbn, b)),
            Order::Ranked(_) => lowest_dirty().map(Victim::Page),
        }
    }

    /// Forget every page and block (a crash); the order keeps its mode.
    pub fn clear(&mut self) {
        match self {
            Order::Lar(d) => d.clear(),
            Order::Ranked(d) => d.clear(),
        }
    }
}

/// A contiguous run of pages to write sequentially to the SSD.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlushRun {
    /// First logical page.
    pub lpn: u64,
    /// Run length in pages.
    pub pages: u32,
    /// How many of those pages were dirty (the rest are clean pages flushed
    /// alongside to keep the physical block contiguous — Section III.B.2's
    /// "both read and dirty pages of this block … sequentially flushed").
    pub dirty: u32,
}

impl FlushRun {
    /// Pages after the end of the run.
    pub fn end_lpn(&self) -> u64 {
        self.lpn + self.pages as u64
    }
}

/// The flush work produced by one eviction cycle. When clustering is on,
/// several small dirty tails are grouped into one batch and issued to the
/// device as a single write (Section III.B.3).
///
/// `P` is the per-page record the buffer keeps
/// ([`crate::buffer::BufferManager`]'s type parameter): an eviction hands
/// back the record of every page it flushed, so the caller writes the runs
/// without a table of its own.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Eviction<P = ()> {
    /// Runs to write, in LPN order per victim.
    pub runs: Vec<FlushRun>,
    /// Pages dropped without a flush (clean victims).
    pub clean_dropped: u32,
    /// The flushed pages' records, one per page of `runs`, in run order.
    /// A page that left the buffer gives up its record; a page that stays
    /// (write-back) lends a clone.
    pub records: Vec<P>,
}

impl<P> Default for Eviction<P> {
    fn default() -> Self {
        Eviction {
            runs: Vec::new(),
            clean_dropped: 0,
            records: Vec::new(),
        }
    }
}

impl<P> Eviction<P> {
    /// Total pages across all runs.
    pub fn flushed_pages(&self) -> u64 {
        self.runs.iter().map(|r| r.pages as u64).sum()
    }

    /// Total dirty pages across all runs.
    pub fn dirty_pages(&self) -> u64 {
        self.runs.iter().map(|r| r.dirty as u64).sum()
    }

    /// True when nothing needs writing.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Every flushed page with its record, in run order.
    pub fn pages(&self) -> impl Iterator<Item = (u64, &P)> {
        self.runs
            .iter()
            .flat_map(|r| r.lpn..r.end_lpn())
            .zip(&self.records)
    }
}

/// Append the contiguous [`FlushRun`]s of sorted, unique `(lpn, dirty)`
/// pages to `out`, never extending a run already there.
pub(crate) fn push_runs(out: &mut Vec<FlushRun>, pages: impl IntoIterator<Item = (u64, bool)>) {
    let first = out.len();
    for (lpn, dirty) in pages {
        match out[first..].last_mut() {
            Some(run) if run.end_lpn() == lpn => {
                run.pages += 1;
                run.dirty += u32::from(dirty);
            }
            last => {
                debug_assert!(
                    last.is_none_or(|r| lpn > r.end_lpn()),
                    "pages must be sorted"
                );
                out.push(FlushRun {
                    lpn,
                    pages: 1,
                    dirty: u32::from(dirty),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs_from_sorted(pages: &[(u64, bool)]) -> Vec<FlushRun> {
        let mut out = Vec::new();
        push_runs(&mut out, pages.iter().copied());
        out
    }

    #[test]
    fn runs_split_at_gaps() {
        let pages = [(0, true), (1, false), (2, true), (5, true), (6, false)];
        let runs = runs_from_sorted(&pages);
        assert_eq!(
            runs,
            vec![
                FlushRun {
                    lpn: 0,
                    pages: 3,
                    dirty: 2
                },
                FlushRun {
                    lpn: 5,
                    pages: 2,
                    dirty: 1
                },
            ]
        );
    }

    #[test]
    fn runs_already_out_are_never_extended() {
        let mut out = runs_from_sorted(&[(3, true)]);
        push_runs(&mut out, [(4, true), (5, false)]);
        assert_eq!(
            out,
            vec![
                FlushRun {
                    lpn: 3,
                    pages: 1,
                    dirty: 1
                },
                FlushRun {
                    lpn: 4,
                    pages: 2,
                    dirty: 1
                },
            ]
        );
    }

    #[test]
    fn empty_input_empty_runs() {
        assert!(runs_from_sorted(&[]).is_empty());
    }

    #[test]
    fn single_page_run() {
        let runs = runs_from_sorted(&[(9, false)]);
        assert_eq!(
            runs,
            vec![FlushRun {
                lpn: 9,
                pages: 1,
                dirty: 0
            }]
        );
        assert_eq!(runs[0].end_lpn(), 10);
    }

    #[test]
    fn eviction_totals() {
        let mut e = Eviction::default();
        assert!(e.is_empty());
        e.runs = vec![
            FlushRun {
                lpn: 0,
                pages: 2,
                dirty: 1,
            },
            FlushRun {
                lpn: 10,
                pages: 1,
                dirty: 1,
            },
        ];
        e.records = vec!['a', 'b', 'c'];
        e.clean_dropped = 2;
        assert_eq!(e.flushed_pages(), 3);
        assert_eq!(e.dirty_pages(), 2);
        assert_eq!(
            e.pages().collect::<Vec<_>>(),
            [(0, &'a'), (1, &'b'), (10, &'c')]
        );
    }
}
