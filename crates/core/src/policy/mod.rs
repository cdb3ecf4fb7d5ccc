//! Replacement-policy bookkeeping.
//!
//! The buffer manager ([`crate::buffer::BufferManager`]) owns the resident
//! pages; the *directories* in this module own the eviction order:
//!
//! * [`lar::LarDirectory`] — block-granular two-level sort (popularity, then
//!   dirty-page count), Section III.B.2.
//! * [`ranked::RankedDirectory`] — page-granular LRU/LFU orders for the
//!   comparison policies.
//!
//! Flush plans are expressed as [`FlushRun`]s: contiguous LPN runs written
//! sequentially to the SSD, the unit the write-length distribution
//! (Figure 8) is measured over.

pub mod lar;
pub mod ranked;

use serde::{Deserialize, Serialize};

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

/// Build contiguous [`FlushRun`]s from a sorted list of (lpn, dirty) pages.
pub(crate) fn runs_from_sorted(pages: &[(u64, bool)]) -> Vec<FlushRun> {
    let mut out = Vec::new();
    let mut iter = pages.iter().copied();
    let Some((first, first_dirty)) = iter.next() else {
        return out;
    };
    let mut run = FlushRun {
        lpn: first,
        pages: 1,
        dirty: u32::from(first_dirty),
    };
    for (lpn, dirty) in iter {
        debug_assert!(lpn > run.end_lpn() - 1, "pages must be sorted and unique");
        if lpn == run.end_lpn() {
            run.pages += 1;
            run.dirty += u32::from(dirty);
        } else {
            out.push(run);
            run = FlushRun {
                lpn,
                pages: 1,
                dirty: u32::from(dirty),
            };
        }
    }
    out.push(run);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

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
