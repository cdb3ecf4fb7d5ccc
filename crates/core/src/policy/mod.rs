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
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Eviction {
    /// Runs to write, in LPN order per victim.
    pub runs: Vec<FlushRun>,
    /// Pages dropped without a flush (clean victims).
    pub clean_dropped: u32,
    /// Every lpn that left the buffer in this cycle, flushed or dropped —
    /// what a caller keeping per-page state alongside the buffer must
    /// forget. Empty for write-back work whose pages stay resident
    /// ([`crate::buffer::BufferManager::drain_dirty`], `background_clean`).
    pub removed: Vec<u64>,
}

impl Eviction {
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

    /// Append another eviction's work.
    pub fn absorb(&mut self, other: Eviction) {
        self.runs.extend(other.runs);
        self.clean_dropped += other.clean_dropped;
        self.removed.extend(other.removed);
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
        e.runs.push(FlushRun {
            lpn: 0,
            pages: 4,
            dirty: 3,
        });
        e.clean_dropped = 2;
        e.removed = vec![0, 1, 2, 3, 7, 8];
        let mut other = Eviction::default();
        other.runs.push(FlushRun {
            lpn: 10,
            pages: 1,
            dirty: 1,
        });
        other.clean_dropped = 1;
        other.removed = vec![10, 20];
        e.absorb(other);
        assert_eq!(e.flushed_pages(), 5);
        assert_eq!(e.dirty_pages(), 4);
        assert_eq!(e.clean_dropped, 3);
        assert_eq!(e.removed, vec![0, 1, 2, 3, 7, 8, 10, 20]);
    }
}
