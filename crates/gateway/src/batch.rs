//! Write coalescing.
//!
//! The scheduler merges a session's pipelined writes into block-aligned
//! runs before they hit the node. Two effects, both straight from the
//! paper's observation that destage cost is dominated by *partial-block*
//! writes:
//!
//! * **Last-writer-wins dedup** — a page overwritten twice inside one
//!   batch window is submitted once, with the newest payload.
//! * **Contiguity** — adjacent pages are grouped into one run per logical
//!   block, so the node's buffer sees sequential insertions and the
//!   destage path can pick fuller blocks (Section III.B's sequential-
//!   window logic gets real sequences to find).
//!
//! A run never spans a block boundary: blocks are the destage unit, and a
//! run that crossed one would tie two blocks' fates together.

use bytes::Bytes;

/// One contiguous, block-confined run of pages ready for
/// [`fc_cluster::Node::try_write_runs`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteRun {
    /// First logical page of the run.
    pub lpn: u64,
    /// Payloads for `lpn`, `lpn+1`, … in order.
    pub pages: Vec<Bytes>,
}

impl WriteRun {
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }
}

/// Coalesce `(lpn, payload)` writes — in arrival order — into sorted,
/// deduplicated, block-confined runs.
///
/// Later writes to the same lpn replace earlier ones (last-writer-wins).
/// Output runs are sorted by lpn and never cross a multiple of
/// `pages_per_block`.
pub fn coalesce(writes: Vec<(u64, Bytes)>, pages_per_block: u32) -> Vec<WriteRun> {
    coalesce_sharded(writes, pages_per_block, |_| 0)
        .into_iter()
        .map(|(_, run)| run)
        .collect()
}

/// Shard-aware coalescing for the sharded gateway: like [`coalesce`], but
/// each run is tagged with its owning shard and **never spans a shard
/// boundary** — a run is broken wherever `shard_of` changes, in addition
/// to the logical-block breaks.
///
/// The extra break matters whenever the router's granularity differs from
/// the gateway's block size (e.g. a ring routing 2-page blocks under an
/// 8-page destage block): block-confined runs alone would happily glue
/// together pages owned by different pairs, and submitting such a run to
/// one node would write another shard's pages to the wrong pair.
pub fn coalesce_sharded(
    mut writes: Vec<(u64, Bytes)>,
    pages_per_block: u32,
    shard_of: impl Fn(u64) -> u16,
) -> Vec<(u16, WriteRun)> {
    let ppb = u64::from(pages_per_block.max(1));
    // A stable sort keeps one lpn's writes in arrival order, so the last of
    // them is the newest (last-writer-wins); an already sorted window — one
    // request, or several in address order — costs one pass.
    writes.sort_by_key(|&(lpn, _)| lpn);
    let mut runs: Vec<(u16, WriteRun)> = Vec::new();
    for (lpn, data) in writes {
        match runs.last_mut() {
            // A rewrite of the page just placed: the newer payload wins.
            Some((_, run)) if lpn + 1 == run.lpn + run.len() as u64 => {
                *run.pages.last_mut().expect("a run is never empty") = data;
            }
            Some((s, run))
                if lpn == run.lpn + run.len() as u64
                    && lpn / ppb == run.lpn / ppb
                    && *s == shard_of(lpn) =>
            {
                run.pages.push(data);
            }
            _ => runs.push((
                shard_of(lpn),
                WriteRun {
                    lpn,
                    pages: vec![data],
                },
            )),
        }
    }
    runs
}

/// One admitted write of a batch window: its request id and the span
/// `lpn..lpn + pages` it wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct WriteSpan {
    pub(crate) id: u64,
    pub(crate) lpn: u64,
    pub(crate) pages: u64,
}

/// Where a coalesced run came from, given its window's spans in receive
/// order: the id of the last span covering the run's first page — the
/// write whose payload that page carries, as coalescing keeps the last
/// writer — and how many of the spans' pages fell inside the run before
/// coalescing. One pass over the spans; no per-page state.
pub(crate) fn run_origin(spans: &[WriteSpan], run: &WriteRun) -> (u64, u64) {
    let (start, end) = (run.lpn, run.lpn + run.len() as u64);
    let mut id = None;
    let mut pages = 0;
    for s in spans {
        let s_end = s.lpn + s.pages;
        pages += s_end.min(end).saturating_sub(s.lpn.max(start));
        if (s.lpn..s_end).contains(&start) {
            id = Some(s.id);
        }
    }
    (
        id.expect("a run's pages come from its window's spans"),
        pages,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &'static str) -> Bytes {
        Bytes::from_static(s.as_bytes())
    }

    #[test]
    fn adjacent_writes_merge_into_one_run() {
        let runs = coalesce(vec![(2, b("c")), (0, b("a")), (1, b("b"))], 4);
        assert_eq!(
            runs,
            vec![WriteRun {
                lpn: 0,
                pages: vec![b("a"), b("b"), b("c")],
            }]
        );
    }

    #[test]
    fn gaps_split_runs() {
        let runs = coalesce(vec![(0, b("a")), (2, b("c"))], 4);
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].lpn, 0);
        assert_eq!(runs[1].lpn, 2);
    }

    #[test]
    fn last_writer_wins() {
        let runs = coalesce(vec![(5, b("old")), (5, b("new"))], 4);
        assert_eq!(
            runs,
            vec![WriteRun {
                lpn: 5,
                pages: vec![b("new")],
            }]
        );
    }

    #[test]
    fn runs_never_cross_block_boundaries() {
        // Pages 2..6 with 4-page blocks: [2,3] in block 0, [4,5] in block 1.
        let runs = coalesce(
            vec![(2, b("p2")), (3, b("p3")), (4, b("p4")), (5, b("p5"))],
            4,
        );
        assert_eq!(runs.len(), 2);
        assert_eq!((runs[0].lpn, runs[0].len()), (2, 2));
        assert_eq!((runs[1].lpn, runs[1].len()), (4, 2));
    }

    #[test]
    fn empty_input_and_degenerate_block_size() {
        assert!(coalesce(Vec::new(), 4).is_empty());
        // pages_per_block == 0 is clamped to 1: every page its own block.
        let runs = coalesce(vec![(0, b("a")), (1, b("b"))], 0);
        assert_eq!(runs.len(), 2);
    }

    /// Regression for the sharded scheduler: an adjacent LPN run inside
    /// ONE logical block whose pages belong to TWO shards (router finer
    /// than the block size) must be split at every shard change — block
    /// boundaries alone would have produced a single run and routed half
    /// its pages to the wrong pair.
    #[test]
    fn runs_never_cross_shard_boundaries() {
        // 8-page blocks, but a router that alternates shards every 2 pages:
        // pages 0..8 are one block yet belong to shards 0,0,1,1,0,0,1,1.
        let shard_of = |lpn: u64| ((lpn / 2) % 2) as u16;
        let writes: Vec<(u64, Bytes)> = (0..8u64).map(|l| (l, b("p"))).collect();

        // The shard-blind coalescer glues everything into one run…
        let blind = coalesce(writes.clone(), 8);
        assert_eq!(blind.len(), 1, "precondition: one block ⇒ one blind run");

        // …the shard-aware one must break at every ownership change.
        let runs = coalesce_sharded(writes, 8, shard_of);
        assert_eq!(runs.len(), 4);
        for (shard, run) in &runs {
            assert_eq!(run.len(), 2);
            for i in 0..run.len() as u64 {
                assert_eq!(
                    shard_of(run.lpn + i),
                    *shard,
                    "run at lpn {} leaked into another shard",
                    run.lpn
                );
            }
        }
        // Pages survive intact: 4 runs × 2 pages = the 8 input pages.
        let total: usize = runs.iter().map(|(_, r)| r.len()).sum();
        assert_eq!(total, 8);
    }

    #[test]
    fn sharded_coalesce_still_dedups_and_blocks_still_split() {
        let shard_of = |lpn: u64| (lpn / 4) as u16;
        // Pages 2..6 with 4-page blocks and a block-aligned router:
        // the block boundary and shard boundary coincide at 4.
        let runs = coalesce_sharded(
            vec![
                (2, b("old2")),
                (3, b("p3")),
                (4, b("p4")),
                (5, b("p5")),
                (2, b("new2")),
            ],
            4,
            shard_of,
        );
        assert_eq!(runs.len(), 2);
        assert_eq!(
            runs[0],
            (
                0,
                WriteRun {
                    lpn: 2,
                    pages: vec![b("new2"), b("p3")]
                }
            )
        );
        assert_eq!(
            runs[1],
            (
                1,
                WriteRun {
                    lpn: 4,
                    pages: vec![b("p4"), b("p5")]
                }
            )
        );
    }

    #[test]
    fn dedup_is_counted_by_page_totals() {
        let input = vec![(0, b("x")), (1, b("y")), (0, b("z")), (8, b("w"))];
        let in_pages = input.len();
        let runs = coalesce(input, 4);
        let out_pages: usize = runs.iter().map(WriteRun::len).sum();
        assert_eq!(in_pages - out_pages, 1, "one overwrite merged away");
        // The surviving page 0 carries the newest payload.
        assert_eq!(runs[0].pages[0], b("z"));
    }

    /// The last-writer-wins reference the sort-based coalescer replaced:
    /// a `BTreeMap` insert per page, runs cut from its sorted iteration.
    fn reference(
        writes: &[(u64, Bytes)],
        ppb: u64,
        shard_of: impl Fn(u64) -> u16,
    ) -> Vec<(u16, WriteRun)> {
        let newest: std::collections::BTreeMap<u64, Bytes> = writes.iter().cloned().collect();
        let mut runs: Vec<(u16, WriteRun)> = Vec::new();
        for (lpn, data) in newest {
            let shard = shard_of(lpn);
            match runs.last_mut() {
                Some((s, run))
                    if *s == shard
                        && lpn == run.lpn + run.len() as u64
                        && lpn / ppb == run.lpn / ppb =>
                {
                    run.pages.push(data)
                }
                _ => runs.push((
                    shard,
                    WriteRun {
                        lpn,
                        pages: vec![data],
                    },
                )),
            }
        }
        runs
    }

    mod window_prop {
        use super::*;
        use proptest::prelude::*;
        use std::collections::HashMap;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]
            /// A random batch window — requests of 1..6 pages over a small
            /// lpn range, so spans repeat and overlap — under a router that
            /// alternates shards every 2 pages inside 8-page blocks: the
            /// sort-based coalescer equals the `BTreeMap` reference, and each
            /// run's tag and pre-coalesce page count, derived from the spans,
            /// equal the per-page-map derivation they replaced.
            #[test]
            fn coalesce_and_span_origins_match_the_per_page_maps(
                reqs in proptest::collection::vec((0u64..40, 1u64..6), 1..34),
            ) {
                let shard_of = |lpn: u64| ((lpn / 2) % 2) as u16;
                let mut flat = Vec::new();
                let mut spans = Vec::new();
                let mut ids: HashMap<u64, u64> = HashMap::new();
                for (i, &(lpn, pages)) in reqs.iter().enumerate() {
                    let id = 100 + i as u64;
                    spans.push(WriteSpan { id, lpn, pages });
                    for page in lpn..lpn + pages {
                        flat.push((page, Bytes::from(format!("{id}:{page}").into_bytes())));
                        ids.insert(page, id);
                    }
                }
                let in_lpns: Vec<u64> = flat.iter().map(|(lpn, _)| *lpn).collect();
                let want = reference(&flat, 8, shard_of);
                let runs = coalesce_sharded(flat, 8, shard_of);
                prop_assert_eq!(&runs, &want);
                let mut in_count = vec![0u64; runs.len()];
                for lpn in &in_lpns {
                    in_count[runs.partition_point(|(_, r)| r.lpn <= *lpn) - 1] += 1;
                }
                for (i, (_, run)) in runs.iter().enumerate() {
                    prop_assert_eq!(run_origin(&spans, run), (ids[&run.lpn], in_count[i]));
                }
            }
        }
    }
}
