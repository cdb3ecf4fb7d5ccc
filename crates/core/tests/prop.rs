//! Property-based tests for the cooperative buffer.
//!
//! Model-based checking: the buffer is driven with arbitrary operation
//! sequences while a shadow model tracks which pages *must* be dirty; after
//! every step the buffer and model agree, capacity holds, and flush runs are
//! well-formed (contiguous, within one logical block, dirty counts sane).
//! The buffer keeps each write's (or fill's) sequence number as the page's
//! record, and a second model tracks the latest one per page, to check that
//! the buffer serves and every eviction hands back only latest records.

use flashcoop::buffer::BufferConfig;
use flashcoop::policy::Eviction;
use flashcoop::{BufferManager, PolicyKind};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

const PPB: u32 = 8;
const SPACE: u64 = 512;

#[derive(Debug, Clone, Copy)]
enum BufOp {
    Write { lpn: u64, pages: u32 },
    ReadAndFill { lpn: u64, pages: u32 },
    Drain,
    BackgroundClean,
    Resize { capacity: usize },
    Discard { lpn: u64, pages: u32 },
}

fn op_strategy() -> impl Strategy<Value = BufOp> {
    prop_oneof![
        4 => (0..SPACE - 8, 1u32..8).prop_map(|(lpn, pages)| BufOp::Write { lpn, pages }),
        2 => (0..SPACE - 8, 1u32..8).prop_map(|(lpn, pages)| BufOp::ReadAndFill { lpn, pages }),
        1 => Just(BufOp::Drain),
        1 => Just(BufOp::BackgroundClean),
        1 => (4usize..96).prop_map(|capacity| BufOp::Resize { capacity }),
        1 => (0..SPACE - 8, 1u32..8).prop_map(|(lpn, pages)| BufOp::Discard { lpn, pages }),
    ]
}

/// Apply an eviction to the shadow dirty-set: flushed pages are no longer
/// required to be dirty in the buffer.
fn absorb_flush(model_dirty: &mut HashSet<u64>, ev: &Eviction<u64>) {
    for run in &ev.runs {
        for i in 0..run.pages as u64 {
            model_dirty.remove(&(run.lpn + i));
        }
    }
}

fn check_eviction_well_formed(ev: &Eviction<u64>) -> Result<(), TestCaseError> {
    for run in &ev.runs {
        prop_assert!(run.pages >= 1);
        prop_assert!(run.dirty <= run.pages);
        // A run never crosses a logical-block boundary (flushes are
        // per-block, Section III.B.1).
        let first_block = run.lpn / PPB as u64;
        let last_block = (run.end_lpn() - 1) / PPB as u64;
        prop_assert_eq!(
            first_block,
            last_block,
            "run crosses block boundary: {:?}",
            run
        );
    }
    Ok(())
}

/// Records: every resident page holds the latest record written or filled
/// for it, and every record `ev` hands back is the latest for its lpn. The
/// resident set grew by at most `inserted`, and a page that left without a
/// flush is one of `ev.clean_dropped`. `evicting` marks an eviction made to
/// free room (not write-back work): under LAR it flushes whole victim
/// blocks, so no page it flushed stays resident.
fn check_records(
    buf: &BufferManager<u64>,
    latest: &HashMap<u64, u64>,
    model_resident: &mut HashSet<u64>,
    inserted: std::ops::Range<u64>,
    ev: &Eviction<u64>,
    evicting: bool,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(ev.records.len() as u64, ev.flushed_pages());
    let mut flushed = HashSet::new();
    for (lpn, rec) in ev.pages() {
        prop_assert_eq!(Some(rec), latest.get(&lpn), "flushed a stale record");
        flushed.insert(lpn);
    }
    model_resident.extend(inserted);
    let after: HashSet<u64> = buf.iter().map(|(lpn, _)| lpn).collect();
    prop_assert_eq!(after.len(), buf.resident());
    prop_assert!(
        after.is_subset(model_resident),
        "page appeared from nowhere"
    );
    // A page written back clean may leave later in the same cycle as a
    // clean drop, so the flushed and the dropped pages can overlap.
    let unflushed = model_resident
        .difference(&after)
        .filter(|lpn| !flushed.contains(lpn))
        .count();
    prop_assert!(
        unflushed <= ev.clean_dropped as usize,
        "unflushed page left"
    );
    if evicting && buf.policy() == PolicyKind::Lar {
        prop_assert!(flushed.is_disjoint(&after), "flushed page stayed");
    }
    for &lpn in &after {
        prop_assert_eq!(buf.get(lpn), latest.get(&lpn), "stale record at {}", lpn);
    }
    *model_resident = after;
    Ok(())
}

fn run_model(
    policy: PolicyKind,
    clustering: bool,
    capacity: usize,
    ops: &[BufOp],
) -> Result<(), TestCaseError> {
    let mut buf: BufferManager<u64> = BufferManager::from_config(BufferConfig {
        policy,
        capacity,
        pages_per_block: PPB,
        clustering,
        lar_dirty_tiebreak: true,
        dirty_watermark: Some(0.5),
    });
    let mut model_dirty: HashSet<u64> = HashSet::new();
    let mut model_resident: HashSet<u64> = HashSet::new();
    let mut latest: HashMap<u64, u64> = HashMap::new();

    for (seq, op) in ops.iter().enumerate() {
        let seq = seq as u64;
        match *op {
            BufOp::Write { lpn, pages } => {
                for i in 0..pages as u64 {
                    model_dirty.insert(lpn + i);
                    latest.insert(lpn + i, seq);
                }
                let ev = buf.write_pages(lpn, std::iter::repeat_n(seq, pages as usize));
                check_eviction_well_formed(&ev)?;
                let written = lpn..lpn + pages as u64;
                check_records(&buf, &latest, &mut model_resident, written, &ev, true)?;
                absorb_flush(&mut model_dirty, &ev);
            }
            BufOp::ReadAndFill { lpn, pages } => {
                let segments = buf.read(lpn, pages);
                // Segments must partition the request exactly.
                let mut cursor = lpn;
                for seg in &segments {
                    prop_assert_eq!(seg.lpn, cursor);
                    cursor += seg.pages as u64;
                }
                prop_assert_eq!(cursor, lpn + pages as u64);
                for seg in segments {
                    if !seg.hit {
                        let filled = seg.lpn..seg.lpn + seg.pages as u64;
                        for l in filled.clone() {
                            latest.insert(l, seq);
                        }
                        let records = std::iter::repeat_n(seq, seg.pages as usize);
                        let ev = buf.fill_pages(seg.lpn, records);
                        check_eviction_well_formed(&ev)?;
                        check_records(&buf, &latest, &mut model_resident, filled, &ev, true)?;
                        absorb_flush(&mut model_dirty, &ev);
                    }
                }
            }
            BufOp::Drain | BufOp::BackgroundClean => {
                let drain = matches!(op, BufOp::Drain);
                let ev = if drain {
                    buf.drain_dirty()
                } else {
                    buf.background_clean()
                };
                check_eviction_well_formed(&ev)?;
                // Write-back only: the pages stay resident, now clean.
                prop_assert_eq!(buf.resident(), model_resident.len());
                check_records(&buf, &latest, &mut model_resident, 0..0, &ev, false)?;
                absorb_flush(&mut model_dirty, &ev);
                if drain {
                    prop_assert_eq!(buf.dirty(), 0);
                }
            }
            BufOp::Resize { capacity } => {
                let ev = buf.set_capacity(capacity);
                check_eviction_well_formed(&ev)?;
                check_records(&buf, &latest, &mut model_resident, 0..0, &ev, true)?;
                absorb_flush(&mut model_dirty, &ev);
            }
            BufOp::Discard { lpn, pages } => {
                buf.discard(lpn, pages);
                for i in 0..pages as u64 {
                    model_dirty.remove(&(lpn + i));
                    model_resident.remove(&(lpn + i));
                }
            }
        }
        // Core invariants after every operation:
        prop_assert!(buf.resident() <= buf.capacity(), "over capacity");
        prop_assert!(buf.dirty() <= buf.resident());
        prop_assert_eq!(buf.resident(), model_resident.len(), "resident mismatch");
        // Durability: every page the model still considers dirty *must* be
        // dirty-resident (it was never flushed) — the buffer may hold MORE
        // dirty pages than the model requires only if a flushed page was
        // rewritten, which the model tracks, so the sets match exactly.
        for &lpn in &model_dirty {
            prop_assert_eq!(
                buf.lookup(lpn),
                Some(true),
                "page {} should be dirty-resident",
                lpn
            );
        }
        prop_assert_eq!(buf.dirty(), model_dirty.len(), "dirty count mismatch");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn lar_buffer_never_loses_dirty_pages(
        capacity in 8usize..64,
        clustering in any::<bool>(),
        ops in prop::collection::vec(op_strategy(), 1..120),
    ) {
        run_model(PolicyKind::Lar, clustering, capacity, &ops)?;
    }

    #[test]
    fn lru_buffer_never_loses_dirty_pages(
        capacity in 8usize..64,
        clustering in any::<bool>(),
        ops in prop::collection::vec(op_strategy(), 1..120),
    ) {
        run_model(PolicyKind::Lru, clustering, capacity, &ops)?;
    }

    #[test]
    fn lfu_buffer_never_loses_dirty_pages(
        capacity in 8usize..64,
        clustering in any::<bool>(),
        ops in prop::collection::vec(op_strategy(), 1..120),
    ) {
        run_model(PolicyKind::Lfu, clustering, capacity, &ops)?;
    }

    /// Hit accounting is conserved: hits + misses == pages touched.
    #[test]
    fn hit_accounting_conserved(ops in prop::collection::vec((0..SPACE - 8, 1u32..8), 1..80)) {
        let mut buf = BufferManager::new(PolicyKind::Lar, 32, PPB, true);
        let mut touched = 0u64;
        for (lpn, pages) in ops {
            buf.write(lpn, pages);
            touched += pages as u64;
        }
        let s = buf.stats();
        prop_assert_eq!(s.page_hits + s.page_misses, touched);
    }
}
