//! Property-based tests for the cooperative buffer.
//!
//! Model-based checking: the buffer is driven with arbitrary operation
//! sequences while a shadow model tracks which pages *must* be dirty; after
//! every step the buffer and model agree, capacity holds, and flush runs are
//! well-formed (contiguous, within one logical block, dirty counts sane).
//! A second shadow set tracks residency, to check that every eviction
//! lists exactly the pages that left (`Eviction::removed`).

use flashcoop::buffer::BufferConfig;
use flashcoop::policy::Eviction;
use flashcoop::{BufferManager, PolicyKind};
use proptest::prelude::*;
use std::collections::HashSet;

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
fn absorb_flush(model_dirty: &mut HashSet<u64>, ev: &Eviction) {
    for run in &ev.runs {
        for i in 0..run.pages as u64 {
            model_dirty.remove(&(run.lpn + i));
        }
    }
}

fn check_eviction_well_formed(ev: &Eviction) -> Result<(), TestCaseError> {
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

/// `ev.removed` is duplicate-free and is exactly the pages that were
/// resident before the call (or inserted by it) and are not any more; the
/// shadow set then follows the buffer.
fn check_removed(
    buf: &BufferManager,
    model_resident: &mut HashSet<u64>,
    inserted: std::ops::Range<u64>,
    ev: &Eviction,
) -> Result<(), TestCaseError> {
    model_resident.extend(inserted);
    let after: HashSet<u64> = buf.resident_pages().into_iter().collect();
    let removed: HashSet<u64> = ev.removed.iter().copied().collect();
    prop_assert_eq!(removed.len(), ev.removed.len(), "duplicate in removed");
    let expected: HashSet<u64> = model_resident.difference(&after).copied().collect();
    prop_assert_eq!(&removed, &expected, "removed != before + inserted - after");
    prop_assert!(
        after.is_subset(model_resident),
        "page appeared from nowhere"
    );
    if buf.policy() == PolicyKind::Lar && !ev.removed.is_empty() {
        // A LAR eviction flushes whole victim blocks: a flushed page never
        // stays (write-back work, which removes nothing, is the exception).
        for run in &ev.runs {
            for i in 0..run.pages as u64 {
                prop_assert!(removed.contains(&(run.lpn + i)), "flushed page stayed");
            }
        }
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
    let mut buf = BufferManager::from_config(
        BufferConfig::builder()
            .policy(policy)
            .capacity(capacity)
            .pages_per_block(PPB)
            .clustering(clustering)
            .dirty_watermark(Some(0.5))
            .build(),
    );
    let mut model_dirty: HashSet<u64> = HashSet::new();
    let mut model_resident: HashSet<u64> = HashSet::new();

    for op in ops {
        match *op {
            BufOp::Write { lpn, pages } => {
                for i in 0..pages as u64 {
                    model_dirty.insert(lpn + i);
                }
                let ev = buf.write(lpn, pages);
                check_eviction_well_formed(&ev)?;
                check_removed(&buf, &mut model_resident, lpn..lpn + pages as u64, &ev)?;
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
                        let ev = buf.insert_clean(seg.lpn, seg.pages);
                        check_eviction_well_formed(&ev)?;
                        let filled = seg.lpn..seg.lpn + seg.pages as u64;
                        check_removed(&buf, &mut model_resident, filled, &ev)?;
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
                prop_assert!(ev.removed.is_empty());
                check_removed(&buf, &mut model_resident, 0..0, &ev)?;
                absorb_flush(&mut model_dirty, &ev);
                if drain {
                    prop_assert_eq!(buf.dirty(), 0);
                }
            }
            BufOp::Resize { capacity } => {
                let ev = buf.set_capacity(capacity);
                check_eviction_well_formed(&ev)?;
                check_removed(&buf, &mut model_resident, 0..0, &ev)?;
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
