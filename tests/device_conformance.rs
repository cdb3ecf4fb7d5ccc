//! Differential conformance suite: all four FTLs must implement the *same*
//! block device.
//!
//! For identical operation sequences, every FTL must expose identical
//! logical contents (checked through the NAND ownership metadata), identical
//! host-visible accounting, and the shared physical invariants — whatever
//! their wildly different internal mechanics (log blocks, merges, mapping
//! caches) are doing.

use fc_simkit::DetRng;
use fc_ssd::ftl::{build_ftl, Ftl};
use fc_ssd::{BlockId, CostBreakdown, FtlConfig, FtlKind, FtlStats, Geometry, Lpn};
use std::collections::{BTreeSet, HashSet};

#[derive(Debug, Clone, Copy)]
enum DevOp {
    Write { lpn: u64, pages: u32 },
    Trim { lpn: u64, pages: u32 },
    Read { lpn: u64, pages: u32 },
}

/// A deterministic mixed op sequence over the tiny device's logical space.
fn op_sequence(logical: u64, n: usize, seed: u64) -> Vec<DevOp> {
    let mut rng = DetRng::new(seed);
    let mut ops = Vec::with_capacity(n);
    for _ in 0..n {
        let pages = 1 + (rng.below(4) as u32);
        let lpn = rng.below(logical - pages as u64);
        let op = match rng.below(10) {
            0..=5 => DevOp::Write { lpn, pages },
            6 => DevOp::Trim { lpn, pages },
            _ => DevOp::Read { lpn, pages },
        };
        ops.push(op);
    }
    ops
}

/// The host-visible state of a device: the set of logical pages that hold
/// data, extracted from NAND ownership metadata.
fn live_pages(ftl: &dyn Ftl) -> BTreeSet<u64> {
    let nand = ftl.nand();
    let geo = *nand.geometry();
    let mut live = BTreeSet::new();
    for b in 0..geo.blocks_total() {
        for (_, lpn) in nand.valid_entries(BlockId(b)) {
            assert!(
                live.insert(lpn.0),
                "{}: duplicate valid copy of page {}",
                ftl.kind(),
                lpn.0
            );
        }
    }
    live
}

fn run_sequence(kind: FtlKind, ops: &[DevOp]) -> (BTreeSet<u64>, u64) {
    let mut ftl = build_ftl(kind, Geometry::tiny(), FtlConfig::tiny_test());
    let mut host_written = 0u64;
    for op in ops {
        match *op {
            DevOp::Write { lpn, pages } => {
                ftl.write(Lpn(lpn), pages);
                host_written += pages as u64;
            }
            DevOp::Trim { lpn, pages } => {
                ftl.trim(Lpn(lpn), pages);
            }
            DevOp::Read { lpn, pages } => {
                ftl.read(Lpn(lpn), pages);
            }
        }
    }
    (live_pages(ftl.as_ref()), host_written)
}

#[test]
fn all_ftls_expose_identical_logical_state() {
    for seed in 0..6u64 {
        let probe = build_ftl(FtlKind::PageLevel, Geometry::tiny(), FtlConfig::tiny_test());
        let logical = probe.logical_pages();
        drop(probe);
        let ops = op_sequence(logical, 800, 100 + seed);

        let (reference, host_written) = run_sequence(FtlKind::PageLevel, &ops);
        for kind in [FtlKind::Bast, FtlKind::Fast, FtlKind::Dftl] {
            let (state, written) = run_sequence(kind, &ops);
            assert_eq!(written, host_written);
            assert_eq!(
                state, reference,
                "{kind} diverged from the page-level reference (seed {seed})"
            );
        }
    }
}

#[test]
fn live_state_matches_an_oracle_model() {
    // Independently track which pages must be live and compare per FTL.
    for kind in FtlKind::ALL_EXTENDED {
        let mut ftl = build_ftl(kind, Geometry::tiny(), FtlConfig::tiny_test());
        let logical = ftl.logical_pages();
        let ops = op_sequence(logical, 1_200, 7);
        let mut oracle: HashSet<u64> = HashSet::new();
        for op in &ops {
            match *op {
                DevOp::Write { lpn, pages } => {
                    ftl.write(Lpn(lpn), pages);
                    for i in 0..pages as u64 {
                        oracle.insert(lpn + i);
                    }
                }
                DevOp::Trim { lpn, pages } => {
                    ftl.trim(Lpn(lpn), pages);
                    for i in 0..pages as u64 {
                        oracle.remove(&(lpn + i));
                    }
                }
                DevOp::Read { lpn, pages } => {
                    ftl.read(Lpn(lpn), pages);
                }
            }
        }
        let live = live_pages(ftl.as_ref());
        let oracle: BTreeSet<u64> = oracle.into_iter().collect();
        assert_eq!(live, oracle, "{kind}: live set diverged from the oracle");
    }
}

#[test]
fn trim_everything_empties_every_ftl() {
    for kind in FtlKind::ALL_EXTENDED {
        let mut ftl = build_ftl(kind, Geometry::tiny(), FtlConfig::tiny_test());
        let logical = ftl.logical_pages();
        let mut rng = DetRng::new(11);
        for _ in 0..500 {
            ftl.write(Lpn(rng.below(logical)), 1);
        }
        ftl.trim(Lpn(0), logical as u32);
        assert!(
            live_pages(ftl.as_ref()).is_empty(),
            "{kind}: pages survived a full trim"
        );
        // And the space is writable again.
        ftl.write(Lpn(3), 2);
        assert_eq!(live_pages(ftl.as_ref()).len(), 2);
    }
}

#[test]
fn full_fill_then_full_overwrite_converges_for_every_ftl() {
    for kind in FtlKind::ALL_EXTENDED {
        let mut ftl = build_ftl(kind, Geometry::tiny(), FtlConfig::tiny_test());
        let logical = ftl.logical_pages();
        let ppb = ftl.nand().geometry().pages_per_block;
        // Sequential fill, block-sized requests (the FTL-friendliest input).
        let mut lpn = 0;
        while lpn + ppb as u64 <= logical {
            ftl.write(Lpn(lpn), ppb);
            lpn += ppb as u64;
        }
        // Overwrite everything once more.
        let mut lpn = 0;
        while lpn + ppb as u64 <= logical {
            ftl.write(Lpn(lpn), ppb);
            lpn += ppb as u64;
        }
        let live = live_pages(ftl.as_ref());
        assert_eq!(
            live.len() as u64,
            (logical / ppb as u64) * ppb as u64,
            "{kind}: lost pages across a full overwrite"
        );
        // Sequential block-sized traffic must not trigger full merges on the
        // hybrids (switch merges handle it).
        if matches!(kind, FtlKind::Bast) {
            assert_eq!(
                ftl.ftl_stats().full_merges,
                0,
                "BAST should switch-merge pure sequential traffic"
            );
        }
    }
}

#[test]
fn accounting_is_internally_consistent_for_every_ftl() {
    for kind in FtlKind::ALL_EXTENDED {
        let mut ftl = build_ftl(kind, Geometry::tiny(), FtlConfig::tiny_test());
        let logical = ftl.logical_pages();
        let mut rng = DetRng::new(23);
        let mut host_programs_lower_bound = 0u64;
        for _ in 0..2_000 {
            let pages = 1 + rng.below(3) as u32;
            let lpn = rng.below(logical - pages as u64);
            ftl.write(Lpn(lpn), pages);
            host_programs_lower_bound += pages as u64;
        }
        let nand = ftl.nand();
        // Programs >= host pages (copies only add).
        assert!(nand.total_programs() >= host_programs_lower_bound, "{kind}");
        // Erase counters agree between per-block and global views.
        let per_block: u64 = nand.erase_counts().iter().map(|&c| c as u64).sum();
        assert_eq!(per_block, nand.total_erases(), "{kind}");
    }
}

/// What one run leaves behind: the FTL's counters, the array's program and
/// erase totals, and the element-wise sum of every op's cost.
#[derive(Debug, PartialEq)]
struct Totals {
    stats: FtlStats,
    programs: u64,
    erases: u64,
    cost: CostBreakdown,
}

/// Rated erase cycles for the pinned runs: low enough that every FTL
/// retires blocks within its run, high enough that none runs out of spares.
const ENDURANCE: u32 = 12;

fn totals(kind: FtlKind, ops: usize) -> Totals {
    let mut ftl = build_ftl(kind, Geometry::tiny(), FtlConfig::tiny_test());
    ftl.nand_mut().set_endurance_limit(ENDURANCE);
    let mut cost = CostBreakdown::new(ftl.nand().geometry().planes_total());
    for op in op_sequence(ftl.logical_pages(), ops, 4242) {
        cost.absorb(&match op {
            DevOp::Write { lpn, pages } => ftl.write(Lpn(lpn), pages),
            DevOp::Trim { lpn, pages } => ftl.trim(Lpn(lpn), pages),
            DevOp::Read { lpn, pages } => ftl.read(Lpn(lpn), pages),
        });
    }
    let nand = ftl.nand();
    Totals {
        stats: ftl.ftl_stats(),
        programs: nand.total_programs(),
        erases: nand.total_erases(),
        cost,
    }
}

/// Every FTL's totals over one seeded run are pinned: merges, GC victims,
/// page copies, retired blocks, NAND programs and erases, and the summed
/// per-op cost. The runs are prefixes of one op sequence, each long enough
/// to wear blocks out (the hybrids erase far more per host page, so their
/// runs are shorter). The conformance tests above check what an FTL
/// stores; this one checks what storing it cost.
#[test]
fn every_ftl_totals_are_pinned() {
    let stats = |s: [u64; 8]| FtlStats {
        switch_merges: s[0],
        partial_merges: s[1],
        full_merges: s[2],
        gc_victims: s[3],
        page_copies: s[4],
        retired_blocks: s[5],
        translation_reads: s[6],
        translation_writes: s[7],
    };
    let cost = |bus: u64, reads: [u64; 2], programs: [u64; 2], erases: [u64; 2]| CostBreakdown {
        bus_transfers: bus,
        plane_reads: reads.to_vec(),
        plane_programs: programs.to_vec(),
        plane_erases: erases.to_vec(),
    };
    let pinned = [
        (
            FtlKind::Bast,
            600,
            stats([17, 169, 281, 0, 1203, 9, 0, 0]),
            2094,
            695,
            cost(1335, [766, 738], [1088, 1006], [356, 339]),
        ),
        (
            FtlKind::Fast,
            810,
            stats([26, 255, 324, 0, 1506, 8, 0, 0]),
            2700,
            714,
            cost(1799, [978, 967], [1332, 1368], [352, 362]),
        ),
        (
            FtlKind::PageLevel,
            1560,
            stats([0, 0, 0, 638, 471, 4, 0, 0]),
            2776,
            634,
            cost(3431, [671, 669], [1388, 1388], [314, 320]),
        ),
        (
            FtlKind::Dftl,
            1560,
            stats([0, 0, 0, 638, 471, 4, 1, 0]),
            2776,
            634,
            cost(3431, [672, 669], [1388, 1388], [314, 320]),
        ),
    ];
    for (kind, ops, stats, programs, erases, cost) in pinned {
        let got = totals(kind, ops);
        assert!(
            got.stats.retired_blocks > 0,
            "{kind}: the run never retired a block"
        );
        let want = Totals {
            stats,
            programs,
            erases,
            cost,
        };
        assert_eq!(got, want, "{kind}");
    }
}
