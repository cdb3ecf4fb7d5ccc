//! The route table: which shard slot owns a block, and the
//! elastic-membership window (dual ring + fence set) while one is open.
//! Fields are private; the rebalance steps mutate the table and *return*
//! what happened, for [`Gateway`](super::Gateway)'s entry points to count
//! and narrate.

use std::collections::HashSet;
use std::sync::Arc;

use fc_cluster::{MigrateError, NodeDown};
use fc_ring::Ring;

use super::failover::ShardBackend;

/// Routing state: the attached shard slots, the ring, and the open
/// window if any.
pub(crate) struct RouteTable {
    /// The ring requests route by outside the fence set: epoch E+1 during
    /// a window, the only ring otherwise.
    ring: Ring,
    window: Option<Window>,
    /// Shard slots, index = pair id. Slots are append-only: a removed
    /// pair's slot stays (its counters freeze, routing simply never
    /// resolves to a non-member), so per-shard stats and the counter-sum
    /// identity survive membership changes.
    shards: Vec<Arc<ShardBackend>>,
}

/// An open elastic-membership window.
struct Window {
    /// The retiring ring (epoch E).
    old: Ring,
    /// Planned-but-not-yet-migrated blocks. These still route to their
    /// old-ring owner; everything else routes by the new ring, so a block
    /// first written *during* the window lands directly on its
    /// post-cut-over owner and no acked write is stranded at commit.
    pending: HashSet<u64>,
    /// Batches / blocks / pages moved so far.
    moved: Moved,
}

/// What one migration batch — or a whole window — moved.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(super) struct Moved {
    pub(super) batches: u64,
    pub(super) blocks: u64,
    pub(super) pages: u64,
}

/// A window [`RouteTable::begin`] opened.
#[derive(Debug)]
pub(super) struct Begun {
    pub(super) from_epoch: u64,
    pub(super) to_epoch: u64,
    /// The fenced blocks, ascending.
    pub(super) fenced: Vec<u64>,
}

/// A window [`RouteTable::commit`] closed.
#[derive(Debug)]
pub(super) struct Committed {
    pub(super) from_epoch: u64,
    pub(super) to_epoch: u64,
    pub(super) moved: Moved,
}

impl RouteTable {
    pub(super) fn new(ring: Ring, shards: Vec<Arc<ShardBackend>>) -> RouteTable {
        RouteTable {
            ring,
            window: None,
            shards,
        }
    }

    pub(super) fn ring(&self) -> &Ring {
        &self.ring
    }

    pub(super) fn shards(&self) -> &[Arc<ShardBackend>] {
        &self.shards
    }

    pub(super) fn shard(&self, shard: u16) -> &Arc<ShardBackend> {
        &self.shards[usize::from(shard)]
    }

    /// Append `sb` as the next slot and return its id.
    pub(super) fn attach(&mut self, sb: ShardBackend) -> u16 {
        self.shards.push(Arc::new(sb));
        self.shards.len() as u16 - 1
    }

    /// The blocks still fenced to their old owner; `None` with no window
    /// open.
    pub(super) fn fenced(&self) -> Option<&HashSet<u64>> {
        self.window.as_ref().map(|w| &w.pending)
    }

    /// The dual-ring routing rule.
    fn owner_of_block(&self, block: u64) -> u16 {
        match &self.window {
            Some(w) if w.pending.contains(&block) => w.old.shard_of_block(block),
            _ => self.ring.shard_of_block(block),
        }
    }

    pub(super) fn owner_of_lpn(&self, lpn: u64) -> u16 {
        self.owner_of_block(lpn / u64::from(self.ring.block_pages()))
    }

    /// Shards a flush must fan out to: the current members, plus — during
    /// a window — the retiring ring's members (a pair leaving the cluster
    /// still holds unmigrated dirty pages until the cut-over).
    pub(super) fn flush_members(&self) -> Vec<u16> {
        let mut members: Vec<u16> = self.ring.members().to_vec();
        if let Some(w) = &self.window {
            members.extend_from_slice(w.old.members());
            members.sort_unstable();
            members.dedup();
        }
        members
    }

    /// Walk `[lpn, lpn+pages)` as maximal contiguous same-shard segments:
    /// `(shard, start, count)` triples in lpn order. Routing is per ring
    /// block, so segments break exactly at owner changes.
    pub(super) fn segments(&self, lpn: u64, pages: u32) -> Vec<(u16, u64, u32)> {
        let mut segs: Vec<(u16, u64, u32)> = Vec::new();
        for page in lpn..lpn + u64::from(pages) {
            let shard = self.owner_of_lpn(page);
            match segs.last_mut() {
                Some((s, _, count)) if *s == shard => *count += 1,
                _ => segs.push((shard, page, 1)),
            }
        }
        segs
    }

    /// Open a window: install `new_ring` and fence `pending` **unioned
    /// with a live occupancy scan of the retiring ring's members**,
    /// restricted to blocks whose owner differs between the rings. Any
    /// refusal leaves the table untouched.
    pub(super) fn begin(
        &mut self,
        new_ring: Ring,
        pending: impl IntoIterator<Item = u64>,
    ) -> Result<Begun, RebalanceError> {
        if self.window.is_some() {
            return Err(RebalanceError::WindowOpen);
        }
        if new_ring.config() != self.ring.config() {
            return Err(RebalanceError::ConfigMismatch);
        }
        if new_ring.epoch() <= self.ring.epoch() {
            return Err(RebalanceError::StaleEpoch {
                current: self.ring.epoch(),
                offered: new_ring.epoch(),
            });
        }
        if let Some(&m) = new_ring
            .members()
            .iter()
            .find(|&&m| usize::from(m) >= self.shards.len())
        {
            return Err(RebalanceError::UnknownMember(m));
        }
        // Live occupancy scan, atomic with the routing switch below. A
        // member that cannot answer aborts the begin — fencing blindly
        // would strand whatever it holds.
        let bp = u64::from(self.ring.block_pages());
        let mut fence: HashSet<u64> = pending.into_iter().collect();
        for &m in self.ring.members() {
            let lpns = self
                .shard(m)
                .with_active(|node| node.try_migration_lpns())
                .map_err(|NodeDown| RebalanceError::SourceDown(m))?;
            fence.extend(lpns.iter().map(|l| l / bp).filter(|&b| {
                // Only blocks this member owns per the retiring ring; a
                // stray page parked off-owner is not this window's problem.
                self.ring.shard_of_block(b) == m
            }));
        }
        let old = std::mem::replace(&mut self.ring, new_ring);
        let pending: HashSet<u64> = fence
            .into_iter()
            .filter(|&b| old.shard_of_block(b) != self.ring.shard_of_block(b))
            .collect();
        let mut fenced: Vec<u64> = pending.iter().copied().collect();
        fenced.sort_unstable();
        let begun = Begun {
            from_epoch: old.epoch(),
            to_epoch: self.ring.epoch(),
            fenced,
        };
        self.window = Some(Window {
            old,
            pending,
            moved: Moved::default(),
        });
        Ok(begun)
    }

    /// Migrate one batch: for each of `blocks` still fenced,
    /// `copy(block, from, to)` and on success unfence it. A copy error
    /// stops the batch — already-moved blocks stay moved, the failed block
    /// and the rest stay fenced. Returns what the batch moved (all zero
    /// when no window is open) beside why it stopped, if it did.
    pub(super) fn migrate(
        &mut self,
        blocks: &[u64],
        mut copy: impl FnMut(u64, u16, u16) -> Result<u64, MigrateError>,
    ) -> (Moved, Result<(), MigrateBatchError>) {
        let Some(w) = &mut self.window else {
            let refused = MigrateBatchError::State(RebalanceError::NoWindow);
            return (Moved::default(), Err(refused));
        };
        let mut batch = Moved {
            batches: 1,
            ..Moved::default()
        };
        let mut stopped = Ok(());
        for &block in blocks {
            if !w.pending.contains(&block) {
                continue; // already moved, or never part of the plan
            }
            let from = w.old.shard_of_block(block);
            let to = self.ring.shard_of_block(block);
            match copy(block, from, to) {
                Ok(n) => {
                    w.pending.remove(&block);
                    batch.blocks += 1;
                    batch.pages += n;
                }
                Err(error) => {
                    stopped = Err(MigrateBatchError::Copy {
                        block,
                        from,
                        to,
                        error,
                    });
                    break;
                }
            }
        }
        w.moved.batches += batch.batches;
        w.moved.blocks += batch.blocks;
        w.moved.pages += batch.pages;
        (batch, stopped)
    }

    /// Cut over: retire the old ring. Refused while fenced blocks remain —
    /// committing early would flip unmigrated blocks to an owner that
    /// does not hold them.
    pub(super) fn commit(&mut self) -> Result<Committed, RebalanceError> {
        let fenced = self.fenced().ok_or(RebalanceError::NoWindow)?;
        if !fenced.is_empty() {
            return Err(RebalanceError::PendingBlocks(fenced.len() as u64));
        }
        let w = self.window.take().expect("window checked open above");
        Ok(Committed {
            from_epoch: w.old.epoch(),
            to_epoch: self.ring.epoch(),
            moved: w.moved,
        })
    }
}

/// Why an elastic-membership control call was refused. These are all
/// caller-state errors — the route table is left exactly as it was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebalanceError {
    /// `begin_rebalance` while a window is already open.
    WindowOpen,
    /// `migrate_batch`/`commit_rebalance` with no window open.
    NoWindow,
    /// The offered ring disagrees on seed/vnodes/block geometry with the
    /// current one — its placements would be incomparable.
    ConfigMismatch,
    /// The offered ring's epoch is not ahead of the installed ring's —
    /// a stale or replayed membership change.
    StaleEpoch { current: u64, offered: u64 },
    /// The offered ring names a member with no attached shard slot.
    UnknownMember(u16),
    /// `commit_rebalance` refused: this many blocks are still fenced.
    PendingBlocks(u64),
    /// `begin_rebalance` could not scan this retiring member's occupancy
    /// (its active replica is down); fencing blindly would strand
    /// whatever it holds, so the window never opened.
    SourceDown(u16),
}

impl std::fmt::Display for RebalanceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RebalanceError::WindowOpen => write!(f, "a rebalance window is already open"),
            RebalanceError::NoWindow => write!(f, "no rebalance window is open"),
            RebalanceError::ConfigMismatch => write!(f, "ring config mismatch"),
            RebalanceError::StaleEpoch { current, offered } => {
                write!(f, "stale ring epoch {offered} (current {current})")
            }
            RebalanceError::UnknownMember(m) => {
                write!(f, "ring member {m} has no attached shard")
            }
            RebalanceError::PendingBlocks(n) => {
                write!(f, "{n} blocks still awaiting migration")
            }
            RebalanceError::SourceDown(m) => {
                write!(f, "shard {m} is down; cannot scan its occupancy")
            }
        }
    }
}

impl std::error::Error for RebalanceError {}

/// Why [`Gateway::migrate_batch`](super::Gateway::migrate_batch) stopped.
#[derive(Debug)]
pub enum MigrateBatchError {
    /// Refused before any copy ran.
    State(RebalanceError),
    /// `copy` failed on `block`; it and the rest of the batch stay fenced
    /// to their old owner, and the window stays open for a retry.
    Copy {
        block: u64,
        from: u16,
        to: u16,
        error: MigrateError,
    },
}

impl std::fmt::Display for MigrateBatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MigrateBatchError::State(e) => write!(f, "{e}"),
            MigrateBatchError::Copy {
                block,
                from,
                to,
                error,
            } => write!(f, "migrating block {block} ({from} -> {to}): {error}"),
        }
    }
}

impl std::error::Error for MigrateBatchError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GatewayConfig, ShardedGateway};
    use fc_ring::RingConfig;

    const BLOCKS: u64 = 64;

    /// A bare table over `slots` mem pairs, the first `members` of them in
    /// the ring. The `ShardedGateway` only owns the nodes: no session is
    /// ever opened on it.
    fn table(slots: u16, members: u16) -> (ShardedGateway, RouteTable) {
        let cfg = GatewayConfig::test_profile();
        let sg = ShardedGateway::spawn_mem(cfg.clone(), RingConfig::default(), slots);
        let shards = (0..slots)
            .map(|i| {
                let (p, s) = (sg.primary(i), sg.secondary(i));
                Arc::new(ShardBackend::new(&cfg, p, Some(s)))
            })
            .collect();
        let ring = Ring::with_pairs(RingConfig::default(), members);
        (sg, RouteTable::new(ring, shards))
    }

    fn with_pair(ring: &Ring, pair: u16) -> Ring {
        let mut ring = ring.clone();
        ring.add_pair(pair);
        ring
    }

    #[test]
    fn fenced_blocks_route_to_their_old_owner_and_the_rest_by_the_new_ring() {
        let (sg, mut rt) = table(3, 2);
        let old = rt.ring().clone();
        let new = with_pair(&old, 2);
        let bp = u64::from(old.block_pages());
        let moves = |b: u64| old.shard_of_block(b) != new.shard_of_block(b);
        // The coordinator planned the even blocks only. One odd mover is
        // written behind its back: the occupancy scan must fence it too.
        let late = (0..BLOCKS).find(|&b| b % 2 == 1 && moves(b)).unwrap();
        sg.primary(old.shard_of_block(late)).write(late * bp, b"x");
        let plan = (0..BLOCKS).filter(|b| b % 2 == 0);
        let begun = rt.begin(new.clone(), plan).unwrap();
        assert_eq!((begun.from_epoch, begun.to_epoch), (2, 3));
        assert!(begun.fenced.contains(&late));
        assert!(begun.fenced.windows(2).all(|w| w[0] < w[1]), "ascending");
        for b in 0..BLOCKS {
            let fenced = begun.fenced.contains(&b);
            assert_eq!(fenced, moves(b) && (b % 2 == 0 || b == late), "block {b}");
            // An unfenced mover is one first written during the window:
            // it lands directly on its post-cut-over owner.
            let ring = if fenced { &old } else { &new };
            for lpn in [b * bp, b * bp + bp - 1] {
                assert_eq!(rt.owner_of_lpn(lpn), ring.shard_of_block(b), "lpn {lpn}");
            }
        }
        // A migrated block leaves the fence and routes by the new ring.
        let (moved, stopped) = rt.migrate(&[late], |b, from, to| {
            assert_eq!((b, from, to), (late, old.shard_of_block(b), 2));
            Ok(1)
        });
        assert!(stopped.is_ok());
        let one = Moved {
            batches: 1,
            blocks: 1,
            pages: 1,
        };
        assert_eq!(moved, one);
        assert_eq!(rt.owner_of_lpn(late * bp), 2);
        sg.shutdown();
    }

    #[test]
    fn flush_members_is_the_union_during_a_window_and_the_ring_outside_it() {
        let (sg, mut rt) = table(3, 3);
        assert_eq!(rt.flush_members(), [0, 1, 2]);
        let mut shrunk = rt.ring().clone();
        shrunk.remove_pair(2);
        let begun = rt.begin(shrunk, 0..BLOCKS).unwrap();
        assert_eq!(rt.ring().members(), [0, 1]);
        assert_eq!(rt.flush_members(), [0, 1, 2], "the retiring pair too");
        assert!(rt.migrate(&begun.fenced, |_, _, _| Ok(0)).1.is_ok());
        rt.commit().unwrap();
        assert_eq!(rt.flush_members(), [0, 1]);
        sg.shutdown();
    }

    #[test]
    fn segments_break_exactly_at_owner_changes() {
        let (sg, mut rt) = table(3, 2);
        let new = with_pair(rt.ring(), 2);
        // Fence every second mover so both halves of the dual-ring rule
        // shape the walk.
        rt.begin(new, (0..BLOCKS).filter(|b| b % 2 == 0)).unwrap();
        let bp = rt.ring().block_pages();
        let (lpn, pages) = (1, BLOCKS as u32 * bp - 2);
        let segs = rt.segments(lpn, pages);
        let mut next = lpn;
        for (i, &(shard, start, count)) in segs.iter().enumerate() {
            assert_eq!(start, next, "contiguous, in lpn order");
            assert!(count > 0);
            for page in start..start + u64::from(count) {
                assert_eq!(rt.owner_of_lpn(page), shard);
            }
            if i > 0 {
                assert_ne!(segs[i - 1].0, shard, "maximal: neighbours differ");
            }
            next = start + u64::from(count);
        }
        assert_eq!(next, lpn + u64::from(pages));
        assert!(segs.len() > 1);
        assert_eq!(rt.segments(7, 0), []);
        sg.shutdown();
    }

    #[test]
    fn begin_refusals_leave_the_table_untouched() {
        let (sg, mut rt) = table(2, 2);
        let before = rt.ring().clone();
        let reseeded = RingConfig {
            seed: 1,
            ..RingConfig::default()
        };
        let refusals = [
            (
                Ring::with_pairs(reseeded, 3),
                RebalanceError::ConfigMismatch,
            ),
            (
                before.clone(),
                RebalanceError::StaleEpoch {
                    current: 2,
                    offered: 2,
                },
            ),
            (with_pair(&before, 5), RebalanceError::UnknownMember(5)),
        ];
        for (offered, why) in refusals {
            assert_eq!(rt.begin(offered, 0..BLOCKS).unwrap_err(), why);
            assert_eq!(rt.ring(), &before);
            assert!(rt.fenced().is_none());
        }
        // A pair leaves: the window opens; a second begin bounces off it.
        let mut shrunk = before.clone();
        shrunk.remove_pair(1);
        let fenced = rt.begin(shrunk.clone(), 0..BLOCKS).unwrap().fenced;
        assert!(!fenced.is_empty());
        let mut again = shrunk.clone();
        again.add_pair(1);
        assert_eq!(
            rt.begin(again, 0..BLOCKS).unwrap_err(),
            RebalanceError::WindowOpen
        );
        assert_eq!(rt.ring(), &shrunk);
        assert_eq!(rt.fenced().unwrap().len(), fenced.len());
        sg.shutdown();
    }

    #[test]
    fn commit_refuses_while_blocks_are_pending_and_reports_the_window_total() {
        let (sg, mut rt) = table(3, 2);
        assert_eq!(rt.commit().unwrap_err(), RebalanceError::NoWindow);
        let (moved, stopped) = rt.migrate(&[0], |_, _, _| panic!("no window, no copy"));
        assert_eq!(moved, Moved::default());
        let no_window = MigrateBatchError::State(RebalanceError::NoWindow);
        assert_eq!(stopped.unwrap_err().to_string(), no_window.to_string());

        let fenced = rt.begin(with_pair(rt.ring(), 2), 0..BLOCKS).unwrap().fenced;
        let n = fenced.len() as u64;
        assert!(n >= 3);
        assert_eq!(rt.commit().unwrap_err(), RebalanceError::PendingBlocks(n));
        // The copy fails on the third block: two moved, the rest stay
        // fenced, the batch still counts.
        let (moved, stopped) = rt.migrate(&fenced, |b, _, _| {
            if b == fenced[2] {
                Err(MigrateError::Down)
            } else {
                Ok(4)
            }
        });
        let two = Moved {
            batches: 1,
            blocks: 2,
            pages: 8,
        };
        assert_eq!(moved, two);
        assert!(matches!(
            stopped,
            Err(MigrateBatchError::Copy { block, to: 2, error: MigrateError::Down, .. })
                if block == fenced[2]
        ));
        assert_eq!(
            rt.commit().unwrap_err(),
            RebalanceError::PendingBlocks(n - 2)
        );
        // The retry skips what already moved; then the cut-over goes through.
        let (moved, stopped) = rt.migrate(&fenced, |_, _, _| Ok(4));
        assert!(stopped.is_ok());
        assert_eq!(moved.blocks, n - 2);
        let done = rt.commit().unwrap();
        assert_eq!((done.from_epoch, done.to_epoch), (2, 3));
        let total = Moved {
            batches: 2,
            blocks: n,
            pages: 4 * n,
        };
        assert_eq!(done.moved, total);
        assert!(rt.fenced().is_none());
        sg.shutdown();
    }
}
