//! The route table: which shard slot owns a block, and the
//! elastic-membership window (dual ring + fence set) while one is open.
//! Fields are private; the rebalance steps mutate the table — moving the
//! pages themselves, on the slots' primaries — and *return* what happened,
//! for [`Gateway::rebalance`](super::Gateway::rebalance) to count and
//! narrate.

use std::collections::HashSet;
use std::sync::Arc;

use fc_cluster::{MigrateError, Node, NodeDown};
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
    /// Fenced, not-yet-migrated blocks. These still route to their
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

/// The window [`RouteTable::begin`] opened or found open.
#[derive(Debug)]
pub(super) struct Begun {
    pub(super) from_epoch: u64,
    pub(super) to_epoch: u64,
    /// The blocks still fenced, ascending.
    pub(super) fenced: Vec<u64>,
    /// True when the window was already open toward the same ring.
    pub(super) resumed: bool,
}

/// What one committed rebalance did: its window's totals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RebalanceReport {
    pub from_epoch: u64,
    pub to_epoch: u64,
    /// Blocks handed over: the occupied, owner-changed blocks begin fenced.
    pub moved_blocks: u64,
    /// Pages those blocks carried.
    pub moved_pages: u64,
    /// Migration batches run, an interrupted attempt's included.
    pub batches: u64,
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

    /// Open a window toward `new_ring` — or, if one toward that very ring
    /// is already open, hand back what it still fences. Any refusal leaves
    /// the table untouched.
    pub(super) fn begin(&mut self, new_ring: &Ring) -> Result<Begun, RebalanceError> {
        let resumed = self.window.is_some();
        if !resumed {
            self.open(new_ring)?;
        } else if self.ring != *new_ring {
            return Err(RebalanceError::WindowOpen);
        }
        let w = self.window.as_ref().expect("opened or found open above");
        let mut fenced: Vec<u64> = w.pending.iter().copied().collect();
        fenced.sort_unstable();
        Ok(Begun {
            from_epoch: w.old.epoch(),
            to_epoch: self.ring.epoch(),
            fenced,
            resumed,
        })
    }

    /// Check `new_ring`, install it and fence every block a retiring
    /// member holds whose owner changes. The occupancy scan runs here,
    /// under the same write guard as the routing switch, so no block
    /// written before the switch can flip to an owner that lacks its pages.
    fn open(&mut self, new_ring: &Ring) -> Result<(), RebalanceError> {
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
        let bp = u64::from(self.ring.block_pages());
        let mut pending: HashSet<u64> = HashSet::new();
        for &m in self.ring.members() {
            let lpns = source(&self.shards, m)?
                .try_migration_lpns()
                .map_err(|NodeDown| RebalanceError::SourceDegraded(m))?;
            pending.extend(lpns.iter().map(|l| l / bp).filter(|&b| {
                // Only blocks this member owns per the retiring ring and
                // that change owner; a stray page parked off-owner is not
                // this window's problem.
                self.ring.shard_of_block(b) == m && new_ring.shard_of_block(b) != m
            }));
        }
        let old = std::mem::replace(&mut self.ring, new_ring.clone());
        self.window = Some(Window {
            old,
            pending,
            moved: Moved::default(),
        });
        Ok(())
    }

    /// Migrate one batch: move each of `blocks` still fenced from its old
    /// owner's primary to its new owner's — export → import → release on
    /// the CRC-framed resync entry format — and unfence it. An error stops
    /// the batch: already-moved blocks stay moved, the failed block and
    /// the rest stay fenced. Returns what the batch moved (all zero when
    /// no window is open) beside why it stopped, if it did.
    pub(super) fn migrate(&mut self, blocks: &[u64]) -> (Moved, Result<(), RebalanceError>) {
        let Some(w) = &mut self.window else {
            return (Moved::default(), Ok(()));
        };
        let bp = u64::from(self.ring.block_pages());
        let mut batch = Moved {
            batches: 1,
            ..Moved::default()
        };
        let mut stopped = Ok(());
        for &block in blocks {
            if !w.pending.contains(&block) {
                continue; // already moved by an earlier attempt
            }
            let from = w.old.shard_of_block(block);
            let to = self.ring.shard_of_block(block);
            let lpns: Vec<u64> = (block * bp..(block + 1) * bp).collect();
            let copied = source(&self.shards, from).and_then(|src| {
                copy(src, &self.shards[usize::from(to)].primary, &lpns).map_err(|error| {
                    RebalanceError::Copy {
                        block,
                        from,
                        to,
                        error,
                    }
                })
            });
            match copied {
                Ok(n) => {
                    w.pending.remove(&block);
                    batch.blocks += 1;
                    batch.pages += n;
                }
                Err(e) => {
                    stopped = Err(e);
                    break;
                }
            }
        }
        w.moved.batches += batch.batches;
        w.moved.blocks += batch.blocks;
        w.moved.pages += batch.pages;
        (batch, stopped)
    }

    /// Cut over to `target`: retire the old ring. Only the window toward
    /// `target`, with nothing left fenced, commits — another open window is
    /// `WindowOpen`, and with none open `target` is already history.
    pub(super) fn commit(&mut self, target: &Ring) -> Result<RebalanceReport, RebalanceError> {
        let ours = self.ring == *target;
        match self.window.take_if(|w| ours && w.pending.is_empty()) {
            Some(w) => Ok(RebalanceReport {
                from_epoch: w.old.epoch(),
                to_epoch: self.ring.epoch(),
                moved_blocks: w.moved.blocks,
                moved_pages: w.moved.pages,
                batches: w.moved.batches,
            }),
            None if self.window.is_some() => Err(RebalanceError::WindowOpen),
            None => Err(RebalanceError::StaleEpoch {
                current: self.ring.epoch(),
                offered: target.epoch(),
            }),
        }
    }
}

/// `shard`'s primary, which a migration scans, exports from and releases
/// — refused while the shard is failed over or that primary is halted: a
/// degraded pair's newest state belongs to the failover machinery.
fn source(shards: &[Arc<ShardBackend>], shard: u16) -> Result<&Node, RebalanceError> {
    let sb = &shards[usize::from(shard)];
    if sb.routed_to_primary() && !sb.primary.is_halted() {
        Ok(&sb.primary)
    } else {
        Err(RebalanceError::SourceDegraded(shard))
    }
}

/// Move `lpns` from `from` to `to`: export, import (CRC-verified before
/// anything applies), then release the source copy. Returns the pages
/// `to` applied.
fn copy(from: &Node, to: &Node, lpns: &[u64]) -> Result<u64, MigrateError> {
    let entries = from.try_export_pages(lpns)?;
    let applied = to.try_import_pages(&entries)?;
    from.try_release_pages(lpns)?;
    Ok(applied)
}

/// Why a membership change was refused or stopped. A refusal leaves the
/// route table exactly as it was; a stop partway (`SourceDegraded` or
/// `Copy` from a migration batch) leaves the window open with the unmoved
/// blocks still fenced to — and served by — their old owners, for
/// [`Gateway::rebalance`](super::Gateway::rebalance) toward the same ring
/// to resume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebalanceError {
    /// A window toward a different ring is open; finish it first.
    WindowOpen,
    /// The offered ring disagrees on seed/vnodes/block geometry with the
    /// current one — its placements would be incomparable.
    ConfigMismatch,
    /// The offered ring's epoch is not ahead of the installed ring's —
    /// a stale or replayed membership change.
    StaleEpoch { current: u64, offered: u64 },
    /// The offered ring names a member with no attached shard slot.
    UnknownMember(u16),
    /// This source shard is failed over or its primary is halted; heal it
    /// before rebalancing.
    SourceDegraded(u16),
    /// Moving `block` from `from` to `to` failed.
    Copy {
        block: u64,
        from: u16,
        to: u16,
        error: MigrateError,
    },
    /// `remove_pair` of a pair the ring does not contain.
    NotAMember(u16),
    /// `remove_pair` of the only remaining pair.
    LastPair,
}

impl std::fmt::Display for RebalanceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RebalanceError::WindowOpen => {
                write!(f, "a rebalance window toward another ring is open")
            }
            RebalanceError::ConfigMismatch => write!(f, "ring config mismatch"),
            RebalanceError::StaleEpoch { current, offered } => {
                write!(f, "stale ring epoch {offered} (current {current})")
            }
            RebalanceError::UnknownMember(m) => {
                write!(f, "ring member {m} has no attached shard")
            }
            RebalanceError::SourceDegraded(s) => {
                write!(f, "shard {s} is degraded; heal it before rebalancing")
            }
            RebalanceError::Copy {
                block,
                from,
                to,
                error,
            } => write!(f, "migrating block {block} ({from} -> {to}): {error}"),
            RebalanceError::NotAMember(s) => write!(f, "pair {s} is not a ring member"),
            RebalanceError::LastPair => write!(f, "refusing to remove the last pair"),
        }
    }
}

impl std::error::Error for RebalanceError {}

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
                Arc::new(ShardBackend::new(&cfg, p, s))
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

    /// Write one page of each of `blocks` straight onto its owner's
    /// primary — occupancy the begin-time scan must find.
    fn occupy(sg: &ShardedGateway, ring: &Ring, blocks: impl IntoIterator<Item = u64>) {
        let bp = u64::from(ring.block_pages());
        for b in blocks {
            sg.primary(ring.shard_of_block(b)).write(b * bp, b"x");
        }
    }

    #[test]
    fn fenced_blocks_route_to_their_old_owner_and_the_rest_by_the_new_ring() {
        let (sg, mut rt) = table(3, 2);
        let old = rt.ring().clone();
        let new = with_pair(&old, 2);
        let bp = u64::from(old.block_pages());
        let moves = |b: u64| old.shard_of_block(b) != new.shard_of_block(b);
        // The even blocks and one odd mover are occupied: the scan fences
        // exactly the occupied movers.
        let late = (0..BLOCKS).find(|&b| b % 2 == 1 && moves(b)).unwrap();
        occupy(&sg, &old, (0..BLOCKS).step_by(2).chain([late]));
        let begun = rt.begin(&new).unwrap();
        assert_eq!((begun.from_epoch, begun.to_epoch), (2, 3));
        assert!(!begun.resumed);
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
        // A migrated block leaves the fence, routes by the new ring, and
        // its page moved with it.
        let (moved, stopped) = rt.migrate(&[late]);
        assert!(stopped.is_ok());
        let one = Moved {
            batches: 1,
            blocks: 1,
            pages: 1,
        };
        assert_eq!(moved, one);
        assert_eq!(rt.owner_of_lpn(late * bp), 2);
        assert_eq!(sg.primary(2).read(late * bp), Some(b"x".to_vec()));
        assert_eq!(sg.primary(old.shard_of_block(late)).read(late * bp), None);
        sg.shutdown();
    }

    #[test]
    fn flush_members_is_the_union_during_a_window_and_the_ring_outside_it() {
        let (sg, mut rt) = table(3, 3);
        assert_eq!(rt.flush_members(), [0, 1, 2]);
        let mut shrunk = rt.ring().clone();
        shrunk.remove_pair(2);
        let begun = rt.begin(&shrunk).unwrap();
        assert_eq!(rt.ring().members(), [0, 1]);
        assert_eq!(rt.flush_members(), [0, 1, 2], "the retiring pair too");
        assert!(rt.migrate(&begun.fenced).1.is_ok());
        rt.commit(&shrunk).unwrap();
        assert_eq!(rt.flush_members(), [0, 1]);
        sg.shutdown();
    }

    #[test]
    fn segments_break_exactly_at_owner_changes() {
        let (sg, mut rt) = table(3, 2);
        let new = with_pair(rt.ring(), 2);
        // Fence every second block so both halves of the dual-ring rule
        // shape the walk.
        occupy(&sg, rt.ring(), (0..BLOCKS).step_by(2));
        rt.begin(&new).unwrap();
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
        let mut shrunk = before.clone();
        shrunk.remove_pair(1);
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
            (shrunk.clone(), RebalanceError::SourceDegraded(0)),
        ];
        sg.primary(0).fail();
        for (offered, why) in refusals {
            assert_eq!(rt.begin(&offered).unwrap_err(), why);
            assert_eq!(rt.ring(), &before);
            assert!(rt.fenced().is_none());
        }
        sg.primary(0).restart();
        // A pair leaves: the window opens; a begin toward another ring
        // bounces off it, one toward the same ring resumes it.
        occupy(&sg, &before, 0..BLOCKS);
        let fenced = rt.begin(&shrunk).unwrap().fenced;
        assert!(!fenced.is_empty());
        let mut again = shrunk.clone();
        again.add_pair(1);
        assert_eq!(rt.begin(&again).unwrap_err(), RebalanceError::WindowOpen);
        assert_eq!(rt.ring(), &shrunk);
        let resumed = rt.begin(&shrunk).unwrap();
        assert!(resumed.resumed);
        assert_eq!(resumed.fenced, fenced);
        assert_eq!(rt.fenced().unwrap().len(), fenced.len());
        sg.shutdown();
    }

    #[test]
    fn commit_refuses_while_blocks_are_pending_and_reports_the_window_total() {
        let (sg, mut rt) = table(3, 2);
        let target = with_pair(rt.ring(), 2);
        let stale = RebalanceError::StaleEpoch {
            current: 2,
            offered: 3,
        };
        assert_eq!(rt.commit(&target).unwrap_err(), stale);
        assert_eq!(rt.migrate(&[0]), (Moved::default(), Ok(())));

        occupy(&sg, rt.ring(), 0..BLOCKS);
        let fenced = rt.begin(&target).unwrap().fenced;
        let n = fenced.len() as u64;
        assert!(n >= 3);
        assert_eq!(rt.commit(&target).unwrap_err(), RebalanceError::WindowOpen);
        // Two blocks move; then the destination dies and the next batch
        // stops on its first block — which stays fenced, and the batch
        // still counts.
        let (moved, stopped) = rt.migrate(&fenced[..2]);
        assert!(stopped.is_ok());
        assert_eq!(moved.blocks, 2);
        sg.primary(2).fail();
        let (moved, stopped) = rt.migrate(&fenced);
        let none = Moved {
            batches: 1,
            ..Moved::default()
        };
        assert_eq!(moved, none);
        assert!(matches!(
            stopped,
            Err(RebalanceError::Copy { block, to: 2, error: MigrateError::Down, .. })
                if block == fenced[2]
        ));
        assert_eq!(rt.fenced().unwrap().len() as u64, n - 2);
        // The retry skips what already moved; then the cut-over goes through.
        sg.primary(2).restart();
        let (moved, stopped) = rt.migrate(&fenced);
        assert!(stopped.is_ok());
        assert_eq!(moved.blocks, n - 2);
        let mut other = target.clone();
        other.remove_pair(0);
        assert_eq!(rt.commit(&other).unwrap_err(), RebalanceError::WindowOpen);
        let done = rt.commit(&target).unwrap();
        let total = RebalanceReport {
            from_epoch: 2,
            to_epoch: 3,
            moved_blocks: n,
            moved_pages: n,
            batches: 3,
        };
        assert_eq!(done, total);
        assert!(rt.fenced().is_none());
        sg.shutdown();
    }
}
