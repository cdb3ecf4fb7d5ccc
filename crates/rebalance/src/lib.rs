//! # fc-rebalance
//!
//! The elastic-membership coordinator: takes a running
//! [`ShardedGateway`] from ring epoch E to E+1 — adding or removing a
//! cooperative pair — without stopping the cluster.
//!
//! The protocol has four phases, all built on the gateway's dual-ring
//! window (see `fc_gateway::Gateway::begin_rebalance`):
//!
//! 1. **Plan** ([`plan`]) — ask each source pair which blocks it actually
//!    holds ([`Node::try_migration_lpns`]) and keep exactly those whose
//!    owner differs between the old and new rings. Unoccupied blocks
//!    never migrate; their first write simply lands on the new owner.
//! 2. **Begin** — install the new ring (epoch E+1) as the routing target
//!    and fence the moved blocks to their old owners. The gateway
//!    re-scans occupancy under the same write guard that switches the
//!    routing, so blocks first written after the plan was computed are
//!    fenced too — planning does not have to stop the world.
//! 3. **Migrate** ([`execute`]) — stream the fenced blocks pair-to-pair
//!    in bounded batches over the CRC-framed resync entry format
//!    (export → import → release); each batch runs under the gateway's
//!    route-table write guard, so a block's move is atomic against
//!    client ops, and the inter-batch pause keeps migration from
//!    starving admitted traffic.
//! 4. **Commit** — cut over to epoch E+1; for a removal, drain and
//!    quiesce the victim pair afterwards.
//!
//! The front doors are [`add_pair`] and [`remove_pair`]. Both refuse to
//! start while a source shard is failed-over or halted — migration reads
//! the designated primaries, and a degraded pair's state belongs to the
//! failover machinery, not to a rebalance.

use std::sync::Arc;
use std::time::Duration;

use fc_cluster::{mem_pair, shared_backend, MemBackend, Node, NodeConfig, NodeDown};
use fc_gateway::{MigrateBatchError, RebalanceError, ShardedGateway};
use fc_ring::Ring;

/// Coordinator knobs.
#[derive(Debug, Clone)]
pub struct RebalanceConfig {
    /// Blocks migrated per batch — the bound on how long one batch holds
    /// the gateway's route-table write guard (client ops are held for the
    /// duration of a batch).
    pub batch_blocks: usize,
    /// Pause between batches, letting held client ops drain so migration
    /// cannot starve admitted traffic.
    pub inter_batch_pause: Duration,
}

impl Default for RebalanceConfig {
    fn default() -> Self {
        RebalanceConfig {
            batch_blocks: 8,
            inter_batch_pause: Duration::from_micros(200),
        }
    }
}

/// The minimal moved-block set for one membership change: exactly the
/// blocks some source pair holds whose owner differs between the rings.
#[derive(Debug, Clone)]
pub struct RebalancePlan {
    /// Epoch of the ring the cluster routes by today.
    pub from_epoch: u64,
    /// Epoch the cluster cuts over to.
    pub to_epoch: u64,
    /// The target ring.
    pub new_ring: Ring,
    /// `(block, from_shard, to_shard)` moves, ascending by block.
    pub moves: Vec<(u64, u16, u16)>,
}

impl RebalancePlan {
    /// The planned block ids, ascending.
    pub fn blocks(&self) -> Vec<u64> {
        self.moves.iter().map(|&(b, _, _)| b).collect()
    }
}

/// What one completed rebalance did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RebalanceReport {
    pub from_epoch: u64,
    pub to_epoch: u64,
    /// Blocks the plan fenced (occupied ∩ owner-changed).
    pub planned_blocks: u64,
    /// Blocks actually handed over: the gateway's begin-time fence, which
    /// can exceed `planned_blocks` when writes landed on owner-changed
    /// blocks between planning and the window opening.
    pub moved_blocks: u64,
    /// Pages those blocks carried.
    pub moved_pages: u64,
    /// Migration batches executed.
    pub batches: u64,
}

/// Why a rebalance refused to start or stopped partway. A partial stop
/// leaves the gateway's window open with unmigrated blocks still fenced
/// (and served) by their old owners — the cluster keeps running in the
/// dual-ring state and the rebalance can be retried.
#[derive(Debug)]
pub enum RebalanceFailure {
    /// The gateway refused a control transition.
    Refused(RebalanceError),
    /// A migration batch stopped on a copy error.
    Migrate(MigrateBatchError),
    /// Shard is failed-over or its primary halted; heal it first.
    ShardDegraded(u16),
    /// `remove_pair` of a pair the ring does not contain.
    NotAMember(u16),
    /// `remove_pair` of the only remaining pair.
    LastPair,
}

impl std::fmt::Display for RebalanceFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RebalanceFailure::Refused(e) => write!(f, "gateway refused: {e}"),
            RebalanceFailure::Migrate(e) => write!(f, "migration stopped: {e}"),
            RebalanceFailure::ShardDegraded(s) => {
                write!(f, "shard {s} is degraded; heal it before rebalancing")
            }
            RebalanceFailure::NotAMember(s) => write!(f, "pair {s} is not a ring member"),
            RebalanceFailure::LastPair => write!(f, "refusing to remove the last pair"),
        }
    }
}

impl std::error::Error for RebalanceFailure {}

impl From<RebalanceError> for RebalanceFailure {
    fn from(e: RebalanceError) -> Self {
        RebalanceFailure::Refused(e)
    }
}

impl From<MigrateBatchError> for RebalanceFailure {
    fn from(e: MigrateBatchError) -> Self {
        RebalanceFailure::Migrate(e)
    }
}

/// Compute the minimal moved-block set from the current ring to
/// `new_ring`: for every current member, the blocks it actually holds
/// (buffer-resident or durable) whose owner changes. Refuses while any
/// source shard is failed-over or halted.
pub fn plan(sg: &ShardedGateway, new_ring: &Ring) -> Result<RebalancePlan, RebalanceFailure> {
    let old = sg.gateway().ring();
    let bp = u64::from(old.block_pages());
    let mut moves: Vec<(u64, u16, u16)> = Vec::new();
    for &p in old.members() {
        let primary = sg.primary(p);
        if !sg.gateway().shard_routed_to_primary(p) || primary.is_halted() {
            return Err(RebalanceFailure::ShardDegraded(p));
        }
        let lpns = primary
            .try_migration_lpns()
            .map_err(|NodeDown| RebalanceFailure::ShardDegraded(p))?;
        let mut blocks: Vec<u64> = lpns.iter().map(|l| l / bp).collect();
        blocks.sort_unstable();
        blocks.dedup();
        for b in blocks {
            // A block can only move *from* the pair the old ring says owns
            // it; pages parked elsewhere (e.g. trimmed-but-listed) are not
            // this rebalance's problem.
            if old.shard_of_block(b) != p {
                continue;
            }
            let to = new_ring.shard_of_block(b);
            if to != p {
                moves.push((b, p, to));
            }
        }
    }
    moves.sort_unstable();
    Ok(RebalancePlan {
        from_epoch: old.epoch(),
        to_epoch: new_ring.epoch(),
        new_ring: new_ring.clone(),
        moves,
    })
}

/// Run a planned rebalance: open the window, migrate every fenced block
/// in bounded batches, commit. On a mid-flight error the window stays
/// open (see [`RebalanceFailure`]); calling [`execute`] again with the
/// same plan resumes — already-moved blocks are skipped by the gateway.
pub fn execute(
    sg: &ShardedGateway,
    plan: &RebalancePlan,
    cfg: &RebalanceConfig,
) -> Result<RebalanceReport, RebalanceFailure> {
    let gw = sg.gateway();
    let bp = u64::from(plan.new_ring.block_pages());
    // The gateway re-scans occupancy under its write guard at begin, so
    // the fenced set it hands back — not the plan — is what must migrate:
    // it additionally covers blocks first written between planning and the
    // window opening. On resume it is whatever the interrupted window
    // still holds fenced.
    let blocks =
        match gw.begin_rebalance(plan.new_ring.clone(), plan.moves.iter().map(|&(b, _, _)| b)) {
            Ok(fenced) => fenced,
            Err(RebalanceError::WindowOpen) => gw.rebalance_pending_blocks(),
            Err(e) => return Err(e.into()),
        };
    // Snapshot node handles up front: the copy callback runs under the
    // gateway's route-table write guard, where routing back through the
    // gateway would self-deadlock.
    let primaries: Vec<Arc<Node>> = (0..sg.shards()).map(|s| sg.primary(s)).collect();
    let mut moved_pages = 0u64;
    let mut batches = 0u64;
    for chunk in blocks.chunks(cfg.batch_blocks.max(1)) {
        moved_pages += gw.migrate_batch(chunk, |block, from, to| {
            let lpns: Vec<u64> = (block * bp..(block + 1) * bp).collect();
            let entries = primaries[usize::from(from)].try_export_pages(&lpns)?;
            let applied = primaries[usize::from(to)].try_import_pages(&entries)?;
            primaries[usize::from(from)].try_release_pages(&lpns)?;
            Ok(applied)
        })?;
        batches += 1;
        if !cfg.inter_batch_pause.is_zero() {
            std::thread::sleep(cfg.inter_batch_pause);
        }
    }
    let to_epoch = gw.commit_rebalance()?;
    Ok(RebalanceReport {
        from_epoch: plan.from_epoch,
        to_epoch,
        planned_blocks: plan.moves.len() as u64,
        moved_blocks: blocks.len() as u64,
        moved_pages,
        batches,
    })
}

/// Live scale-up: attach `primary`/`secondary` as the next shard slot,
/// grow the ring by that pair, and migrate exactly the minimally
/// reassigned occupied blocks onto it. Returns once the cluster routes by
/// the new epoch.
pub fn add_pair(
    sg: &ShardedGateway,
    primary: Arc<Node>,
    secondary: Arc<Node>,
    cfg: &RebalanceConfig,
) -> Result<RebalanceReport, RebalanceFailure> {
    let old = sg.gateway().ring();
    let shard = sg.attach_pair(primary, secondary);
    let mut new_ring = old;
    new_ring.add_pair(shard);
    let plan = plan(sg, &new_ring)?;
    execute(sg, &plan, cfg)
}

/// Live scale-down: migrate every block `victim` holds onto the surviving
/// pairs, cut the ring over without it, then drain (flush) and quiesce
/// both of its nodes. The victim's shard slot stays attached so per-shard
/// stats keep their history; it simply takes no more traffic.
pub fn remove_pair(
    sg: &ShardedGateway,
    victim: u16,
    cfg: &RebalanceConfig,
) -> Result<RebalanceReport, RebalanceFailure> {
    let old = sg.gateway().ring();
    if !old.members().contains(&victim) {
        return Err(RebalanceFailure::NotAMember(victim));
    }
    if old.members().len() == 1 {
        return Err(RebalanceFailure::LastPair);
    }
    let mut new_ring = old;
    new_ring.remove_pair(victim);
    let plan = plan(sg, &new_ring)?;
    let report = execute(sg, &plan, cfg)?;
    // Post-cut-over the victim owns nothing and receives nothing; destage
    // any stray dirty state and stop its pump threads.
    let primary = sg.primary(victim);
    let _ = primary.try_flush_dirty();
    primary.quiesce();
    sg.secondary(victim).quiesce();
    Ok(report)
}

/// Spawn one in-memory cooperative pair for shard `shard` (node ids
/// `2*shard`/`2*shard+1`, shared mem backend, block geometry
/// `pages_per_block`) — the building block scale-up demos and tests hand
/// to [`add_pair`].
pub fn spawn_mem_pair(shard: u16, pages_per_block: u32) -> (Arc<Node>, Arc<Node>) {
    let (ta, tb) = mem_pair();
    let backend = shared_backend(MemBackend::default());
    let mut cfg_a = NodeConfig::test_profile((2 * shard) as u8);
    cfg_a.pages_per_block = pages_per_block;
    let mut cfg_b = NodeConfig::test_profile((2 * shard + 1) as u8);
    cfg_b.pages_per_block = pages_per_block;
    (
        Arc::new(Node::spawn(cfg_a, ta, backend.clone())),
        Arc::new(Node::spawn(cfg_b, tb, backend)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use fc_gateway::GatewayConfig;
    use fc_ring::RingConfig;

    const BLOCKS: u64 = 64;

    fn page(lpn: u64, tag: u8) -> Bytes {
        Bytes::from(vec![tag, lpn as u8, (lpn >> 8) as u8, 0xAB])
    }

    fn quick() -> RebalanceConfig {
        RebalanceConfig {
            batch_blocks: 4,
            inter_batch_pause: Duration::ZERO,
        }
    }

    #[test]
    fn plan_is_exactly_the_occupied_ring_diff() {
        let sg = ShardedGateway::spawn_mem(GatewayConfig::test_profile(), RingConfig::default(), 2);
        let old = sg.gateway().ring();
        let bp = u64::from(old.block_pages());
        let mut client = sg.connect_mem_as(1);
        client.hello().unwrap();
        let occupied: Vec<u64> = (0..BLOCKS).step_by(3).collect();
        for &b in &occupied {
            client.write(b * bp, vec![page(b * bp, 1)]).unwrap();
        }
        let mut new_ring = old.clone();
        new_ring.add_pair(2);
        let plan = plan(&sg, &new_ring).unwrap();
        let expect: Vec<(u64, u16, u16)> = old
            .moved_blocks(&new_ring, BLOCKS)
            .into_iter()
            .filter(|&(b, _, _)| occupied.contains(&b))
            .collect();
        assert_eq!(plan.moves, expect, "plan must be the occupied ring diff");
        assert_eq!(plan.from_epoch, old.epoch());
        assert_eq!(plan.to_epoch, new_ring.epoch());
        sg.shutdown();
    }

    #[test]
    fn add_then_remove_round_trip_keeps_every_acked_write() {
        let sg = ShardedGateway::spawn_mem(GatewayConfig::test_profile(), RingConfig::default(), 2);
        let ring0 = sg.gateway().ring();
        let bp = u64::from(ring0.block_pages());
        let mut client = sg.connect_mem_as(1);
        client.hello().unwrap();
        let mut oracle = std::collections::HashMap::new();
        for b in 0..BLOCKS {
            let lpn = b * bp + (b % bp);
            let data = page(lpn, 1);
            client.write(lpn, vec![data.clone()]).unwrap();
            oracle.insert(lpn, data);
        }
        client.flush().unwrap();

        let (p2, s2) = spawn_mem_pair(2, ring0.block_pages());
        let up = add_pair(&sg, p2, s2, &quick()).expect("scale up");
        assert_eq!(up.from_epoch + 1, up.to_epoch);
        assert_eq!(up.moved_blocks, up.planned_blocks);
        assert!(up.moved_blocks > 0);
        assert_eq!(sg.gateway().ring().pairs(), &[0, 1, 2]);

        let down = remove_pair(&sg, 2, &quick()).expect("scale down");
        assert_eq!(down.to_epoch, up.to_epoch + 1);
        assert_eq!(
            down.moved_blocks, up.moved_blocks,
            "removing the pair must move back exactly what moved in"
        );
        assert_eq!(sg.gateway().ring().pairs(), &[0, 1]);

        for (lpn, data) in &oracle {
            assert_eq!(
                client.read(*lpn, 1).unwrap()[0].as_deref(),
                Some(&data[..]),
                "lpn {lpn} lost across the add/remove round trip"
            );
        }
        // The round trip restored the original assignment: nothing is
        // left hosted on the retired pair.
        assert!(
            oracle.keys().all(|&lpn| sg.primary(2).read(lpn).is_none()),
            "retired pair still hosts data"
        );
        sg.shutdown();
    }

    #[test]
    fn refuses_degraded_sources_and_bad_victims() {
        let sg = ShardedGateway::spawn_mem(GatewayConfig::test_profile(), RingConfig::default(), 2);
        let ring = sg.gateway().ring();
        assert!(matches!(
            remove_pair(&sg, 7, &quick()),
            Err(RebalanceFailure::NotAMember(7))
        ));
        sg.primary(1).fail();
        let mut grown = ring.clone();
        grown.add_pair(2);
        assert!(matches!(
            plan(&sg, &grown),
            Err(RebalanceFailure::ShardDegraded(1))
        ));
        sg.primary(1).restart();
        sg.shutdown();
    }

    #[test]
    fn refuses_to_remove_the_last_pair() {
        let sg = ShardedGateway::spawn_mem(GatewayConfig::test_profile(), RingConfig::default(), 1);
        assert!(matches!(
            remove_pair(&sg, 0, &quick()),
            Err(RebalanceFailure::LastPair)
        ));
        sg.shutdown();
    }
}
