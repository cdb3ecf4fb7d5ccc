//! Gateway-level elastic-membership tests: the dual-ring window mechanics
//! (attach → begin → migrate → commit) against real mem pairs, the
//! control-surface error paths, and the flush fast-fail regression (a
//! dead shard answers `Unavailable` immediately instead of burning the
//! whole retry deadline).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use fc_cluster::{mem_pair, shared_backend, MemBackend, Node, NodeConfig};
use fc_gateway::{ClientError, GatewayConfig, RebalanceError, ShardStatsSum, ShardedGateway};
use fc_ring::RingConfig;

const BLOCKS: u64 = 64;

fn page(lpn: u64, tag: u8) -> Bytes {
    Bytes::from(vec![tag, lpn as u8, (lpn >> 8) as u8, 0xFC])
}

/// Spawn one extra mem pair with node ids `2*shard`/`2*shard+1`, block
/// geometry matching the gateway config.
fn spawn_extra_pair(cfg: &GatewayConfig, shard: u16) -> (Arc<Node>, Arc<Node>) {
    let (ta, tb) = mem_pair();
    let backend = shared_backend(MemBackend::default());
    let mut cfg_a = NodeConfig::test_profile((2 * shard) as u8);
    cfg_a.pages_per_block = cfg.pages_per_block;
    let mut cfg_b = NodeConfig::test_profile((2 * shard + 1) as u8);
    cfg_b.pages_per_block = cfg.pages_per_block;
    (
        Arc::new(Node::spawn(cfg_a, ta, backend.clone())),
        Arc::new(Node::spawn(cfg_b, tb, backend)),
    )
}

/// The full scale-up path: write across two pairs, attach a third, fence
/// exactly the occupied moved blocks, migrate in bounded batches under the
/// dual-ring window, cut over — every acked write stays readable through
/// the router, moved blocks live on the new pair, and writes issued
/// *during* the window route per the fence rule.
#[test]
fn live_add_pair_migrates_only_moved_blocks_and_loses_nothing() {
    let cfg = GatewayConfig::test_profile();
    let sg = ShardedGateway::spawn_mem(cfg.clone(), RingConfig::default(), 2);
    let old_ring = sg.gateway().ring();
    let bp = u64::from(old_ring.block_pages());

    let mut client = sg.connect_mem_as(7);
    client.hello().expect("hello");

    // Occupy the even blocks (two pages each); flush half the space so
    // migration sees both buffer-resident and durable-only pages.
    let mut oracle: HashMap<u64, Bytes> = HashMap::new();
    for block in (0..BLOCKS).step_by(2) {
        for off in 0..2 {
            let lpn = block * bp + off;
            let data = page(lpn, 1);
            client.write(lpn, vec![data.clone()]).expect("write");
            oracle.insert(lpn, data);
        }
        if block == BLOCKS / 2 {
            client.flush().expect("flush");
        }
    }

    // Attach pair 2 and open the window for the grown ring.
    let (primary, secondary) = spawn_extra_pair(&cfg, 2);
    assert_eq!(sg.attach_pair(primary, secondary), 2);
    assert_eq!(sg.shards(), 3);
    let mut new_ring = old_ring.clone();
    new_ring.add_pair(2);
    let moved = old_ring.moved_blocks(&new_ring, BLOCKS);
    assert!(!moved.is_empty(), "adding a pair must move some blocks");
    assert!(moved.iter().all(|&(_, _, to)| to == 2));
    let occupied: Vec<u64> = moved
        .iter()
        .map(|&(b, _, _)| b)
        .filter(|b| oracle.keys().any(|lpn| lpn / bp == *b))
        .collect();
    let plan: Vec<u64> = occupied.clone();
    assert!(!plan.is_empty());
    let fenced_set = sg
        .gateway()
        .begin_rebalance(new_ring.clone(), plan.clone())
        .expect("begin");
    let mut plan_sorted = plan.clone();
    plan_sorted.sort_unstable();
    assert_eq!(
        fenced_set, plan_sorted,
        "begin's live occupancy scan agrees with the plan when nothing wrote in between"
    );
    assert!(sg.gateway().rebalance_active());
    assert_eq!(sg.gateway().rebalance_pending(), Some(plan.len() as u64));
    assert_eq!(sg.gateway().ring_epoch(), new_ring.epoch());

    // In-window routing: a write to an *unfenced* owner-changed block
    // (odd ⇒ unoccupied ⇒ not in the plan) lands directly on the new
    // pair; a write to a *fenced* block still lands on its old owner.
    let unfenced = moved
        .iter()
        .map(|&(b, _, _)| b)
        .find(|b| !plan.contains(b))
        .expect("some moved block is unoccupied");
    let lpn_new = unfenced * bp;
    let data_new = page(lpn_new, 2);
    client
        .write(lpn_new, vec![data_new.clone()])
        .expect("write");
    oracle.insert(lpn_new, data_new);
    assert!(
        sg.primary(2).read(lpn_new).is_some(),
        "unfenced moved block must route to the new owner during the window"
    );
    let fenced = plan[0];
    let from_shard = old_ring.shard_of_block(fenced);
    let lpn_old = fenced * bp + 3;
    let data_old = page(lpn_old, 3);
    client
        .write(lpn_old, vec![data_old.clone()])
        .expect("write");
    oracle.insert(lpn_old, data_old);
    assert!(
        sg.primary(from_shard).read(lpn_old).is_some(),
        "fenced block must keep routing to its old owner until migrated"
    );
    assert!(sg.primary(2).read(lpn_old).is_none());

    // Migrate in bounded batches. Node handles are captured up front:
    // the copy callback runs under the route-table write guard, where
    // calling back into the router would self-deadlock.
    let primaries: Vec<Arc<Node>> = (0..3).map(|s| sg.primary(s)).collect();
    let mut copy = |block: u64, from: u16, to: u16| {
        let lpns: Vec<u64> = (block * bp..(block + 1) * bp).collect();
        let entries = primaries[usize::from(from)].try_export_pages(&lpns)?;
        let n = primaries[usize::from(to)].try_import_pages(&entries)?;
        primaries[usize::from(from)].try_release_pages(&lpns)?;
        Ok(n)
    };
    let mut moved_pages = 0u64;
    for chunk in plan.chunks(4) {
        moved_pages += sg.gateway().migrate_batch(chunk, &mut copy).expect("batch");
    }
    assert!(moved_pages > 0);
    assert_eq!(sg.gateway().rebalance_pending(), Some(0));

    // Cut over and verify: epoch advanced, every acked write readable
    // through the router, moved blocks hosted by pair 2, counters exact.
    assert_eq!(
        sg.gateway().commit_rebalance().expect("commit"),
        new_ring.epoch()
    );
    assert!(!sg.gateway().rebalance_active());
    for (lpn, data) in &oracle {
        assert_eq!(
            client.read(*lpn, 1).expect("read")[0].as_deref(),
            Some(&data[..]),
            "lpn {lpn} lost across the rebalance"
        );
        let owner = new_ring.shard_of_lpn(*lpn);
        assert!(
            sg.primary(owner).read(*lpn).is_some(),
            "lpn {lpn} not hosted by its new-ring owner {owner}"
        );
    }
    for &block in &plan {
        let lpn = block * bp;
        assert!(
            sg.primary(old_ring.shard_of_block(block))
                .read(lpn)
                .is_none(),
            "block {block} still hosted by its old owner after migration"
        );
    }
    let stats = sg.stats();
    assert_eq!(stats.rebalances_started, 1);
    assert_eq!(stats.rebalances_completed, 1);
    assert_eq!(stats.rebalance_moved_blocks, plan.len() as u64);
    assert_eq!(stats.rebalance_moved_pages, moved_pages);
    assert_eq!(stats.rebalance_batches, plan.chunks(4).count() as u64);
    if let Err((name, sum, total)) = ShardStatsSum::of(&sg.shard_stats()).matches(&stats) {
        panic!("Σ shard.{name} = {sum} != gateway.{name} = {total}");
    }
    sg.shutdown();
}

/// Control-surface error paths: stale epochs, double-begin, early commit,
/// migrating with no window, unknown members.
#[test]
fn rebalance_control_surface_rejects_invalid_transitions() {
    let cfg = GatewayConfig::test_profile();
    let sg = ShardedGateway::spawn_mem(cfg, RingConfig::default(), 2);
    let ring = sg.gateway().ring();

    // Same (or older) epoch: refused.
    assert_eq!(
        sg.gateway().begin_rebalance(ring.clone(), []),
        Err(RebalanceError::StaleEpoch {
            current: ring.epoch(),
            offered: ring.epoch()
        })
    );
    // Member without an attached slot: refused.
    let mut unknown = ring.clone();
    unknown.add_pair(9);
    assert_eq!(
        sg.gateway().begin_rebalance(unknown, []),
        Err(RebalanceError::UnknownMember(9))
    );
    // No window: migrate and commit are refused.
    assert!(matches!(
        sg.gateway().migrate_batch(&[0], |_, _, _| Ok(0)),
        Err(fc_gateway::MigrateBatchError::State(
            RebalanceError::NoWindow
        ))
    ));
    assert_eq!(
        sg.gateway().commit_rebalance(),
        Err(RebalanceError::NoWindow)
    );

    // Open a remove-pair window fencing one (synthetic) block set.
    let mut shrunk = ring.clone();
    shrunk.remove_pair(1);
    let moved: Vec<u64> = ring
        .moved_blocks(&shrunk, BLOCKS)
        .iter()
        .map(|&(b, _, _)| b)
        .collect();
    assert!(!moved.is_empty());
    sg.gateway()
        .begin_rebalance(shrunk.clone(), moved.clone())
        .expect("begin");
    // Double begin: refused.
    let mut again = shrunk.clone();
    again.add_pair(1);
    assert_eq!(
        sg.gateway().begin_rebalance(again, []),
        Err(RebalanceError::WindowOpen)
    );
    // Early commit: refused while blocks are fenced.
    assert_eq!(
        sg.gateway().commit_rebalance(),
        Err(RebalanceError::PendingBlocks(moved.len() as u64))
    );
    // A failing copy leaves the rest fenced and the window open.
    let boom = sg
        .gateway()
        .migrate_batch(&moved, |_, _, _| Err(fc_cluster::MigrateError::Down));
    assert!(matches!(
        boom,
        Err(fc_gateway::MigrateBatchError::Copy { .. })
    ));
    assert_eq!(sg.gateway().rebalance_pending(), Some(moved.len() as u64));
    assert!(sg.gateway().rebalance_active());
    sg.shutdown();
}

/// Satellite regression: once a shard's breaker is open and neither
/// replica is alive, a flush answers `Unavailable` immediately (shortest
/// retry hint) instead of walking the dead shard through the full retry
/// deadline — and still flushes the healthy shards first.
#[test]
fn flush_fast_fails_on_a_dead_shard_without_burning_the_deadline() {
    let cfg = GatewayConfig::test_profile();
    let retry_deadline = cfg.retry_deadline;
    let sg = ShardedGateway::spawn_mem(cfg, RingConfig::default(), 2);
    let ring = sg.gateway().ring();
    let mut client = sg.connect_mem_as(3);
    client.hello().expect("hello");

    // One dirty page per shard.
    let lpn_s0 = (0..BLOCKS * 4)
        .find(|&l| ring.shard_of_lpn(l) == 0)
        .unwrap();
    let lpn_s1 = (0..BLOCKS * 4)
        .find(|&l| ring.shard_of_lpn(l) == 1)
        .unwrap();
    client.write(lpn_s0, vec![page(lpn_s0, 1)]).expect("write");
    client.write(lpn_s1, vec![page(lpn_s1, 1)]).expect("write");

    // Kill both replicas of shard 1, then burn one op's deadline to trip
    // the breaker (this first flush is the slow path).
    sg.primary(1).fail();
    sg.secondary(1).fail();
    let before = sg.stats().flushed_pages;
    match client.flush() {
        Err(ClientError::Unavailable { .. }) => {}
        other => panic!("expected Unavailable from the first flush, got {other:?}"),
    }
    assert!(
        sg.stats().flushed_pages > before,
        "healthy shard 0 must still have flushed"
    );

    // Regression: with the breaker open, the next flush fast-fails well
    // inside the retry deadline.
    let unavailable_before = sg.stats().unavailable;
    let started = Instant::now();
    match client.flush() {
        Err(ClientError::Unavailable { retry_after_ms }) => assert!(retry_after_ms > 0),
        other => panic!("expected Unavailable from the fast path, got {other:?}"),
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < retry_deadline / 2,
        "flush took {elapsed:?}; the dead shard burned the retry deadline"
    );
    assert_eq!(sg.stats().unavailable, unavailable_before + 1);
    if let Err((name, sum, total)) = ShardStatsSum::of(&sg.shard_stats()).matches(&sg.stats()) {
        panic!("Σ shard.{name} = {sum} != gateway.{name} = {total}");
    }

    // Both replicas back: flush serves again (after failback settles).
    sg.primary(1).restart();
    sg.secondary(1).restart();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match client.flush() {
            Ok(_) => break,
            Err(ClientError::Unavailable { .. }) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(20));
            }
            other => panic!("flush never recovered: {other:?}"),
        }
    }
    sg.shutdown();
}

/// Attaching a pair to a running gateway (no obs attached) leaves the
/// existing shards' instruments alone: counters and the latency histogram
/// keep what they recorded before the attach.
#[test]
fn attach_pair_keeps_existing_shard_latency_samples() {
    let cfg = GatewayConfig::test_profile();
    let sg = ShardedGateway::spawn_mem(cfg.clone(), RingConfig::default(), 2);
    let bp = u64::from(sg.gateway().ring().block_pages());
    let mut client = sg.connect_mem_as(3);
    client.hello().expect("hello");
    for block in 0..BLOCKS {
        let lpn = block * bp;
        client.write(lpn, vec![page(lpn, 1)]).expect("write");
    }
    let before = sg.shard_stats();
    assert!(before.iter().all(|s| s.latency_samples > 0 && s.ops > 0));

    let (primary, secondary) = spawn_extra_pair(&cfg, 2);
    assert_eq!(sg.attach_pair(primary, secondary), 2);

    let after = sg.shard_stats();
    assert_eq!(after.len(), 3);
    assert_eq!(&after[..2], &before[..], "existing shards untouched");
    assert_eq!(after[2].latency_samples, 0);
    sg.shutdown();
}
