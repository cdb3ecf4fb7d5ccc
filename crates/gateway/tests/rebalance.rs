//! Gateway-level elastic-membership tests: `add_pair` / `remove_pair` /
//! `rebalance` against real mem pairs — exact minimal migration at idle,
//! zero loss under live writes, the refusals that can still happen, a
//! failed copy resumed by the next call toward the same ring (and refused
//! by a call toward another) — plus the flush fast-fail regression (a dead
//! shard answers `Unavailable` immediately instead of burning the whole
//! retry deadline).

use std::collections::HashMap;
use std::time::{Duration, Instant};

use bytes::Bytes;
use fc_cluster::{MigrateError, PairState};
use fc_gateway::{
    spawn_mem_pair, ClientError, GatewayClient, GatewayConfig, RebalanceError, ShardStatsSum,
    ShardedGateway,
};
use fc_ring::{Ring, RingConfig};

const BLOCKS: u64 = 64;

fn page(lpn: u64, tag: u8) -> Bytes {
    Bytes::from(vec![tag, lpn as u8, (lpn >> 8) as u8, 0xFC])
}

/// A connected client over a fresh `pairs`-pair mem cluster.
fn cluster(pairs: u16) -> (ShardedGateway, GatewayClient) {
    let sg = ShardedGateway::spawn_mem(GatewayConfig::test_profile(), RingConfig::default(), pairs);
    let mut client = sg.connect_mem_as(7);
    client.hello().expect("hello");
    (sg, client)
}

fn write(client: &mut GatewayClient, oracle: &mut HashMap<u64, Bytes>, lpn: u64, tag: u8) {
    let data = page(lpn, tag);
    client.write(lpn, vec![data.clone()]).expect("write");
    oracle.insert(lpn, data);
}

fn assert_reads(client: &mut GatewayClient, oracle: &HashMap<u64, Bytes>, label: &str) {
    for (lpn, data) in oracle {
        assert_eq!(
            client.read(*lpn, 1).expect("read")[0].as_deref(),
            Some(&data[..]),
            "{label}: lpn {lpn} lost"
        );
    }
}

fn assert_sums_match(sg: &ShardedGateway) {
    if let Err((name, sum, total)) = ShardStatsSum::of(&sg.shard_stats()).matches(&sg.stats()) {
        panic!("Σ shard.{name} = {sum} != gateway.{name} = {total}");
    }
}

/// Occupy every block of a two-pair cluster through `client`, then
/// `add_pair` a pair whose primary is halted: the first import fails,
/// leaving the window toward the grown ring open with every mover fenced.
/// Returns that ring.
fn failed_add(
    sg: &ShardedGateway,
    client: &mut GatewayClient,
    oracle: &mut HashMap<u64, Bytes>,
) -> Ring {
    let bp = sg.gateway().ring().block_pages();
    for b in 0..BLOCKS {
        write(client, oracle, b * u64::from(bp), 1);
    }
    let (primary, secondary) = spawn_mem_pair(2, bp, |_| {});
    primary.fail();
    let err = sg.gateway().add_pair(primary, secondary).unwrap_err();
    assert!(
        matches!(
            err,
            RebalanceError::Copy {
                to: 2,
                error: MigrateError::Down,
                ..
            }
        ),
        "{err}"
    );
    assert!(sg.gateway().rebalance_active());
    sg.gateway().ring()
}

/// At idle, `add_pair` moves exactly the occupied blocks whose owner
/// changes, and each ends up on its new owner only.
#[test]
fn add_pair_at_idle_moves_exactly_the_occupied_ring_diff() {
    let (sg, mut client) = cluster(2);
    let old = sg.gateway().ring();
    let bp = u64::from(old.block_pages());
    let mut oracle = HashMap::new();
    let occupied: Vec<u64> = (0..BLOCKS).step_by(3).collect();
    for &b in &occupied {
        write(&mut client, &mut oracle, b * bp, 1);
    }
    let (p, s) = spawn_mem_pair(2, old.block_pages(), |_| {});
    let report = sg.gateway().add_pair(p, s).expect("add");
    let new = sg.gateway().ring();
    let moved: Vec<u64> = old
        .moved_blocks(&new, BLOCKS)
        .into_iter()
        .map(|(b, _, _)| b)
        .filter(|b| occupied.contains(b))
        .collect();
    assert!(!moved.is_empty());
    assert_eq!(report.moved_blocks, moved.len() as u64);
    assert_eq!(report.moved_pages, moved.len() as u64);
    assert_eq!(
        (report.from_epoch, report.to_epoch),
        (old.epoch(), new.epoch())
    );
    for &b in &moved {
        assert!(
            sg.primary(2).read(b * bp).is_some(),
            "block {b} not on pair 2"
        );
        assert!(
            sg.primary(old.shard_of_block(b)).read(b * bp).is_none(),
            "block {b} still on its old owner"
        );
    }
    assert_reads(&mut client, &oracle, "post-add");
    sg.shutdown();
}

/// The scale-up path under load: `add_pair` runs on another thread while
/// the client keeps writing; every acked write stays readable through the
/// router and hosted by its new-ring owner, and the counters agree with
/// the report.
#[test]
fn live_add_pair_migrates_only_moved_blocks_and_loses_nothing() {
    let (sg, mut client) = cluster(2);
    let bp = u64::from(sg.gateway().ring().block_pages());

    // Occupy the even blocks (two pages each); flush half the space so
    // migration sees both buffer-resident and durable-only pages.
    let mut oracle = HashMap::new();
    for block in (0..BLOCKS).step_by(2) {
        for off in 0..2 {
            write(&mut client, &mut oracle, block * bp + off, 1);
        }
        if block == BLOCKS / 2 {
            client.flush().expect("flush");
        }
    }

    let (p, s) = spawn_mem_pair(2, bp as u32, |_| {});
    let report = std::thread::scope(|scope| {
        let add = scope.spawn(|| sg.gateway().add_pair(p, s));
        for block in 0..BLOCKS {
            write(&mut client, &mut oracle, block * bp + 3, 2);
        }
        add.join().expect("no panic").expect("add")
    });
    assert_eq!(report.from_epoch + 1, report.to_epoch);
    assert!(report.moved_blocks > 0);
    assert!(!sg.gateway().rebalance_active());

    let ring = sg.gateway().ring();
    assert_reads(&mut client, &oracle, "post-add");
    for lpn in oracle.keys() {
        let owner = ring.shard_of_lpn(*lpn);
        assert!(
            sg.primary(owner).read(*lpn).is_some(),
            "lpn {lpn} not hosted by its new-ring owner {owner}"
        );
    }
    let stats = sg.stats();
    assert_eq!(stats.rebalances_started, 1);
    assert_eq!(stats.rebalances_completed, 1);
    assert_eq!(stats.rebalance_moved_blocks, report.moved_blocks);
    assert_eq!(stats.rebalance_moved_pages, report.moved_pages);
    assert_eq!(stats.rebalance_batches, report.batches);
    assert_sums_match(&sg);
    sg.shutdown();
}

/// The refusals that can still happen: a stale epoch and an unattached
/// member leave the table alone; a failed copy leaves the window open with
/// its blocks still fenced to, and served by, their old owners.
#[test]
fn rebalance_control_surface_rejects_invalid_transitions() {
    let (sg, mut client) = cluster(2);
    let gw = sg.gateway();
    let ring = gw.ring();
    assert_eq!(
        gw.rebalance(ring.clone()),
        Err(RebalanceError::StaleEpoch {
            current: ring.epoch(),
            offered: ring.epoch()
        })
    );
    let mut unknown = ring.clone();
    unknown.add_pair(9);
    assert_eq!(gw.rebalance(unknown), Err(RebalanceError::UnknownMember(9)));
    assert!(!gw.rebalance_active());
    assert_eq!(gw.stats().rebalances_started, 0);

    let mut oracle = HashMap::new();
    let target = failed_add(&sg, &mut client, &mut oracle);
    assert_eq!(gw.ring_epoch(), target.epoch());
    let moving = ring.moved_blocks(&target, BLOCKS).len() as u64;
    assert_eq!(gw.rebalance_pending(), Some(moving));
    assert_reads(&mut client, &oracle, "open window");
    assert_eq!(gw.stats().rebalances_completed, 0);
    sg.shutdown();
}

/// A failed copy, then the next `rebalance` toward the same ring resumes
/// the window and commits it — with writes acked in between kept.
#[test]
fn a_failed_copy_resumes_and_commits_with_zero_acked_write_loss() {
    let (sg, mut client) = cluster(2);
    let gw = sg.gateway();
    let from = gw.ring_epoch();
    let bp = u64::from(gw.ring().block_pages());
    let mut oracle = HashMap::new();
    let target = failed_add(&sg, &mut client, &mut oracle);
    let fenced = gw.rebalance_pending().expect("window open");
    sg.primary(2).restart();
    for b in 0..BLOCKS {
        write(&mut client, &mut oracle, b * bp + 1, 2);
    }
    let report = gw.rebalance(target.clone()).expect("resume");
    assert_eq!((report.from_epoch, report.to_epoch), (from, target.epoch()));
    assert_eq!(report.moved_blocks, fenced);
    assert!(!gw.rebalance_active());
    assert_reads(&mut client, &oracle, "resumed");
    let stats = gw.stats();
    assert_eq!(stats.rebalances_started, 1, "a resume opens no new window");
    assert_eq!(stats.rebalances_completed, 1);
    assert_sums_match(&sg);
    sg.shutdown();
}

/// Regression: a membership call toward another ring no longer finishes
/// the open window and reports success. `remove_pair(0)` over an
/// interrupted add is refused with the table and pair 0 untouched; the
/// add then resumes and commits.
#[test]
fn a_membership_call_never_finishes_another_window() {
    let (sg, mut client) = cluster(2);
    let gw = sg.gateway();
    let mut oracle = HashMap::new();
    let target = failed_add(&sg, &mut client, &mut oracle);
    sg.primary(2).restart();
    let pending = gw.rebalance_pending();

    assert_eq!(gw.remove_pair(0), Err(RebalanceError::WindowOpen));
    assert_eq!(gw.ring(), target);
    assert_eq!(gw.rebalance_pending(), pending);
    for node in [sg.primary(0), sg.secondary(0)] {
        assert_eq!(node.lifecycle_state(), PairState::Paired, "pair 0 drained");
    }

    let report = gw.rebalance(gw.ring()).expect("resume the add");
    assert_eq!(report.from_epoch + 1, report.to_epoch);
    assert_eq!(report.to_epoch, target.epoch());
    assert_eq!(gw.ring().members(), [0, 1, 2]);
    assert_reads(&mut client, &oracle, "after the add");
    sg.shutdown();
}

#[test]
fn add_then_remove_round_trip_keeps_every_acked_write() {
    let (sg, mut client) = cluster(2);
    let ring0 = sg.gateway().ring();
    let bp = u64::from(ring0.block_pages());
    let mut oracle = HashMap::new();
    for b in 0..BLOCKS {
        write(&mut client, &mut oracle, b * bp + (b % bp), 1);
    }
    client.flush().unwrap();

    let (p2, s2) = spawn_mem_pair(2, ring0.block_pages(), |_| {});
    let up = sg.gateway().add_pair(p2, s2).expect("scale up");
    assert_eq!(up.from_epoch + 1, up.to_epoch);
    assert!(up.moved_blocks > 0);
    assert_eq!(sg.gateway().ring().pairs(), &[0, 1, 2]);

    let down = sg.gateway().remove_pair(2).expect("scale down");
    assert_eq!(down.to_epoch, up.to_epoch + 1);
    assert_eq!(
        down.moved_blocks, up.moved_blocks,
        "removing the pair must move back exactly what moved in"
    );
    assert_eq!(sg.gateway().ring().pairs(), &[0, 1]);
    assert_reads(&mut client, &oracle, "round trip");
    // The round trip restored the original assignment: nothing is left
    // hosted on the retired pair.
    assert!(
        oracle.keys().all(|&lpn| sg.primary(2).read(lpn).is_none()),
        "retired pair still hosts data"
    );
    sg.shutdown();
}

#[test]
fn refuses_degraded_sources_and_bad_victims() {
    let (sg, _client) = cluster(2);
    let gw = sg.gateway();
    let ring = gw.ring();
    assert_eq!(gw.remove_pair(7), Err(RebalanceError::NotAMember(7)));
    sg.primary(1).fail();
    let (p2, s2) = spawn_mem_pair(2, ring.block_pages(), |_| {});
    assert_eq!(gw.add_pair(p2, s2), Err(RebalanceError::SourceDegraded(1)));
    assert_eq!(
        gw.ring(),
        ring,
        "refused under the guard: nothing installed"
    );
    assert!(!gw.rebalance_active());
    sg.primary(1).restart();
    sg.shutdown();
}

#[test]
fn refuses_to_remove_the_last_pair() {
    let (sg, _client) = cluster(1);
    assert_eq!(sg.gateway().remove_pair(0), Err(RebalanceError::LastPair));
    sg.shutdown();
}

/// Once both nodes of a shard are halted, a flush answers `Unavailable`
/// at once (the failback period as its hint) instead of walking the dead
/// shard through the full retry deadline — from the first flush on, with
/// no failure observed first — and still flushes the healthy shards.
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

    sg.primary(1).fail();
    sg.secondary(1).fail();
    for nth in ["first", "second"] {
        let before = sg.stats();
        let started = Instant::now();
        match client.flush() {
            Err(ClientError::Unavailable { retry_after_ms }) => assert!(retry_after_ms > 0),
            other => panic!("expected Unavailable from the {nth} flush, got {other:?}"),
        }
        let elapsed = started.elapsed();
        assert!(
            elapsed < retry_deadline / 2,
            "{nth} flush took {elapsed:?}; the dead shard burned the retry deadline"
        );
        let after = sg.stats();
        assert_eq!(after.unavailable, before.unavailable + 1);
        if nth == "first" {
            assert!(
                after.flushed_pages > before.flushed_pages,
                "healthy shard 0 must still have flushed"
            );
        }
    }
    if let Err((name, sum, total)) = ShardStatsSum::of(&sg.shard_stats()).matches(&sg.stats()) {
        panic!("Σ shard.{name} = {sum} != gateway.{name} = {total}");
    }

    // Both nodes back: flush serves again (after failback settles).
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

    let (primary, secondary) = spawn_mem_pair(2, cfg.pages_per_block, |_| {});
    assert_eq!(sg.gateway().attach_shard(primary, secondary), 2);

    let after = sg.shard_stats();
    assert_eq!(after.len(), 3);
    assert_eq!(&after[..2], &before[..], "existing shards untouched");
    assert_eq!(after[2].latency_samples, 0);
    sg.shutdown();
}
