//! Chaos tests for the threaded cooperative pair over lossy links.
//!
//! The invariant is the same one `recovery_e2e.rs` soaks for the simulated
//! pair (Section III.D: "FlashCoop can successfully maintain data
//! consistency"): **no acknowledged write is ever unrecoverable** — here
//! under a [`FaultTransport`] that drops, delays, duplicates, reorders and
//! partitions traffic according to seeded [`FaultPlan`]s. Every assertion
//! message carries the seed, so a failing schedule can be replayed exactly.

use fc_cluster::{
    mem_pair, resync_entry, shared_backend, FaultAction, FaultPlan, FaultTransport, MemBackend,
    Message, Node, NodeConfig, PairState, RetryPolicy, Transport, WriteOutcome,
};
use fc_simkit::DetRng;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Node timings tuned for lossy-link tests: short ack timeout so dropped
/// replications retry quickly, four attempts before giving up.
fn chaos_config(id: u8) -> NodeConfig {
    NodeConfig {
        ack_timeout: Duration::from_millis(40),
        retry: RetryPolicy {
            attempts: 4,
            base_backoff: Duration::from_millis(5),
            multiplier: 2.0,
            max_backoff: Duration::from_millis(20),
        },
        ..NodeConfig::test_profile(id)
    }
}

/// The fault-plan shapes the matrix cycles through. Drop probability stays
/// at or below 10 % and the reorder window at 4, per the suite's coverage
/// target.
fn plan_for(shape: u64, seed: u64) -> FaultPlan {
    match shape {
        0 => FaultPlan::new(seed).with_drop(0.10),
        1 => FaultPlan::new(seed)
            .with_drop(0.08)
            .with_dup(0.10)
            .with_delay(Duration::from_millis(1), Duration::from_millis(3)),
        2 => FaultPlan::new(seed).with_reorder(0.15, 4).with_dup(0.15),
        _ => FaultPlan::new(seed).with_drop(0.05).with_partition(10, 25),
    }
}

/// Run one seeded workload over faulted links, crash the writer, and verify
/// that the freshest surviving copy of every page written matches the last
/// acknowledged content. Returns the writer's final stats for aggregate
/// checks.
fn chaos_run(seed: u64, plan_a: FaultPlan, plan_b: FaultPlan) -> fc_cluster::NodeStats {
    let (ta, tb) = mem_pair();
    let fa = FaultTransport::new(ta, plan_a);
    let fb = FaultTransport::new(tb, plan_b);
    let ba = shared_backend(MemBackend::new());
    let bb = shared_backend(MemBackend::new());
    let a = Node::spawn(chaos_config(0), fa, ba.clone());
    let b = Node::spawn(chaos_config(1), fb, bb);

    let mut rng = DetRng::new(seed);
    let mut expected: HashMap<u64, Vec<u8>> = HashMap::new();
    for i in 0..80u64 {
        let lpn = rng.below(40);
        let content = format!("s{seed}-w{i}-l{lpn}").into_bytes();
        // Both outcomes promise durability; which one we got is the fault
        // schedule's business.
        let _ = a.write(lpn, &content);
        expected.insert(lpn, content);
    }

    let stats = a.stats();
    // The writer crashes: its buffer and hosted pages evaporate. Acked
    // writes must survive in its backend ∪ the peer's remote buffer.
    a.crash();
    let remote: HashMap<u64, (u64, Vec<u8>)> = b
        .export_remote()
        .into_iter()
        .map(|(l, v, _, d)| (l, (v, d.to_vec())))
        .collect();
    b.shutdown();

    let backend = ba.lock();
    for (lpn, content) in &expected {
        let best = match (backend.read_page(*lpn), remote.get(lpn)) {
            (Some((bv, bd)), Some((rv, rd))) => Some(if *rv > bv { rd.clone() } else { bd }),
            (Some((_, bd)), None) => Some(bd),
            (None, Some((_, rd))) => Some(rd.clone()),
            (None, None) => None,
        };
        assert_eq!(
            best.as_deref(),
            Some(content.as_slice()),
            "seed {seed}: acked write to lpn {lpn} lost or stale after crash"
        );
    }
    stats
}

/// 20 seeds × rotating fault-plan shapes (drop-only; drop+delay+dup;
/// reorder+dup; partition-with-heal), plus a 5 % ack-drop plan on the
/// peer's side, and zero acked writes may be lost.
#[test]
fn chaos_matrix_loses_no_acked_writes() {
    let mut total_retries = 0;
    let mut total_faults = 0;
    for seed in 1..=20u64 {
        let plan_a = plan_for(seed % 4, seed);
        // The peer's outbound side carries the acks; drop a few of those
        // too so the retry/dedup path is exercised from both ends.
        let plan_b = FaultPlan::new(seed ^ 0xACE1).with_drop(0.05);
        let stats = chaos_run(seed, plan_a, plan_b);
        total_retries += stats.repl.retries;
        total_faults += stats.repl.retries + stats.repl.dups_dropped + stats.repl.reorders_healed;
    }
    // The matrix must actually have exercised the machinery, not just
    // clean-path replication.
    assert!(total_retries > 0, "no run ever retried — plans too gentle");
    assert!(total_faults > 0);
}

/// Batched-frame sweep: 20 seeds of multi-page `write_run`s — so the wire
/// carries `WriteReplBatch` frames, not single-page messages — through
/// rotating drop / dup+delay / reorder / corrupt plans. Invariants:
/// zero acked-write loss after the writer crashes, every injected
/// corruption detected by the receiver's CRC (`corruptions_detected ==
/// FaultStats.corrupted`), and `writes_balance` on the final snapshot.
#[test]
fn chaos_batched_runs_sweep_loses_no_acked_writes() {
    let mut total_batches = 0u64;
    let mut total_multi_page = 0u64;
    let mut total_corrupted = 0u64;
    let mut total_faults = 0u64;
    for seed in 1..=20u64 {
        let plan_a = match seed % 4 {
            0 => FaultPlan::new(seed).with_drop(0.10),
            1 => FaultPlan::new(seed)
                .with_dup(0.12)
                .with_delay(Duration::from_millis(1), Duration::from_millis(3)),
            2 => FaultPlan::new(seed).with_reorder(0.15, 4),
            // Corruption runs alone: a corrupted frame that was also
            // dropped or duplicated would skew the detection count.
            _ => FaultPlan::new(seed).with_corrupt(0.15),
        };
        let (ta, tb) = mem_pair();
        let fa = Arc::new(FaultTransport::new(ta, plan_a));
        let ba = shared_backend(MemBackend::new());
        let bb = shared_backend(MemBackend::new());
        let mut cfg_a = chaos_config(0);
        // Room for whole runs per frame, and a real in-flight window.
        cfg_a.repl_batch_pages = 8;
        cfg_a.repl_window = 4;
        let a = Node::spawn(cfg_a, fa.clone(), ba.clone());
        let b = Node::spawn(chaos_config(1), tb, bb);

        let mut rng = DetRng::new(seed);
        let mut expected: HashMap<u64, Vec<u8>> = HashMap::new();
        for i in 0..24u64 {
            let base = rng.below(40);
            let len = 4 + rng.below(5); // 4..=8 page runs
            let pages: Vec<Vec<u8>> = (0..len)
                .map(|j| format!("s{seed}-r{i}-l{}", base + j).into_bytes())
                .collect();
            // Durability is promised either way; the split between
            // replicated and write-through is the fault schedule's call.
            let _ = a.write_run(7, base, &pages);
            for (j, p) in pages.into_iter().enumerate() {
                expected.insert(base + j as u64, p);
            }
        }

        // Every injected corruption must be caught by B's payload CRC.
        wait_until(|| b.stats().repl.corruptions_detected == fa.fault_stats().corrupted);
        let injected = fa.fault_stats().corrupted;
        assert_eq!(
            b.stats().repl.corruptions_detected,
            injected,
            "seed {seed}: corruption detection count mismatch"
        );

        let stats = a.stats();
        assert!(stats.writes_balance(), "seed {seed}: stats imbalance");
        total_batches += stats.repl.batches_sent;
        total_multi_page += stats
            .repl
            .batch_pages
            .saturating_sub(stats.repl.batches_sent);
        total_corrupted += injected;
        total_faults += stats.repl.retries + injected;

        // The writer crashes; acked writes must survive in its backend ∪
        // the peer's remote buffer, freshest version winning.
        a.crash();
        let remote: HashMap<u64, (u64, Vec<u8>)> = b
            .export_remote()
            .into_iter()
            .map(|(l, v, _, d)| (l, (v, d.to_vec())))
            .collect();
        b.shutdown();
        let backend = ba.lock();
        for (lpn, content) in &expected {
            let best = match (backend.read_page(*lpn), remote.get(lpn)) {
                (Some((bv, bd)), Some((rv, rd))) => Some(if *rv > bv { rd.clone() } else { bd }),
                (Some((_, bd)), None) => Some(bd),
                (None, Some((_, rd))) => Some(rd.clone()),
                (None, None) => None,
            };
            assert_eq!(
                best.as_deref(),
                Some(content.as_slice()),
                "seed {seed}: acked write to lpn {lpn} lost or stale after crash"
            );
        }
    }
    // The sweep must have driven real batched frames and real faults.
    assert!(total_batches > 0, "no batched frames sent");
    assert!(
        total_multi_page > 0,
        "every batch was a single page — runs never coalesced"
    );
    assert!(total_corrupted > 0, "corrupt plans injected nothing");
    assert!(total_faults > 0, "plans too gentle");
}

/// Same seed + same plan ⇒ byte-identical decision trace, run twice.
#[test]
fn fault_schedule_is_deterministic_for_a_fixed_seed() {
    let drive = || {
        let (ta, _tb) = mem_pair();
        let f = FaultTransport::new(
            ta,
            FaultPlan::new(0xC0FFEE)
                .with_drop(0.15)
                .with_dup(0.15)
                .with_reorder(0.2, 4)
                .with_partition(30, 40),
        );
        for i in 0..96u64 {
            f.send(Message::WriteReplBatch {
                epoch: 1,
                seq: i + 1,
                entries: vec![resync_entry(
                    i % 7,
                    i + 1,
                    bytes::Bytes::from(vec![b'x'; 16]),
                )],
            })
            .unwrap();
        }
        (f.fault_trace(), f.fault_stats())
    };
    let (trace1, stats1) = drive();
    let (trace2, stats2) = drive();
    assert_eq!(trace1, trace2, "fault decisions must replay identically");
    assert_eq!(stats1, stats2);
    // The plan was aggressive enough to produce each decision kind.
    let has = |f: fn(&FaultAction) -> bool| trace1.iter().any(|r| f(&r.action));
    assert!(has(|a| matches!(a, FaultAction::Drop)));
    assert!(has(|a| matches!(a, FaultAction::Deliver { dup: true, .. })));
    assert!(has(|a| matches!(a, FaultAction::Held { .. })));
    assert!(has(|a| matches!(a, FaultAction::Partitioned)));
}

/// Three consecutive drops of the same replication: the writer retries
/// exactly three times, the fourth attempt lands, and the write stays on
/// the replicated path — no spurious write-through, no degraded mode.
#[test]
fn three_drops_cost_three_retries_then_replicate() {
    let (ta, tb) = mem_pair();
    let fa = FaultTransport::new(ta, FaultPlan::new(9).with_drop_first(3));
    let ba = shared_backend(MemBackend::new());
    let bb = shared_backend(MemBackend::new());
    let mut cfg = chaos_config(0);
    cfg.retry.attempts = 5; // room for one more than needed
    let a = Node::spawn(cfg, fa, ba.clone());
    let b = Node::spawn(chaos_config(1), tb, bb);

    assert_eq!(a.write(7, b"fourth-time-lucky"), WriteOutcome::Replicated);
    let stats = a.stats();
    assert_eq!(stats.repl.retries, 3, "one retry per dropped attempt");
    assert_eq!(
        stats.write_through, 0,
        "no fallback to local-only durability"
    );
    assert_eq!(stats.replicated_pages, 1);
    assert!(!a.is_degraded());
    wait_until(|| b.hosted_remote_pages() == vec![7]);
    assert_eq!(b.hosted_remote_pages(), vec![7]);
    a.shutdown();
    b.shutdown();
}

/// Duplicated replications are detected and counted by the receiver, and
/// acked writes are not double-applied.
#[test]
fn duplicated_replications_are_deduplicated() {
    let (ta, tb) = mem_pair();
    let fa = FaultTransport::new(ta, FaultPlan::new(11).with_dup(1.0));
    let ba = shared_backend(MemBackend::new());
    let bb = shared_backend(MemBackend::new());
    let a = Node::spawn(chaos_config(0), fa, ba);
    let b = Node::spawn(chaos_config(1), tb, bb);

    for i in 0..10u64 {
        assert_eq!(
            a.write(i, format!("dup{i}").as_bytes()),
            WriteOutcome::Replicated
        );
    }
    wait_until(|| b.stats().repl.dups_dropped >= 10);
    let bs = b.stats();
    assert_eq!(bs.repl.dups_dropped, 10, "each write was sent twice");
    assert_eq!(b.hosted_remote_pages().len(), 10);
    assert_eq!(a.stats().replicated_pages, 10);
    a.shutdown();
    b.shutdown();
}

/// A Discard reordered behind a newer replication of the same page must not
/// delete the newer copy (the version bound holds), and the receiver counts
/// the healed reorder.
#[test]
fn reordered_discard_cannot_delete_newer_copy() {
    let (ta, tb) = mem_pair();
    let bb = shared_backend(MemBackend::new());
    let b = Node::spawn(chaos_config(1), tb, bb);

    // Simulate the wire after reordering: the v2 replication and a later
    // Discard both overtook the Discard for the flushed v1 (batches number
    // their own sequence space; Discards share one).
    ta.send(Message::WriteReplBatch {
        epoch: 1,
        seq: 1,
        entries: vec![resync_entry(5, 2, bytes::Bytes::from_static(b"newer"))],
    })
    .unwrap();
    ta.send(Message::Discard {
        seq: 2,
        pages: vec![],
    })
    .unwrap();
    ta.send(Message::Discard {
        seq: 1,
        pages: vec![(5, 1)],
    })
    .unwrap();
    wait_until(|| b.stats().repl.reorders_healed == 1);
    assert_eq!(
        b.hosted_remote_pages(),
        vec![5],
        "late v1 Discard deleted the v2 copy"
    );
    assert_eq!(b.stats().repl.reorders_healed, 1);

    // A Discard at the newer version does remove it.
    ta.send(Message::Discard {
        seq: 3,
        pages: vec![(5, 2)],
    })
    .unwrap();
    wait_until(|| b.hosted_remote_pages().is_empty());
    assert!(b.hosted_remote_pages().is_empty());
    b.shutdown();
}

/// Losing the peer destages every dirty page and counts them.
#[test]
fn peer_loss_counts_partition_destages() {
    let (ta, tb) = mem_pair();
    let ba = shared_backend(MemBackend::new());
    let bb = shared_backend(MemBackend::new());
    let a = Node::spawn(chaos_config(0), ta, ba.clone());
    let b = Node::spawn(chaos_config(1), tb, bb);
    for i in 0..6u64 {
        assert_eq!(
            a.write(i, format!("d{i}").as_bytes()),
            WriteOutcome::Replicated
        );
    }
    assert!(a.dirty_pages() > 0);
    b.crash();
    // Next write hits the dead link, degrades, and destages the dirty set.
    assert_eq!(a.write(100, b"after"), WriteOutcome::WriteThrough);
    let stats = a.stats();
    assert!(a.is_degraded());
    assert_eq!(stats.repl.partition_destages, 6, "all dirty pages destaged");
    // Destaged pages really are on the backend.
    let backend = ba.lock();
    for i in 0..6u64 {
        assert!(backend.read_page(i).is_some(), "page {i} not destaged");
    }
    drop(backend);
    a.shutdown();
}

/// Crash-around-rejoin sweep: a partition forces both nodes solo; node A
/// writes through while solo; the partition heals and the pair rejoins, A
/// replicates a few more writes — and then the peer crashes at a
/// seed-dependent instant. Whatever the timing, every acknowledged write
/// must remain readable at A, byte for byte, and A must settle back into
/// solo mode rather than wedge.
#[test]
fn crash_during_resync_never_loses_acked_writes() {
    let window = Duration::from_millis(300);
    for seed in 1..=20u64 {
        let (ta, tb) = mem_pair();
        let fa = Arc::new(FaultTransport::new(
            ta,
            FaultPlan::new(seed)
                .with_partition_for(Duration::ZERO, window)
                .with_delay(Duration::from_millis(1), Duration::from_millis(3)),
        ));
        let fb = Arc::new(FaultTransport::new(
            tb,
            FaultPlan::new(seed ^ 0xBEEF).with_partition_for(Duration::ZERO, window),
        ));
        let ba = shared_backend(MemBackend::new());
        let bb = shared_backend(MemBackend::new());
        let a = Node::spawn(chaos_config(0), fa.clone(), ba.clone());
        let b = Node::spawn(chaos_config(1), fb.clone(), bb);

        wait_until(|| a.lifecycle_state() == PairState::Solo);
        assert_eq!(
            a.lifecycle_state(),
            PairState::Solo,
            "seed {seed}: partition never took node A solo"
        );
        let mut expected: HashMap<u64, Vec<u8>> = HashMap::new();
        for lpn in 0..40u64 {
            let content = format!("c{seed}-l{lpn}").into_bytes();
            assert_eq!(a.write(lpn, &content), WriteOutcome::WriteThrough);
            expected.insert(lpn, content);
        }
        // The partition heals; once the pair has rejoined, A replicates a
        // few more writes and the peer is killed at a seed-dependent
        // instant after them.
        wait_until(|| a.lifecycle_state() == PairState::Paired);
        assert_eq!(
            a.lifecycle_state(),
            PairState::Paired,
            "seed {seed}: pair never re-formed after the partition"
        );
        for lpn in 40..44u64 {
            let content = format!("c{seed}-l{lpn}").into_bytes();
            let _ = a.write(lpn, &content);
            expected.insert(lpn, content);
        }
        std::thread::sleep(Duration::from_millis(seed % 16));
        b.crash();
        // A must notice and fall back to solo (directly, or after its
        // in-flight batch exhausts its retries) without losing anything.
        wait_until(|| a.lifecycle_state() == PairState::Solo);
        assert_eq!(
            a.lifecycle_state(),
            PairState::Solo,
            "seed {seed}: survivor did not return to solo after target crash"
        );
        for (lpn, content) in &expected {
            assert_eq!(
                a.read(*lpn).as_deref(),
                Some(content.as_slice()),
                "seed {seed}: write to lpn {lpn} lost after a crash around rejoin"
            );
        }
        assert!(a.stats().writes_balance(), "seed {seed}: stats imbalance");
        a.shutdown();
    }
}

/// Corrupt-around-rejoin sweep: paired writes, then a partition and solo
/// writes, then a rejoin, all over a link that corrupts ~15 % of A's data
/// frames. Every corruption must be detected (checksum → NACK → clean
/// resend), the pair must still re-form, and both sides must end with
/// byte-exact data.
#[test]
fn corrupt_during_resync_repairs_and_rejoins() {
    let start = Duration::from_millis(150);
    let window = Duration::from_millis(300);
    let mut total_injected = 0u64;
    for seed in 1..=20u64 {
        let (ta, tb) = mem_pair();
        let fa = Arc::new(FaultTransport::new(
            ta,
            FaultPlan::new(seed)
                .with_partition_for(start, window)
                .with_corrupt(0.15),
        ));
        let fb = Arc::new(FaultTransport::new(
            tb,
            FaultPlan::new(seed ^ 0xFEED).with_partition_for(start, window),
        ));
        let ba = shared_backend(MemBackend::new());
        let bb = shared_backend(MemBackend::new());
        let mut cfg_a = chaos_config(0);
        cfg_a.repl_batch_pages = 4;
        let a = Node::spawn(cfg_a, fa.clone(), ba.clone());
        let b = Node::spawn(chaos_config(1), fb.clone(), bb);

        // Phase 1 (paired, corrupting link): damaged frames are NACKed and
        // resent; a run of corrupt deliveries can exhaust the retry budget
        // and push A solo early, which the rejoin machinery must absorb.
        let mut expected: HashMap<u64, Vec<u8>> = HashMap::new();
        let mut rng = DetRng::new(seed);
        for i in 0..12u64 {
            let lpn = rng.below(20);
            let content = format!("p{seed}-w{i}-l{lpn}").into_bytes();
            let _ = a.write(lpn, &content);
            expected.insert(lpn, content);
        }
        // Phase 2: the partition opens; A goes solo and writes through.
        wait_until(|| a.lifecycle_state() == PairState::Solo);
        assert_eq!(
            a.lifecycle_state(),
            PairState::Solo,
            "seed {seed}: partition never took node A solo"
        );
        for lpn in 20..44u64 {
            let content = format!("s{seed}-l{lpn}").into_bytes();
            let _ = a.write(lpn, &content);
            expected.insert(lpn, content);
        }
        // Phase 3: heal → Paired, on both ends.
        wait_until(|| {
            a.lifecycle_state() == PairState::Paired && b.lifecycle_state() == PairState::Paired
        });
        assert_eq!(
            (a.lifecycle_state(), b.lifecycle_state()),
            (PairState::Paired, PairState::Paired),
            "seed {seed}: pair never re-formed after the partition"
        );

        // Accounting: every injected corruption was detected by B's
        // checksum, none slipped through.
        wait_until(|| b.stats().repl.corruptions_detected == fa.fault_stats().corrupted);
        let injected = fa.fault_stats().corrupted;
        assert_eq!(
            b.stats().repl.corruptions_detected,
            injected,
            "seed {seed}: corruption detection count mismatch"
        );
        total_injected += injected;

        // Byte-exactness, both ends: A serves every write; B's hosted set
        // (remote buffer ∪ taken-over pages) never contains damaged bytes.
        for (lpn, content) in &expected {
            assert_eq!(
                a.read(*lpn).as_deref(),
                Some(content.as_slice()),
                "seed {seed}: lpn {lpn} unreadable at A after rejoin"
            );
        }
        for (lpn, _ver, _crc, data) in b.export_remote() {
            assert_eq!(
                Some(&data[..]),
                expected.get(&lpn).map(|c| c.as_slice()),
                "seed {seed}: B hosts corrupted or unknown bytes for lpn {lpn}"
            );
        }
        a.shutdown();
        b.shutdown();
    }
    assert!(
        total_injected > 0,
        "sweep injected no corruption — plans too gentle"
    );
}

fn wait_until(mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        if cond() {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}
