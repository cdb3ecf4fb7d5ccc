//! Full-lifecycle end-to-end tests for the threaded pair.
//!
//! The invariant under test is the paper's consistency claim (Section III.D):
//! "With this failure recovery mechanism, FlashCoop can successfully
//! maintain data consistency" — concretely, **no acknowledged write is ever
//! unrecoverable**. The tests walk the real pair through the whole
//! lifecycle — fail → takeover → solo → rejoin → Paired — over faulted
//! links, including payload corruption — and check that a peer hosts only
//! pages its owner has not flushed (§III.C), so rejoining copies nothing.

mod threaded {
    use fc_cluster::{
        mem_pair, shared_backend, FaultPlan, FaultTransport, MemBackend, Node, NodeConfig,
        PairState, WriteOutcome,
    };
    use fc_simkit::DetRng;
    use std::collections::HashMap;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    fn wait_until(mut cond: impl FnMut() -> bool, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            if cond() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        cond()
    }

    /// The whole arc, deterministically: a paired pair replicates; a
    /// partition (longer than the failure timeout) takes both nodes solo
    /// and the survivor destages the pages it hosts; solo writes go
    /// through; the partition heals and both nodes cut back over to Paired
    /// with byte-exact data on both ends — and no copy of a solo write at
    /// the peer.
    #[test]
    fn full_lifecycle_fail_takeover_rejoin() {
        let start = Duration::from_millis(150);
        let window = Duration::from_millis(400); // > failure_timeout (200ms)
        let (ta, tb) = mem_pair();
        let fa = Arc::new(FaultTransport::new(
            ta,
            FaultPlan::new(7).with_partition_for(start, window),
        ));
        let fb = Arc::new(FaultTransport::new(
            tb,
            FaultPlan::new(8).with_partition_for(start, window),
        ));
        let ba = shared_backend(MemBackend::new());
        let bb = shared_backend(MemBackend::new());
        let a = Node::spawn(NodeConfig::test_profile(0), fa.clone(), ba.clone());
        let b = Node::spawn(NodeConfig::test_profile(1), fb.clone(), bb);

        // Phase 1 — Paired: replicated writes land in B's remote buffer.
        let mut expected: HashMap<u64, Vec<u8>> = HashMap::new();
        for lpn in 0..8u64 {
            let content = format!("paired-{lpn}").into_bytes();
            assert_eq!(a.write(lpn, &content), WriteOutcome::Replicated);
            expected.insert(lpn, content);
        }
        assert!(wait_until(
            || b.hosted_remote_pages().len() == 8,
            Duration::from_secs(1)
        ));
        assert_eq!(a.lifecycle_state(), PairState::Paired);

        // Phase 2 — the partition opens; both sides detect the silence and
        // go Solo; B (the survivor hosting A's pages) destages them.
        assert!(
            wait_until(
                || a.lifecycle_state() == PairState::Solo && b.lifecycle_state() == PairState::Solo,
                Duration::from_secs(2)
            ),
            "partition never took the pair solo: a={:?} b={:?}",
            a.lifecycle_state(),
            b.lifecycle_state()
        );
        assert_eq!(
            b.stats().repl.takeover_destages,
            8,
            "survivor must destage every hosted page"
        );
        // Takeover keeps the pages reachable for A's recovery.
        assert_eq!(b.hosted_remote_pages().len(), 8);

        // Phase 3 — Solo: writes go write-through.
        for lpn in 100..106u64 {
            let content = format!("solo-{lpn}").into_bytes();
            assert_eq!(a.write(lpn, &content), WriteOutcome::WriteThrough);
            expected.insert(lpn, content);
        }
        assert!(a.is_degraded());
        assert_eq!(a.dirty_pages(), 0, "a solo node holds only clean pages");

        // Phase 4 — the partition heals; heartbeats resume; both sides cut
        // back over to Paired.
        assert!(
            wait_until(
                || a.lifecycle_state() == PairState::Paired
                    && b.lifecycle_state() == PairState::Paired,
                Duration::from_secs(3)
            ),
            "pair never re-formed: a={:?} b={:?}",
            a.lifecycle_state(),
            b.lifecycle_state()
        );

        // B still holds the paired-phase pages byte-for-byte, taken over
        // for A's recovery handshake, and no copy of a solo write: those
        // were durable at A before they were acknowledged.
        assert_eq!(b.hosted_remote_pages(), (0..8u64).collect::<Vec<_>>());
        for (lpn, _ver, _crc, data) in b.export_remote() {
            assert_eq!(
                Some(&data[..]),
                expected.get(&lpn).map(|c| c.as_slice()),
                "B hosts wrong bytes for lpn {lpn}"
            );
        }
        // And A serves everything it acknowledged.
        for (lpn, content) in &expected {
            assert_eq!(a.read(*lpn).as_deref(), Some(content.as_slice()));
        }
        let sa = a.stats();
        // Solo entry + rejoin ≥ 2 lifecycle edges.
        assert!(sa.repl.lifecycle_transitions >= 2);
        assert!(sa.writes_balance());
        a.shutdown();
        b.shutdown();
    }

    /// A partition, 40 solo writes and a heal, then a flush barrier: the
    /// peer hosts none of the owner's pages. Solo writes were durable
    /// before they were acknowledged, so the rejoin copies none of them,
    /// and with nothing dirty the owner has nothing in the peer's remote
    /// buffer.
    #[test]
    fn rejoin_after_solo_writes_leaves_no_copy_at_the_peer() {
        let window = Duration::from_millis(400);
        let dark = |seed| FaultPlan::new(seed).with_partition_for(Duration::ZERO, window);
        let (ta, tb) = mem_pair();
        let ba = shared_backend(MemBackend::new());
        let a = Node::spawn(
            NodeConfig::test_profile(0),
            FaultTransport::new(ta, dark(1)),
            ba.clone(),
        );
        let b = Node::spawn(
            NodeConfig::test_profile(1),
            FaultTransport::new(tb, dark(2)),
            shared_backend(MemBackend::new()),
        );
        assert!(wait_until(
            || a.lifecycle_state() == PairState::Solo && b.lifecycle_state() == PairState::Solo,
            Duration::from_secs(2)
        ));
        for lpn in 0..40u64 {
            let content = format!("solo-{lpn}").into_bytes();
            assert_eq!(a.write(lpn, &content), WriteOutcome::WriteThrough);
        }
        assert!(
            wait_until(
                || a.lifecycle_state() == PairState::Paired
                    && b.lifecycle_state() == PairState::Paired,
                Duration::from_secs(3)
            ),
            "pair never re-formed: a={:?} b={:?}",
            a.lifecycle_state(),
            b.lifecycle_state()
        );
        assert_eq!(a.try_flush_dirty(), Ok(0));
        assert_eq!(a.dirty_pages(), 0);
        assert_eq!(b.hosted_remote_pages(), Vec::<u64>::new());
        for lpn in 0..40u64 {
            let content = format!("solo-{lpn}").into_bytes();
            assert_eq!(a.read(lpn).as_deref(), Some(content.as_slice()));
            assert_eq!(ba.lock().read_page(lpn).map(|(_, d)| d), Some(content));
        }
        a.shutdown();
        b.shutdown();
    }

    /// Two one-sided data-plane outages — every attempt of one of A's
    /// outbound batches is lost while heartbeats flow both ways — each
    /// followed by 48 solo writes, at a peer that hosts at most 100 pages.
    /// Solo entry discards the replicas of what it flushed and rejoin
    /// copies nothing, so afterwards the peer's remote buffer has room for
    /// the next 32 paired writes: all replicate and none stalls on credits.
    #[test]
    fn data_plane_outages_leave_the_peer_room_for_paired_writes() {
        const SOLO: u64 = 48;
        // Eligible-send index (A's outbound data-plane frames) of the
        // first attempt each outage swallows.
        const OUTAGES: [u64; 2] = [1, 40];
        let mut cfg_a = NodeConfig::test_profile(0);
        cfg_a.ack_timeout = Duration::from_millis(30);
        // Room for every page the test writes, so no eviction adds a
        // Discard to A's data plane.
        cfg_a.buffer_pages = 512;
        let attempts = u64::from(cfg_a.retry.attempts);
        let mut cfg_b = NodeConfig::test_profile(1);
        cfg_b.remote_capacity = 100;
        let plan = OUTAGES.iter().fold(FaultPlan::new(11), |plan, &at| {
            plan.with_partition(at, at + attempts)
        });
        let (ta, tb) = mem_pair();
        let fa = Arc::new(FaultTransport::new(ta, plan));
        let a = Node::spawn(cfg_a, fa.clone(), shared_backend(MemBackend::new()));
        let b = Node::spawn(cfg_b, tb, shared_backend(MemBackend::new()));
        let mut lpns = 0u64..;
        for at in OUTAGES {
            // Paired writes, one batch each, up to the outage.
            while fa.fault_stats().eligible < at {
                let lpn = lpns.next().unwrap();
                assert_eq!(a.write(lpn, b"paired"), WriteOutcome::Replicated);
            }
            let lpn = lpns.next().unwrap();
            assert_eq!(a.write(lpn, b"lost"), WriteOutcome::WriteThrough);
            assert_eq!(a.lifecycle_state(), PairState::Solo);
            for _ in 0..SOLO {
                let lpn = lpns.next().unwrap();
                assert_eq!(a.write(lpn, b"solo"), WriteOutcome::WriteThrough);
            }
            // The peer_alive timer rejoins.
            assert!(wait_until(
                || a.lifecycle_state() == PairState::Paired,
                Duration::from_secs(3)
            ));
        }
        let stalls = a.stats().repl.credit_stalls;
        for i in 0..32 {
            let lpn = lpns.next().unwrap();
            assert_eq!(
                a.write(lpn, b"after"),
                WriteOutcome::Replicated,
                "paired write {i} after the outages"
            );
        }
        assert_eq!(a.stats().repl.credit_stalls, stalls);
        assert_eq!(b.stats().repl.takeover_destages, 0);
        a.shutdown();
        b.shutdown();
    }

    /// 20-seed sweep with 5 % payload corruption on top of the partition:
    /// zero acked-write loss, every injected corruption detected by the
    /// receiver's checksum, and no corrupted payload ever acked or
    /// destaged — everything either end holds is byte-exact.
    #[test]
    fn corruption_sweep_loses_nothing_and_detects_everything() {
        let start = Duration::from_millis(100);
        let window = Duration::from_millis(350);
        let mut total_injected = 0u64;
        for seed in 1..=20u64 {
            let (ta, tb) = mem_pair();
            let fa = Arc::new(FaultTransport::new(
                ta,
                FaultPlan::new(seed)
                    .with_partition_for(start, window)
                    .with_corrupt(0.05),
            ));
            let fb = Arc::new(FaultTransport::new(
                tb,
                FaultPlan::new(seed ^ 0xD00D).with_partition_for(start, window),
            ));
            let ba = shared_backend(MemBackend::new());
            let bb = shared_backend(MemBackend::new());
            let a = Node::spawn(NodeConfig::test_profile(0), fa.clone(), ba.clone());
            let b = Node::spawn(NodeConfig::test_profile(1), fb.clone(), bb);

            let mut expected: HashMap<u64, Vec<u8>> = HashMap::new();
            let mut rng = DetRng::new(seed);
            // Paired phase under corruption: damaged replications are
            // NACKed and resent clean.
            for i in 0..15u64 {
                let lpn = rng.below(30);
                let content = format!("e{seed}-w{i}-l{lpn}").into_bytes();
                let _ = a.write(lpn, &content);
                expected.insert(lpn, content);
            }
            // Partition → Solo; written-through writes.
            assert!(
                wait_until(
                    || a.lifecycle_state() == PairState::Solo,
                    Duration::from_secs(2)
                ),
                "seed {seed}: node A never went solo"
            );
            for lpn in 30..45u64 {
                let content = format!("e{seed}-solo-l{lpn}").into_bytes();
                let _ = a.write(lpn, &content);
                expected.insert(lpn, content);
            }
            // Heal → Paired.
            assert!(
                wait_until(
                    || a.lifecycle_state() == PairState::Paired
                        && b.lifecycle_state() == PairState::Paired,
                    Duration::from_secs(5)
                ),
                "seed {seed}: pair never re-formed (a={:?}, b={:?})",
                a.lifecycle_state(),
                b.lifecycle_state()
            );
            // Accounting: detected == injected, exactly.
            assert!(
                wait_until(
                    || b.stats().repl.corruptions_detected == fa.fault_stats().corrupted,
                    Duration::from_secs(2)
                ),
                "seed {seed}: detected {} != injected {}",
                b.stats().repl.corruptions_detected,
                fa.fault_stats().corrupted
            );
            total_injected += fa.fault_stats().corrupted;

            // Zero acked-write loss, byte-for-byte, at the writer…
            for (lpn, content) in &expected {
                assert_eq!(
                    a.read(*lpn).as_deref(),
                    Some(content.as_slice()),
                    "seed {seed}: lpn {lpn} lost or stale at A"
                );
            }
            // …and nothing corrupted was ever acked or destaged at the
            // peer: every byte B holds for A matches what A wrote.
            for (lpn, _ver, _crc, data) in b.export_remote() {
                assert_eq!(
                    Some(&data[..]),
                    expected.get(&lpn).map(|c| c.as_slice()),
                    "seed {seed}: B hosts corrupted bytes for lpn {lpn}"
                );
            }
            assert!(a.stats().writes_balance(), "seed {seed}: stats imbalance");
            a.shutdown();
            b.shutdown();
        }
        assert!(total_injected > 0, "sweep injected no corruption");
    }
}
