//! Full-lifecycle end-to-end tests for the threaded pair.
//!
//! The invariant under test is the paper's consistency claim (Section III.D):
//! "With this failure recovery mechanism, FlashCoop can successfully
//! maintain data consistency" — concretely, **no acknowledged write is ever
//! unrecoverable**. The tests walk the real pair through the whole
//! lifecycle — fail → takeover → solo → resync → Paired — over faulted
//! links, including payload corruption.

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
    /// and the survivor destages the pages it hosts; solo writes land in
    /// the journal; the partition heals, the journal streams across, and
    /// both nodes walk back to Paired with byte-exact data on both ends.
    #[test]
    fn full_lifecycle_fail_takeover_resync_rejoin() {
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

        // Phase 3 — Solo: writes go write-through and into the journal.
        for lpn in 100..106u64 {
            let content = format!("solo-{lpn}").into_bytes();
            assert_eq!(a.write(lpn, &content), WriteOutcome::WriteThrough);
            expected.insert(lpn, content);
        }
        assert!(a.journal_len() >= 6, "solo writes must be journaled");
        assert!(a.is_degraded());

        // Phase 4 — the partition heals; heartbeats resume; the journal
        // streams across and both sides cut back over to Paired.
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
        assert!(wait_until(|| a.journal_len() == 0, Duration::from_secs(1)));

        // Every write — paired-phase and solo-phase — is hosted at B
        // byte-for-byte (remote buffer ∪ taken-over set).
        assert!(wait_until(
            || b.hosted_remote_pages().len() == expected.len(),
            Duration::from_secs(1)
        ));
        for (lpn, _ver, data) in b.export_remote() {
            assert_eq!(
                Some(data.as_slice()),
                expected.get(&lpn).map(|c| c.as_slice()),
                "B hosts wrong bytes for lpn {lpn}"
            );
        }
        // And A serves everything it acknowledged.
        for (lpn, content) in &expected {
            assert_eq!(a.read(*lpn).as_deref(), Some(content.as_slice()));
        }
        let sa = a.stats();
        assert!(sa.repl.resync_batches >= 1, "resync must have streamed");
        assert_eq!(sa.repl.resync_pages, 6);
        // Solo entry + resync start + resync complete ≥ 3 lifecycle edges.
        assert!(sa.repl.lifecycle_transitions >= 3);
        assert!(sa.writes_balance());
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
            // Partition → Solo; journaled writes.
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
            // Heal → resync (batches may be corrupted in flight) → Paired.
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
            assert!(
                wait_until(|| a.journal_len() == 0, Duration::from_secs(2)),
                "seed {seed}: journal never drained"
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
            for (lpn, _ver, data) in b.export_remote() {
                assert_eq!(
                    Some(data.as_slice()),
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
