//! End-to-end tests for the sharded (multi-pair) gateway: consistent-hash
//! routing across N cooperative pairs, exercised the way the single-pair
//! stack is — through real gateway sessions down to real `Node` pairs.
//!
//! Three contracts from the issue:
//!
//! 1. **Model equivalence** — seeded random op sequences (write / read /
//!    trim / flush) through a 4-shard mem `ShardedGateway` agree with a
//!    flat `HashMap<lpn, page>` oracle at every step, including reads that
//!    straddle shard boundaries.
//! 2. **Shard-confined runs** — a contiguous LPN run spanning two shards
//!    is split at the shard boundary (not just at destage-block
//!    boundaries): every page lands on the pair that owns it, so routed
//!    reads always find it.
//! 3. **Chaos** — fault-inject one pair into Solo mid-workload: the other
//!    shards keep serving (their latency counters keep advancing), no
//!    acknowledged write is lost after the failed pair walks back to
//!    Paired, and the per-shard `gateway.shard.*` counters sum exactly to
//!    the aggregate gateway counters throughout.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use fc_bench::loadgen::payload;
use fc_cluster::{
    mem_pair, shared_backend, FaultPlan, FaultTransport, MemBackend, Node, NodeConfig, PairState,
};
use fc_gateway::{GatewayConfig, ShardStatsSum, ShardedGateway};
use fc_ring::{Ring, RingConfig};
use fc_simkit::DetRng;

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

/// The counter-sum identity, asserted with context.
fn assert_sums_match(sg: &ShardedGateway, label: &str) {
    if let Err((name, sum, total)) = ShardStatsSum::of(&sg.shard_stats()).matches(&sg.stats()) {
        panic!("{label}: Σ shard.{name} = {sum} != gateway.{name} = {total}");
    }
}

/// Contract 1: random op sequences against a flat oracle, three seeds.
#[test]
fn model_random_ops_match_flat_oracle() {
    const SHARDS: u16 = 4;
    const SPACE: u64 = 512;
    const STEPS: u64 = 600;
    const PAGE_BYTES: usize = 64;

    for seed in [11u64, 12, 13] {
        let sg =
            ShardedGateway::spawn_mem(GatewayConfig::test_profile(), RingConfig::default(), SHARDS);
        let ring = sg.gateway().ring();
        let mut client = sg.connect_mem_as(1);
        client.hello().expect("hello");

        let mut oracle: HashMap<u64, Bytes> = HashMap::new();
        let mut rng = DetRng::new(seed);
        let mut straddling_reads = 0u64;
        // Client-side tally of acknowledged pages: (written, read, trimmed).
        let mut acked = (0u64, 0u64, 0u64);

        for step in 0..STEPS {
            match rng.below(10) {
                // Writes: 1–6 pages, overlapping freely with earlier ops.
                0..=4 => {
                    let pages = 1 + rng.below(6);
                    let lpn = rng.below(SPACE - pages);
                    let payloads: Vec<Bytes> = (0..pages)
                        .map(|i| payload(1, lpn + i, step, PAGE_BYTES))
                        .collect();
                    let ack = client.write(lpn, payloads.clone()).expect("write acked");
                    assert_eq!(u64::from(ack.pages), pages, "seed {seed} step {step}");
                    acked.0 += pages;
                    for (i, p) in payloads.into_iter().enumerate() {
                        oracle.insert(lpn + i as u64, p);
                    }
                }
                // Reads: up to 16 pages, long enough to straddle shards.
                5..=7 => {
                    let pages = 1 + rng.below(16);
                    let lpn = rng.below(SPACE - pages);
                    let first = ring.shard_of_lpn(lpn);
                    if (lpn..lpn + pages).any(|l| ring.shard_of_lpn(l) != first) {
                        straddling_reads += 1;
                    }
                    let got = client.read(lpn, pages as u32).expect("read");
                    assert_eq!(got.len(), pages as usize);
                    acked.1 += pages;
                    for (i, g) in got.iter().enumerate() {
                        assert_eq!(
                            g.as_ref(),
                            oracle.get(&(lpn + i as u64)),
                            "seed {seed} step {step}: lpn {} diverged from oracle",
                            lpn + i as u64
                        );
                    }
                }
                // Trims: drop 1–8 pages.
                8 => {
                    let pages = 1 + rng.below(8);
                    let lpn = rng.below(SPACE - pages);
                    client.trim(lpn, pages as u32).expect("trim");
                    acked.2 += pages;
                    for l in lpn..lpn + pages {
                        oracle.remove(&l);
                    }
                }
                // Flushes: fan out to every shard; no observable state change.
                _ => {
                    client.flush().expect("flush");
                }
            }
        }
        assert!(
            straddling_reads > 0,
            "seed {seed}: the op mix must exercise shard-straddling reads"
        );

        // Final sweep: the routed view of every page equals the oracle.
        for lpn in 0..SPACE {
            assert_eq!(
                sg.gateway().read_page(lpn).map(Bytes::from),
                oracle.get(&lpn).cloned(),
                "seed {seed}: final state diverged at lpn {lpn}"
            );
        }
        assert_sums_match(&sg, &format!("seed {seed}"));
        // The shard columns against what the client saw acknowledged — a
        // check the aggregate (itself the shard sum) cannot provide.
        let sum = ShardStatsSum::of(&sg.shard_stats());
        assert_eq!(
            (sum.write_pages, sum.read_pages, sum.trim_pages),
            acked,
            "seed {seed}: Σ shard (write, read, trim) pages != acknowledged pages"
        );
        sg.shutdown();
    }
}

/// Contract 2 (regression): with ring blocks *finer* than destage blocks,
/// a contiguous run inside one destage block can span two shards — the
/// scheduler must split it there, or pages land on pairs that do not own
/// them and routed reads miss forever.
#[test]
fn write_run_spanning_two_shards_is_split_at_the_boundary() {
    const SHARDS: u16 = 4;
    let mut cfg = GatewayConfig::test_profile();
    cfg.pages_per_block = 8; // destage block: 8 pages
    let ring_cfg = RingConfig {
        block_pages: 2, // routing block: 2 pages ⇒ 4 routing blocks per run
        ..RingConfig::default()
    };
    let sg = ShardedGateway::spawn_mem(cfg, ring_cfg, SHARDS);
    let ring = sg.gateway().ring();

    // Find a destage-block-aligned 8-page run whose pages span ≥2 shards
    // (with 2-page routing blocks, nearly every destage block does).
    let lpn0 = (0..1_000u64)
        .map(|b| b * 8)
        .find(|&l| {
            let s0 = ring.shard_of_lpn(l);
            (1..8).any(|i| ring.shard_of_lpn(l + i) != s0)
        })
        .expect("some destage block spans two shards");
    let owners: Vec<u16> = (0..8).map(|i| ring.shard_of_lpn(lpn0 + i)).collect();
    let mut pages_per_shard = vec![0u64; SHARDS as usize];
    for &s in &owners {
        pages_per_shard[usize::from(s)] += 1;
    }

    let before = sg.shard_stats();
    let mut client = sg.connect_mem_as(1);
    client.hello().expect("hello");
    let payloads: Vec<Bytes> = (0..8).map(|i| payload(1, lpn0 + i, 0, 128)).collect();
    let ack = client.write(lpn0, payloads.clone()).expect("write acked");
    assert_eq!(ack.pages, 8);
    let after = sg.shard_stats();

    // Accounting: each owning shard got exactly its pages and ≥1 run; a
    // blind block-confined coalesce would have given all 8 to one shard.
    let involved: Vec<u16> = (0..SHARDS)
        .filter(|&s| pages_per_shard[usize::from(s)] > 0)
        .collect();
    assert!(involved.len() >= 2, "chosen run must span two shards");
    for s in 0..SHARDS as usize {
        let delta_pages = after[s].write_pages - before[s].write_pages;
        let delta_runs = after[s].runs - before[s].runs;
        // However many runs a shard owns, they reach it as one group: one
        // routed op per shard touched.
        assert_eq!(
            after[s].ops - before[s].ops,
            u64::from(pages_per_shard[s] > 0),
            "shard {s}: ops"
        );
        assert_eq!(
            delta_pages, pages_per_shard[s],
            "shard {s}: wrong page share of the split run"
        );
        if pages_per_shard[s] > 0 {
            assert!(delta_runs >= 1, "shard {s}: owns pages but saw no run");
        } else {
            assert_eq!(delta_runs, 0, "shard {s}: owns nothing but saw a run");
        }
    }

    // Placement: every page is on its owner's primary — and nowhere else.
    for (i, want) in payloads.iter().enumerate() {
        let lpn = lpn0 + i as u64;
        let owner = owners[i];
        assert_eq!(
            sg.primary(owner).read(lpn).as_deref(),
            Some(want.as_ref()),
            "lpn {lpn}: missing from its owning shard {owner}"
        );
        for s in (0..SHARDS).filter(|&s| s != owner) {
            assert_eq!(
                sg.primary(s).read(lpn),
                None,
                "lpn {lpn}: leaked onto non-owning shard {s}"
            );
        }
        // And the routed read agrees.
        assert_eq!(
            sg.gateway().read_page(lpn).map(Bytes::from).as_ref(),
            Some(want),
            "lpn {lpn}: routed read missed"
        );
    }
    assert_sums_match(&sg, "split run");
    sg.shutdown();
}

/// Contract 3: one pair is partitioned into Solo mid-workload; the
/// cluster keeps serving, nothing acknowledged is ever lost, and the
/// counter-sum identity holds at every checkpoint.
#[test]
fn chaos_one_pair_solo_mid_workload_loses_nothing() {
    const SHARDS: u16 = 4;
    const VICTIM: u16 = 0;
    const PAGE_BYTES: usize = 96;
    // Partition opens well after the paired warm-up phase and lasts longer
    // than the 200 ms failure timeout, so the victim pair goes Solo.
    let start = Duration::from_millis(250);
    let window = Duration::from_millis(600);

    let cfg = GatewayConfig::test_profile();
    let ring_cfg = RingConfig {
        block_pages: cfg.pages_per_block,
        ..RingConfig::default()
    };
    let ring = Ring::with_pairs(ring_cfg, SHARDS);

    let mut primaries = Vec::new();
    let mut secondaries = Vec::new();
    for i in 0..SHARDS {
        let (ta, tb) = mem_pair();
        let mut ca = NodeConfig::test_profile((2 * i) as u8);
        ca.pages_per_block = cfg.pages_per_block;
        let mut cb = NodeConfig::test_profile((2 * i + 1) as u8);
        cb.pages_per_block = cfg.pages_per_block;
        if i == VICTIM {
            let fa = Arc::new(FaultTransport::new(
                ta,
                FaultPlan::new(7).with_partition_for(start, window),
            ));
            let fb = Arc::new(FaultTransport::new(
                tb,
                FaultPlan::new(8).with_partition_for(start, window),
            ));
            primaries.push(Arc::new(Node::spawn(
                ca,
                fa,
                shared_backend(MemBackend::new()),
            )));
            secondaries.push(Arc::new(Node::spawn(
                cb,
                fb,
                shared_backend(MemBackend::new()),
            )));
        } else {
            let backend = shared_backend(MemBackend::default());
            primaries.push(Arc::new(Node::spawn(ca, ta, backend.clone())));
            secondaries.push(Arc::new(Node::spawn(cb, tb, backend)));
        }
    }
    let sg = ShardedGateway::from_pairs(cfg, ring, primaries, secondaries);
    let ring = sg.gateway().ring();

    // A few lpns per shard so every phase touches every pair.
    let mut lpns_of_shard: Vec<Vec<u64>> = vec![Vec::new(); SHARDS as usize];
    for lpn in 0..4_096u64 {
        let owned = &mut lpns_of_shard[usize::from(ring.shard_of_lpn(lpn))];
        if owned.len() < 12 {
            owned.push(lpn);
        }
    }
    assert!(lpns_of_shard.iter().all(|v| v.len() == 12));

    let mut client = sg.connect_mem_as(1);
    client.hello().expect("hello");
    let mut acked: HashMap<u64, Bytes> = HashMap::new();
    let write_round =
        |client: &mut fc_gateway::GatewayClient, acked: &mut HashMap<u64, Bytes>, round: u64| {
            for lpns in &lpns_of_shard {
                for (i, &lpn) in lpns.iter().enumerate() {
                    // Rotate which lpns each round rewrites, so rounds overlap.
                    if (i as u64 + round).is_multiple_of(3) {
                        continue;
                    }
                    let p = payload(1, lpn, round, PAGE_BYTES);
                    let ack = client.write(lpn, vec![p.clone()]).expect("write acked");
                    assert_eq!(ack.pages, 1);
                    acked.insert(lpn, p);
                }
            }
        };

    // Phase 1 — healthy cluster, all pairs Paired.
    write_round(&mut client, &mut acked, 1);
    assert_sums_match(&sg, "phase 1 (paired)");

    // Phase 2 — the partition takes the victim pair Solo; the workload
    // keeps running against every shard.
    assert!(
        wait_until(
            || sg.primary(VICTIM).lifecycle_state() == PairState::Solo,
            Duration::from_secs(3)
        ),
        "victim pair never went Solo (state {:?})",
        sg.primary(VICTIM).lifecycle_state()
    );
    let before = sg.shard_stats();
    write_round(&mut client, &mut acked, 2);
    // Reads against the healthy shards while the victim is degraded.
    for s in (0..SHARDS).filter(|&s| s != VICTIM) {
        let lpn = lpns_of_shard[usize::from(s)][1];
        let got = client.read(lpn, 1).expect("read during chaos");
        assert_eq!(got[0].as_ref(), acked.get(&lpn), "shard {s} lost a write");
    }
    let after = sg.shard_stats();
    for s in 0..SHARDS as usize {
        assert!(
            after[s].latency_samples > before[s].latency_samples,
            "shard {s}: latency counter stalled during the victim's outage \
             ({} -> {})",
            before[s].latency_samples,
            after[s].latency_samples
        );
    }
    assert!(
        sg.primary(VICTIM).is_degraded(),
        "victim still degraded while partitioned"
    );
    assert_sums_match(&sg, "phase 2 (solo)");

    // Phase 3 — the partition heals; the pair walks back to Paired.
    assert!(
        wait_until(
            || {
                sg.primary(VICTIM).lifecycle_state() == PairState::Paired
                    && sg.secondary(VICTIM).lifecycle_state() == PairState::Paired
            },
            Duration::from_secs(5)
        ),
        "victim pair never re-formed (a={:?} b={:?})",
        sg.primary(VICTIM).lifecycle_state(),
        sg.secondary(VICTIM).lifecycle_state()
    );
    write_round(&mut client, &mut acked, 3);
    client.flush().expect("flush");

    // No acknowledged write — from any phase, on any shard — was lost,
    // observed through the same front door that acked it.
    for (&lpn, want) in &acked {
        let got = client.read(lpn, 1).expect("read back");
        assert_eq!(
            got[0].as_ref(),
            Some(want),
            "acked write at lpn {lpn} (shard {}) lost or stale",
            ring.shard_of_lpn(lpn)
        );
    }
    let stats = sg.stats();
    assert_eq!(stats.shed_total, 0, "unlimited admission sheds nothing");
    assert_eq!(stats.bad_requests, 0, "no request failed during the outage");
    assert_sums_match(&sg, "phase 3 (healed)");
    sg.shutdown();
}
