//! End-to-end elastic-membership tests: a live cluster grows from three
//! pairs to four and shrinks back **while a random workload keeps
//! running**, across twenty seeds.
//!
//! Contracts from the issue:
//!
//! 1. **Model equivalence** — seeded random op sequences (write / read /
//!    trim / flush) through the gateway agree with a flat
//!    `HashMap<lpn, page>` oracle at every step, through both membership
//!    changes.
//! 2. **Zero acked-write loss** — after the add and after the remove, a
//!    full routed sweep of the lpn space equals the oracle exactly.
//! 3. **Counter-sum identity** — Σ `gateway.shard.*` equals the
//!    aggregate `gateway.*` counters at every phase boundary, across
//!    attach and retire.
//!
//! (Exact minimality — the moved set is the occupied ring diff — is
//! checked at idle by `crates/gateway/tests/rebalance.rs`.)

use std::collections::HashMap;

use bytes::Bytes;
use fc_bench::loadgen::payload;
use fc_gateway::{spawn_mem_pair, GatewayClient, GatewayConfig, ShardStatsSum, ShardedGateway};
use fc_ring::RingConfig;
use fc_simkit::DetRng;

const SHARDS: u16 = 3;
const SPACE: u64 = 512;
const STEPS_PER_PHASE: u64 = 200;
const PAGE_BYTES: usize = 64;

/// The counter-sum identity, asserted with context.
fn assert_sums_match(sg: &ShardedGateway, label: &str) {
    if let Err((name, sum, total)) = ShardStatsSum::of(&sg.shard_stats()).matches(&sg.stats()) {
        panic!("{label}: Σ shard.{name} = {sum} != gateway.{name} = {total}");
    }
}

/// One phase of the random workload: writes (1–6 pages), reads (up to 16
/// pages, long enough to straddle shards), trims, and flushes, with every
/// read checked against the oracle in place.
fn drive(
    client: &mut GatewayClient,
    oracle: &mut HashMap<u64, Bytes>,
    rng: &mut DetRng,
    tag: u64,
    label: &str,
) {
    for step in 0..STEPS_PER_PHASE {
        match rng.below(10) {
            0..=4 => {
                let pages = 1 + rng.below(6);
                let lpn = rng.below(SPACE - pages);
                let payloads: Vec<Bytes> = (0..pages)
                    .map(|i| payload(1, lpn + i, tag * STEPS_PER_PHASE + step, PAGE_BYTES))
                    .collect();
                let ack = client.write(lpn, payloads.clone()).expect("write acked");
                assert_eq!(u64::from(ack.pages), pages, "{label} step {step}");
                for (i, p) in payloads.into_iter().enumerate() {
                    oracle.insert(lpn + i as u64, p);
                }
            }
            5..=7 => {
                let pages = 1 + rng.below(16);
                let lpn = rng.below(SPACE - pages);
                let got = client.read(lpn, pages as u32).expect("read");
                for (i, g) in got.iter().enumerate() {
                    assert_eq!(
                        g.as_ref(),
                        oracle.get(&(lpn + i as u64)),
                        "{label} step {step}: lpn {} diverged from oracle",
                        lpn + i as u64
                    );
                }
            }
            8 => {
                let pages = 1 + rng.below(8);
                let lpn = rng.below(SPACE - pages);
                client.trim(lpn, pages as u32).expect("trim");
                for l in lpn..lpn + pages {
                    oracle.remove(&l);
                }
            }
            _ => {
                client.flush().expect("flush");
            }
        }
    }
}

/// Full routed sweep: every page the oracle holds is readable with the
/// exact acked bytes, every page it does not hold is absent.
fn assert_state_matches(sg: &ShardedGateway, oracle: &HashMap<u64, Bytes>, label: &str) {
    for lpn in 0..SPACE {
        assert_eq!(
            sg.gateway().read_page(lpn).map(Bytes::from),
            oracle.get(&lpn).cloned(),
            "{label}: state diverged at lpn {lpn}"
        );
    }
}

fn run_one(seed: u64) {
    let sg =
        ShardedGateway::spawn_mem(GatewayConfig::test_profile(), RingConfig::default(), SHARDS);
    let ring0 = sg.gateway().ring();
    let mut client = sg.connect_mem_as(1);
    client.hello().expect("hello");
    let mut oracle: HashMap<u64, Bytes> = HashMap::new();
    let mut rng = DetRng::new(seed);

    // Phase 1 — steady state on three pairs.
    drive(&mut client, &mut oracle, &mut rng, 1, "pre-scale");
    assert_sums_match(&sg, "pre-scale");

    // Phase 2 — live add on a background thread while the workload keeps
    // running.
    let (p3, s3) = spawn_mem_pair(SHARDS, ring0.block_pages(), |_| {});
    let report = std::thread::scope(|scope| {
        let migration = scope.spawn(|| sg.gateway().add_pair(p3, s3));
        drive(&mut client, &mut oracle, &mut rng, 2, "during-add");
        migration.join().expect("no panic").expect("scale up")
    });
    let new_shard = SHARDS;
    let mut grown = ring0.clone();
    grown.add_pair(new_shard);
    assert_eq!(sg.gateway().ring(), grown, "seed {seed}");
    assert_eq!(report.from_epoch, ring0.epoch());
    assert_eq!(report.to_epoch, grown.epoch());
    assert!(!sg.gateway().rebalance_active());
    assert_state_matches(&sg, &oracle, "post-add");
    assert_sums_match(&sg, "post-add");

    // Phase 3 — live remove of the pair just added, same shape.
    let report = std::thread::scope(|scope| {
        let migration = scope.spawn(|| sg.gateway().remove_pair(new_shard));
        drive(&mut client, &mut oracle, &mut rng, 3, "during-remove");
        migration.join().expect("no panic").expect("scale down")
    });
    assert_eq!(report.to_epoch, grown.epoch() + 1);
    assert_eq!(
        sg.gateway().ring().members(),
        &[0, 1, 2],
        "seed {seed}: the ring must shrink back to the original members"
    );
    assert_state_matches(&sg, &oracle, "post-remove");
    assert_sums_match(&sg, "post-remove");

    // The retired pair hosts nothing; everything lives with the survivors.
    assert!(
        (0..SPACE).all(|l| sg.primary(new_shard).read(l).is_none()),
        "seed {seed}: retired pair still hosts data"
    );
    let stats = sg.stats();
    assert_eq!(stats.rebalances_started, 2);
    assert_eq!(stats.rebalances_completed, 2);
    assert_eq!(stats.shed_total, 0, "unlimited admission sheds nothing");
    assert_eq!(stats.bad_requests, 0);
    sg.shutdown();
}

/// Twenty seeds of grow-then-shrink under live load.
#[test]
fn elastic_membership_matches_oracle_across_twenty_seeds() {
    for seed in 0..20u64 {
        run_one(0xE1A5_7100 + seed);
    }
}
