//! Surviving a primary crash at the front door.
//!
//! Two cooperative pairs behind a sharded gateway; a client streams writes
//! while shard 0's primary is killed mid-load. The first op that finds
//! the primary halted fails the shard over to the surviving secondary,
//! service continues uninterrupted, and once the primary restarts and the
//! pair re-forms, traffic drives failback. Ends by re-reading every acknowledged write — zero loss — and
//! printing the health counters.
//!
//! ```text
//! cargo run --release --example failover_serving
//! ```

use std::collections::HashMap;
use std::time::{Duration, Instant};

use bytes::Bytes;
use fc_bench::loadgen::payload;
use fc_gateway::{GatewayConfig, ShardStatsSum, ShardedGateway};
use fc_ring::RingConfig;

const VICTIM: u16 = 0;
const SPACE: u64 = 512;
const PAGE_BYTES: usize = 128;

fn main() {
    println!("— sharded gateway vs. a primary crash —");

    let cfg = GatewayConfig::test_profile();
    let ring_cfg = RingConfig {
        block_pages: cfg.pages_per_block,
        ..RingConfig::default()
    };
    let sg = ShardedGateway::spawn_mem(cfg, ring_cfg, 2);
    let ring = sg.gateway().ring();
    let mut client = sg.connect_mem_as(1);
    client.hello().expect("hello");

    let mut acked: HashMap<u64, Bytes> = HashMap::new();
    let deadline = || Instant::now() + Duration::from_secs(5);
    let write =
        |client: &mut fc_gateway::GatewayClient, acked: &mut HashMap<u64, Bytes>, seq: u64| {
            let lpn = (seq * 13) % SPACE;
            let page = payload(1, lpn, seq, PAGE_BYTES);
            client
                .write_with_retry(lpn, vec![page.clone()], deadline())
                .expect("write acked");
            acked.insert(lpn, page);
        };

    println!("  phase 1: both pairs healthy, 200 writes");
    for seq in 0..200 {
        write(&mut client, &mut acked, seq);
    }

    println!("  phase 2: killing shard {VICTIM}'s primary mid-load");
    sg.primary(VICTIM).fail();
    for seq in 200..400 {
        write(&mut client, &mut acked, seq);
    }
    let stats = sg.stats();
    assert!(stats.failovers >= 1, "the kill must force a failover");
    assert!(
        !sg.gateway().shard_routed_to_primary(VICTIM),
        "victim shard now routes to its secondary"
    );
    println!(
        "    failovers={}  retries={}  unavailable={}  (service never stopped)",
        stats.failovers, stats.retries, stats.unavailable
    );

    println!("  phase 3: restarting the primary; traffic drives failback");
    sg.primary(VICTIM).restart();
    let victim_lpn = (0..SPACE)
        .find(|&l| ring.shard_of_lpn(l) == VICTIM)
        .expect("victim owns an lpn");
    let failback_deadline = Instant::now() + Duration::from_secs(10);
    while !sg.gateway().shard_routed_to_primary(VICTIM) {
        assert!(Instant::now() < failback_deadline, "no failback within 10s");
        let _ = client.read(victim_lpn, 1);
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(sg.stats().failbacks >= 1);
    for seq in 400..600 {
        write(&mut client, &mut acked, seq);
    }

    println!("  phase 4: verifying all {} acked writes", acked.len());
    for (&lpn, want) in &acked {
        let got = client
            .read_with_retry(lpn, 1, deadline())
            .expect("read acked lpn");
        assert_eq!(
            got[0].as_deref(),
            Some(want.as_ref()),
            "acked write at lpn {lpn} lost across failover"
        );
    }
    ShardStatsSum::of(&sg.shard_stats())
        .matches(&sg.stats())
        .expect("per-shard counters sum exactly to the aggregates");

    let stats = sg.stats();
    println!(
        "  health: failovers={} failbacks={} retries={} unavailable={}",
        stats.failovers, stats.failbacks, stats.retries, stats.unavailable
    );
    sg.shutdown();
    println!("FAILOVER-SERVING OK: zero acked writes lost");
}
