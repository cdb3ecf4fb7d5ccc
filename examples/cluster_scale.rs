//! Cluster scale through the threaded stack: a workload that saturates one
//! gateway-fronted pair is absorbed by a 4-pair cluster routed by the
//! `fc-ring` consistent-hash ring.
//!
//! Pairs are mutually independent ("storage cluster is configured into
//! cooperative pairs"), so the cluster scales by adding pairs.
//!
//! ```text
//! cargo run --release --example cluster_scale
//! ```

use fc_bench::loadgen::{self, LoadgenSpec, Mode, TransportKind, Workload};
use fc_gateway::AdmissionConfig;

fn main() {
    // Eight closed-loop clients keep a single gateway-fronted pair busy end
    // to end; four pairs behind the consistent-hash ring split the same
    // offered load four ways.
    let base = LoadgenSpec {
        clients: 8,
        workload: Workload::Mix,
        seed: 7,
        requests: 1_500,
        mode: Mode::Closed,
        transport: TransportKind::Mem,
        pages_per_client: 1 << 12,
        admission: AdmissionConfig::unlimited(),
        ..LoadgenSpec::default()
    };
    println!("threaded gateway: the same offered load against 1 pair, then 4:");
    let single = loadgen::run(&base).expect("single-pair run");
    let sharded = loadgen::run(&LoadgenSpec {
        shards: 4,
        ..base.clone()
    })
    .expect("sharded run");
    sharded
        .verify_shard_sums()
        .expect("per-shard counters sum to gateway totals");
    assert_eq!(single.errors + sharded.errors, 0, "clean runs");

    let us = |ns: u64| ns as f64 / 1_000.0;
    for (label, r) in [("1 pair", &single), ("4 pairs", &sharded)] {
        println!(
            "  {:<8} {:>9.0} req/s   p50 {:>7.1} µs   p99 {:>8.1} µs   acked {}",
            label,
            r.throughput(),
            us(r.latency.p50()),
            us(r.latency.p99()),
            r.acked,
        );
    }
    let ops: u64 = sharded.shard_stats.iter().map(|s| s.ops).sum();
    for s in &sharded.shard_stats {
        let mean_ns = s.latency_sum_ns.checked_div(s.latency_samples).unwrap_or(0);
        println!(
            "    shard {}  {:>6.1}% of node submissions   mean service {:>8.1} µs",
            s.shard,
            100.0 * s.ops as f64 / ops.max(1) as f64,
            us(mean_ns),
        );
    }
    assert_eq!(
        single.state_digest, sharded.state_digest,
        "sharding moves pages between pairs, never changes their contents"
    );
    println!(
        "  state digest {:#018x} — identical for 1 and 4 pairs: routing \
         changes placement, not contents",
        sharded.state_digest
    );
    println!("cluster scale complete");
}
