//! Deterministic fault injection on the replication path.
//!
//! Wraps node A's transport in a [`FaultTransport`] that drops, duplicates,
//! delays and reorders data-plane traffic per a seeded [`FaultPlan`], then
//! shows the retry/dedup machinery absorbing the faults: every write stays
//! durably replicated, the counters account for each fault, and the same
//! seed replays the identical fault schedule.
//!
//! ```text
//! cargo run --release --example fault_injection [seed]
//! ```

use fc_cluster::{
    mem_pair, shared_backend, FaultPlan, FaultStats, FaultTransport, MemBackend, Node, NodeConfig,
    RetryPolicy, WriteOutcome,
};
use std::sync::Arc;
use std::time::Duration;

fn run(seed: u64, quiet: bool) -> (Vec<String>, FaultStats) {
    let plan = FaultPlan::new(seed)
        .with_drop(0.15)
        .with_dup(0.15)
        .with_delay(Duration::from_micros(200), Duration::from_micros(500))
        .with_reorder(0.2, 4);
    let (ta, tb) = mem_pair();
    // Keep a handle on the fault layer while the node drives it.
    let fa = Arc::new(FaultTransport::new(ta, plan));
    let cfg = NodeConfig {
        ack_timeout: Duration::from_millis(40),
        retry: RetryPolicy {
            attempts: 5,
            base_backoff: Duration::from_millis(2),
            multiplier: 2.0,
            max_backoff: Duration::from_millis(20),
        },
        ..NodeConfig::test_profile(0)
    };
    let a = Node::spawn(cfg, fa.clone(), shared_backend(MemBackend::new()));
    let b = Node::spawn(
        NodeConfig::test_profile(1),
        tb,
        shared_backend(MemBackend::new()),
    );

    let mut replicated = 0;
    for i in 0..32u64 {
        if a.write(i, format!("page-{i}").as_bytes()) == WriteOutcome::Replicated {
            replicated += 1;
        }
    }
    std::thread::sleep(Duration::from_millis(100)); // let late dups land
    let (sa, sb) = (a.stats(), b.stats());
    let stats = fa.fault_stats();
    let trace: Vec<String> = fa
        .fault_trace()
        .iter()
        .map(|r| format!("#{:<3} {:?}", r.index, r.action))
        .collect();
    if !quiet {
        println!(
            "seed {seed}: {replicated}/32 writes replicated, B hosts {} pages",
            sb.remote_pages
        );
        println!(
            "  A retries: {:>2}   B dups_dropped: {:>2}, reorders_healed: {:>2}",
            sa.repl.retries, sb.repl.dups_dropped, sb.repl.reorders_healed
        );
        println!(
            "  link: {} eligible sends — {} dropped, {} duplicated, {} held for reorder",
            stats.eligible, stats.dropped, stats.duplicated, stats.held
        );
    }
    a.shutdown();
    b.shutdown();
    (trace, stats)
}

fn main() {
    let seed = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(7);
    let (trace1, mut stats1) = run(seed, false);
    let (trace2, mut stats2) = run(seed, true);
    // The fault schedule is indexed by data-plane send count, so every
    // decision replays exactly. `passthrough` counts exempt control-plane
    // traffic (heartbeats), whose tally depends on wall-clock run length —
    // normalize it before comparing.
    stats1.passthrough = 0;
    stats2.passthrough = 0;
    assert_eq!(stats1, stats2, "same seed must replay the same schedule");
    assert_eq!(trace1, trace2);
    println!(
        "\nsecond run, same seed: {} identical fault decisions ✓",
        trace1.len()
    );
    println!("first few decisions:");
    for line in trace1.iter().take(6) {
        println!("  {line}");
    }
}
