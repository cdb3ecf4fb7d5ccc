//! Elastic scale: grow a live 4-pair cluster to five pairs mid-workload,
//! retire the fifth again — all while eight closed-loop clients keep
//! hammering the gateway — and prove the clients never noticed: the final
//! state digest is bit-identical to a static 4-pair run of the same
//! workload.
//!
//! Under the hood each membership change is one gateway call
//! (`Gateway::add_pair` / `remove_pair`, both `Gateway::rebalance`): it
//! opens a dual-ring window fencing the occupied blocks whose owner changes
//! (they keep routing to their old owner until migrated; fresh blocks go
//! straight to the new one), streams their pages pair-to-pair in bounded
//! batches, and the cut-over retires the old epoch. See DESIGN.md §15.
//!
//! ```text
//! cargo run --release --example elastic_scale
//! ```

use fc_bench::loadgen::{self, Action, LoadgenSpec, Mode, Step, TransportKind, Workload};
use fc_gateway::AdmissionConfig;

fn main() {
    let base = LoadgenSpec {
        clients: 8,
        workload: Workload::Mix,
        seed: 11,
        requests: 2_000,
        mode: Mode::Closed,
        transport: TransportKind::Mem,
        pages_per_client: 1 << 12,
        admission: AdmissionConfig::unlimited(),
        shards: 4,
        ..LoadgenSpec::default()
    };

    println!("static 4-pair baseline:");
    let baseline = loadgen::run(&base).expect("baseline run");
    print!("{}", loadgen::report_text(&baseline));

    println!("\nelastic run: add a 5th pair at 10 ms, retire it at 60 ms, same workload:");
    let elastic = loadgen::run(&LoadgenSpec {
        steps: vec![
            Step::at_ms(10, Action::AddPair),
            Step::at_ms(60, Action::RemovePair),
        ],
        ..base.clone()
    })
    .expect("elastic run");
    print!("{}", loadgen::report_text(&elastic));

    assert_eq!(baseline.errors + elastic.errors, 0, "clean runs");
    assert_eq!(
        elastic.gateway.rebalances_completed, 2,
        "both membership changes committed"
    );
    elastic
        .verify_shard_sums()
        .expect("counter-sum identity across attach + retire");
    assert_eq!(
        baseline.state_digest, elastic.state_digest,
        "growing and shrinking the cluster mid-workload must not change \
         a single acked byte"
    );
    println!(
        "\nstate digest {:#018x} — identical with and without the live \
         add/remove: elastic membership changes placement, not contents",
        elastic.state_digest
    );
    println!(
        "moved {} blocks ({} pages) across {} migration batches",
        elastic.gateway.rebalance_moved_blocks,
        elastic.gateway.rebalance_moved_pages,
        elastic.gateway.rebalance_batches,
    );
    println!("elastic scale complete");
}
