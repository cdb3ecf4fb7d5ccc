//! Serving clients through the front door.
//!
//! A FlashCoop pair (two nodes over an in-memory peer link, write
//! replication on) put behind an `fc-gateway`, then four concurrent TCP
//! clients push financial-workload traffic at it — one of them hammering
//! hard enough to trip admission control. Ends with the gateway's view:
//! per-client attribution from the node, shed counts, batching effect,
//! and the client-observed latency distribution.
//!
//! ```text
//! cargo run --release --example gateway_demo
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use fc_cluster::{mem_pair, shared_backend, MemBackend, Node, NodeConfig};
use fc_gateway::{AdmissionConfig, ClientError, Gateway, GatewayClient, GatewayConfig};
use fc_obs::Histogram;
use fc_trace::{Op, SyntheticSpec};

fn main() {
    println!("— FlashCoop pair behind an fc-gateway —");

    // The pair: node 0 serves clients, node 1 is its cooperative peer
    // (remote buffer + replication target, and the gateway's failover
    // target).
    let (ta, tb) = mem_pair();
    let backend = shared_backend(MemBackend::default());
    let node_a = Arc::new(Node::spawn(
        NodeConfig::test_profile(0),
        ta,
        backend.clone(),
    ));
    let node_b = Arc::new(Node::spawn(NodeConfig::test_profile(1), tb, backend));

    // Admission: generous rate per client, but client 4 will exceed it.
    let gw = Gateway::new(
        GatewayConfig {
            admission: AdmissionConfig {
                per_client_rate: 0.0,    // no refill within this short demo…
                per_client_burst: 400.0, // …each client gets a 400-request budget
                max_inflight: 64,
            },
            ..GatewayConfig::default()
        },
        node_a,
        node_b,
    );
    let addr = gw.listen_tcp("127.0.0.1:0").expect("listen");
    println!("  gateway listening on {addr} (4 TCP clients incoming)");

    let latency = Histogram::new();
    let window: u64 = 1 << 12;
    let mut handles = Vec::new();
    for c in 1..=4u64 {
        let latency = latency.clone();
        handles.push(std::thread::spawn(move || {
            let mut client = GatewayClient::connect_tcp(addr, c).expect("connect");
            client.hello().expect("hello");
            // Clients 1–3 stay inside their budget; client 4 offers 2×.
            let requests = if c == 4 { 800 } else { 300 };
            let trace = SyntheticSpec::fin1(window)
                .with_requests(requests)
                .generate(100 + c);
            let base = c * window;
            let (mut acked, mut shed) = (0u64, 0u64);
            for (seq, req) in trace.requests.iter().enumerate() {
                let started = Instant::now();
                let outcome = match req.op {
                    Op::Write => {
                        let data = Bytes::from(vec![(seq % 251) as u8; 256]);
                        client.write(base + req.lpn, vec![data]).map(|_| ())
                    }
                    Op::Read => client.read(base + req.lpn, 1).map(|_| ()),
                    Op::Trim => client.trim(base + req.lpn, 1).map(|_| ()),
                };
                match outcome {
                    Ok(()) => {
                        acked += 1;
                        latency.record(started.elapsed().as_nanos() as u64);
                    }
                    Err(ClientError::Busy) => shed += 1,
                    Err(e) => panic!("client {c}: {e}"),
                }
            }
            client.flush().ok();
            (c, acked, shed)
        }));
    }

    println!("\n  client   offered   acked    shed");
    for h in handles {
        let (c, acked, shed) = h.join().expect("client thread");
        println!("  {c:>6}   {:>7}   {acked:>5}   {shed:>5}", acked + shed);
    }

    let stats = gw.stats();
    println!("\n  gateway view:");
    println!(
        "    requests {}  admitted {}  shed {} ({:.1}%)",
        stats.requests,
        stats.admitted,
        stats.shed_total,
        100.0 * stats.shed_rate()
    );
    println!(
        "    writes {} in {} batches → {} runs ({} pages coalesced away)",
        stats.writes, stats.batches, stats.runs, stats.coalesced_pages
    );
    println!(
        "    max in-flight {} (cap 64), read pages found {:.1}%",
        stats.max_inflight_seen,
        if stats.read_pages > 0 {
            100.0 * stats.read_found as f64 / stats.read_pages as f64
        } else {
            0.0
        }
    );

    let us = |ns: u64| ns as f64 / 1_000.0;
    println!(
        "    latency p50 {:.1} µs  p99 {:.1} µs  p999 {:.1} µs",
        us(latency.p50()),
        us(latency.p99()),
        us(latency.p999())
    );

    println!("\n  per-client attribution at the node:");
    println!("    client   writes   pages   write-through   reads   hits   trims");
    for (c, row) in gw.shard_nodes()[0].client_stats() {
        println!(
            "    {c:>6}   {:>6}   {:>5}   {:>13}   {:>5}   {:>4}   {:>5}",
            row.writes, row.pages_written, row.write_through, row.reads, row.read_hits, row.trims
        );
    }

    // Sanity: an acked write survives a flush barrier and reads back.
    let mut probe = GatewayClient::connect_tcp(addr, 99).expect("connect probe");
    probe.hello().expect("hello");
    probe.set_timeout(Duration::from_secs(5));
    let payload = Bytes::from_static(b"front-door durability probe");
    // Fresh client: its burst budget is untouched, so these are admitted.
    probe.write(7, vec![payload.clone()]).expect("probe write");
    probe.flush().expect("probe flush");
    let got = probe.read(7, 1).expect("probe read");
    assert_eq!(got[0].as_ref(), Some(&payload));
    drop(probe);

    gw.shutdown();
    println!("\ngateway demo complete");
}
