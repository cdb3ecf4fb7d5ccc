//! End-to-end gateway tests across the whole stack: real TCP clients →
//! fc-gateway sessions → fc-cluster pair (replication over an in-memory
//! peer link) → shared backend.
//!
//! Three contracts from the issue:
//!
//! 1. **Integrity** — with ≥8 concurrent TCP clients, every acknowledged
//!    write is readable back through the gateway with a byte-identical
//!    payload.
//! 2. **Determinism** — the in-memory loadgen variant produces identical
//!    final state (and identical tallies) for two runs with the same seed.
//! 3. **Saturation** — offered load past the queue-depth cap is shed with
//!    explicit `Busy` replies while in-flight stays bounded, all asserted
//!    via the `gateway.*` fc-obs counters; the loadgen's own shed tally
//!    matches the gateway counter exactly.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use fc_bench::loadgen::{self, payload, LoadgenSpec, Mode, TransportKind};
use fc_cluster::{mem_pair, shared_backend, MemBackend, Node, NodeConfig};
use fc_gateway::{AdmissionConfig, Gateway, GatewayClient, GatewayConfig};
use fc_obs::Obs;

fn spawn_pair() -> (Arc<Node>, Arc<Node>) {
    let (ta, tb) = mem_pair();
    let backend = shared_backend(MemBackend::default());
    let a = Arc::new(Node::spawn(
        NodeConfig::test_profile(0),
        ta,
        backend.clone(),
    ));
    let b = Arc::new(Node::spawn(NodeConfig::test_profile(1), tb, backend));
    (a, b)
}

/// Contract 1: eight concurrent TCP clients; every acked write reads back
/// byte-identical through the same front door.
#[test]
fn eight_tcp_clients_every_acked_write_is_readable() {
    const CLIENTS: u64 = 8;
    const WRITES_PER_CLIENT: u64 = 120;
    const WINDOW: u64 = 1 << 12;
    const PAGE_BYTES: usize = 256;

    let (node_a, node_b) = spawn_pair();
    let gw = Gateway::new(GatewayConfig::test_profile(), node_a, node_b);
    let addr = gw.listen_tcp("127.0.0.1:0").expect("listen");

    let mut handles = Vec::new();
    for c in 1..=CLIENTS {
        handles.push(std::thread::spawn(move || {
            let mut client = GatewayClient::connect_tcp(addr, c).expect("connect");
            client.hello().expect("hello");
            let base = c * WINDOW;
            // Mixed sizes: 1–3 pages per write, unique lpns per client so
            // every ack maps to exactly one expected payload.
            let mut acked: Vec<(u64, Bytes)> = Vec::new();
            let mut lpn = base;
            for seq in 0..WRITES_PER_CLIENT {
                let pages = 1 + (seq % 3);
                let payloads: Vec<Bytes> = (0..pages)
                    .map(|i| payload(c, lpn + i, seq, PAGE_BYTES))
                    .collect();
                let ack = client.write(lpn, payloads.clone()).expect("write acked");
                assert_eq!(u64::from(ack.pages), pages);
                for (i, p) in payloads.into_iter().enumerate() {
                    acked.push((lpn + i as u64, p));
                }
                lpn += pages;
                if seq == WRITES_PER_CLIENT / 2 {
                    client.flush().expect("flush barrier");
                }
            }
            // Read everything back through the same gateway session.
            for (lpn, want) in &acked {
                let got = client.read(*lpn, 1).expect("read acked page");
                let data = got[0]
                    .as_ref()
                    .unwrap_or_else(|| panic!("client {c}: acked write at lpn {lpn} unreadable"));
                assert_eq!(data, want, "client {c}: payload mismatch at lpn {lpn}");
            }
            acked.len() as u64
        }));
    }

    let mut total_pages = 0;
    for h in handles {
        total_pages += h.join().expect("client thread");
    }
    let stats = gw.stats();
    assert_eq!(stats.sessions_started, CLIENTS);
    assert_eq!(stats.shed_total, 0, "unlimited admission sheds nothing");
    assert_eq!(stats.writes, CLIENTS * WRITES_PER_CLIENT);
    assert_eq!(stats.write_pages, total_pages);
    assert_eq!(stats.flushes, CLIENTS);
    assert!(stats.batches >= 1 && stats.batches <= stats.writes);
    gw.shutdown();
}

/// Contract 2: the in-memory variant is deterministic — two loadgen runs
/// with the same seed end in byte-identical node state and equal tallies.
#[test]
fn mem_loadgen_is_deterministic_under_fixed_seed() {
    let spec = LoadgenSpec {
        clients: 4,
        requests: 150,
        seed: 42,
        mode: Mode::Closed,
        transport: TransportKind::Mem,
        admission: AdmissionConfig::unlimited(),
        pages_per_client: 1 << 10,
        ..LoadgenSpec::default()
    };
    let r1 = loadgen::run(&spec).expect("run 1");
    let r2 = loadgen::run(&spec).expect("run 2");

    assert_eq!(r1.errors, 0);
    assert_eq!(r2.errors, 0);
    assert_eq!(r1.issued, r2.issued);
    assert_eq!(r1.acked, r2.acked, "no shedding ⇒ identical ack sets");
    assert_eq!((r1.shed, r2.shed), (0, 0));
    assert_eq!(
        r1.state_digest, r2.state_digest,
        "same seed ⇒ byte-identical final state"
    );
    assert_eq!(r1.gateway.write_pages, r2.gateway.write_pages);
    assert_eq!(r1.gateway.trims, r2.gateway.trims);

    // A different seed must disturb the digest (the digest is not a
    // constant function).
    let r3 = loadgen::run(&LoadgenSpec { seed: 43, ..spec }).expect("run 3");
    assert_ne!(r1.state_digest, r3.state_digest);
}

/// Contract 3a: flooding past the queue-depth cap sheds with `Busy`, keeps
/// in-flight bounded, and the `gateway.*` registry counters tell the same
/// story as the client-side tallies.
#[test]
fn saturation_sheds_busy_and_bounds_inflight() {
    const CAP: u32 = 3;
    const CLIENTS: u64 = 8;
    const WRITES_PER_CLIENT: u64 = 60;

    let (node_a, node_b) = spawn_pair();
    let cfg = GatewayConfig {
        admission: AdmissionConfig {
            per_client_rate: f64::INFINITY,
            per_client_burst: f64::INFINITY,
            max_inflight: CAP,
        },
        ..GatewayConfig::default()
    };
    let gw = Gateway::new(cfg, node_a, node_b);
    let obs = Obs::null();
    gw.attach_obs(&obs);

    let mut handles = Vec::new();
    for c in 1..=CLIENTS {
        let mut client = gw.connect_mem_as(c);
        handles.push(std::thread::spawn(move || {
            client.hello().expect("hello");
            // Pipeline everything before collecting a single reply: the
            // offered load vastly exceeds CAP concurrent requests.
            let mut ids = Vec::new();
            for seq in 0..WRITES_PER_CLIENT {
                let lpn = c * 1_000 + seq;
                let id = client
                    .send_write(lpn, vec![payload(c, lpn, seq, 128)])
                    .expect("send");
                ids.push((id, lpn, seq));
            }
            let mut acked: Vec<u64> = Vec::new();
            let mut shed = 0u64;
            for (id, lpn, _seq) in ids {
                let reply = client
                    .recv_reply(Duration::from_secs(10))
                    .expect("reply before timeout");
                assert_eq!(reply.id(), id, "per-session replies stay in order");
                match reply {
                    fc_gateway::Reply::WriteOk { .. } => acked.push(lpn),
                    fc_gateway::Reply::Error { code, .. } => {
                        assert_eq!(code, fc_gateway::ErrorCode::Busy);
                        shed += 1;
                    }
                    other => panic!("unexpected reply {other:?}"),
                }
            }
            (acked, shed)
        }));
    }

    let mut client_shed = 0u64;
    let mut acked_lpns: Vec<(u64, u64)> = Vec::new(); // (client, lpn)
    for (idx, h) in handles.into_iter().enumerate() {
        let (acked, shed) = h.join().expect("client thread");
        client_shed += shed;
        for lpn in acked {
            acked_lpns.push((idx as u64 + 1, lpn));
        }
    }

    // The final permit is released just *after* the last reply is sent —
    // give the session threads a moment to drain.
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    while gw.stats().inflight != 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let stats = gw.stats();
    let snap = obs.registry().snapshot();

    // The cap actually bit: offered load (8 clients × pipelined writes)
    // exceeded CAP concurrent requests, so something was shed…
    assert!(client_shed > 0, "saturation must shed");
    // …with in-flight bounded the whole time.
    assert!(
        stats.max_inflight_seen <= CAP,
        "max in-flight {} exceeded cap {CAP}",
        stats.max_inflight_seen
    );
    assert_eq!(stats.inflight, 0, "everything drained");

    // Client-observed sheds match the fc-obs counters exactly.
    assert_eq!(snap.counter("gateway.shed_total"), Some(client_shed));
    assert_eq!(snap.counter("gateway.shed_queue_full"), Some(client_shed));
    assert_eq!(snap.counter("gateway.shed_rate_limited"), Some(0));
    assert_eq!(
        snap.counter("gateway.requests"),
        Some(CLIENTS * WRITES_PER_CLIENT)
    );
    assert_eq!(
        snap.counter("gateway.admitted"),
        Some(CLIENTS * WRITES_PER_CLIENT - client_shed)
    );
    assert_eq!(stats.shed_total, client_shed);

    // Every acked write under saturation is still durable and intact.
    let mut by_lpn: HashMap<u64, u64> = HashMap::new();
    for (c, lpn) in &acked_lpns {
        by_lpn.insert(*lpn, *c);
    }
    for (lpn, c) in by_lpn {
        let seq = lpn - c * 1_000;
        let got = gw.shard_nodes()[0].read(lpn).expect("acked write readable");
        assert_eq!(Bytes::from(got), payload(c, lpn, seq, 128));
    }
    gw.shutdown();
}

/// Contract 3b: the loadgen's reported shed count matches the gateway
/// counter exactly when the queue-depth cap is the bottleneck.
#[test]
fn loadgen_shed_rate_matches_gateway_counter_under_saturation() {
    let spec = LoadgenSpec {
        clients: 6,
        requests: 80,
        mode: Mode::Open,
        transport: TransportKind::Mem,
        rate_factor: 1e9, // fire the whole schedule immediately
        admission: AdmissionConfig {
            per_client_rate: f64::INFINITY,
            per_client_burst: f64::INFINITY,
            max_inflight: 2,
        },
        pages_per_client: 1 << 10,
        ..LoadgenSpec::default()
    };
    let report = loadgen::run(&spec).expect("run");
    assert_eq!(report.errors, 0);
    assert_eq!(report.issued, 480);
    assert_eq!(report.acked + report.shed, report.issued);
    assert_eq!(
        report.shed, report.gateway.shed_total,
        "loadgen shed tally and gateway.shed_total agree exactly"
    );
    assert_eq!(report.gateway.shed_rate_limited, 0);
    assert_eq!(report.gateway.shed_queue_full, report.shed);
    assert!(report.gateway.max_inflight_seen <= 2, "in-flight bounded");
    let reported_rate = report.shed_rate();
    let counter_rate = report.gateway.shed_total as f64 / report.issued as f64;
    assert!((reported_rate - counter_rate).abs() < f64::EPSILON);
}

/// `attach_obs` publishes the cells the gateway has been counting into
/// since it was built: requests served *before* the attach are in the
/// registry's `gateway.latency_ns` histogram and per-shard counters, and
/// requests served after it land in the same cells.
#[test]
fn attach_obs_after_traffic_keeps_earlier_samples() {
    let (node_a, node_b) = spawn_pair();
    let gw = Gateway::new(GatewayConfig::test_profile(), node_a, node_b);
    let mut client = gw.connect_mem();
    client.hello().expect("hello");
    for lpn in 0..10u64 {
        client
            .write(lpn, vec![payload(1, lpn, 0, 64)])
            .expect("write");
    }

    let obs = Obs::null();
    gw.attach_obs(&obs);
    let latency_count = |snap: &fc_obs::Snapshot| match snap.get("gateway.latency_ns") {
        Some(fc_obs::MetricValue::Histogram(h)) => h.count,
        other => panic!("gateway.latency_ns missing: {other:?}"),
    };
    let snap = obs.registry().snapshot();
    assert_eq!(latency_count(&snap), 10, "pre-attach samples published");
    assert_eq!(snap.counter("gateway.writes"), Some(10));
    assert_eq!(snap.counter("gateway.shard.0.write_pages"), Some(10));

    for lpn in 10..15u64 {
        client
            .write(lpn, vec![payload(1, lpn, 0, 64)])
            .expect("write");
    }
    let snap = obs.registry().snapshot();
    assert_eq!(latency_count(&snap), 15);
    assert_eq!(snap.counter("gateway.shard.0.write_pages"), Some(15));
    assert_eq!(gw.stats().write_pages, 15);
    gw.shutdown();
}

/// A request that straddles a block boundary is two runs — blocks stay the
/// destage unit — but one group: one shard op, one replication frame, one
/// round trip to the peer.
#[test]
fn write_straddling_a_block_boundary_is_two_runs_and_one_replication_frame() {
    let node_cfg = |id| NodeConfig {
        pages_per_block: 32,
        buffer_pages: 256,
        repl_batch_pages: 32,
        ..NodeConfig::test_profile(id)
    };
    let (ta, tb) = mem_pair();
    let backend = shared_backend(MemBackend::default());
    let node_a = Arc::new(Node::spawn(node_cfg(0), ta, backend.clone()));
    let node_b = Arc::new(Node::spawn(node_cfg(1), tb, backend));
    let cfg = GatewayConfig {
        pages_per_block: 32,
        ..GatewayConfig::test_profile()
    };
    let gw = Gateway::new(cfg, node_a.clone(), node_b);
    let mut client = gw.connect_mem();
    client.hello().expect("hello");

    // Pages 12..44: twenty in block 0, twelve in block 1.
    let payloads: Vec<Bytes> = (12..44).map(|lpn| payload(1, lpn, 0, 64)).collect();
    let ack = client.write(12, payloads.clone()).expect("write acked");
    assert_eq!((ack.pages, ack.replicated), (32, true));

    let shard = &gw.shard_stats()[0];
    assert_eq!((shard.runs, shard.ops, shard.write_pages), (2, 1, 32));
    let repl = node_a.stats().repl;
    assert_eq!((repl.batches_sent, repl.batch_pages), (1, 32));
    let got = client.read(12, 32).expect("read back");
    assert_eq!(got, payloads.into_iter().map(Some).collect::<Vec<_>>());
    gw.shutdown();
}
