//! Session-level behaviour of the gateway over in-memory links: handshake
//! versioning, request validation, batching/coalescing accounting, and
//! admission shedding — everything short of the full-cluster e2e (which
//! lives in the workspace-root `tests/gateway_e2e.rs`).

use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use fc_cluster::{mem_pair, shared_backend, MemBackend, Node, NodeConfig, PEER_NS};
use fc_gateway::{
    AdmissionConfig, ClientError, ErrorCode, Gateway, GatewayConfig, Reply, Request, ShardStatsSum,
};

fn pair() -> (Arc<Node>, Arc<Node>) {
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

fn page(tag: u8) -> Bytes {
    Bytes::from(vec![tag; 64])
}

/// Shut `gw` down once the counter-sum identity holds on its final stats.
fn shutdown(gw: Arc<Gateway>) {
    let (stats, shards) = gw.stats_with_shards();
    if let Err((name, sum, total)) = ShardStatsSum::of(&shards).matches(&stats) {
        panic!("{name}: shards sum to {sum}, gateway counts {total}");
    }
    gw.shutdown();
}

#[test]
fn hello_rejects_wrong_version() {
    let (a, b) = pair();
    let gw = Gateway::new(GatewayConfig::test_profile(), a, b);
    // The gateway serves exactly `PROTO_VERSION`: older and newer clients
    // alike are refused before any I/O.
    for version in [1, fc_gateway::PROTO_VERSION + 1] {
        let (client_half, server_half) = fc_gateway::mem_session();
        gw.serve(server_half);
        client_half
            .send(Request::Hello { version, client: 1 })
            .unwrap();
        let reply = client_half
            .recv_timeout(Duration::from_secs(2))
            .unwrap()
            .unwrap();
        assert_eq!(
            reply,
            Reply::Error {
                id: 0,
                code: ErrorCode::BadVersion
            },
            "version {version}"
        );
    }
    shutdown(gw);
}

#[test]
fn io_before_hello_is_bad_request() {
    let (a, b) = pair();
    let gw = Gateway::new(GatewayConfig::test_profile(), a, b);
    let (client_half, server_half) = fc_gateway::mem_session();
    gw.serve(server_half);

    client_half.send(Request::Flush { id: 9 }).unwrap();
    let reply = client_half
        .recv_timeout(Duration::from_secs(2))
        .unwrap()
        .unwrap();
    assert_eq!(
        reply,
        Reply::Error {
            id: 9,
            code: ErrorCode::BadRequest
        }
    );
    // The session survives: a proper Hello still works.
    client_half
        .send(Request::Hello {
            version: fc_gateway::PROTO_VERSION,
            client: 1,
        })
        .unwrap();
    let reply = client_half
        .recv_timeout(Duration::from_secs(2))
        .unwrap()
        .unwrap();
    assert!(matches!(reply, Reply::HelloOk { .. }));
    shutdown(gw);
}

#[test]
fn zero_page_and_oversized_requests_are_refused() {
    let (a, b) = pair();
    let mut cfg = GatewayConfig::test_profile();
    cfg.max_req_pages = 4;
    let gw = Gateway::new(cfg, a, b);
    let mut c = gw.connect_mem();
    c.hello().unwrap();

    assert_eq!(
        c.write(0, Vec::new()).unwrap_err(),
        ClientError::Rejected(ErrorCode::BadRequest),
        "empty write"
    );
    assert_eq!(
        c.read(0, 0).unwrap_err(),
        ClientError::Rejected(ErrorCode::BadRequest),
        "zero-page read"
    );
    assert_eq!(
        c.read(0, 5).unwrap_err(),
        ClientError::Rejected(ErrorCode::BadRequest),
        "read past max_req_pages"
    );
    assert_eq!(
        c.write(0, (0..5).map(|i| page(i as u8)).collect())
            .unwrap_err(),
        ClientError::Rejected(ErrorCode::BadRequest),
        "write past max_req_pages"
    );
    // A span that wraps past u64::MAX, or reaches into the nodes' peer
    // namespace (bit 63), is refused by every op that names a span.
    let two = || vec![page(7), page(8)];
    for (lpn, why) in [
        (u64::MAX, "wraps"),
        (PEER_NS, "starts in the peer namespace"),
        (PEER_NS - 1, "ends in the peer namespace"),
    ] {
        let refused = Err(ClientError::Rejected(ErrorCode::BadRequest));
        assert_eq!(c.write(lpn, two()).map(|_| ()), refused, "write {why}");
        assert_eq!(c.read(lpn, 2).map(|_| ()), refused, "read {why}");
        assert_eq!(c.trim(lpn, 2).map(|_| ()), refused, "trim {why}");
    }
    // The last span below the namespace is an ordinary one.
    assert_eq!(c.write(PEER_NS - 2, two()).unwrap().pages, 2);
    assert_eq!(c.read(PEER_NS - 2, 2).unwrap()[1], Some(page(8)));
    assert_eq!(c.trim(PEER_NS - 2, 2).unwrap(), 2);
    assert_eq!(gw.stats().bad_requests, 4 + 9);
    // Valid traffic still flows on the same session.
    assert_eq!(c.write(0, vec![page(1)]).unwrap().pages, 1);
    shutdown(gw);
}

#[test]
fn pipelined_writes_are_batched_and_coalesced() {
    let (a, b) = pair();
    let gw = Gateway::new(GatewayConfig::test_profile(), a, b);

    // Queue the handshake and four pipelined writes *before* serving the
    // session, so the batch window deterministically finds them all: two
    // adjacent pages, one overwrite of the first, one distant page.
    let (client_half, server_half) = fc_gateway::mem_session();
    client_half
        .send(Request::Hello {
            version: fc_gateway::PROTO_VERSION,
            client: 1,
        })
        .unwrap();
    let writes: [(u64, u64, u8); 4] = [(1, 0, 0xA), (2, 1, 0xB), (3, 0, 0xC), (4, 100, 0xD)];
    for (id, lpn, tag) in writes {
        client_half
            .send(Request::Write {
                id,
                lpn,
                pages: vec![page(tag)],
            })
            .unwrap();
    }
    gw.serve(server_half);

    let hello = client_half
        .recv_timeout(Duration::from_secs(5))
        .unwrap()
        .unwrap();
    assert!(matches!(hello, Reply::HelloOk { .. }));
    for (id, _, _) in writes {
        let reply = client_half
            .recv_timeout(Duration::from_secs(5))
            .unwrap()
            .unwrap();
        assert_eq!(reply.id(), id, "replies arrive in issue order");
        assert!(matches!(reply, Reply::WriteOk { .. }));
    }

    // Last-writer-wins inside the batch: page 0 holds the later payload.
    assert_eq!(gw.shard_nodes()[0].read(0).unwrap()[0], 0xC);
    assert_eq!(gw.shard_nodes()[0].read(1).unwrap()[0], 0xB);
    assert_eq!(gw.shard_nodes()[0].read(100).unwrap()[0], 0xD);

    let stats = gw.stats();
    assert_eq!(stats.writes, 4);
    assert_eq!(stats.write_pages, 4);
    assert_eq!(stats.batches, 1, "all four writes shared one batch window");
    assert_eq!(stats.coalesced_pages, 1, "the overwrite merged away");
    assert_eq!(
        stats.runs, 2,
        "pages 0-1 form one run, page 100 another (block-aligned)"
    );
    shutdown(gw);
}

#[test]
fn overlapping_pipelined_writes_count_every_page_in_the_run_that_absorbed_it() {
    let (a, b) = pair();
    let gw = Gateway::new(GatewayConfig::test_profile(), a, b);
    let (client_half, server_half) = fc_gateway::mem_session();
    client_half
        .send(Request::Hello {
            version: fc_gateway::PROTO_VERSION,
            client: 1,
        })
        .unwrap();
    // Three pipelined writes over 4-page blocks: 0..3, then 2..6 over it,
    // then page 1 again — 8 pages in, pages 0..6 out, as the runs 0..4
    // (6 pages in) and 4..6 (2 pages in).
    let writes: [(u64, u64, &[u8]); 3] = [
        (1, 0, &[0xA0, 0xA1, 0xA2]),
        (2, 2, &[0xB2, 0xB3, 0xB4, 0xB5]),
        (3, 1, &[0xC1]),
    ];
    for (id, lpn, tags) in writes {
        let pages = tags.iter().map(|&t| page(t)).collect();
        client_half.send(Request::Write { id, lpn, pages }).unwrap();
    }
    gw.serve(server_half);
    for id in 0..=3 {
        let reply = client_half
            .recv_timeout(Duration::from_secs(5))
            .unwrap()
            .unwrap();
        assert_eq!(reply.id(), id, "replies arrive in issue order");
    }
    let node = &gw.shard_nodes()[0];
    for (lpn, tag) in (0..6u64).zip([0xA0, 0xC1, 0xB2, 0xB3, 0xB4, 0xB5]) {
        assert_eq!(node.read(lpn).unwrap()[0], tag, "lpn {lpn}");
    }
    let stats = gw.stats();
    assert_eq!((stats.writes, stats.batches), (3, 1));
    assert_eq!(
        (stats.write_pages, stats.coalesced_pages, stats.runs),
        (8, 2, 2)
    );
    let row = node.client_stats()[0].1;
    assert_eq!((row.writes, row.pages_written), (2, 6));
    shutdown(gw);
}

#[test]
fn rate_limited_client_gets_busy_and_recovers_nothing_else_lost() {
    let (a, b) = pair();
    let mut cfg = GatewayConfig::test_profile();
    cfg.admission = AdmissionConfig {
        per_client_rate: 0.0, // no refill: exactly `burst` requests succeed
        per_client_burst: 3.0,
        max_inflight: u32::MAX,
    };
    let gw = Gateway::new(cfg, a, b);
    let mut c = gw.connect_mem();
    c.hello().unwrap();

    let mut acked = 0;
    let mut shed = 0;
    for i in 0..10u64 {
        match c.write(i, vec![page(i as u8)]) {
            Ok(_) => acked += 1,
            Err(ClientError::Busy) => shed += 1,
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert_eq!(acked, 3, "exactly the burst is admitted");
    assert_eq!(shed, 7);

    let stats = gw.stats();
    assert_eq!(stats.shed_total, 7);
    assert_eq!(stats.shed_rate_limited, 7);
    assert_eq!(stats.shed_queue_full, 0);
    assert!((stats.shed_rate() - 0.7).abs() < 1e-9);

    // Every acknowledged write is readable; shed writes left no trace.
    let mut present = 0;
    for i in 0..10u64 {
        // Reads are also admission-gated here (bucket empty) — go straight
        // to the node to check state.
        if gw.shard_nodes()[0].read(i).is_some() {
            present += 1;
        }
    }
    assert_eq!(present, acked);
    shutdown(gw);
}

#[test]
fn trim_and_flush_round_trip() {
    let (a, b) = pair();
    let gw = Gateway::new(GatewayConfig::test_profile(), a, b);
    let mut c = gw.connect_mem();
    c.hello().unwrap();

    c.write(10, vec![page(1), page(2)]).unwrap();
    let flushed = c.flush().unwrap();
    assert!(flushed > 0, "dirty pages were destaged");
    assert_eq!(c.trim(10, 1).unwrap(), 1);
    let got = c.read(10, 2).unwrap();
    assert!(got[0].is_none(), "trimmed page is gone");
    assert_eq!(got[1].as_ref().unwrap()[0], 2);

    let stats = gw.stats();
    assert_eq!(stats.trims, 1);
    assert_eq!(stats.flushes, 1);
    shutdown(gw);
}

#[test]
fn per_client_node_stats_attribute_gateway_traffic() {
    let (a, b) = pair();
    let gw = Gateway::new(GatewayConfig::test_profile(), a, b);
    let mut c1 = gw.connect_mem_as(101);
    let mut c2 = gw.connect_mem_as(202);
    c1.hello().unwrap();
    c2.hello().unwrap();

    c1.write(0, vec![page(1)]).unwrap();
    c1.write(1, vec![page(2)]).unwrap();
    c2.write(50, vec![page(3)]).unwrap();
    c1.read(0, 1).unwrap();

    let rows = gw.shard_nodes()[0].client_stats();
    let row = |id: u64| rows.iter().find(|(c, _)| *c == id).unwrap().1;
    let r1 = row(101);
    assert_eq!(r1.pages_written, 2);
    assert_eq!(r1.reads, 1);
    let r2 = row(202);
    assert_eq!(r2.pages_written, 1);
    assert_eq!(r2.reads, 0);
    shutdown(gw);
}

#[test]
fn dead_pair_answers_unavailable_within_the_retry_deadline() {
    let (a, b) = pair();
    let cfg = GatewayConfig::test_profile();
    let deadline = cfg.retry_deadline;
    let gw = Gateway::new(cfg, a.clone(), b.clone());
    let mut c = gw.connect_mem();
    c.hello().unwrap();
    c.write(0, vec![page(1)]).unwrap();

    // Both nodes of the pair halted: the write must come back as a typed
    // refusal, not land in a dead node.
    a.fail();
    b.fail();
    let started = std::time::Instant::now();
    let err = c.write(1, vec![page(2)]).unwrap_err();
    let elapsed = started.elapsed();
    assert!(
        matches!(err, ClientError::Unavailable { .. }),
        "expected Unavailable, got {err}"
    );
    assert!(
        elapsed < deadline + Duration::from_millis(500),
        "refusal took {elapsed:?}, retry deadline is {deadline:?}"
    );
    let stats = gw.stats();
    assert!(stats.unavailable >= 1);
    assert_eq!(
        stats.failovers, 1,
        "the primary's first NodeDown flips once"
    );
    assert_eq!(gw.shard_stats().len(), 1, "one pair is one shard row");
    shutdown(gw);
}

// An in-memory session has no thread: the client's wait for a reply runs
// the session's step, which serves every request already queued.

#[test]
fn pipelined_writes_share_one_batch_window_when_the_client_waits() {
    let (a, b) = pair();
    let gw = Gateway::new(GatewayConfig::test_profile(), a, b);
    let mut c = gw.connect_mem();
    c.hello().unwrap();
    let before = gw.stats().batches;

    // Spaced out: nothing serves a write until the client waits, however
    // long it has been queued.
    let ids: Vec<u64> = (0..8u64)
        .map(|i| {
            std::thread::sleep(Duration::from_millis(2));
            c.send_write(10 * i, vec![page(i as u8)]).unwrap()
        })
        .collect();
    for id in ids {
        let reply = c.recv_reply(Duration::from_secs(5)).unwrap();
        assert_eq!(reply.id(), id, "replies arrive in send order");
        assert!(
            matches!(reply, Reply::WriteOk { pages: 1, .. }),
            "{reply:?}"
        );
    }
    assert_eq!(
        gw.stats().batches,
        before + 1,
        "the first wait served all eight writes as one batch"
    );
    shutdown(gw);
}

#[test]
fn a_write_never_awaited_is_applied_when_its_client_drops() {
    let (a, b) = pair();
    let gw = Gateway::new(GatewayConfig::test_profile(), a, b);
    let mut c1 = gw.connect_mem();
    c1.hello().unwrap();
    c1.send_write(5, vec![page(0x5A)]).unwrap();
    drop(c1); // runs the step one last time

    let mut c2 = gw.connect_mem();
    c2.hello().unwrap();
    assert_eq!(c2.read(5, 1).unwrap(), vec![Some(page(0x5A))]);
    shutdown(gw);
}

#[test]
fn a_client_calling_after_shutdown_is_disconnected_at_once() {
    let (a, b) = pair();
    let gw = Gateway::new(GatewayConfig::test_profile(), a, b);
    let mut c = gw.connect_mem();
    c.set_timeout(Duration::from_secs(10));
    c.hello().unwrap();
    c.write(0, vec![page(1)]).unwrap();
    shutdown(gw);

    let started = std::time::Instant::now();
    assert_eq!(
        c.write(1, vec![page(2)]).unwrap_err(),
        ClientError::Disconnected
    );
    assert_eq!(c.read(0, 1).unwrap_err(), ClientError::Disconnected);
    let waited = started.elapsed();
    assert!(waited < Duration::from_secs(1), "waited {waited:?}");
}
