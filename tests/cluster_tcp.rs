//! End-to-end tests of the real (threaded) cooperative pair over TCP.
//!
//! These exercise the full stack: wire codec → TCP transport → node pump →
//! buffer manager → backend, including the Section III.D recovery handshake
//! with actual page data.

use bytes::Bytes;
use fc_cluster::{
    shared_backend, FaultPlan, FaultTransport, MemBackend, Node, NodeConfig, PairState,
    TcpTransport, WriteOutcome,
};
use std::net::TcpListener;
use std::time::{Duration, Instant};

fn tcp_pair() -> (TcpTransport, TcpTransport) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let join = std::thread::spawn(move || TcpTransport::connect(addr).unwrap());
    let server = TcpTransport::accept(&listener).unwrap();
    (join.join().unwrap(), server)
}

#[test]
fn replicated_writes_and_reads_over_tcp() {
    let (ta, tb) = tcp_pair();
    let ba = shared_backend(MemBackend::new());
    let a = Node::spawn(NodeConfig::test_profile(0), ta, ba);
    let b = Node::spawn(
        NodeConfig::test_profile(1),
        tb,
        shared_backend(MemBackend::new()),
    );

    for i in 0..32u64 {
        assert_eq!(
            a.write(i, format!("payload-{i}").as_bytes()),
            WriteOutcome::Replicated
        );
    }
    for i in 0..32u64 {
        assert_eq!(a.read(i), Some(format!("payload-{i}").into_bytes()));
    }
    // Replicas visible at the peer.
    let mut hosted = 0;
    for _ in 0..100 {
        hosted = b.hosted_remote_pages().len();
        if hosted >= 32 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(hosted >= 30, "peer hosts only {hosted} replicas");
    a.shutdown();
    b.shutdown();
}

#[test]
fn full_crash_recovery_cycle_over_tcp() {
    let (ta, tb) = tcp_pair();
    let backend_a = shared_backend(MemBackend::new());
    let a = Node::spawn(NodeConfig::test_profile(0), ta, backend_a.clone());
    let b = Node::spawn(
        NodeConfig::test_profile(1),
        tb,
        shared_backend(MemBackend::new()),
    );

    for i in 0..16u64 {
        assert_eq!(
            a.write(i, format!("v1-{i}").as_bytes()),
            WriteOutcome::Replicated
        );
    }
    // Crash A: buffer contents exist only in B's remote buffer now.
    a.crash();
    assert_eq!(backend_a.lock().pages(), 0);

    // Reboot on a fresh connection; B re-homes its hosted pages.
    let (ta2, tb2) = tcp_pair();
    let hosted = b.export_remote();
    assert_eq!(hosted.len(), 16);
    b.shutdown();
    let b2 = Node::spawn(
        NodeConfig::test_profile(1),
        tb2,
        shared_backend(MemBackend::new()),
    );
    assert_eq!(b2.import_remote(hosted), 16);
    let a2 = Node::spawn(NodeConfig::test_profile(0), ta2, backend_a.clone());

    let n = a2
        .recover_from_peer(Duration::from_secs(3))
        .expect("recovery");
    assert_eq!(n, 16);
    // Every page is durable on A's backend with the right contents.
    {
        let be = backend_a.lock();
        for i in 0..16u64 {
            let (_, data) = be.read_page(i).expect("recovered page");
            assert_eq!(data, format!("v1-{i}").into_bytes());
        }
    }
    // B purged after the handshake.
    let mut purged = false;
    for _ in 0..100 {
        if b2.hosted_remote_pages().is_empty() {
            purged = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(purged, "peer failed to purge after recovery");
    a2.shutdown();
    b2.shutdown();
}

#[test]
fn peer_death_degrades_writer_but_keeps_durability() {
    let (ta, tb) = tcp_pair();
    let backend_a = shared_backend(MemBackend::new());
    let a = Node::spawn(NodeConfig::test_profile(0), ta, backend_a.clone());
    let b = Node::spawn(
        NodeConfig::test_profile(1),
        tb,
        shared_backend(MemBackend::new()),
    );

    assert_eq!(a.write(1, b"before"), WriteOutcome::Replicated);
    b.crash(); // connection drops with it

    // The next write cannot replicate: it must come back write-through and
    // the node must be degraded with all dirty data flushed.
    let outcome = a.write(2, b"after");
    assert_eq!(outcome, WriteOutcome::WriteThrough);
    assert!(a.is_degraded());
    assert_eq!(a.dirty_pages(), 0, "degraded entry flushes all dirty pages");
    {
        let be = backend_a.lock();
        assert_eq!(be.read_page(1).unwrap().1, b"before".to_vec());
        assert_eq!(be.read_page(2).unwrap().1, b"after".to_vec());
    }
    a.shutdown();
}

#[test]
fn concurrent_writers_on_one_node_are_safe() {
    let (ta, tb) = tcp_pair();
    let backend_a = shared_backend(MemBackend::new());
    let a = std::sync::Arc::new(Node::spawn(
        NodeConfig::test_profile(0),
        ta,
        backend_a.clone(),
    ));
    let b = Node::spawn(
        NodeConfig::test_profile(1),
        tb,
        shared_backend(MemBackend::new()),
    );

    let mut handles = Vec::new();
    for t in 0..4u64 {
        let node = a.clone();
        handles.push(std::thread::spawn(move || {
            for i in 0..25u64 {
                let lpn = t * 100 + i;
                node.write(lpn, format!("t{t}-i{i}").as_bytes());
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    // All 100 pages readable with correct contents.
    for t in 0..4u64 {
        for i in 0..25u64 {
            let lpn = t * 100 + i;
            assert_eq!(
                a.read(lpn),
                Some(format!("t{t}-i{i}").into_bytes()),
                "page {lpn}"
            );
        }
    }
    let stats = a.stats();
    assert_eq!(stats.writes, 100);
    std::sync::Arc::try_unwrap(a).ok().unwrap().shutdown();
    b.shutdown();
}

#[test]
fn overwrites_keep_latest_version_after_recovery() {
    let (ta, tb) = tcp_pair();
    let backend_a = shared_backend(MemBackend::new());
    let a = Node::spawn(NodeConfig::test_profile(0), ta, backend_a.clone());
    let b = Node::spawn(
        NodeConfig::test_profile(1),
        tb,
        shared_backend(MemBackend::new()),
    );

    a.write(5, b"old");
    a.write(5, b"mid");
    a.write(5, b"new");
    a.crash();

    let snapshot = b.export_remote();
    b.shutdown();
    let entry = snapshot.iter().find(|e| e.0 == 5).expect("page 5");
    assert_eq!(entry.3, b"new".to_vec(), "remote copy must be the latest");
}

/// Both nodes write solo through a partition, then rejoin over real
/// sockets: the rejoin copies nothing, so each ends Paired hosting none of
/// the other's solo writes. Then both write 64 KiB runs toward each other
/// at once — each writer is a sender of page frames (blocking socket
/// writes) and a reader of its own acks — and every run replicates.
#[test]
fn both_nodes_rejoin_after_solo_writes_over_tcp() {
    const PAGES: u64 = 220;
    const RUN: u64 = 16;
    let page = |node: u8, lpn: u64| {
        let mut p = vec![node; 4096];
        p[..8].copy_from_slice(&lpn.to_le_bytes());
        p
    };
    let wait_until = |cond: &dyn Fn() -> bool| {
        let deadline = Instant::now() + Duration::from_secs(20);
        while !cond() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        cond()
    };
    let (ta, tb) = tcp_pair();
    let window = Duration::from_millis(400);
    let dark = |seed| FaultPlan::new(seed).with_partition_for(Duration::ZERO, window);
    // Room for every page written, so no run is evicted by its own insert.
    let cfg = |id| NodeConfig {
        buffer_pages: 512,
        ..NodeConfig::test_profile(id)
    };
    let a = Node::spawn(
        cfg(0),
        FaultTransport::new(ta, dark(1)),
        shared_backend(MemBackend::new()),
    );
    let b = Node::spawn(
        cfg(1),
        FaultTransport::new(tb, dark(2)),
        shared_backend(MemBackend::new()),
    );
    assert!(wait_until(&|| {
        a.lifecycle_state() == PairState::Solo && b.lifecycle_state() == PairState::Solo
    }));
    for lpn in 0..PAGES {
        assert_eq!(a.write(lpn, &page(0, lpn)), WriteOutcome::WriteThrough);
        assert_eq!(b.write(lpn, &page(1, lpn)), WriteOutcome::WriteThrough);
    }
    assert!(
        wait_until(&|| {
            a.lifecycle_state() == PairState::Paired && b.lifecycle_state() == PairState::Paired
        }),
        "pair never re-formed: a={:?} b={:?}",
        a.lifecycle_state(),
        b.lifecycle_state()
    );
    for node in [&a, &b] {
        assert_eq!(node.hosted_remote_pages(), Vec::<u64>::new());
    }
    std::thread::scope(|scope| {
        for (node, id) in [(&a, 0u8), (&b, 1u8)] {
            scope.spawn(move || {
                for (tag, lpn) in (PAGES..PAGES + 4 * RUN).step_by(RUN as usize).enumerate() {
                    let run: Vec<Bytes> =
                        (lpn..lpn + RUN).map(|l| Bytes::from(page(id, l))).collect();
                    let out = node.try_write_run(9, tag as u64, lpn, &run).unwrap();
                    assert!(out.all_replicated(), "node {id} run at {lpn}: {out:?}");
                }
            });
        }
    });
    for (node, id) in [(&a, 0u8), (&b, 1u8)] {
        let s = node.stats();
        assert!(s.writes_balance(), "node {id}");
        assert_eq!(s.replicated_pages, 4 * RUN, "node {id}");
        for lpn in 0..PAGES + 4 * RUN {
            assert_eq!(node.read(lpn), Some(page(id, lpn)), "node {id} page {lpn}");
        }
    }
    let written: Vec<u64> = (PAGES..PAGES + 4 * RUN).collect();
    assert_eq!(a.hosted_remote_pages(), written);
    assert_eq!(b.hosted_remote_pages(), written);
    a.shutdown();
    b.shutdown();
}
