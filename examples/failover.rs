//! Failure recovery (Section III.D) on the threaded `fc-cluster` node.
//!
//! Part 1 — real threads over TCP on localhost: a node crashes and
//! recovers through the paper's protocol (RCT fetch → replay → purge),
//! with actual page data moving between the nodes.
//!
//! Part 2 — the full pair lifecycle over a partitioned link: Paired →
//! Solo (takeover destage + write-through) → Paired, a cut-over that copies
//! nothing: the peer hosts only pages the owner has not flushed.
//!
//! ```text
//! cargo run --release --example failover
//! ```

use fc_cluster::{
    mem_pair, shared_backend, FaultPlan, FaultTransport, MemBackend, Node, NodeConfig, PairState,
    TcpTransport, WriteOutcome,
};
use std::net::TcpListener;
use std::time::Duration;

fn real_failover() {
    println!("— real nodes over TCP (localhost) —");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap();
    let client = std::thread::spawn(move || TcpTransport::connect(addr).expect("connect"));
    let server_t = TcpTransport::accept(&listener).expect("accept");
    let client_t = client.join().unwrap();

    let backend_a = shared_backend(MemBackend::new());
    let backend_b = shared_backend(MemBackend::new());
    let a = Node::spawn(NodeConfig::test_profile(0), client_t, backend_a.clone());
    let b = Node::spawn(NodeConfig::test_profile(1), server_t, backend_b);

    // A buffers + replicates twenty pages.
    let mut replicated = 0;
    for i in 0..20u64 {
        if a.write(i, format!("page-{i}-v1").as_bytes()) == WriteOutcome::Replicated {
            replicated += 1;
        }
    }
    println!("  node A wrote 20 pages, {replicated} replicated to B");
    println!(
        "  A dirty pages: {}, A backend pages: {}",
        a.dirty_pages(),
        backend_a.lock().pages()
    );

    // A crashes — its buffer is gone; only B's remote buffer has the data.
    a.crash();
    println!("  node A crashed (buffer lost); B hosts {} replicas", {
        // Give B a moment to settle.
        std::thread::sleep(Duration::from_millis(50));
        b.hosted_remote_pages().len()
    });

    // A reboots on the same backend over a fresh TCP connection; B re-homes
    // its surviving hosted pages onto a replacement endpoint (its memory
    // survived — only the socket died with A).
    let listener2 = TcpListener::bind("127.0.0.1:0").expect("bind2");
    let addr2 = listener2.local_addr().unwrap();
    let join = std::thread::spawn(move || TcpTransport::connect(addr2).expect("connect2"));
    let b2_t = TcpTransport::accept(&listener2).expect("accept2");
    let a2_t = join.join().unwrap();

    let hosted = b.export_remote();
    b.shutdown(); // old endpoint retired; its own dirty data flushed
    let b2 = Node::spawn(
        NodeConfig::test_profile(1),
        b2_t,
        shared_backend(MemBackend::new()),
    );
    b2.import_remote(&hosted);

    let a2 = Node::spawn(NodeConfig::test_profile(0), a2_t, backend_a.clone());
    let recovered = a2
        .recover_from_peer(Duration::from_secs(2))
        .expect("recovery handshake");
    println!(
        "  node A rebooted, recovered {recovered} pages over TCP \
         (RCT fetch → replay → purge)"
    );
    println!(
        "  A backend now holds {} pages; B purged its remote buffer: {}",
        backend_a.lock().pages(),
        b2.hosted_remote_pages().is_empty()
    );
    let check = backend_a.lock().read_page(7).map(|(_, d)| d);
    println!(
        "  spot check page 7: {:?} ✓",
        check.map(|d| String::from_utf8_lossy(&d).into_owned())
    );
    a2.shutdown();
    b2.shutdown();
    println!("  demo done");
}

fn lifecycle_loop() {
    println!("— full lifecycle: fail → takeover → rejoin —");
    use std::sync::Arc;
    use std::time::Instant;

    let wait_until = |mut cond: Box<dyn FnMut() -> bool>, timeout: Duration| -> bool {
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            if cond() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        cond()
    };

    // A 400 ms partition opens 150 ms in — longer than the 200 ms failure
    // timeout, so both sides will declare the peer dead.
    let start = Duration::from_millis(150);
    let window = Duration::from_millis(400);
    let (ta, tb) = mem_pair();
    let fa = Arc::new(FaultTransport::new(
        ta,
        FaultPlan::new(21).with_partition_for(start, window),
    ));
    let fb = Arc::new(FaultTransport::new(
        tb,
        FaultPlan::new(22).with_partition_for(start, window),
    ));
    let backend_a = shared_backend(MemBackend::new());
    let backend_b = shared_backend(MemBackend::new());
    let a = Node::spawn(NodeConfig::test_profile(0), fa, backend_a);
    let b = Node::spawn(NodeConfig::test_profile(1), fb, backend_b);

    for i in 0..10u64 {
        a.write(i, format!("paired-{i}").as_bytes());
    }
    println!(
        "  paired: A replicated 10 pages, B hosts {}",
        b.hosted_remote_pages().len()
    );

    let a2 = &a;
    let b2 = &b;
    assert!(
        wait_until(
            Box::new(move || a2.lifecycle_state() == PairState::Solo
                && b2.lifecycle_state() == PairState::Solo),
            Duration::from_secs(2)
        ),
        "partition never took the pair solo"
    );
    println!(
        "  partition: both solo; B destaged {} hosted pages (takeover)",
        b.stats().repl.takeover_destages
    );

    for i in 100..108u64 {
        let outcome = a.write(i, format!("solo-{i}").as_bytes());
        assert_eq!(outcome, WriteOutcome::WriteThrough);
    }
    println!(
        "  solo: A wrote 8 pages through to its backend; {} dirty",
        a.dirty_pages()
    );

    let a3 = &a;
    let b3 = &b;
    assert!(
        wait_until(
            Box::new(move || a3.lifecycle_state() == PairState::Paired
                && b3.lifecycle_state() == PairState::Paired),
            Duration::from_secs(3)
        ),
        "pair never re-formed after the partition healed"
    );
    let solo_copies = b
        .hosted_remote_pages()
        .into_iter()
        .filter(|lpn| (100..108).contains(lpn))
        .count();
    println!("  rejoin: cut over with nothing to copy; B hosts {solo_copies} of A's solo writes");
    assert_eq!(solo_copies, 0);

    assert_eq!(a.lifecycle_state(), PairState::Paired);
    assert_eq!(b.lifecycle_state(), PairState::Paired);
    println!(
        "  final state Paired on both ends; B hosts {} pages taken over \
         for A's recovery (lifecycle edges: A={}, B={}) ✓",
        b.hosted_remote_pages().len(),
        a.lifecycle_transitions(),
        b.lifecycle_transitions()
    );
    println!("  lifecycle loop complete: Paired -> Solo -> Paired");
    a.shutdown();
    b.shutdown();
}

fn main() {
    real_failover();
    println!();
    lifecycle_loop();
}
