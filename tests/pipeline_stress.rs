//! Concurrency stress for the replication pipeline: many writers driving
//! batched replication with the in-flight window saturated, while a
//! sampler thread snapshots counters *mid-flight* and asserts the
//! accounting identities at every single snapshot.
//!
//! Two identities from the issue:
//!
//! 1. [`fc_cluster::NodeStats::writes_balance`] — `writes` always equals
//!    `replicated_pages + write_through`, because a node commits a write
//!    and its outcome under one lock acquisition.
//! 2. The gateway's 11-counter sum identity
//!    ([`fc_gateway::ShardStatsSum::matches`]) — Σ `gateway.shard.{i}.*`
//!    equals the aggregate `gateway.*` at every
//!    [`fc_gateway::ShardedGateway::stats_with_shards`] snapshot, because
//!    the aggregate is the sum of the shard snapshots it is returned with.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

use std::time::{Duration, Instant};

use bytes::Bytes;
use fc_cluster::{
    mem_pair, shared_backend, FaultPlan, FaultTransport, MemBackend, Node, NodeConfig, PairState,
    StorageBackend, TcpTransport,
};
use fc_gateway::{GatewayClient, GatewayConfig, ShardStatsSum, ShardedGateway};
use fc_ring::{Ring, RingConfig};
use fc_simkit::DetRng;

const PAGE_BYTES: usize = 128;

/// A pipeline profile that keeps the window *full*: batches are small and
/// only two may be unacknowledged, so writers spend most of their time
/// enqueued behind window backpressure — the regime where a racy counter
/// commit would be caught.
fn windowed_config(id: u8) -> NodeConfig {
    let mut cfg = NodeConfig::test_profile(id);
    cfg.repl_batch_pages = 4;
    cfg.repl_window = 2;
    // Size the pools above the working set so writes exercise the
    // replication path instead of degrading to write-through.
    cfg.buffer_pages = 8192;
    cfg.remote_capacity = 16384;
    cfg
}

fn page(seed: u64, i: u64) -> Bytes {
    let mut v = vec![0u8; PAGE_BYTES];
    v[..8].copy_from_slice(&(seed ^ i).to_le_bytes());
    Bytes::from(v)
}

/// Four writers hammer one node with mixed single-page writes and 8-page
/// runs; a sampler asserts `writes_balance` on every concurrent snapshot.
#[test]
fn multi_writer_stress_holds_writes_balance_at_every_snapshot() {
    const WRITERS: u64 = 4;
    const ROUNDS: u64 = 120;
    const RUN_PAGES: u64 = 8;

    let (ta, tb) = mem_pair();
    let backend = shared_backend(MemBackend::default());
    let a = Arc::new(Node::spawn(windowed_config(0), ta, backend.clone()));
    let b = Node::spawn(windowed_config(1), tb, backend);

    let stop = Arc::new(AtomicBool::new(false));
    let sampler = {
        let a = Arc::clone(&a);
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            let mut snapshots = 0u64;
            while !stop.load(Ordering::SeqCst) {
                let s = a.stats();
                assert!(
                    s.writes_balance(),
                    "snapshot {snapshots}: writes {} != replicated {} + write_through {}",
                    s.writes,
                    s.replicated_pages,
                    s.write_through
                );
                snapshots += 1;
            }
            snapshots
        })
    };

    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let a = Arc::clone(&a);
            thread::spawn(move || {
                let mut rng = DetRng::new(w + 1);
                for round in 0..ROUNDS {
                    // Disjoint per-writer lpn regions; runs and singles mix.
                    let base = w * 1024 + rng.below(512);
                    if round % 3 == 0 {
                        let _ = a.write(base, &page(w, round));
                    } else {
                        let pages: Vec<Bytes> =
                            (0..RUN_PAGES).map(|i| page(w, round * 64 + i)).collect();
                        let _ = a.write_run(w, base, &pages);
                    }
                }
            })
        })
        .collect();
    for h in writers {
        h.join().unwrap();
    }
    stop.store(true, Ordering::SeqCst);
    let snapshots = sampler.join().unwrap();
    assert!(
        snapshots > 100,
        "sampler barely ran ({snapshots} snapshots)"
    );

    let s = a.stats();
    assert!(s.writes_balance());
    let singles = WRITERS * ROUNDS.div_ceil(3);
    let runs = WRITERS * (ROUNDS - ROUNDS.div_ceil(3));
    assert_eq!(s.writes, singles + runs * RUN_PAGES, "every write counted");
    // The stress actually drove the batched pipeline: multi-page frames
    // went out, and the tiny window forced backpressure stalls.
    assert!(s.repl.batches_sent > 0, "no batched frames sent");
    assert!(
        s.repl.batch_pages > s.repl.batches_sent,
        "batches never coalesced more than one page"
    );
    // Clean link: no retries, no dedup/reorder healing, no credit stalls.
    assert_eq!(s.repl.retries, 0);
    assert_eq!(s.repl.dups_dropped, 0);
    assert_eq!(s.repl.corruptions_detected, 0);
    assert_eq!(s.repl.credit_stalls, 0);

    Arc::try_unwrap(a).ok().expect("writers done").shutdown();
    b.shutdown();
}

/// Four clients drive a 4-shard gateway (writes, reads, trims, flushes)
/// while the main thread takes combined snapshots; the 11-counter sum
/// identity must hold at every one, mid-flight included.
#[test]
fn sharded_gateway_counter_sums_match_at_every_snapshot() {
    const SHARDS: u16 = 4;
    const CLIENTS: u64 = 4;
    const STEPS: u64 = 150;
    const SPACE: u64 = 512;

    let sg = Arc::new(ShardedGateway::spawn_mem_with(
        GatewayConfig::test_profile(),
        RingConfig::default(),
        SHARDS,
        |cfg| {
            cfg.repl_batch_pages = 4;
            cfg.repl_window = 2;
            cfg.buffer_pages = 8192;
            cfg.remote_capacity = 16384;
        },
    ));

    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let sg = Arc::clone(&sg);
            thread::spawn(move || {
                let mut client = sg.connect_mem_as(c + 1);
                client.hello().expect("hello");
                let mut rng = DetRng::new(0xBEEF + c);
                let mut acked: HashMap<u64, Bytes> = HashMap::new();
                for step in 0..STEPS {
                    match rng.below(10) {
                        0..=5 => {
                            let pages = 1 + rng.below(6);
                            let lpn = rng.below(SPACE - pages);
                            let payloads: Vec<Bytes> =
                                (0..pages).map(|i| page(c, step * 64 + i)).collect();
                            let ack = client.write(lpn, payloads.clone()).expect("write");
                            assert_eq!(u64::from(ack.pages), pages);
                            for (i, p) in payloads.into_iter().enumerate() {
                                acked.insert(lpn + i as u64, p);
                            }
                        }
                        6..=7 => {
                            // Concurrent writers race on content, so reads
                            // only feed the read_pages/read_found columns.
                            let pages = 1 + rng.below(8);
                            let lpn = rng.below(SPACE - pages);
                            let got = client.read(lpn, pages as u32).expect("read");
                            assert_eq!(got.len(), pages as usize);
                        }
                        8 => {
                            let pages = 1 + rng.below(4);
                            let lpn = rng.below(SPACE - pages);
                            client.trim(lpn, pages as u32).expect("trim");
                            for l in lpn..lpn + pages {
                                acked.remove(&l);
                            }
                        }
                        _ => {
                            client.flush().expect("flush");
                        }
                    }
                }
            })
        })
        .collect();

    // Sample until every client finishes; each combined snapshot must
    // satisfy the identity exactly, no matter what is in flight.
    let mut snapshots = 0u64;
    let mut done = false;
    while !done {
        done = clients.iter().all(|h| h.is_finished());
        let (g, shards) = sg.stats_with_shards();
        if let Err((name, sum, total)) = ShardStatsSum::of(&shards).matches(&g) {
            panic!("snapshot {snapshots}: Σ shard.{name} = {sum} != gateway.{name} = {total}");
        }
        snapshots += 1;
    }
    for h in clients {
        h.join().unwrap();
    }
    assert!(
        snapshots > 100,
        "sampler barely ran ({snapshots} snapshots)"
    );

    // Quiesced end state: identity still exact, and traffic really moved
    // through every shard.
    let (g, shards) = sg.stats_with_shards();
    ShardStatsSum::of(&shards)
        .matches(&g)
        .unwrap_or_else(|(name, sum, total)| {
            panic!("final: Σ shard.{name} = {sum} != gateway.{name} = {total}")
        });
    assert!(g.write_pages > 0 && g.read_pages > 0 && g.trim_pages > 0);
    for (i, s) in shards.iter().enumerate() {
        assert!(
            s.ops > 0,
            "shard {i} never served an op — workload not spread"
        );
    }
    Arc::try_unwrap(sg).ok().expect("clients done").shutdown();
}

fn wait_until(mut cond: impl FnMut() -> bool, timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        thread::sleep(Duration::from_millis(2));
    }
    cond()
}

/// Four writers park on runs whose acks never arrive; `halt` (a crash fault
/// or a solo entry) must fail every ticket — each run comes back fully
/// written through, no writer hangs, and the counters balance.
fn parked_writers_are_released_by(halt: impl FnOnce(&Node)) {
    const WRITERS: u64 = 4;
    const RUN_PAGES: u64 = 4;

    let (ta, tb) = mem_pair();
    // The peer applies every batch but its acks are lost; heartbeats pass.
    let tb = FaultTransport::new(tb, FaultPlan::new(11).with_drop(1.0));
    let backend = shared_backend(MemBackend::default());
    let mut cfg_a = windowed_config(0);
    cfg_a.repl_window = 8;
    // No retransmit timer may fire: the writers stay parked until `halt`.
    cfg_a.ack_timeout = Duration::from_secs(60);
    let a = Arc::new(Node::spawn(cfg_a, ta, backend.clone()));
    let b = Node::spawn(windowed_config(1), tb, backend.clone());

    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let a = Arc::clone(&a);
            thread::spawn(move || {
                let pages: Vec<Bytes> = (0..RUN_PAGES).map(|i| page(w, i)).collect();
                a.write_run(w, w * 64, &pages)
            })
        })
        .collect();
    // Every frame reached the peer, so every writer is parked on its ack.
    assert!(
        wait_until(
            || b.hosted_remote_pages().len() as u64 == WRITERS * RUN_PAGES,
            Duration::from_secs(5)
        ),
        "peer hosts {:?}",
        b.hosted_remote_pages()
    );
    assert!(writers.iter().all(|h| !h.is_finished()));

    halt(&a);
    for h in writers {
        let out = h.join().unwrap();
        assert_eq!((out.replicated, out.write_through), (0, RUN_PAGES));
    }
    let s = a.stats();
    assert!(s.writes_balance());
    assert_eq!(s.writes, WRITERS * RUN_PAGES);
    assert_eq!(s.write_through, WRITERS * RUN_PAGES);
    assert_eq!(a.lifecycle_state(), PairState::Solo);
    // Written through means on the backend, now.
    for w in 0..WRITERS {
        for i in 0..RUN_PAGES {
            assert!(backend.lock().read_page(w * 64 + i).is_some());
        }
    }
    Arc::try_unwrap(a).ok().expect("writers done").shutdown();
    b.shutdown();
}

#[test]
fn crash_fault_releases_parked_writers_as_write_through() {
    parked_writers_are_released_by(Node::fail);
}

#[test]
fn solo_entry_releases_parked_writers_as_write_through() {
    parked_writers_are_released_by(Node::quiesce);
}

/// Eviction costs what it evicts, not what the buffer holds: the same
/// stream of evicting read misses takes about as long per read behind a
/// 16384-page buffer as behind a 1024-page one. (A per-eviction sweep of
/// the resident set made the larger buffer ~16x slower.) Release only: the
/// bound is on optimized code, and debug timing is mostly allocator noise.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn evicting_read_miss_cost_does_not_scale_with_buffer_size() {
    const SMALL: usize = 1024;
    const LARGE: usize = 16384;
    const READS: u64 = 20_000;
    // One page per logical block, so every miss on a full buffer evicts
    // exactly one (clean) block.
    let stride = NodeConfig::test_profile(0).pages_per_block as u64;

    let mean_read_ns = |buffer_pages: usize| {
        let mut prefilled = MemBackend::default();
        for i in 0..LARGE as u64 + READS {
            prefilled.write_page(i * stride, 1, &page(9, i));
        }
        let backend = shared_backend(prefilled);
        let (ta, tb) = mem_pair();
        let mut cfg = NodeConfig::test_profile(0);
        cfg.buffer_pages = buffer_pages;
        let a = Node::spawn(cfg, ta, backend.clone());
        let b = Node::spawn(NodeConfig::test_profile(1), tb, backend);
        // Fill the buffer, then time the same lpn stream for either size.
        for i in 0..buffer_pages as u64 {
            assert!(a.read(i * stride).is_some());
        }
        let start = Instant::now();
        for i in LARGE as u64..LARGE as u64 + READS {
            assert!(a.read(i * stride).is_some());
        }
        let ns = start.elapsed().as_nanos() as f64 / READS as f64;
        assert_eq!(a.stats().read_hits, 0, "every read must miss");
        a.shutdown();
        b.shutdown();
        ns
    };
    // Other tests of this binary run alongside: compare the best of three
    // alternated rounds.
    let (mut small, mut large) = (f64::MAX, f64::MAX);
    for _ in 0..3 {
        small = small.min(mean_read_ns(SMALL));
        large = large.min(mean_read_ns(LARGE));
    }
    let report = format!("read miss: {small:.0} ns at {SMALL} pages, {large:.0} ns at {LARGE}");
    println!("{report}");
    assert!(large < 3.0 * small && small < 3.0 * large, "{report}");
}

/// Every thread of this process, by its `comm` name.
#[cfg(target_os = "linux")]
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|name| name.trim_end().to_string())
        .collect()
}

/// The relay threads are gone: a one-pair TCP cluster with one TCP client
/// session runs one thread per node and one per TCP session, nothing
/// else; an in-memory session adds none (its client runs it).
#[cfg(target_os = "linux")]
#[test]
fn tcp_cluster_runs_one_thread_per_node_and_none_per_link() {
    // Ids no other test in this binary uses, so their nodes' threads do
    // not show up in the count.
    const IDS: (u8, u8) = (200, 201);

    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let ta = TcpTransport::connect(listener.local_addr().unwrap()).unwrap();
    let tb = TcpTransport::accept(&listener).unwrap();
    let backend = shared_backend(MemBackend::default());
    let a = Arc::new(Node::spawn(windowed_config(IDS.0), ta, backend.clone()));
    let b = Arc::new(Node::spawn(windowed_config(IDS.1), tb, backend));
    let gw_cfg = GatewayConfig::test_profile();
    let ring = Ring::with_pairs(
        RingConfig {
            block_pages: gw_cfg.pages_per_block,
            ..RingConfig::default()
        },
        1,
    );
    let sg = ShardedGateway::from_pairs(gw_cfg, ring, vec![a], vec![b]);
    let addr = sg.gateway().listen_tcp("127.0.0.1:0").unwrap();
    let mut client = GatewayClient::connect_tcp(addr, 1).unwrap();
    client.hello().unwrap();
    // Traffic over both kinds of link, so a lazily started thread would
    // have started.
    let ack = client.write(0, vec![page(1, 0), page(1, 1)]).unwrap();
    assert!(ack.replicated);
    assert_eq!(client.read(0, 1).unwrap(), vec![Some(page(1, 0))]);

    // A thread names itself when it first runs, so a pump the scheduler
    // has not reached yet still carries its creator's name: wait for both.
    let pumps: Vec<String> = [IDS.0, IDS.1]
        .iter()
        .map(|id| format!("fc-node-{id}"))
        .collect();
    let deadline = Instant::now() + Duration::from_secs(5);
    let names = loop {
        let names = thread_names();
        if pumps.iter().all(|p| names.contains(p)) || Instant::now() >= deadline {
            break names;
        }
        thread::sleep(Duration::from_millis(5));
    };
    // `comm` keeps 15 bytes: "fc-gw-session-rx" would read "fc-gw-session-r".
    for gone in [
        "fc-pipe-",
        "fc-cluster-rx",
        "fc-gw-session-r",
        "fc-gw-client-rx",
    ] {
        assert!(
            !names.iter().any(|n| n.starts_with(gone)),
            "a {gone}* thread is running: {names:?}"
        );
    }
    for pump in &pumps {
        assert_eq!(
            names.iter().filter(|n| *n == pump).count(),
            1,
            "{pump}: {names:?}"
        );
    }
    assert!(names.iter().any(|n| n == "fc-gw-session"), "{names:?}");

    // An in-memory session, served and used, adds no thread; the TCP
    // session still runs exactly one. (This binary's other gateway test
    // serves in-memory sessions only.)
    let mut mem = sg.connect_mem();
    mem.hello().unwrap();
    mem.write(8, vec![page(2, 8)]).unwrap();
    assert_eq!(mem.read(8, 1).unwrap(), vec![Some(page(2, 8))]);
    let names = thread_names();
    assert_eq!(
        names.iter().filter(|n| *n == "fc-gw-session").count(),
        1,
        "{names:?}"
    );
    drop(mem);
    drop(client);
    sg.shutdown();
}
