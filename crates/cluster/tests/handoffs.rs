//! Hand-offs per replicated write on an in-memory pair, counted, not timed:
//! the writer's send runs the peer's receive and the peer's ack send runs
//! the writer's, so a one-page replicated write wakes no other thread, and
//! writes from two threads at once leave no frame to a pump. Linux only
//! (it reads `/proc`); the cases take turns, so no other case's threads
//! count towards the process total.

#![cfg(target_os = "linux")]

use fc_cluster::{mem_pair, shared_backend, MemBackend, Node, NodeConfig, WriteOutcome};
use std::sync::{Barrier, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Held by each case while it runs.
static ALONE: Mutex<()> = Mutex::new(());

fn alone() -> MutexGuard<'static, ()> {
    ALONE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// `voluntary_ctxt_switches` from one `/proc/.../status` file.
fn voluntary(status: &str) -> u64 {
    let text = std::fs::read_to_string(status).expect("read /proc status");
    text.lines()
        .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("voluntary_ctxt_switches line")
}

/// The calling thread's voluntary context switches, and the process's
/// (summed over its threads).
fn switches() -> (u64, u64) {
    let process = std::fs::read_dir("/proc/self/task")
        .expect("list /proc/self/task")
        .map(|t| voluntary(&format!("{}/status", t.unwrap().path().display())))
        .sum();
    (voluntary("/proc/thread-self/status"), process)
}

/// The voluntary context switches of the nodes' pump threads, summed.
fn pumps() -> u64 {
    std::fs::read_dir("/proc/self/task")
        .expect("list /proc/self/task")
        .map(|t| t.unwrap().path())
        .filter(|t| {
            std::fs::read_to_string(t.join("comm")).is_ok_and(|c| c.starts_with("fc-node-"))
        })
        .map(|t| voluntary(&format!("{}/status", t.display())))
        .sum()
}

#[test]
fn a_replicated_write_on_a_mem_pair_makes_no_hand_off() {
    let _alone = alone();
    // Long pump passes: the pumps sleep through the measured writes.
    let cfg = |id| NodeConfig {
        heartbeat: Duration::from_secs(2),
        failure_timeout: Duration::from_secs(20),
        ..NodeConfig::test_profile(id)
    };
    let (ta, tb) = mem_pair();
    let a = Node::spawn(cfg(0), ta, shared_backend(MemBackend::new()));
    let b = Node::spawn(cfg(1), tb, shared_backend(MemBackend::new()));
    // Warm up: the first writes may find a pump reading; after them both
    // pumps see deliveries bid for the link and sleep their passes out.
    for i in 0..20u64 {
        assert_eq!(a.write(i % 16, b"warm"), WriteOutcome::Replicated);
    }
    std::thread::sleep(Duration::from_millis(20));
    let (writer0, process0) = switches();
    for i in 0..2_000u64 {
        assert_eq!(a.write(i % 16, b"page"), WriteOutcome::Replicated);
    }
    let (writer1, process1) = switches();
    let (writer, process) = (writer1 - writer0, process1 - process0);
    // Through the peer's pump this was one switch per write on the writer
    // and two in the process.
    assert!(writer < 100, "the writer switched {writer} times");
    assert!(process < 100, "the process switched {process} times");
    a.shutdown();
    b.shutdown();
}

#[test]
fn two_writers_on_one_node_leave_no_frame_to_a_pump() {
    let _alone = alone();
    let cfg = |id| NodeConfig {
        heartbeat: Duration::from_secs(2),
        failure_timeout: Duration::from_secs(20),
        ..NodeConfig::test_profile(id)
    };
    let (ta, tb) = mem_pair();
    let a = Node::spawn(cfg(0), ta, shared_backend(MemBackend::new()));
    let b = Node::spawn(cfg(1), tb, shared_backend(MemBackend::new()));
    // The writers' own counts go with them when they exit, so the process
    // is read while they wait at a barrier, before and after their writes.
    let (ready, go, done) = (Barrier::new(3), Barrier::new(3), Barrier::new(3));
    let mut counts = [(0, 0); 2];
    let replicated: Vec<usize> = std::thread::scope(|s| {
        let writers: Vec<_> = (0..2u64)
            .map(|w| {
                let (a, ready, go, done) = (&a, &ready, &go, &done);
                s.spawn(move || {
                    let lpn = |i: u64| 16 * w + i % 16;
                    for i in 0..20 {
                        a.write(lpn(i), b"warm");
                    }
                    ready.wait();
                    go.wait();
                    let replicated = (0..2_000)
                        .filter(|&i| a.write(lpn(i), b"page") == WriteOutcome::Replicated)
                        .count();
                    done.wait();
                    done.wait();
                    replicated
                })
            })
            .collect();
        ready.wait();
        std::thread::sleep(Duration::from_millis(20));
        counts[0] = (pumps(), switches().1);
        go.wait();
        done.wait();
        counts[1] = (pumps(), switches().1);
        done.wait();
        writers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    assert_eq!(replicated, vec![2_000, 2_000]);
    // The two writers' deliveries meet at the node's link slot, and the
    // one that finds it held leaves its frame to the holder. Through the
    // pumps each batch would wake the peer's.
    let (pumps, process) = (counts[1].0 - counts[0].0, counts[1].1 - counts[0].1);
    assert!(
        pumps < 200,
        "the pumps switched {pumps} times (the process {process})"
    );
    a.shutdown();
    b.shutdown();
}
