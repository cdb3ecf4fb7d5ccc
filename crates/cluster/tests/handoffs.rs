//! Hand-offs per replicated write on an in-memory pair, counted, not timed:
//! the writer's send runs the peer's receive and the peer's ack send runs
//! the writer's, so a one-page replicated write wakes no other thread.
//! Linux only (it reads `/proc`); alone in its binary, so no other test's
//! threads count towards the process total.

#![cfg(target_os = "linux")]

use fc_cluster::{mem_pair, shared_backend, MemBackend, Node, NodeConfig, WriteOutcome};
use std::time::Duration;

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

#[test]
fn a_replicated_write_on_a_mem_pair_makes_no_hand_off() {
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
