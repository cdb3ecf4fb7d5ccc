//! Helpers shared by the node modules' tests.

pub(crate) use super::{
    shared_backend, MigrateError, Node, NodeConfig, NodeDown, NodeStats, PerClientStats,
    RunOutcome, SharedBackend, WriteOutcome,
};
pub(crate) use crate::backend::MemBackend;
pub(crate) use crate::fault::{FaultPlan, FaultTransport};
pub(crate) use crate::transport::{mem_pair, MemTransport, Transport, TransportError};
pub(crate) use crate::wire::{crc32, resync_entry, Message};
pub(crate) use bytes::Bytes;
pub(crate) use fc_obs::Obs;
pub(crate) use flashcoop::{PairState, RetryPolicy};
pub(crate) use std::collections::HashMap;
pub(crate) use std::sync::atomic::{AtomicBool, Ordering};
pub(crate) use std::sync::Arc;
pub(crate) use std::time::{Duration, Instant};

pub(crate) fn pair() -> (Node, Node, SharedBackend, SharedBackend) {
    let (ta, tb) = mem_pair();
    let ba = shared_backend(MemBackend::new());
    let bb = shared_backend(MemBackend::new());
    let a = Node::spawn(NodeConfig::test_profile(0), ta, ba.clone());
    let b = Node::spawn(NodeConfig::test_profile(1), tb, bb.clone());
    (a, b, ba, bb)
}

pub(crate) fn wait_until(mut cond: impl FnMut() -> bool, timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    cond()
}

/// A pair whose link is dark both ways for its first 400 ms, so both
/// nodes start out Solo; `plan_a` carries any further faults of A's
/// outbound traffic.
pub(crate) fn partitioned_pair(
    cfg_a: NodeConfig,
    cfg_b: NodeConfig,
    plan_a: FaultPlan,
) -> (Node, Node) {
    let (ta, tb) = mem_pair();
    let window = Duration::from_millis(400);
    let fa = FaultTransport::new(ta, plan_a.with_partition_for(Duration::ZERO, window));
    let fb = FaultTransport::new(
        tb,
        FaultPlan::new(99).with_partition_for(Duration::ZERO, window),
    );
    let a = Node::spawn(cfg_a, fa, shared_backend(MemBackend::new()));
    let b = Node::spawn(cfg_b, fb, shared_backend(MemBackend::new()));
    assert!(wait_until(
        || a.lifecycle_state() == PairState::Solo && b.lifecycle_state() == PairState::Solo,
        Duration::from_secs(2)
    ));
    (a, b)
}

pub(crate) fn both_paired(a: &Node, b: &Node) -> bool {
    wait_until(
        || a.lifecycle_state() == PairState::Paired && b.lifecycle_state() == PairState::Paired,
        Duration::from_secs(5),
    )
}

/// The resident table's key set and the buffer's, both sorted — equal
/// whenever `Inner` is unlocked.
pub(crate) fn table_and_buffer(n: &Node) -> (Vec<u64>, Vec<u64>) {
    let g = n.inner.lock();
    let mut table: Vec<u64> = g.resident.keys().copied().collect();
    table.sort_unstable();
    (table, g.buffer.resident_pages())
}
