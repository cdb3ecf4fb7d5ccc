//! # fc-cluster
//!
//! The *real* (threaded) FlashCoop cooperative pair, complementing the
//! trace-replay simulation in the `flashcoop` crate:
//!
//! * [`wire`] — hand-rolled, length-prefixed binary protocol (replication,
//!   acks, discards, heartbeats, the recovery handshake), and the frame
//!   code the client protocol in `fc-gateway` shares.
//! * [`transport`] — the one link type, [`Link`]: an in-memory (crossbeam)
//!   arm and a TCP (`std::net`) arm, for peer and client traffic alike.
//! * [`fault`] — deterministic fault injection: [`FaultTransport`] wraps any
//!   transport and drops/delays/duplicates/reorders/partitions traffic per a
//!   seeded [`FaultPlan`], recording a reproducible decision trace.
//! * [`backend`] — where flushed pages land: a plain map or the `fc-ssd`
//!   simulator (for device statistics).
//! * [`node`] — a runnable node: same buffer manager and policies as the
//!   simulation, plus real threads, heartbeats, the pair-lifecycle state
//!   machine (takeover destage, a rejoin that copies nothing), end-to-end
//!   CRC-32 integrity with NACK/resend and scrub repair, credit-based
//!   backpressure, and the Section III.D recovery protocol. One module per
//!   lock-order boundary; its module doc has the table.
//!
//! ```
//! use fc_cluster::{mem_pair, shared_backend, MemBackend, Node, NodeConfig, WriteOutcome};
//!
//! let (ta, tb) = mem_pair();
//! let a = Node::spawn(NodeConfig::test_profile(0), ta, shared_backend(MemBackend::new()));
//! let b = Node::spawn(NodeConfig::test_profile(1), tb, shared_backend(MemBackend::new()));
//! assert_eq!(a.write(1, b"page"), WriteOutcome::Replicated);
//! assert_eq!(a.read(1), Some(b"page".to_vec()));
//! a.shutdown();
//! b.shutdown();
//! ```

#![deny(unsafe_op_in_unsafe_fn)]

pub mod backend;
pub mod fault;
pub mod node;
mod pipe;
pub mod transport;
pub mod wire;

pub use backend::{MemBackend, SimSsdBackend, StorageBackend};
pub use fault::{FaultAction, FaultPlan, FaultRecord, FaultStats, FaultTransport};
pub use node::{
    shared_backend, MigrateError, Node, NodeConfig, NodeConfigBuilder, NodeDown, NodeStats,
    PairState, PerClientStats, ReplicationStats, RetryPolicy, RunOutcome, SharedBackend,
    WriteOutcome, PEER_NS,
};
pub use transport::{
    mem_link, mem_pair, Link, LinkClosed, TcpTransport, Transport, TransportError,
};
pub use wire::{
    crc32, decode, encode, resync_entry, Frame, FrameError, Message, NackReason, ResyncEntry,
    SeqStatus, SeqTracker,
};
