//! What a node reports: its error and outcome types and its counters.

#[cfg(doc)]
use crate::Node;
use flashcoop::ReplicationStats;

/// The node is halted ([`Node::fail`]) and cannot serve the request. The
/// fallible gateway entry points (`try_*`) return this instead of touching
/// a dead node's state, so a front end can fail the shard over to the
/// surviving replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeDown;

impl std::fmt::Display for NodeDown {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node is down")
    }
}

impl std::error::Error for NodeDown {}

/// Why an elastic-membership page import was refused
/// ([`Node::try_import_pages`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrateError {
    /// The destination node is halted; the coordinator should abort the
    /// batch (the fence keeps the blocks routed to their old owner).
    Down,
    /// A CRC-framed entry failed verification; nothing from the batch was
    /// applied. The coordinator re-exports and resends, same discipline as
    /// a Corrupt NACK on the pair link.
    Corrupt {
        /// The first lpn whose payload did not match its frame CRC.
        lpn: u64,
    },
}

impl std::fmt::Display for MigrateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MigrateError::Down => write!(f, "destination node is down"),
            MigrateError::Corrupt { lpn } => {
                write!(f, "migration entry for lpn {lpn} failed CRC verification")
            }
        }
    }
}

impl std::error::Error for MigrateError {}

impl From<NodeDown> for MigrateError {
    fn from(_: NodeDown) -> MigrateError {
        MigrateError::Down
    }
}

/// How a write was made durable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteOutcome {
    /// Buffered locally and acknowledged by the peer's remote buffer.
    Replicated,
    /// Written synchronously to the backend (solo mode, backpressure, or
    /// replication failure).
    WriteThrough,
}

/// Observable node counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Writes handled.
    pub writes: u64,
    /// Reads handled.
    pub reads: u64,
    /// Reads served from the local buffer.
    pub read_hits: u64,
    /// Pages acknowledged by the peer.
    pub replicated_pages: u64,
    /// Writes that fell back to write-through.
    pub write_through: u64,
    /// Pages flushed to the backend by evictions.
    pub flushed_pages: u64,
    /// Page deletions (short-lived files).
    pub deletes: u64,
    /// Remote (peer) pages currently hosted (including taken-over pages).
    pub remote_pages: u64,
    /// Pages currently waiting in the catch-up journal.
    pub journal_pages: u64,
    /// Tagged write runs answered from the exactly-once window instead of
    /// re-applying (gateway retries of already-applied runs).
    pub dedup_hits: u64,
    /// Pages accepted from another pair by an elastic-membership migration
    /// ([`Node::try_import_pages`]).
    pub migrated_in_pages: u64,
    /// Pages handed off to another pair and fenced out locally
    /// ([`Node::try_release_pages`]).
    pub migrated_out_pages: u64,
    /// Fault-tolerance counters (retries, dedup, reorders, destages,
    /// takeover, resync, integrity, backpressure).
    pub repl: ReplicationStats,
}

impl NodeStats {
    /// Durability invariant: every counted write finished either replicated
    /// or written through. Holds under any single [`Node::stats`] snapshot
    /// (the counters are committed together, under one lock).
    pub fn writes_balance(&self) -> bool {
        self.writes == self.replicated_pages + self.write_through
    }
}

/// Per-origin counters for requests entering through the gateway (or any
/// caller that identifies itself via the `*_from` entry points). One row per
/// client id; snapshot with [`Node::client_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PerClientStats {
    /// Write requests handled for this client.
    pub writes: u64,
    /// Pages written for this client.
    pub pages_written: u64,
    /// Writes that fell back to write-through.
    pub write_through: u64,
    /// Read requests handled for this client.
    pub reads: u64,
    /// Reads served from the local buffer.
    pub read_hits: u64,
    /// Page deletions (TRIMs) for this client.
    pub trims: u64,
}

/// Aggregate outcome of a batched multi-page write ([`Node::write_run`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunOutcome {
    /// Pages acknowledged by the peer's remote buffer.
    pub replicated: u64,
    /// Pages that fell back to write-through.
    pub write_through: u64,
}

impl RunOutcome {
    /// True when every page of the run took the replicated fast path.
    pub fn all_replicated(&self) -> bool {
        self.write_through == 0
    }

    /// Pages in the run.
    pub fn pages(&self) -> u64 {
        self.replicated + self.write_through
    }
}
