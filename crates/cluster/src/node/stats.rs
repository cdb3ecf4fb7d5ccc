//! What a node reports: its error and outcome types, its counters, and
//! [`NodeObs`] — the one handle every node thread counts and narrates
//! through.

#[cfg(doc)]
use crate::Node;
use fc_obs::{Counter, Histogram, Metric, Obs};
use std::sync::OnceLock;

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
    /// The destination node is halted; the rebalance stops the batch (the
    /// fence keeps the blocks routed to their old owner).
    Down,
    /// A CRC-framed entry failed verification; nothing from the batch was
    /// applied. A resumed rebalance re-exports and resends, same
    /// discipline as a Corrupt NACK on the pair link.
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
    /// takeover, integrity, backpressure).
    pub repl: ReplicationStats,
}

impl NodeStats {
    /// Durability invariant: every counted write finished either replicated
    /// or written through. Holds under any single [`Node::stats`] snapshot
    /// by definition: a snapshot computes `writes` as the sum of the two
    /// outcome counters it just read.
    pub fn writes_balance(&self) -> bool {
        self.writes == self.replicated_pages + self.write_through
    }
}

/// Declares [`NodeObs`] and [`ReplicationStats`] from the node's counter
/// table. A row is the cell — named for the [`NodeStats`] (`node` rows) or
/// [`ReplicationStats`] (`repl` rows, each carrying its field's doc) field
/// its value fills in a snapshot — and the metric name [`Node::attach_obs`]
/// publishes it under; adding a counter is one row (and, for a `node` row,
/// its [`NodeStats`] field).
macro_rules! node_counters {
    (
        node { $($n:ident: $n_name:literal,)* }
        repl { $($(#[doc = $doc:literal])* $r:ident: $r_name:literal,)* }
    ) => {
        /// Fault-tolerance counters for the replication path: every counter
        /// is a symptom of the network or the peer misbehaving and the
        /// protocol absorbing it, plus the batch throughput counters.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct ReplicationStats {
            $($(#[doc = $doc])* pub $r: u64,)*
        }

        impl ReplicationStats {
            /// Sum the counters of `other` into `self` (merging per-node
            /// reports).
            pub fn absorb(&mut self, other: &ReplicationStats) {
                $(self.$r += other.$r;)*
            }
        }

        /// The node's one reporting handle, shared by `Inner`, the pipe and
        /// the writers' commit path and used without a lock: every node
        /// counter as a plain cell that counts from spawn, the always-on
        /// pages-per-batch histogram, and the event stream once
        /// [`Node::attach_obs`] sets it.
        #[derive(Default)]
        pub(crate) struct NodeObs {
            $(pub(crate) $n: Counter,)*
            $(pub(crate) $r: Counter,)*
            /// Pages per first-send `WriteReplBatch`.
            pub(crate) batch_hist: Histogram,
            /// The attached stream and the node id its events carry.
            stream: OnceLock<(Obs, u64)>,
        }

        impl NodeObs {
            /// Publish every cell in `obs`'s registry and send this node's
            /// events (tagged `id`) to it — to the first `Obs` attached,
            /// that is.
            pub(crate) fn attach(&self, obs: &Obs, id: u64) {
                let reg = obs.registry();
                $(reg.adopt($n_name, Metric::Counter(self.$n.clone()));)*
                $(reg.adopt($r_name, Metric::Counter(self.$r.clone()));)*
                let hist = Metric::Histogram(self.batch_hist.clone());
                reg.adopt("cluster.replication.pages_per_batch", hist);
                let _ = self.stream.set((obs.clone(), id));
            }

            /// The counters as of now, around the hosted-page count the
            /// caller read under `Inner`. `writes` is the sum of the two
            /// outcome counters read here, so
            /// [`NodeStats::writes_balance`] holds on every snapshot.
            pub(crate) fn snapshot(&self, remote_pages: u64) -> NodeStats {
                let mut s = NodeStats {
                    $($n: self.$n.get(),)*
                    writes: 0,
                    remote_pages,
                    repl: ReplicationStats {
                        $($r: self.$r.get(),)*
                    },
                };
                s.writes = s.replicated_pages + s.write_through;
                s
            }

            /// What the published cells must read once the node is idle:
            /// each metric name with the snapshot field it fills.
            #[cfg(test)]
            pub(crate) fn fields(s: &NodeStats) -> Vec<(&'static str, u64)> {
                vec![$(($n_name, s.$n),)* $(($r_name, s.repl.$r),)*]
            }
        }
    };
}

node_counters! {
    node {
        reads: "cluster.node.reads",
        read_hits: "cluster.node.read_hits",
        replicated_pages: "cluster.node.replicated_pages",
        write_through: "cluster.node.write_through",
        flushed_pages: "cluster.node.flushed_pages",
        deletes: "cluster.node.deletes",
        dedup_hits: "cluster.node.dedup_hits",
        migrated_in_pages: "cluster.node.migrated_in_pages",
        migrated_out_pages: "cluster.node.migrated_out_pages",
    }
    repl {
        /// Replication sends re-attempted after an ack timeout.
        retries: "cluster.replication.retries",
        /// Pipelined `WriteReplBatch` frames handed to the transport for
        /// the first time (retransmissions count under `retries`).
        batches_sent: "cluster.replication.batches_sent",
        /// Pages carried by those first-send batches; `batch_pages /
        /// batches_sent` is the mean replication batch size.
        batch_pages: "cluster.replication.batch_pages",
        /// Received data-plane messages discarded as duplicates (same
        /// sequence number seen before — retransmissions or network
        /// duplication).
        dups_dropped: "cluster.replication.dups_dropped",
        /// Received data-plane messages that arrived behind a higher
        /// sequence number and were applied anyway (reordering absorbed).
        reorders_healed: "cluster.replication.reorders_healed",
        /// Dirty pages destaged to the backend because the peer was
        /// declared failed or unreachable (solo entries).
        partition_destages: "cluster.replication.partition_destages",
        /// Peer-owned replica pages sequentially destaged to the local
        /// backend when taking over for a failed peer (the paper's
        /// takeover path).
        takeover_destages: "cluster.replication.takeover_destages",
        /// Payload-checksum failures detected on receive (wire corruption)
        /// or by a local scrub.
        corruptions_detected: "cluster.replication.corruptions_detected",
        /// Corruptions healed — a NACKed send that was resent and acked, or
        /// a local page repaired from the peer replica.
        corruptions_repaired: "cluster.replication.corruptions_repaired",
        /// Local pages repaired from the peer replica by scrub runs.
        scrub_repairs: "cluster.replication.scrub_repairs",
        /// Writes that went through locally because the peer advertised no
        /// remote-buffer credits (sender-side backpressure).
        credit_stalls: "cluster.replication.credit_stalls",
        /// Replication messages refused because the remote buffer was full
        /// (receiver-side backpressure).
        credit_rejections: "cluster.replication.credit_rejections",
        /// Pair-lifecycle edges taken.
        lifecycle_transitions: "cluster.replication.lifecycle_transitions",
    }
}

impl NodeObs {
    /// Emit a wall-stamped `cluster.node` event if obs is attached.
    pub(crate) fn note(&self, kind: &'static str, f: impl FnOnce(fc_obs::Event) -> fc_obs::Event) {
        if let Some((obs, id)) = self.stream.get() {
            obs.emit(f(obs.wall_event("cluster.node", kind).u64_field("id", *id)));
        }
    }
}

/// Per-origin counters for requests entering through the gateway (or any
/// caller that identifies itself via the `*_from` entry points). One row per
/// client id; snapshot with [`Node::client_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PerClientStats {
    /// Write runs handled for this client (one per run handed to
    /// [`Node::try_write_runs`], whatever its length).
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replication_stats_absorb_sums_every_counter() {
        let b = ReplicationStats {
            retries: 2,
            batches_sent: 15,
            batch_pages: 16,
            dups_dropped: 1,
            reorders_healed: 3,
            partition_destages: 4,
            takeover_destages: 5,
            corruptions_detected: 6,
            corruptions_repaired: 7,
            scrub_repairs: 8,
            credit_stalls: 9,
            credit_rejections: 10,
            lifecycle_transitions: 11,
        };
        let mut a = ReplicationStats::default();
        a.absorb(&b);
        a.absorb(&b);
        let repl = |repl| {
            let rows = NodeObs::fields(&NodeStats {
                repl,
                ..NodeStats::default()
            });
            rows.into_iter()
                .filter(|(name, _)| name.starts_with("cluster.replication."))
                .collect::<Vec<_>>()
        };
        let (sums, once) = (repl(a), repl(b));
        assert_eq!(sums.len(), 13);
        for ((name, sum), (_, one)) in sums.into_iter().zip(once) {
            assert_eq!(sum, 2 * one, "{name}");
        }
    }
}
