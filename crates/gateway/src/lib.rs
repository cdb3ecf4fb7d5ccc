//! # fc-gateway
//!
//! The client-facing front door of a FlashCoop pair. `fc-cluster` gives a
//! node its *peer*-facing protocol (replication, heartbeats, recovery); this
//! crate gives it a *client*-facing one — the paper's servers are, after
//! all, storage servers with users.
//!
//! * [`proto`] — versioned request/reply wire protocol (Read / Write /
//!   Trim / Flush plus typed errors), framed by the peer protocol's own
//!   frame code (`fc_cluster::wire`).
//! * [`conn`] — sessions over the cluster's one link type,
//!   `fc_cluster::Link`: its in-memory arm for deterministic tests (no
//!   session thread: the client's wait for a reply serves the session),
//!   its TCP arm for real deployments (one session thread each).
//! * [`admission`] — per-client token buckets and a global in-flight cap;
//!   overload is shed with explicit `Busy` replies, never unbounded queues.
//! * [`batch`] — per-session write coalescing into block-aligned runs, so
//!   the node's destage policy sees the sequential windows it looks for.
//! * [`gateway`] — the service tying it together, with `gateway.*`
//!   fc-obs metrics and events.
//! * [`shard`] — scale-out: a [`ShardedGateway`] fronts N cooperative
//!   pairs behind one endpoint, routing by an `fc-ring` consistent-hash
//!   ring with per-shard `gateway.shard.*` counters whose sums *are* the
//!   aggregate page-granular gateway counters.
//! * front-door failover — a shard is a pair, routed by its two nodes'
//!   own state: the first `NodeDown` from a halted primary fails the
//!   route over to the secondary, ops retry with deadline-bounded
//!   jittered backoff, the route fails back once the pair re-forms, and a
//!   shard with both nodes halted answers a typed
//!   `Unavailable { retry_after_ms }` reply (protocol v2). Write runs
//!   carry client-stamped dedup tags, so retries are exactly-once end to
//!   end.
//! * elastic membership — [`Gateway::rebalance`] takes the cluster to a
//!   new ring *live*: an epoch-fenced dual-ring window (occupied blocks
//!   whose owner changes keep routing to their old owner until migrated),
//!   pair-to-pair migration in bounded barrier batches, an atomic
//!   cut-over; [`Gateway::add_pair`] / [`Gateway::remove_pair`] wrap it,
//!   with `gateway.rebalance.*` counters and a per-run moved-blocks
//!   histogram.
//!
//! ```
//! use fc_cluster::{mem_pair, shared_backend, MemBackend, Node, NodeConfig};
//! use fc_gateway::{Gateway, GatewayConfig};
//! use std::sync::Arc;
//!
//! let (ta, tb) = mem_pair();
//! let backend = shared_backend(MemBackend::default());
//! let a = Arc::new(Node::spawn(NodeConfig::test_profile(0), ta, backend.clone()));
//! let b = Arc::new(Node::spawn(NodeConfig::test_profile(1), tb, backend));
//!
//! // A one-pair ring: `a` serves, `b` takes over while `a` is down.
//! // `ShardedGateway` wires in both nodes of N pairs.
//! let gw = Gateway::new(GatewayConfig::test_profile(), a, b);
//! let mut client = gw.connect_mem();
//! client.hello().unwrap();
//! let ack = client.write(0, vec![bytes::Bytes::from_static(b"hello")]).unwrap();
//! assert_eq!(ack.pages, 1);
//! assert_eq!(client.read(0, 1).unwrap()[0].as_deref(), Some(&b"hello"[..]));
//! gw.shutdown();
//! ```

pub mod admission;
pub mod batch;
pub mod client;
pub mod conn;
pub mod gateway;
pub mod proto;
pub mod shard;

pub use admission::{Admission, AdmissionConfig, Permit, ShedReason, TokenBucket};
pub use batch::{coalesce, coalesce_sharded, WriteRun};
pub use client::{ClientError, GatewayClient, WriteAck};
pub use conn::{mem_session, LinkClosed, SessionLink, TcpSessionLink};
pub use gateway::{Gateway, GatewayConfig, RebalanceError, RebalanceReport};
pub use gateway::{GatewayStats, ShardStats, ShardStatsSum};
pub use proto::{ErrorCode, Reply, Request, PROTO_VERSION};
pub use shard::{spawn_mem_pair, ShardedGateway};
