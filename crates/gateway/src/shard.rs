//! Sharded (multi-pair) gateway mode.
//!
//! A [`ShardedGateway`] fronts N cooperative pairs behind ONE client
//! protocol endpoint: an [`fc_ring::Ring`] maps each logical block to a
//! pair, the session scheduler splits batched write runs at shard
//! boundaries ([`crate::batch::coalesce_sharded`]), reads and trims are
//! routed per block segment, and `Flush` fans out to every pair.
//!
//! Its per-shard `gateway.shard.{i}.*` counters, and the counter-sum
//! identity that ties them to [`GatewayStats`], are rows of the gateway's
//! counter table (`gateway/stats.rs`).

use std::sync::Arc;

use fc_cluster::{mem_pair, shared_backend, MemBackend, Node, NodeConfig};
use fc_ring::{Ring, RingConfig};

use crate::client::GatewayClient;
use crate::gateway::{Gateway, GatewayConfig, GatewayStats, ShardStats};

/// Spawn one in-memory cooperative pair for ring shard `shard`: A/B over an
/// in-memory link sharing one mem backend, node ids `2*shard` /
/// `2*shard+1`, block geometry `pages_per_block`, and `tune` applied to
/// each node's [`NodeConfig`] before spawn.
pub fn spawn_mem_pair(
    shard: u16,
    pages_per_block: u32,
    tune: impl Fn(&mut NodeConfig),
) -> (Arc<Node>, Arc<Node>) {
    let (ta, tb) = mem_pair();
    let backend = shared_backend(MemBackend::default());
    let node = |id: u16, link| {
        let mut cfg = NodeConfig::test_profile(id as u8);
        cfg.pages_per_block = pages_per_block;
        tune(&mut cfg);
        Arc::new(Node::spawn(cfg, link, backend.clone()))
    };
    (node(2 * shard, ta), node(2 * shard + 1, tb))
}

/// A gateway fronting N cooperative pairs, with both nodes of every pair
/// wired in: the primaries carry traffic, and each secondary doubles as
/// its shard's failover target (the gateway flips the route to it when
/// the primary is halted, and back after the pair re-forms).
pub struct ShardedGateway {
    gateway: Arc<Gateway>,
}

impl ShardedGateway {
    /// Front `primaries[i]` (pair i's client-facing node) for ring shard
    /// `i`, with `secondaries[i]` as its failover target. The ring must
    /// contain exactly the pairs `0..primaries.len()`.
    pub fn from_pairs(
        cfg: GatewayConfig,
        ring: Ring,
        primaries: Vec<Arc<Node>>,
        secondaries: Vec<Arc<Node>>,
    ) -> ShardedGateway {
        ShardedGateway {
            gateway: Gateway::new_sharded_with_secondaries(cfg, ring, primaries, secondaries),
        }
    }

    /// Spawn `pairs` in-memory cooperative pairs (each A/B over an
    /// in-memory link, sharing one backend per pair, node ids `2i`/`2i+1`)
    /// and front them with a sharded gateway. The node block geometry is
    /// aligned with `cfg.pages_per_block`.
    pub fn spawn_mem(cfg: GatewayConfig, ring_cfg: RingConfig, pairs: u16) -> ShardedGateway {
        ShardedGateway::spawn_mem_with(cfg, ring_cfg, pairs, |_| {})
    }

    /// [`ShardedGateway::spawn_mem`] with a hook to adjust every node's
    /// [`NodeConfig`] before spawn — how a harness sizes every node of
    /// the cluster alike (`repl_batch_pages`, buffer capacities).
    pub fn spawn_mem_with(
        cfg: GatewayConfig,
        ring_cfg: RingConfig,
        pairs: u16,
        tune: impl Fn(&mut NodeConfig),
    ) -> ShardedGateway {
        assert!(pairs >= 1, "a cluster needs at least one pair");
        let (primaries, secondaries) = (0..pairs)
            .map(|i| spawn_mem_pair(i, cfg.pages_per_block, &tune))
            .unzip();
        let ring = Ring::with_pairs(ring_cfg, pairs);
        ShardedGateway::from_pairs(cfg, ring, primaries, secondaries)
    }

    /// The wrapped gateway (serve sessions, attach obs, snapshot stats).
    pub fn gateway(&self) -> &Arc<Gateway> {
        &self.gateway
    }

    /// Pair `shard`'s designated primary node (regardless of where the
    /// route currently points).
    pub fn primary(&self, shard: u16) -> Arc<Node> {
        self.gateway.shard_backend(shard).primary.clone()
    }

    /// Pair `shard`'s secondary node.
    pub fn secondary(&self, shard: u16) -> Arc<Node> {
        self.gateway.shard_backend(shard).secondary.clone()
    }

    /// Number of pair slots behind the gateway (attached slots, including
    /// any pair already rebalanced out of the ring).
    pub fn shards(&self) -> u16 {
        self.gateway.shard_nodes().len() as u16
    }

    /// Connect an in-memory client (see [`Gateway::connect_mem`]).
    pub fn connect_mem(&self) -> GatewayClient {
        self.gateway.connect_mem()
    }

    /// Connect an in-memory client with a chosen id.
    pub fn connect_mem_as(&self, client_id: u64) -> GatewayClient {
        self.gateway.connect_mem_as(client_id)
    }

    /// Aggregate gateway stats.
    pub fn stats(&self) -> GatewayStats {
        self.gateway.stats()
    }

    /// Per-shard stats, index = shard id.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.gateway.shard_stats()
    }

    /// Combined snapshot — see [`Gateway::stats_with_shards`]. The
    /// counter-sum identity ([`crate::ShardStatsSum::matches`]) holds on the
    /// returned pair even under concurrent traffic.
    pub fn stats_with_shards(&self) -> (GatewayStats, Vec<ShardStats>) {
        self.gateway.stats_with_shards()
    }

    /// Shut down the gateway sessions, then every pair node. The
    /// secondaries are `Arc`-shared with the gateway's routing state, so
    /// they stop via [`Node::quiesce`] (their pump threads join when the
    /// last `Arc` drops).
    pub fn shutdown(&self) {
        self.gateway.shutdown();
        for shard in 0..self.shards() {
            self.secondary(shard).quiesce();
        }
    }
}
