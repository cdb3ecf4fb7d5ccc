//! Sharded (multi-pair) gateway mode.
//!
//! A [`ShardedGateway`] fronts N cooperative pairs behind ONE client
//! protocol endpoint: an [`fc_ring::Ring`] maps each logical block to a
//! pair, the session scheduler splits batched write runs at shard
//! boundaries ([`crate::batch::coalesce_sharded`]), reads and trims are
//! routed per block segment, and `Flush` fans out to every pair.
//!
//! ## Counter-sum identity
//!
//! Every page-granular and failover-path counter is kept once, in the
//! routing slot of the shard it moved for; the aggregate of the same
//! name in [`GatewayStats`] is *defined* as the column sum:
//!
//! ```text
//! GatewayStats.<name>  ==  Σ_i ShardStats[i].<name>
//! ```
//!
//! for `read_pages`, `read_hits`, `write_pages`, `coalesced_pages`,
//! `runs`, `trim_pages`, `flushed_pages`, `failovers`, `failbacks`,
//! `retries` and `unavailable` — so [`ShardStatsSum::matches`] holds on
//! every [`Gateway::stats_with_shards`] snapshot by construction.
//! Request-granular counters (`requests`, `admitted`, `writes`, …) have
//! no per-shard cell: one request may straddle shards, so request counts
//! do not partition.

use std::sync::Arc;

use fc_cluster::{mem_pair, shared_backend, MemBackend, Node, NodeConfig};
use fc_obs::{Counter, Gauge, Histogram, Metric, Registry};
use fc_ring::{Ring, RingConfig};

use crate::client::GatewayClient;
use crate::gateway::{Gateway, GatewayConfig, GatewayStats};

/// Hot-path per-shard instruments, owned by the shard's routing slot for
/// the gateway's whole life.
#[derive(Default)]
pub(crate) struct ShardInstruments {
    /// Node submissions routed to this shard (runs + read/trim segments +
    /// flush fan-outs).
    pub(crate) ops: Counter,
    pub(crate) read_pages: Counter,
    pub(crate) read_hits: Counter,
    /// Pre-coalesce write pages routed here.
    pub(crate) write_pages: Counter,
    pub(crate) coalesced_pages: Counter,
    pub(crate) runs: Counter,
    pub(crate) trim_pages: Counter,
    pub(crate) flushed_pages: Counter,
    /// Route flips away from a dead node on this shard.
    pub(crate) failovers: Counter,
    /// Routes restored to this shard's recovered primary.
    pub(crate) failbacks: Counter,
    /// Backoff retries after a `NodeDown` on this shard.
    pub(crate) retries: Counter,
    /// Ops abandoned at the retry deadline with both replicas down.
    pub(crate) unavailable: Counter,
    /// 1.0 while routed to the designated primary, 0.0 while failed over.
    pub(crate) health: Gauge,
    /// Per-submission service latency at this shard's node.
    pub(crate) latency_ns: Histogram,
}

impl ShardInstruments {
    pub(crate) fn new() -> ShardInstruments {
        let ins = ShardInstruments::default();
        ins.health.set(1.0);
        ins
    }

    /// Publish these cells under `gateway.shard.{shard}.*`.
    pub(crate) fn publish(&self, reg: &Registry, shard: u16) {
        let name = |leaf: &str| format!("gateway.shard.{shard}.{leaf}");
        for (leaf, c) in [
            ("ops", &self.ops),
            ("read_pages", &self.read_pages),
            ("read_hits", &self.read_hits),
            ("write_pages", &self.write_pages),
            ("coalesced_pages", &self.coalesced_pages),
            ("runs", &self.runs),
            ("trim_pages", &self.trim_pages),
            ("flushed_pages", &self.flushed_pages),
            ("failovers", &self.failovers),
            ("failbacks", &self.failbacks),
            ("retries", &self.retries),
            ("unavailable", &self.unavailable),
        ] {
            reg.adopt(&name(leaf), Metric::Counter(c.clone()));
        }
        reg.adopt(&name("health"), Metric::Gauge(self.health.clone()));
        reg.adopt(
            &name("latency_ns"),
            Metric::Histogram(self.latency_ns.clone()),
        );
    }

    pub(crate) fn stats(&self, shard: u16) -> ShardStats {
        ShardStats {
            shard,
            ops: self.ops.get(),
            read_pages: self.read_pages.get(),
            read_hits: self.read_hits.get(),
            write_pages: self.write_pages.get(),
            coalesced_pages: self.coalesced_pages.get(),
            runs: self.runs.get(),
            trim_pages: self.trim_pages.get(),
            flushed_pages: self.flushed_pages.get(),
            failovers: self.failovers.get(),
            failbacks: self.failbacks.get(),
            retries: self.retries.get(),
            unavailable: self.unavailable.get(),
            healthy: self.health.get() >= 0.5,
            latency_samples: self.latency_ns.count(),
            latency_sum_ns: self.latency_ns.sum(),
        }
    }
}

/// Point-in-time snapshot of one shard's share of gateway traffic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardStats {
    pub shard: u16,
    /// Node submissions routed to this shard.
    pub ops: u64,
    pub read_pages: u64,
    pub read_hits: u64,
    /// Pre-coalesce write pages routed to this shard.
    pub write_pages: u64,
    pub coalesced_pages: u64,
    pub runs: u64,
    pub trim_pages: u64,
    pub flushed_pages: u64,
    /// Route flips away from a dead node on this shard.
    pub failovers: u64,
    /// Routes restored to this shard's recovered primary.
    pub failbacks: u64,
    /// Backoff retries after a `NodeDown` on this shard.
    pub retries: u64,
    /// Ops abandoned at the retry deadline with both replicas down.
    pub unavailable: u64,
    /// True while the route points at the designated primary (the
    /// `gateway.shard.{i}.health` gauge at 1.0).
    pub healthy: bool,
    /// Latency samples recorded at this shard (one per submission).
    pub latency_samples: u64,
    pub latency_sum_ns: u64,
}

/// Column-wise sum of [`ShardStats`] — the left-hand side of the
/// counter-sum identity.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardStatsSum {
    pub read_pages: u64,
    pub read_hits: u64,
    pub write_pages: u64,
    pub coalesced_pages: u64,
    pub runs: u64,
    pub trim_pages: u64,
    pub flushed_pages: u64,
    pub failovers: u64,
    pub failbacks: u64,
    pub retries: u64,
    pub unavailable: u64,
}

impl ShardStatsSum {
    /// Fold per-shard snapshots into their column sums.
    pub fn of(shards: &[ShardStats]) -> ShardStatsSum {
        let mut s = ShardStatsSum::default();
        for sh in shards {
            s.read_pages += sh.read_pages;
            s.read_hits += sh.read_hits;
            s.write_pages += sh.write_pages;
            s.coalesced_pages += sh.coalesced_pages;
            s.runs += sh.runs;
            s.trim_pages += sh.trim_pages;
            s.flushed_pages += sh.flushed_pages;
            s.failovers += sh.failovers;
            s.failbacks += sh.failbacks;
            s.retries += sh.retries;
            s.unavailable += sh.unavailable;
        }
        s
    }

    /// The counter-sum identity: every column equals its aggregate
    /// gateway counter — including the failover-path counters, which
    /// always move for a specific shard. Returns the first mismatch as
    /// `Err((name, shard_sum, gateway_total))`.
    pub fn matches(&self, g: &GatewayStats) -> Result<(), (&'static str, u64, u64)> {
        let checks: [(&'static str, u64, u64); 11] = [
            ("read_pages", self.read_pages, g.read_pages),
            ("read_hits", self.read_hits, g.read_hits),
            ("write_pages", self.write_pages, g.write_pages),
            ("coalesced_pages", self.coalesced_pages, g.coalesced_pages),
            ("runs", self.runs, g.runs),
            ("trim_pages", self.trim_pages, g.trim_pages),
            ("flushed_pages", self.flushed_pages, g.flushed_pages),
            ("failovers", self.failovers, g.failovers),
            ("failbacks", self.failbacks, g.failbacks),
            ("retries", self.retries, g.retries),
            ("unavailable", self.unavailable, g.unavailable),
        ];
        for (name, sum, total) in checks {
            if sum != total {
                return Err((name, sum, total));
            }
        }
        Ok(())
    }
}

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
    /// counter-sum identity ([`ShardStatsSum::matches`]) holds on the
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
