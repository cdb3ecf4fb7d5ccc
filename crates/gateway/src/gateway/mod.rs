//! The gateway service: sessions, scheduling, admission, and obs.
//!
//! A [`Gateway`] fronts one or more FlashCoop pairs (`fc_cluster::Node`s
//! behind a consistent-hash ring) for many concurrent clients. Each
//! accepted connection gets its own session thread running
//! [`SessionLink`] I/O:
//!
//! 1. **Handshake** — the first message must be a versioned Hello;
//!    mismatched clients are refused with `BadVersion` before any I/O.
//! 2. **Admission** — every request passes the per-client token bucket and
//!    the global in-flight cap ([`crate::admission`]); refused requests get
//!    an explicit `Busy` reply instead of unbounded queueing.
//! 3. **Scheduling** — admitted writes open a short batch window: already-
//!    pipelined writes from the same session are drained (non-blocking)
//!    and coalesced into block-aligned runs ([`crate::batch`]) before one
//!    submission to the node, so adjacent pages arrive as the sequences
//!    the destage policy wants.
//!
//! Replies are sent in receive order per session, which is the property
//! clients rely on for pipelining.

mod config;
mod stats;

pub use config::GatewayConfig;
pub use stats::GatewayStats;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use std::collections::{HashMap, HashSet};

use bytes::Bytes;
use fc_cluster::{MigrateError, Node, NodeDown, PairState, PEER_NS};
use fc_obs::{Counter, Obs};
use fc_ring::{Ring, RingConfig};
use parking_lot::{Mutex, RwLock};

use crate::admission::{Admission, Permit, ShedReason};
use crate::batch::coalesce_sharded;
use crate::client::GatewayClient;
use crate::conn::{mem_session, LinkClosed, SessionLink, TcpSessionLink};
use crate::health::{BreakerState, Replica, ShardHealth};
use crate::proto::{ErrorCode, Reply, Request, MIN_PROTO_VERSION, PROTO_VERSION};
use crate::shard::{ShardInstruments, ShardStats, ShardStatsSum};
use stats::Instruments;

/// One shard's pair as the gateway routes to it: the designated primary,
/// optionally the pair's secondary (failover target), and the health /
/// route state. Ops take the health read lock for the duration of the
/// node call; failover and failback take the write lock, so a route flip
/// (and the failback flush barrier) never interleaves with an op on the
/// old route.
pub(crate) struct ShardBackend {
    pub(crate) primary: Arc<Node>,
    /// The pair's B-side, when the gateway is allowed to fail over to it.
    /// `None` preserves the pre-failover behavior (route pinned to the
    /// primary; a dead primary means the shard is just down).
    pub(crate) secondary: Option<Arc<Node>>,
    health: RwLock<ShardHealth>,
    /// This shard's counters, created with the slot and never rebuilt.
    ins: ShardInstruments,
}

impl ShardBackend {
    fn new(cfg: &GatewayConfig, primary: Arc<Node>, secondary: Option<Arc<Node>>) -> Self {
        ShardBackend {
            primary,
            secondary,
            health: RwLock::new(ShardHealth::new(
                cfg.breaker_threshold,
                cfg.breaker_cooldown,
            )),
            ins: ShardInstruments::new(),
        }
    }

    /// The node the current route points at. With no secondary the route
    /// can only be the primary.
    fn active<'a>(&'a self, health: &ShardHealth) -> &'a Arc<Node> {
        match health.active {
            Replica::Primary => &self.primary,
            Replica::Secondary => self.secondary.as_ref().unwrap_or(&self.primary),
        }
    }
}

/// Routing state: the attached shard slots, the ring(s), and — while an
/// elastic-membership window is open — the fence set.
///
/// Ops hold the read half of the guarding `RwLock` across their node
/// calls; `attach_shard` / `begin_rebalance` / `migrate_batch` /
/// `commit_rebalance` take the write half. That makes every migration
/// batch a barrier: a block's copy+release never interleaves with a
/// client op routed by the pre-batch table, and once the batch's write
/// guard drops, every subsequent op sees the block at its new owner —
/// the "briefly held writes" of the dual-ring window. Lock order is
/// route table → shard health; nothing acquires them the other way.
pub(crate) struct RouteTable {
    /// The ring requests route by outside the fence set: epoch E+1 during
    /// a window, the only ring otherwise.
    ring: Ring,
    /// The retiring ring (epoch E) while a window is open.
    old: Option<Ring>,
    /// Planned-but-not-yet-migrated blocks. These still route to their
    /// old-ring owner; everything else routes by `ring`, so a block first
    /// written *during* the window lands directly on its post-cut-over
    /// owner and no acked write is stranded at commit.
    pending: HashSet<u64>,
    /// Shard slots, index = pair id. Slots are append-only: a removed
    /// pair's slot stays (its counters freeze, routing simply never
    /// resolves to a non-member), so per-shard stats and the counter-sum
    /// identity survive membership changes.
    shards: Vec<Arc<ShardBackend>>,
    /// Blocks / pages / batches moved in the current window.
    window_moved_blocks: u64,
    window_moved_pages: u64,
    window_batches: u64,
}

impl RouteTable {
    fn new(ring: Ring, shards: Vec<Arc<ShardBackend>>) -> RouteTable {
        RouteTable {
            ring,
            old: None,
            pending: HashSet::new(),
            shards,
            window_moved_blocks: 0,
            window_moved_pages: 0,
            window_batches: 0,
        }
    }

    /// The dual-ring routing rule.
    fn owner_of_block(&self, block: u64) -> u16 {
        match &self.old {
            Some(old) if self.pending.contains(&block) => old.shard_of_block(block),
            _ => self.ring.shard_of_block(block),
        }
    }

    fn owner_of_lpn(&self, lpn: u64) -> u16 {
        self.owner_of_block(lpn / u64::from(self.ring.block_pages()))
    }

    /// Shards a flush must fan out to: the current members, plus — during
    /// a window — the retiring ring's members (a pair leaving the cluster
    /// still holds unmigrated dirty pages until the cut-over).
    fn flush_members(&self) -> Vec<u16> {
        let mut members: Vec<u16> = self.ring.members().to_vec();
        if let Some(old) = &self.old {
            members.extend_from_slice(old.members());
            members.sort_unstable();
            members.dedup();
        }
        members
    }
}

/// A running gateway. Create with [`Gateway::new`] (one node, no failover
/// target) or [`Gateway::new_sharded_with_secondaries`] (N pairs behind a
/// ring; usually via [`crate::ShardedGateway`]), connect clients with
/// [`Gateway::connect_mem`] or [`Gateway::listen_tcp`] +
/// [`GatewayClient::connect_tcp`](crate::GatewayClient::connect_tcp).
pub struct Gateway {
    cfg: GatewayConfig,
    /// Maps logical blocks to shard slots and carries the
    /// elastic-membership window state.
    routes: RwLock<RouteTable>,
    admission: Admission,
    ins: Instruments,
    /// Event stream, set by the first [`Gateway::attach_obs`].
    obs: OnceLock<Obs>,
    next_mem_client: AtomicU64,
    /// Deterministic decorrelation stream for retry-backoff jitter.
    jitter: AtomicU64,
    epoch: Instant,
    shutdown: Arc<AtomicBool>,
    sessions: Mutex<Vec<JoinHandle<()>>>,
    acceptors: Mutex<Vec<JoinHandle<()>>>,
}

impl Gateway {
    /// Wrap a node as a one-pair ring with no failover target: a dead node
    /// leaves the gateway answering `Unavailable`. The node keeps its own
    /// lifecycle (pump thread, replication); the gateway only adds the
    /// client-facing front end.
    pub fn new(cfg: GatewayConfig, node: Arc<Node>) -> Arc<Gateway> {
        let ring_cfg = RingConfig {
            block_pages: cfg.pages_per_block,
            ..RingConfig::default()
        };
        Gateway::with_shards(cfg, Ring::with_pairs(ring_cfg, 1), vec![node], vec![None])
    }

    /// Front `primaries[i]` (pair i's client-facing node) for ring shard
    /// `i`, holding each pair's secondary too: the gateway fails a
    /// shard's route over to it when the primary's circuit breaker opens
    /// (then back once the pair re-forms) — the front-door half of the
    /// FlashCoop failure story. The ring must contain exactly the pairs
    /// `0..primaries.len()` so every lookup resolves to a node.
    pub fn new_sharded_with_secondaries(
        cfg: GatewayConfig,
        ring: Ring,
        primaries: Vec<Arc<Node>>,
        secondaries: Vec<Arc<Node>>,
    ) -> Arc<Gateway> {
        assert_eq!(
            primaries.len(),
            secondaries.len(),
            "every pair needs both nodes"
        );
        let secondaries = secondaries.into_iter().map(Some).collect();
        Gateway::with_shards(cfg, ring, primaries, secondaries)
    }

    fn with_shards(
        cfg: GatewayConfig,
        ring: Ring,
        primaries: Vec<Arc<Node>>,
        secondaries: Vec<Option<Arc<Node>>>,
    ) -> Arc<Gateway> {
        assert!(
            !primaries.is_empty(),
            "sharded gateway needs at least one pair"
        );
        let expected: Vec<u16> = (0..primaries.len() as u16).collect();
        assert_eq!(
            ring.pairs(),
            expected.as_slice(),
            "ring membership must be exactly 0..{}",
            primaries.len()
        );
        let shards: Vec<Arc<ShardBackend>> = primaries
            .into_iter()
            .zip(secondaries)
            .map(|(primary, secondary)| Arc::new(ShardBackend::new(&cfg, primary, secondary)))
            .collect();
        Arc::new(Gateway {
            admission: Admission::new(cfg.admission),
            cfg,
            ins: Instruments::default(),
            obs: OnceLock::new(),
            routes: RwLock::new(RouteTable::new(ring, shards)),
            next_mem_client: AtomicU64::new(1),
            jitter: AtomicU64::new(1),
            epoch: Instant::now(),
            shutdown: Arc::new(AtomicBool::new(false)),
            sessions: Mutex::new(Vec::new()),
            acceptors: Mutex::new(Vec::new()),
        })
    }

    /// Every (designated) primary node behind this gateway, index =
    /// shard id. These are the configured primaries regardless of where
    /// each shard's route currently points.
    pub fn shard_nodes(&self) -> Vec<Arc<Node>> {
        self.routes
            .read()
            .shards
            .iter()
            .map(|s| s.primary.clone())
            .collect()
    }

    /// Routing state for `shard`.
    pub(crate) fn shard_backend(&self, shard: u16) -> Arc<ShardBackend> {
        self.routes.read().shards[usize::from(shard)].clone()
    }

    /// True while `shard`'s route points at its designated primary (1.0
    /// on the `gateway.shard.{i}.health` gauge).
    pub fn shard_routed_to_primary(&self, shard: u16) -> bool {
        self.routes.read().shards[usize::from(shard)]
            .health
            .read()
            .active
            == Replica::Primary
    }

    /// A snapshot of the routing ring. During a rebalance window this is
    /// the *target* ring (epoch E+1); blocks in the fence set still route
    /// to their old owner until migrated, so don't use the snapshot to
    /// second-guess in-window placement.
    pub fn ring(&self) -> Ring {
        self.routes.read().ring.clone()
    }

    /// The current ring epoch — the target ring's epoch during a window.
    pub fn ring_epoch(&self) -> u64 {
        self.routes.read().ring.epoch()
    }

    /// True while an elastic-membership window is open.
    pub fn rebalance_active(&self) -> bool {
        self.routes.read().old.is_some()
    }

    /// Blocks still awaiting migration in the open window, if any.
    pub fn rebalance_pending(&self) -> Option<u64> {
        let rt = self.routes.read();
        rt.old.as_ref().map(|_| rt.pending.len() as u64)
    }

    /// The fenced blocks still awaiting migration, ascending — what a
    /// coordinator resuming an interrupted window must still move. Empty
    /// with no window open.
    pub fn rebalance_pending_blocks(&self) -> Vec<u64> {
        let rt = self.routes.read();
        let mut blocks: Vec<u64> = rt.pending.iter().copied().collect();
        blocks.sort_unstable();
        blocks
    }

    /// Read one logical page through the router, without client
    /// attribution — the primitive behind state digests and scrub-style
    /// full-space sweeps.
    pub fn read_page(&self, lpn: u64) -> Option<Vec<u8>> {
        let rt = self.routes.read();
        let sb = &rt.shards[usize::from(rt.owner_of_lpn(lpn))];
        let health = sb.health.read();
        sb.active(&health).read(lpn)
    }

    // -- elastic membership ------------------------------------------------
    //
    // The control surface a rebalance coordinator drives (see the
    // `fc-rebalance` crate): attach new shard slots, open an epoch window,
    // migrate the fence set in bounded batches, cut over.

    /// Attach a new pair as the next shard slot and return its id. The
    /// slot is routable only once a later [`Gateway::begin_rebalance`]
    /// installs a ring that includes it, so attaching is invisible to
    /// clients.
    pub fn attach_shard(&self, primary: Arc<Node>, secondary: Option<Arc<Node>>) -> u16 {
        let mut rt = self.routes.write();
        let shard = rt.shards.len() as u16;
        let sb = ShardBackend::new(&self.cfg, primary, secondary);
        // Checked under the route write guard, which `attach_obs` excludes
        // while it publishes: the new slot is published by exactly one of
        // the two.
        if let Some(obs) = self.obs.get() {
            sb.ins.publish(obs.registry(), shard);
        }
        rt.shards.push(Arc::new(sb));
        drop(rt);
        self.note("shard_attach", |e| e.u64_field("shard", u64::from(shard)));
        shard
    }

    /// Open an elastic-membership window: install `new_ring` (epoch E+1)
    /// as the routing target and fence the moved-block set to its old
    /// owners until migrated. The fence is `pending` (the coordinator's
    /// plan) **unioned with a live occupancy scan of the retiring ring's
    /// members**, then restricted to blocks whose owner actually differs
    /// between the rings.
    ///
    /// The scan runs under the same route-table write guard that installs
    /// the new ring — no client op can be in flight while it runs — so a
    /// block first written *after* the coordinator planned (and therefore
    /// missing from `pending`) is still fenced here rather than silently
    /// flipping to a new owner that does not hold its pages. Returns the
    /// fenced set, ascending: exactly the blocks the caller must migrate
    /// before [`Gateway::commit_rebalance`] will succeed.
    pub fn begin_rebalance(
        &self,
        new_ring: Ring,
        pending: impl IntoIterator<Item = u64>,
    ) -> Result<Vec<u64>, RebalanceError> {
        let mut rt = self.routes.write();
        if rt.old.is_some() {
            return Err(RebalanceError::WindowOpen);
        }
        if new_ring.config() != rt.ring.config() {
            return Err(RebalanceError::ConfigMismatch);
        }
        if new_ring.epoch() <= rt.ring.epoch() {
            return Err(RebalanceError::StaleEpoch {
                current: rt.ring.epoch(),
                offered: new_ring.epoch(),
            });
        }
        if let Some(&m) = new_ring
            .members()
            .iter()
            .find(|&&m| usize::from(m) >= rt.shards.len())
        {
            return Err(RebalanceError::UnknownMember(m));
        }
        // Live occupancy scan, atomic with the routing switch below. A
        // member that cannot answer aborts the begin with the table
        // untouched — fencing blindly would strand whatever it holds.
        let bp = u64::from(rt.ring.block_pages());
        let mut fence: HashSet<u64> = pending.into_iter().collect();
        for &m in rt.ring.members() {
            let sb = &rt.shards[usize::from(m)];
            let health = sb.health.read();
            let lpns = sb
                .active(&health)
                .try_migration_lpns()
                .map_err(|NodeDown| RebalanceError::SourceDown(m))?;
            fence.extend(lpns.iter().map(|l| l / bp).filter(|&b| {
                // Only blocks this member owns per the retiring ring; a
                // stray page parked off-owner is not this window's problem.
                rt.ring.shard_of_block(b) == m
            }));
        }
        let old = std::mem::replace(&mut rt.ring, new_ring);
        rt.pending = fence
            .into_iter()
            .filter(|&b| old.shard_of_block(b) != rt.ring.shard_of_block(b))
            .collect();
        let mut fenced_blocks: Vec<u64> = rt.pending.iter().copied().collect();
        fenced_blocks.sort_unstable();
        let (from_epoch, to_epoch, fenced) = (old.epoch(), rt.ring.epoch(), rt.pending.len());
        rt.old = Some(old);
        rt.window_moved_blocks = 0;
        rt.window_moved_pages = 0;
        rt.window_batches = 0;
        drop(rt);
        self.ins.rebalances_started.inc();
        self.note("rebalance_begin", |e| {
            e.u64_field("from_epoch", from_epoch)
                .u64_field("to_epoch", to_epoch)
                .u64_field("fenced_blocks", fenced as u64)
        });
        Ok(fenced_blocks)
    }

    /// Migrate one bounded batch of fenced blocks. For each block still
    /// pending, `copy(block, from, to)` must move its pages from the old
    /// owner to the new one (export → import → release) and return the
    /// page count; on success the block leaves the fence set, so the next
    /// op routes it to its new owner.
    ///
    /// The whole batch runs under the route-table write guard — client
    /// ops are briefly held, which is exactly the fence that makes the
    /// copy atomic against concurrent writes. Keep batches small; the
    /// guard hold is the rebalance/client latency trade-off. On a copy
    /// error the batch stops: already-moved blocks stay moved, the failed
    /// block (and the rest) stay fenced to their old owner, and the
    /// window remains open for a retry.
    pub fn migrate_batch(
        &self,
        blocks: &[u64],
        mut copy: impl FnMut(u64, u16, u16) -> Result<u64, MigrateError>,
    ) -> Result<u64, MigrateBatchError> {
        let ins = &self.ins;
        let mut rt = self.routes.write();
        if rt.old.is_none() {
            return Err(MigrateBatchError::State(RebalanceError::NoWindow));
        }
        let mut pages = 0u64;
        let mut moved = 0u64;
        for &block in blocks {
            if !rt.pending.contains(&block) {
                continue; // already moved, or never part of the plan
            }
            let from = rt.old.as_ref().unwrap().shard_of_block(block);
            let to = rt.ring.shard_of_block(block);
            match copy(block, from, to) {
                Ok(n) => {
                    rt.pending.remove(&block);
                    rt.window_moved_blocks += 1;
                    rt.window_moved_pages += n;
                    moved += 1;
                    pages += n;
                }
                Err(error) => {
                    rt.window_batches += 1;
                    ins.rebalance_batches.inc();
                    ins.rebalance_moved_blocks.add(moved);
                    ins.rebalance_moved_pages.add(pages);
                    return Err(MigrateBatchError::Copy {
                        block,
                        from,
                        to,
                        error,
                    });
                }
            }
        }
        rt.window_batches += 1;
        drop(rt);
        ins.rebalance_batches.inc();
        ins.rebalance_moved_blocks.add(moved);
        ins.rebalance_moved_pages.add(pages);
        Ok(pages)
    }

    /// Cut over: retire the old ring and route purely by the new epoch.
    /// Refused while fenced blocks remain — committing early would flip
    /// unmigrated blocks to an owner that does not hold them. Returns the
    /// new epoch.
    pub fn commit_rebalance(&self) -> Result<u64, RebalanceError> {
        let mut rt = self.routes.write();
        let Some(old) = &rt.old else {
            return Err(RebalanceError::NoWindow);
        };
        if !rt.pending.is_empty() {
            return Err(RebalanceError::PendingBlocks(rt.pending.len() as u64));
        }
        let from_epoch = old.epoch();
        rt.old = None;
        let to_epoch = rt.ring.epoch();
        let (blocks, pages, batches) = (
            rt.window_moved_blocks,
            rt.window_moved_pages,
            rt.window_batches,
        );
        drop(rt);
        self.ins.rebalances_completed.inc();
        self.ins.rebalance_hist.record(blocks);
        self.note("rebalance_commit", |e| {
            e.u64_field("from_epoch", from_epoch)
                .u64_field("to_epoch", to_epoch)
                .u64_field("moved_blocks", blocks)
                .u64_field("moved_pages", pages)
                .u64_field("batches", batches)
        });
        Ok(to_epoch)
    }

    /// Per-shard traffic snapshots, index = shard id.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        let rt = self.routes.read();
        (0u16..)
            .zip(&rt.shards)
            .map(|(i, sb)| sb.ins.stats(i))
            .collect()
    }

    /// Publish the gateway's live metric cells in `obs`'s registry —
    /// request-granular counters, the `gateway.inflight` gauge and the
    /// `gateway.latency_ns` histogram under `gateway.*`, every shard's
    /// cells under `gateway.shard.{i}.*` — and start emitting wall-stamped
    /// `gateway` events (`session_start` / `session_end` / `shed` /
    /// `bad_request` / `flush`). The registry shares the cells the gateway
    /// has counted into since it was built, so attaching mid-run loses
    /// nothing. Events go to the first `Obs` attached.
    pub fn attach_obs(&self, obs: &Obs) {
        let reg = obs.registry();
        self.ins.publish(reg);
        let rt = self.routes.read();
        for (i, sb) in (0u16..).zip(&rt.shards) {
            sb.ins.publish(reg, i);
        }
        // Set under the route guard — see `attach_shard`.
        let _ = self.obs.set(obs.clone());
    }

    /// Emit a wall-stamped `gateway` event, if an `Obs` is attached.
    fn note(&self, kind: &'static str, fields: impl FnOnce(fc_obs::Event) -> fc_obs::Event) {
        if let Some(obs) = self.obs.get() {
            obs.emit(fields(obs.wall_event("gateway", kind)));
        }
    }

    /// Monotonic nanoseconds since gateway start — the admission clock.
    fn now_nanos(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Snapshot of gateway activity.
    pub fn stats(&self) -> GatewayStats {
        self.stats_with_shards().0
    }

    /// Combined snapshot: per-shard stats plus the aggregate built from
    /// them. The page-granular and failover-path aggregates are *defined*
    /// as the column sums of the returned shard snapshots, so the
    /// counter-sum identity ([`crate::ShardStatsSum::matches`]) holds on
    /// every returned pair, mid-flight or not.
    pub fn stats_with_shards(&self) -> (GatewayStats, Vec<ShardStats>) {
        let shards = self.shard_stats();
        let sum = ShardStatsSum::of(&shards);
        let ins = &self.ins;
        let stats = GatewayStats {
            sessions_started: ins.sessions_started.get(),
            sessions_ended: ins.sessions_ended.get(),
            requests: ins.requests.get(),
            admitted: ins.admitted.get(),
            shed_total: ins.shed_total.get(),
            shed_rate_limited: ins.shed_rate_limited.get(),
            shed_queue_full: ins.shed_queue_full.get(),
            bad_requests: ins.bad_requests.get(),
            writes: ins.writes.get(),
            write_pages: sum.write_pages,
            reads: ins.reads.get(),
            read_pages: sum.read_pages,
            read_hits: sum.read_hits,
            trims: ins.trims.get(),
            trim_pages: sum.trim_pages,
            flushes: ins.flushes.get(),
            flushed_pages: sum.flushed_pages,
            batches: ins.batches.get(),
            runs: sum.runs,
            coalesced_pages: sum.coalesced_pages,
            failovers: sum.failovers,
            failbacks: sum.failbacks,
            retries: sum.retries,
            unavailable: sum.unavailable,
            rebalances_started: ins.rebalances_started.get(),
            rebalances_completed: ins.rebalances_completed.get(),
            rebalance_moved_blocks: ins.rebalance_moved_blocks.get(),
            rebalance_moved_pages: ins.rebalance_moved_pages.get(),
            rebalance_batches: ins.rebalance_batches.get(),
            inflight: self.admission.inflight(),
            max_inflight_seen: self.admission.max_inflight_seen(),
        };
        (stats, shards)
    }

    /// Jittered exponential backoff for attempt `n` of a shard-op retry.
    /// The jitter stream is a hashed global counter — deterministic per
    /// process, decorrelated across racing sessions, no RNG dependency.
    fn backoff(&self, attempt: u32) -> Duration {
        let base = self.cfg.retry_backoff.max(Duration::from_micros(100));
        let capped = base
            .saturating_mul(1 << attempt.min(5))
            .min(Duration::from_millis(100));
        let n = self.jitter.fetch_add(1, Ordering::Relaxed);
        let h = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let jitter_ns = h % (capped.as_nanos() as u64 / 2 + 1);
        capped + Duration::from_nanos(jitter_ns)
    }

    /// Run `op` against `shard`'s active replica, retrying with backoff
    /// and failing the route over/back as health dictates, until the
    /// retry deadline. The health read lock is held across the node call
    /// so a failback cutover (write lock) never interleaves with an op on
    /// the old route. A served op counts one `ops` and one latency sample
    /// (retries included) against the shard.
    fn with_shard<T>(
        &self,
        shard: u16,
        sb: &ShardBackend,
        op: impl Fn(&Node) -> Result<T, NodeDown>,
    ) -> Result<T, Unavail> {
        let started = Instant::now();
        let deadline = started + self.cfg.retry_deadline;
        let mut attempt: u32 = 0;
        loop {
            self.maybe_failback(shard, sb);
            let health = sb.health.read();
            let route = health.active;
            match op(sb.active(&health)) {
                Ok(v) => {
                    let close = route == Replica::Primary && health.breaker.needs_success();
                    drop(health);
                    if close {
                        sb.health.write().breaker.on_success();
                        sb.ins.health.set(1.0);
                    }
                    sb.ins.ops.inc();
                    sb.ins
                        .latency_ns
                        .record(started.elapsed().as_nanos() as u64);
                    return Ok(v);
                }
                Err(NodeDown) => {
                    drop(health);
                    let now = Instant::now();
                    if self.note_shard_error(shard, sb, route, now) {
                        // The route flipped to a surviving replica: retry
                        // immediately, no backoff.
                        continue;
                    }
                    if now >= deadline {
                        sb.ins.unavailable.inc();
                        self.note("unavailable", |e| e.u64_field("shard", u64::from(shard)));
                        let retry_after_ms = sb.health.read().breaker.retry_after_ms();
                        return Err(Unavail { retry_after_ms });
                    }
                    sb.ins.retries.inc();
                    std::thread::sleep(self.backoff(attempt));
                    attempt += 1;
                }
            }
        }
    }

    /// Record a `NodeDown` observed on `route` and flip the shard's route
    /// if health now dictates it. Returns true when the route no longer
    /// points where the failed op went (caller should retry immediately).
    fn note_shard_error(
        &self,
        shard: u16,
        sb: &ShardBackend,
        route: Replica,
        now: Instant,
    ) -> bool {
        let mut h = sb.health.write();
        match route {
            Replica::Primary => {
                let _tripped = h.breaker.on_error(now);
                if h.breaker.state() == BreakerState::Open
                    && h.active == Replica::Primary
                    && sb.secondary.is_some()
                {
                    h.active = Replica::Secondary;
                    sb.ins.failovers.inc();
                    sb.ins.health.set(0.0);
                    self.note("failover", |e| {
                        e.u64_field("shard", u64::from(shard))
                            .str_field("to", "secondary")
                    });
                }
            }
            Replica::Secondary => {
                // The secondary died under us. If the primary is back,
                // reroute immediately — this emergency path skips the
                // recover/flush cutover barrier (the double fault already
                // cost the secondary's un-destaged state).
                if h.active == Replica::Secondary && !sb.primary.is_halted() {
                    h.active = Replica::Primary;
                    h.breaker.on_success();
                    sb.ins.failovers.inc();
                    sb.ins.health.set(1.0);
                    self.note("failover", |e| {
                        e.u64_field("shard", u64::from(shard))
                            .str_field("to", "primary")
                    });
                }
            }
        }
        h.active != route
    }

    /// If `shard` is failed over, its failback probe is due, and the pair
    /// has re-formed, cut the route back to the primary: replay the
    /// secondary's replicated snapshot into the primary
    /// (`recover_from_peer`), flush the secondary's dirty pages (so every
    /// write acked through it during and after the outage is readable via
    /// the shared durable backend), then flip. The whole cutover runs
    /// under the health write lock, barring shard ops until it completes.
    fn maybe_failback(&self, shard: u16, sb: &ShardBackend) {
        let Some(secondary) = sb.secondary.as_ref() else {
            return;
        };
        {
            let h = sb.health.read();
            if h.active != Replica::Secondary || !h.breaker.probe_due(Instant::now()) {
                return;
            }
        }
        if sb.primary.is_halted() {
            return; // probe stays armed; re-checked on the next op
        }
        let mut h = sb.health.write();
        if h.active != Replica::Secondary || !h.breaker.try_probe(Instant::now()) {
            return; // lost the race; another session owns the probe
        }
        let ready = !sb.primary.is_halted()
            && sb.primary.lifecycle_state() == PairState::Paired
            && secondary.lifecycle_state() == PairState::Paired;
        if !ready
            || sb
                .primary
                .recover_from_peer(self.cfg.failback_timeout)
                .is_err()
            || secondary.try_flush_dirty().is_err()
        {
            // Re-open and re-arm the probe timer.
            h.breaker.on_error(Instant::now());
            return;
        }
        h.active = Replica::Primary;
        h.breaker.on_success();
        sb.ins.failbacks.inc();
        sb.ins.health.set(1.0);
        self.note("failback", |e| e.u64_field("shard", u64::from(shard)));
    }

    /// Read `[lpn, lpn+pages)` through the router. Returns the page
    /// payloads (present/absent), or [`Unavail`] when a touched shard
    /// stayed down past the retry deadline (pages from segments already
    /// served are counted but not returned). The span is
    /// walked as contiguous same-shard segments, each counted and timed
    /// against its shard's `gateway.shard.*` instruments — a read
    /// straddling a shard boundary touches every owning pair.
    fn do_read(&self, client: u64, lpn: u64, pages: u32) -> Result<Vec<Option<Bytes>>, Unavail> {
        let mut out = Vec::with_capacity(pages as usize);
        let rt = self.routes.read();
        for (shard, start, count) in segments(|l| rt.owner_of_lpn(l), lpn, pages) {
            let sb = rt.shards[usize::from(shard)].as_ref();
            let seg = self.with_shard(shard, sb, |node| node.try_read_run(client, start, count))?;
            sb.ins.read_pages.add(u64::from(count));
            sb.ins.read_hits.add(seg.iter().flatten().count() as u64);
            out.extend(seg);
        }
        Ok(out)
    }

    /// Trim `[lpn, lpn+pages)` through the router, segment-counted per
    /// shard like [`Gateway::do_read`].
    fn do_trim(&self, client: u64, lpn: u64, pages: u32) -> Result<(), Unavail> {
        let rt = self.routes.read();
        for (shard, start, count) in segments(|l| rt.owner_of_lpn(l), lpn, pages) {
            let sb = rt.shards[usize::from(shard)].as_ref();
            self.with_shard(shard, sb, |node| node.try_delete_run(client, start, count))?;
            sb.ins.trim_pages.add(u64::from(count));
        }
        Ok(())
    }

    /// Flush dirty pages, fanned out to every ring member's active replica
    /// (during a rebalance window: the union of old and new members, since
    /// a retiring pair still holds unmigrated dirty pages). Returns total
    /// pages destaged, or [`Unavail`] when some pair is entirely down
    /// (pages flushed on earlier shards stay flushed and counted).
    ///
    /// Shards that provably cannot serve — breaker Open, active replica
    /// halted, and no live replica to flip to — are skipped up front
    /// instead of each burning the full retry deadline; the flush still
    /// walks every serviceable shard, then answers `Unavailable` with the
    /// shortest `retry_after_ms` among the dead ones.
    fn do_flush(&self) -> Result<u64, Unavail> {
        let rt = self.routes.read();
        let mut total = 0u64;
        // (shard, hint) of the fastest-retry dead shard, if any.
        let mut dead: Option<(u16, u32)> = None;
        for shard in rt.flush_members() {
            let sb = rt.shards[usize::from(shard)].as_ref();
            let skip = {
                let h = sb.health.read();
                let alt_alive = match h.active {
                    Replica::Primary => sb.secondary.as_ref().is_some_and(|s| !s.is_halted()),
                    Replica::Secondary => !sb.primary.is_halted(),
                };
                (h.breaker.state() == BreakerState::Open && sb.active(&h).is_halted() && !alt_alive)
                    .then(|| h.breaker.retry_after_ms())
            };
            if let Some(hint) = skip {
                if dead.is_none_or(|(_, best)| hint < best) {
                    dead = Some((shard, hint));
                }
                continue;
            }
            let flushed = match self.with_shard(shard, sb, |node| node.try_flush_dirty()) {
                Ok(f) => f,
                Err(u) => {
                    // Deadline burned here anyway; fold in any
                    // faster hint from an already-skipped shard.
                    let retry_after_ms =
                        dead.map_or(u.retry_after_ms, |(_, h)| h.min(u.retry_after_ms));
                    return Err(Unavail { retry_after_ms });
                }
            };
            sb.ins.flushed_pages.add(flushed);
            total += flushed;
        }
        if let Some((shard, retry_after_ms)) = dead {
            rt.shards[usize::from(shard)].ins.unavailable.inc();
            self.note("unavailable", |e| e.u64_field("shard", u64::from(shard)));
            return Err(Unavail { retry_after_ms });
        }
        Ok(total)
    }

    /// Coalesce one batch window's pages into runs and submit them. Runs
    /// never cross a logical-block boundary nor a shard boundary
    /// ([`coalesce_sharded`]) — each run goes whole to exactly one pair —
    /// and the runs one pair owns go to it together: one
    /// [`Gateway::with_shard`] call and one [`Node::try_write_runs`] group
    /// per shard touched, lpn order kept inside the group, so a request
    /// straddling a block boundary pays one replication round trip.
    ///
    /// `ids` maps each page's lpn to the request id that (last) wrote it;
    /// runs are stamped with a tag derived from it, so a client resending
    /// the same write request after an ambiguous failure — or `with_shard`
    /// retrying a group on the surviving replica — hits the node's dedup
    /// window run by run instead of double-applying. If a shard stays down
    /// past the retry deadline, submission stops and `unavailable` is set —
    /// groups already applied stay applied (and counted), and the caller
    /// answers *every* write in the batch with `Unavailable`, which is
    /// safe precisely because the dedup tags make the client's resend of
    /// the already-applied runs idempotent.
    fn submit_writes(
        &self,
        client: u64,
        flat: Vec<(u64, Bytes)>,
        ids: &HashMap<u64, u64>,
    ) -> Submission {
        let mut sub = Submission::default();
        let rt = self.routes.read();
        // Remember each incoming page's lpn so its pre-coalesce
        // count can be attributed to the run (and shard) that
        // absorbed it — page counters only move for runs that
        // actually submit, keeping the counter-sum identity exact
        // even when a batch aborts midway.
        let in_lpns: Vec<u64> = flat.iter().map(|(lpn, _)| *lpn).collect();
        let tagged = coalesce_sharded(flat, self.cfg.pages_per_block, |lpn| rt.owner_of_lpn(lpn));
        // Runs come out in ascending lpn order; bucket each input
        // page into the run covering its lpn.
        let mut in_count = vec![0u64; tagged.len()];
        for lpn in &in_lpns {
            let idx = tagged.partition_point(|(_, r)| r.lpn <= *lpn) - 1;
            debug_assert!(*lpn < tagged[idx].1.lpn + tagged[idx].1.len() as u64);
            in_count[idx] += 1;
        }
        // One group of run indices per shard touched, shards in order of
        // first appearance.
        let mut groups: Vec<(u16, Vec<usize>)> = Vec::new();
        for (i, (shard, _)) in tagged.iter().enumerate() {
            match groups.iter_mut().find(|(s, _)| s == shard) {
                Some((_, group)) => group.push(i),
                None => groups.push((*shard, vec![i])),
            }
        }
        for (shard, group) in groups {
            let sb = rt.shards[usize::from(shard)].as_ref();
            let runs: Vec<(u64, u64, &[Bytes])> = group
                .iter()
                .map(|&i| {
                    let run = &tagged[i].1;
                    // Stable across resends of the same request; mixed so
                    // ids from different clients' id spaces don't collide
                    // within one window.
                    let tag = ids[&run.lpn].wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ run.lpn;
                    (tag, run.lpn, run.pages.as_slice())
                })
                .collect();
            match self.with_shard(shard, sb, |node| node.try_write_runs(client, &runs)) {
                Ok(outcomes) => {
                    for (&i, outcome) in group.iter().zip(outcomes) {
                        let out_n = tagged[i].1.len() as u64;
                        let in_n = in_count[i];
                        sb.ins.runs.inc();
                        sb.ins.write_pages.add(in_n);
                        sb.ins.coalesced_pages.add(in_n - out_n);
                        sub.out_pages += out_n;
                        // A dedup-cached outcome may describe a run
                        // composed differently on the first attempt.
                        sub.replicated += outcome.replicated.min(out_n);
                    }
                }
                Err(u) => {
                    sub.unavailable = Some(u);
                    break;
                }
            }
        }
        sub
    }

    /// Serve one session on its own thread.
    pub fn serve(self: &Arc<Self>, link: impl SessionLink + 'static) {
        let gw = self.clone();
        let handle = std::thread::Builder::new()
            .name("fc-gw-session".into())
            .spawn(move || session_loop(gw, Box::new(link)))
            .expect("spawn gateway session");
        self.sessions.lock().push(handle);
    }

    /// Connect an in-memory client: builds a channel pair, serves the
    /// gateway half, returns a ready (pre-Hello) client for the other.
    pub fn connect_mem(self: &Arc<Self>) -> GatewayClient {
        let id = self.next_mem_client.fetch_add(1, Ordering::Relaxed);
        self.connect_mem_as(id)
    }

    /// Like [`Gateway::connect_mem`] with a caller-chosen client id.
    pub fn connect_mem_as(self: &Arc<Self>, client_id: u64) -> GatewayClient {
        let (client_half, server_half) = mem_session();
        self.serve(server_half);
        GatewayClient::from_mem(client_half, client_id)
    }

    /// Listen for TCP clients; returns the bound address (pass
    /// `"127.0.0.1:0"` for an ephemeral port).
    pub fn listen_tcp(self: &Arc<Self>, addr: &str) -> std::io::Result<std::net::SocketAddr> {
        let listener = std::net::TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let gw = self.clone();
        let handle = std::thread::Builder::new()
            .name("fc-gw-accept".into())
            .spawn(move || {
                while !gw.shutdown.load(Ordering::SeqCst) {
                    match listener.accept() {
                        Ok((stream, _peer)) => {
                            stream.set_nonblocking(false).ok();
                            match TcpSessionLink::new(stream) {
                                Ok(link) => gw.serve(link),
                                Err(_) => continue,
                            }
                        }
                        Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        Err(_) => break,
                    }
                }
            })
            .expect("spawn gateway acceptor");
        self.acceptors.lock().push(handle);
        Ok(local)
    }

    /// Stop accepting, wind down session threads, and join them. Clients
    /// observe `Disconnected` afterwards.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for h in self.acceptors.lock().drain(..) {
            let _ = h.join();
        }
        for h in self.sessions.lock().drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Gateway {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }
}

/// A shard op gave up at the retry deadline with no replica answering.
#[derive(Debug, Clone, Copy)]
struct Unavail {
    /// Backoff hint for the client (the breaker cooldown).
    retry_after_ms: u32,
}

impl Unavail {
    /// The one mapping to the wire: `Unavailable` for request `id`.
    fn reply(self, id: u64) -> Reply {
        Reply::Unavailable {
            id,
            retry_after_ms: self.retry_after_ms,
        }
    }
}

/// Why an elastic-membership control call was refused. These are all
/// caller-state errors — the route table is left exactly as it was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebalanceError {
    /// `begin_rebalance` while a window is already open.
    WindowOpen,
    /// `migrate_batch`/`commit_rebalance` with no window open.
    NoWindow,
    /// The offered ring disagrees on seed/vnodes/block geometry with the
    /// current one — its placements would be incomparable.
    ConfigMismatch,
    /// The offered ring's epoch is not ahead of the installed ring's —
    /// a stale or replayed membership change.
    StaleEpoch { current: u64, offered: u64 },
    /// The offered ring names a member with no attached shard slot.
    UnknownMember(u16),
    /// `commit_rebalance` refused: this many blocks are still fenced.
    PendingBlocks(u64),
    /// `begin_rebalance` could not scan this retiring member's occupancy
    /// (its active replica is down); fencing blindly would strand
    /// whatever it holds, so the window never opened.
    SourceDown(u16),
}

impl std::fmt::Display for RebalanceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RebalanceError::WindowOpen => write!(f, "a rebalance window is already open"),
            RebalanceError::NoWindow => write!(f, "no rebalance window is open"),
            RebalanceError::ConfigMismatch => write!(f, "ring config mismatch"),
            RebalanceError::StaleEpoch { current, offered } => {
                write!(f, "stale ring epoch {offered} (current {current})")
            }
            RebalanceError::UnknownMember(m) => {
                write!(f, "ring member {m} has no attached shard")
            }
            RebalanceError::PendingBlocks(n) => {
                write!(f, "{n} blocks still awaiting migration")
            }
            RebalanceError::SourceDown(m) => {
                write!(f, "shard {m} is down; cannot scan its occupancy")
            }
        }
    }
}

impl std::error::Error for RebalanceError {}

/// Why [`Gateway::migrate_batch`] stopped.
#[derive(Debug)]
pub enum MigrateBatchError {
    /// Refused before any copy ran.
    State(RebalanceError),
    /// `copy` failed on `block`; it and the rest of the batch stay fenced
    /// to their old owner, and the window stays open for a retry.
    Copy {
        block: u64,
        from: u16,
        to: u16,
        error: MigrateError,
    },
}

impl std::fmt::Display for MigrateBatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MigrateBatchError::State(e) => write!(f, "{e}"),
            MigrateBatchError::Copy {
                block,
                from,
                to,
                error,
            } => write!(f, "migrating block {block} ({from} -> {to}): {error}"),
        }
    }
}

impl std::error::Error for MigrateBatchError {}

/// Outcome of one batch-window submission.
#[derive(Debug, Default)]
struct Submission {
    /// Post-coalesce pages actually submitted.
    out_pages: u64,
    /// Pages the nodes reported replicated to their peers.
    replicated: u64,
    /// Set when submission aborted on an all-replicas-down shard: what to
    /// answer the batch's writes with.
    unavailable: Option<Unavail>,
}

/// Walk `[lpn, lpn+pages)` as maximal contiguous same-shard segments:
/// `(shard, start, count)` triples in lpn order. `owner` is the routing
/// rule (the route table's dual-ring lookup); routing is per ring block,
/// so segments break exactly at owner changes.
fn segments(owner: impl Fn(u64) -> u16, lpn: u64, pages: u32) -> Vec<(u16, u64, u32)> {
    let mut segs: Vec<(u16, u64, u32)> = Vec::new();
    for i in 0..u64::from(pages) {
        let page = lpn + i;
        let shard = owner(page);
        match segs.last_mut() {
            Some((s, start, count)) if *s == shard && *start + u64::from(*count) == page => {
                *count += 1;
            }
            _ => segs.push((shard, page, 1)),
        }
    }
    segs
}

// ---------------------------------------------------------------------------
// Session loop
// ---------------------------------------------------------------------------

fn session_loop(gw: Arc<Gateway>, link: Box<dyn SessionLink>) {
    gw.ins.sessions_started.inc();
    gw.note("session_start", |e| e);

    let Some((client, version)) = handshake(&gw, link.as_ref()) else {
        gw.ins.sessions_ended.inc();
        gw.note("session_end", |e| e);
        return;
    };
    let session = Session {
        gw: &gw,
        link: link.as_ref(),
        client,
        version,
    };

    let mut carried: Option<Request> = None;
    while !gw.shutdown.load(Ordering::SeqCst) {
        let req = match carried.take() {
            Some(r) => r,
            None => match link.recv_timeout(gw.cfg.session_poll) {
                Ok(Some(r)) => r,
                Ok(None) => continue,
                Err(_) => break,
            },
        };
        match session.handle(req) {
            Ok(next) => carried = next,
            Err(_) => break,
        }
    }

    gw.ins.sessions_ended.inc();
    gw.note("session_end", |e| e.u64_field("client", client));
}

/// First message must be a supported-version Hello. Returns the client id
/// and the negotiated session version (the client's own, echoed back — a
/// v1 client never sees a v2-only reply tag), or `None` if the session
/// should be dropped.
fn handshake(gw: &Arc<Gateway>, link: &dyn SessionLink) -> Option<(u64, u16)> {
    let ins = &gw.ins;
    while !gw.shutdown.load(Ordering::SeqCst) {
        match link.recv_timeout(gw.cfg.session_poll) {
            Ok(Some(Request::Hello { version, client })) => {
                if !(MIN_PROTO_VERSION..=PROTO_VERSION).contains(&version) {
                    ins.bad_requests.inc();
                    gw.note("bad_request", |e| e.str_field("why", "version"));
                    let _ = link.send(Reply::Error {
                        id: 0,
                        code: ErrorCode::BadVersion,
                    });
                    return None;
                }
                let max_inflight = gw.admission.config().max_inflight;
                link.send(Reply::HelloOk {
                    version,
                    max_inflight,
                })
                .ok()?;
                return Some((client, version));
            }
            Ok(Some(other)) => {
                // I/O before Hello: refuse, keep waiting for the handshake.
                ins.bad_requests.inc();
                link.send(Reply::Error {
                    id: other.id(),
                    code: ErrorCode::BadRequest,
                })
                .ok()?;
            }
            Ok(None) => continue,
            Err(_) => return None,
        }
    }
    None
}

/// `[lpn, lpn + pages)` is a span a client may name: 1 to `max_req_pages`
/// pages, no wrap past `u64::MAX`, and wholly below the nodes' [`PEER_NS`]
/// namespace — a page up there would be trimmed by the next recovery Purge
/// and skipped by migration.
fn valid_span(gw: &Gateway, lpn: u64, pages: u64) -> bool {
    (1..=u64::from(gw.cfg.max_req_pages)).contains(&pages)
        && lpn.checked_add(pages).is_some_and(|end| end <= PEER_NS)
}

/// The one way in for a request: count it, refuse an in`valid` one
/// (`BadRequest`), and pass the rest through admission (`Busy` when shed).
/// `Err` is the reply the request gets instead of service.
fn gate(gw: &Gateway, client: u64, id: u64, valid: bool) -> Result<Permit, Reply> {
    let ins = &gw.ins;
    ins.requests.inc();
    if !valid {
        ins.bad_requests.inc();
        let code = ErrorCode::BadRequest;
        return Err(Reply::Error { id, code });
    }
    match gw.admission.try_admit(client, gw.now_nanos()) {
        Ok(permit) => {
            ins.admitted.inc();
            ins.inflight_gauge
                .set_u64(u64::from(gw.admission.inflight()));
            Ok(permit)
        }
        Err(reason) => {
            ins.shed_total.inc();
            match reason {
                ShedReason::RateLimited => ins.shed_rate_limited.inc(),
                ShedReason::QueueFull => ins.shed_queue_full.inc(),
            }
            gw.note("shed", |e| {
                e.u64_field("client", client)
                    .str_field("reason", reason.name())
            });
            let code = ErrorCode::Busy;
            Err(Reply::Error { id, code })
        }
    }
}

/// One established session: who is asking, over what, at which protocol
/// version.
struct Session<'a> {
    gw: &'a Gateway,
    link: &'a dyn SessionLink,
    client: u64,
    version: u16,
}

impl Session<'_> {
    /// Send `reply`, downgrading v2-only tags for older sessions: a v1
    /// client sees `Unavailable` as `Error { Busy }` — same retry semantics,
    /// no unknown tag on its wire.
    fn send(&self, reply: Reply) -> Result<(), LinkClosed> {
        let reply = match reply {
            Reply::Unavailable { id, .. } if self.version < 2 => Reply::Error {
                id,
                code: ErrorCode::Busy,
            },
            other => other,
        };
        self.link.send(reply)
    }

    /// Process one request (and, for writes, a drained batch of pipelined
    /// writes behind it). Returns a non-write request drained out of the
    /// batch window, which the caller must process next — preserving reply
    /// order.
    fn handle(&self, req: Request) -> Result<Option<Request>, LinkClosed> {
        let gw = self.gw;
        let client = self.client;
        match req {
            Request::Hello { .. } => {
                // Duplicate handshake: harmless, re-ack.
                self.link.send(Reply::HelloOk {
                    version: self.version,
                    max_inflight: gw.admission.config().max_inflight,
                })?;
            }
            Request::Write { id, lpn, pages } => return self.write_batch(id, lpn, pages),
            Request::Read { id, lpn, pages } => self.serve(
                id,
                valid_span(gw, lpn, u64::from(pages)),
                &gw.ins.reads,
                || gw.do_read(client, lpn, pages),
                |pages| Reply::ReadOk { id, pages },
            )?,
            Request::Trim { id, lpn, pages } => self.serve(
                id,
                valid_span(gw, lpn, u64::from(pages)),
                &gw.ins.trims,
                || gw.do_trim(client, lpn, pages),
                |()| Reply::TrimOk { id, pages },
            )?,
            Request::Flush { id } => self.serve(
                id,
                true,
                &gw.ins.flushes,
                || gw.do_flush(),
                |flushed| {
                    gw.note("flush", |e| {
                        e.u64_field("client", client).u64_field("pages", flushed)
                    });
                    Reply::FlushOk { id, flushed }
                },
            )?,
        }
        Ok(None)
    }

    /// One non-write request end to end: through the [`gate`], run `op`
    /// under the permit, count it in `served`, and answer with `ok`'s reply
    /// or the one `Unavailable` mapping.
    fn serve<T>(
        &self,
        id: u64,
        valid: bool,
        served: &Counter,
        op: impl FnOnce() -> Result<T, Unavail>,
        ok: impl FnOnce(T) -> Reply,
    ) -> Result<(), LinkClosed> {
        let gw = self.gw;
        let permit = match gate(gw, self.client, id, valid) {
            Ok(permit) => permit,
            Err(refusal) => return self.send(refusal),
        };
        let started = Instant::now();
        let result = op();
        served.inc();
        gw.ins
            .latency_ns
            .record(started.elapsed().as_nanos() as u64);
        drop(permit);
        gw.ins
            .inflight_gauge
            .set_u64(u64::from(gw.admission.inflight()));
        self.send(match result {
            Ok(v) => ok(v),
            Err(u) => u.reply(id),
        })
    }

    /// Validate + admit the head write, drain up to `batch_window`
    /// pipelined writes behind it (each individually validated and
    /// admitted), coalesce the admitted ones into runs, submit, then reply
    /// to every batched write in receive order. If submission aborts on an
    /// all-replicas-down shard, every admitted write in the batch is
    /// answered `Unavailable` — a conservative blanket (some runs may have
    /// applied) made safe by the dedup tags: the client's resend of an
    /// already-applied run is a no-op.
    fn write_batch(
        &self,
        id: u64,
        lpn: u64,
        pages: Vec<Bytes>,
    ) -> Result<Option<Request>, LinkClosed> {
        let gw = self.gw;
        let ins = &gw.ins;
        let started = Instant::now();
        let mut window = WriteWindow::default();
        let mut carried: Option<Request> = None;

        window.consider(gw, self.client, id, lpn, pages);

        // Batch window: drain writes the client already pipelined. A
        // non-write is carried out to the caller so replies stay in receive
        // order.
        while window.admitted <= gw.cfg.batch_window {
            match self.link.recv_timeout(Duration::ZERO) {
                Ok(Some(Request::Write { id, lpn, pages })) => {
                    window.consider(gw, self.client, id, lpn, pages);
                }
                Ok(Some(other)) => {
                    carried = Some(other);
                    break;
                }
                Ok(None) => break,
                Err(_) => break, // reply to what we already took first
            }
        }

        let sub = gw.submit_writes(self.client, window.flat, &window.ids);
        let all_replicated = sub.replicated == sub.out_pages;

        if window.admitted > 0 {
            ins.writes.add(window.admitted as u64);
            ins.batches.inc();
            ins.latency_ns.record(started.elapsed().as_nanos() as u64);
        }

        for w in &window.batch {
            self.send(match w {
                Err(refusal) => refusal.clone(),
                Ok((id, pages, _permit)) => match sub.unavailable {
                    Some(u) => u.reply(*id),
                    None => Reply::WriteOk {
                        id: *id,
                        pages: *pages,
                        replicated: all_replicated,
                    },
                },
            })?;
        }
        drop(window.batch); // releases every admitted permit
        ins.inflight_gauge
            .set_u64(u64::from(gw.admission.inflight()));
        Ok(carried)
    }
}

/// The writes of one batch window and what their admitted pages flatten to.
#[derive(Default)]
struct WriteWindow {
    /// Every write received, in receive order — the order replies are sent
    /// in after submission, which clients correlate ids by: an admitted
    /// one's `(id, pages, permit)`, or the refusal the [`gate`] gave it.
    batch: Vec<Result<(u64, u32, Permit), Reply>>,
    flat: Vec<(u64, Bytes)>,
    /// lpn → id of the (last) request that wrote it, mirroring coalesce's
    /// last-writer-wins — the source of the per-run dedup tags.
    ids: HashMap<u64, u64>,
    admitted: usize,
}

impl WriteWindow {
    /// Validate and admit one write; an admitted one's pages join `flat`.
    fn consider(&mut self, gw: &Gateway, client: u64, id: u64, lpn: u64, pages: Vec<Bytes>) {
        let verdict = gate(gw, client, id, valid_span(gw, lpn, pages.len() as u64));
        let n = pages.len() as u32; // <= max_req_pages once the gate passed it
        if verdict.is_ok() {
            for (page, data) in (lpn..).zip(pages) {
                self.flat.push((page, data));
                self.ids.insert(page, id);
            }
            self.admitted += 1;
        }
        self.batch.push(verdict.map(|permit| (id, n, permit)));
    }
}
