//! The gateway service: a [`Gateway`] fronts one or more FlashCoop pairs
//! (`fc_cluster::Node`s behind a consistent-hash ring) for many concurrent
//! clients: one session thread per accepted TCP connection, none for an
//! in-memory session, whose client runs it.
//!
//! # Modules, locks and who may emit
//!
//! Two `RwLock`s order everything: the route table, then a shard's health
//! — nothing takes them the other way. Ops hold both read halves across
//! their node calls; the elastic-membership entry points take the route
//! table's write half (every migration batch is a barrier: a block's
//! copy + release never interleaves with an op routed by the pre-batch
//! table), a route flip takes the health write half. The file layout is
//! that rule (`scripts/ci.sh` greps that it stays so):
//!
//! | module | owns | may lock | emits? |
//! |---|---|---|---|
//! | `mod` | [`Gateway`]: construction, `attach_shard` and the one membership entry `rebalance` (`add_pair` / `remove_pair` wrap it), obs, stats, `serve` (offer the step, else a session thread) | route table (the only `routes.write()` sites) | `shard_attach`, `rebalance_*` — what `route` returned |
//! | `route` | `RouteTable` (fields private): dual-ring rule, `flush_members`, `segments`, `begin` (occupancy scan) / `migrate` (export → import → release on the slots' primaries) / `commit` | none of its own; runs under the route guard, reaches health via `ShardBackend::routed_to_primary` | never — returns what to count and narrate |
//! | `failover` | `ShardBackend` (`health` private): one attempt, `on_down`, `try_failback`, `flip`, `provably_dead`; the retry / backoff / deadline loop | shard health (the only `.health.read()` / `.write()` sites) | `ShardBackend` never — returns its `RouteEvent`; the loop narrates it, and `unavailable` |
//! | `ops` | read / trim / flush / batch-window write submission | route table read half, then health through `with_shard` | `unavailable` for a skipped dead shard |
//! | `session` | the one session step: Hello state, the validate + admit gate, batch window, in-order replies; names neither the route table nor shard health | none | `session_*`, `bad_request`, `shed`, `flush` |
//! | `config`, `stats` | plain types; the counter table (every cell, its registry name, the snapshots and the counter-sum identity) | — | — |

mod config;
mod failover;
mod ops;
mod route;
mod session;
mod stats;

pub use config::GatewayConfig;
pub use route::{RebalanceError, RebalanceReport};
pub use stats::{GatewayStats, ShardStats, ShardStatsSum};

pub(crate) use failover::ShardBackend;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fc_cluster::Node;
use fc_obs::Obs;
use fc_ring::{Ring, RingConfig};
use parking_lot::{Mutex, RwLock};

use crate::admission::Admission;
use crate::client::GatewayClient;
use crate::conn::{mem_session, SessionLink, TcpSessionLink};
use route::RouteTable;
use session::{SessionStep, SESSION_POLL};
use stats::Instruments;

/// Fenced blocks migrated per batch: the bound on how long one batch
/// holds the route table's write half (client ops wait it out).
const MIGRATE_BATCH_BLOCKS: usize = 8;

/// Pause between migration batches, letting held client ops drain so
/// migration cannot starve admitted traffic.
const MIGRATE_BATCH_PAUSE: Duration = Duration::from_micros(200);

/// A running gateway. Create with [`Gateway::new`] (one pair) or
/// [`Gateway::new_sharded_with_secondaries`] (N pairs behind a ring;
/// usually via [`crate::ShardedGateway`]), connect clients with
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
    /// Front one pair as a one-shard ring: `primary` serves clients and
    /// `secondary` takes the shard while the primary is down. The nodes
    /// keep their own lifecycle (pump thread, replication); the gateway
    /// only adds the client-facing front end.
    pub fn new(cfg: GatewayConfig, primary: Arc<Node>, secondary: Arc<Node>) -> Arc<Gateway> {
        let ring_cfg = RingConfig {
            block_pages: cfg.pages_per_block,
            ..RingConfig::default()
        };
        let ring = Ring::with_pairs(ring_cfg, 1);
        Gateway::new_sharded_with_secondaries(cfg, ring, vec![primary], vec![secondary])
    }

    /// Front `primaries[i]` (pair i's client-facing node) for ring shard
    /// `i`, holding each pair's secondary too: the gateway fails a
    /// shard's route over to it when the primary is halted (then back
    /// once the pair re-forms) — the front-door half of the FlashCoop
    /// failure story. The ring must contain exactly the pairs
    /// `0..primaries.len()` so every lookup resolves to a node.
    pub fn new_sharded_with_secondaries(
        cfg: GatewayConfig,
        ring: Ring,
        primaries: Vec<Arc<Node>>,
        secondaries: Vec<Arc<Node>>,
    ) -> Arc<Gateway> {
        assert!(
            !primaries.is_empty(),
            "sharded gateway needs at least one pair"
        );
        assert_eq!(
            primaries.len(),
            secondaries.len(),
            "every pair needs both nodes"
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
        let rt = self.routes.read();
        rt.shards().iter().map(|s| s.primary.clone()).collect()
    }

    /// Routing state for `shard`.
    pub(crate) fn shard_backend(&self, shard: u16) -> Arc<ShardBackend> {
        self.routes.read().shard(shard).clone()
    }

    /// True while `shard`'s route points at its designated primary (1.0
    /// on the `gateway.shard.{i}.health` gauge).
    pub fn shard_routed_to_primary(&self, shard: u16) -> bool {
        self.routes.read().shard(shard).routed_to_primary()
    }

    /// A snapshot of the routing ring. During a rebalance window this is
    /// the *target* ring (epoch E+1); blocks in the fence set still route
    /// to their old owner until migrated, so don't use the snapshot to
    /// second-guess in-window placement.
    pub fn ring(&self) -> Ring {
        self.routes.read().ring().clone()
    }

    /// The current ring epoch — the target ring's epoch during a window.
    pub fn ring_epoch(&self) -> u64 {
        self.routes.read().ring().epoch()
    }

    /// True while an elastic-membership window is open.
    pub fn rebalance_active(&self) -> bool {
        self.routes.read().fenced().is_some()
    }

    /// Blocks still awaiting migration in the open window, if any.
    pub fn rebalance_pending(&self) -> Option<u64> {
        self.routes.read().fenced().map(|f| f.len() as u64)
    }

    /// Read one logical page through the router, without client
    /// attribution — the primitive behind state digests and scrub-style
    /// full-space sweeps.
    pub fn read_page(&self, lpn: u64) -> Option<Vec<u8>> {
        let rt = self.routes.read();
        rt.shard(rt.owner_of_lpn(lpn))
            .with_active(|node| node.read(lpn))
    }

    // -- elastic membership ------------------------------------------------
    //
    // The only takers of the route table's write half: `attach_shard`, and
    // `rebalance`'s begin, per-batch migrate and commit — each is lock →
    // `RouteTable` call → count → note.

    /// Attach a new pair as the next shard slot and return its id. The
    /// slot is routable only once a later [`Gateway::rebalance`] installs a
    /// ring that includes it, so attaching is invisible to clients.
    pub fn attach_shard(&self, primary: Arc<Node>, secondary: Arc<Node>) -> u16 {
        let mut rt = self.routes.write();
        let shard = rt.attach(ShardBackend::new(&self.cfg, primary, secondary));
        // Checked under the route write guard, which `attach_obs` excludes
        // while it publishes: the new slot is published by exactly one of
        // the two.
        if let Some(obs) = self.obs.get() {
            rt.shard(shard).ins.publish(obs.registry(), shard);
        }
        drop(rt);
        self.note("shard_attach", |e| e.u64_field("shard", u64::from(shard)));
        shard
    }

    /// Take the cluster from the current ring (epoch E) to `new_ring`
    /// (E+1) live: open a dual-ring window fencing every occupied block
    /// whose owner changes to its old owner, migrate the fenced blocks
    /// pair-to-pair in batches of eight, then cut over. If a window toward
    /// `new_ring` is already open — an earlier call stopped partway — this
    /// resumes it, skipping what already moved; one toward any other ring
    /// is refused with `WindowOpen`.
    ///
    /// Each batch runs under the route-table write guard: client ops are
    /// held for its duration, which is exactly the fence that makes a
    /// block's copy atomic against concurrent writes, and the pause
    /// between batches lets them drain. A stop partway (`SourceDegraded`,
    /// `Copy`) leaves the window open and fully serviceable — the unmoved
    /// blocks stay fenced to, and served by, their old owners.
    pub fn rebalance(&self, new_ring: Ring) -> Result<RebalanceReport, RebalanceError> {
        let begun = self.routes.write().begin(&new_ring)?;
        if !begun.resumed {
            self.ins.rebalances_started.inc();
            self.note("rebalance_begin", |e| {
                e.u64_field("from_epoch", begun.from_epoch)
                    .u64_field("to_epoch", begun.to_epoch)
                    .u64_field("fenced_blocks", begun.fenced.len() as u64)
            });
        }
        for chunk in begun.fenced.chunks(MIGRATE_BATCH_BLOCKS) {
            let (moved, stopped) = self.routes.write().migrate(chunk);
            self.ins.rebalance_batches.add(moved.batches);
            self.ins.rebalance_moved_blocks.add(moved.blocks);
            self.ins.rebalance_moved_pages.add(moved.pages);
            stopped?;
            std::thread::sleep(MIGRATE_BATCH_PAUSE);
        }
        let done = self.routes.write().commit(&new_ring)?;
        self.ins.rebalances_completed.inc();
        self.ins.rebalance_hist.record(done.moved_blocks);
        self.note("rebalance_commit", |e| {
            e.u64_field("from_epoch", done.from_epoch)
                .u64_field("to_epoch", done.to_epoch)
                .u64_field("moved_blocks", done.moved_blocks)
                .u64_field("moved_pages", done.moved_pages)
                .u64_field("batches", done.batches)
        });
        Ok(done)
    }

    /// Live scale-up: attach `primary` / `secondary` as the next shard
    /// slot, grow the ring by it, and [`Gateway::rebalance`] onto it.
    pub fn add_pair(
        &self,
        primary: Arc<Node>,
        secondary: Arc<Node>,
    ) -> Result<RebalanceReport, RebalanceError> {
        let shard = self.attach_shard(primary, secondary);
        let mut ring = self.ring();
        ring.add_pair(shard);
        self.rebalance(ring)
    }

    /// Live scale-down: [`Gateway::rebalance`] every block `victim` holds
    /// onto the surviving pairs, then drain (flush) and quiesce both of its
    /// nodes. The victim's slot stays attached so its per-shard stats keep
    /// their history; it simply takes no more traffic.
    pub fn remove_pair(&self, victim: u16) -> Result<RebalanceReport, RebalanceError> {
        let mut ring = self.ring();
        if !ring.contains(victim) {
            return Err(RebalanceError::NotAMember(victim));
        }
        if ring.len() == 1 {
            return Err(RebalanceError::LastPair);
        }
        ring.remove_pair(victim);
        let report = self.rebalance(ring)?;
        let sb = self.shard_backend(victim);
        let _ = sb.primary.try_flush_dirty();
        sb.primary.quiesce();
        sb.secondary.quiesce();
        Ok(report)
    }

    /// Per-shard traffic snapshots, index = shard id.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        let rt = self.routes.read();
        (0u16..)
            .zip(rt.shards())
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
        for (i, sb) in (0u16..).zip(rt.shards()) {
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
        let adm = &self.admission;
        let stats = self
            .ins
            .snapshot(&shards, adm.inflight(), adm.max_inflight_seen());
        (stats, shards)
    }

    /// Serve one session. Its step is offered to the link first
    /// ([`SessionLink::offer_step`]): an in-memory link takes it, and its
    /// client runs the step whenever it waits for a reply — no thread.
    /// A link that refuses (TCP) gets a session thread that loops the
    /// step. Session threads that have ended are joined here, so the list
    /// holds the live ones (plus any that ended since the last connect),
    /// not one handle per connection ever served.
    pub fn serve(self: &Arc<Self>, link: impl SessionLink + 'static) {
        let mut session = SessionStep::start(self.clone());
        let offered = link.offer_step(move |link, wait| session.run(link, wait));
        let Err((link, mut step)) = offered else {
            return;
        };
        let handle = std::thread::Builder::new()
            .name("fc-gw-session".into())
            .spawn(move || while step(&link, SESSION_POLL) {})
            .expect("spawn gateway session");
        let mut sessions = self.sessions.lock();
        for h in std::mem::take(&mut *sessions) {
            if h.is_finished() {
                let _ = h.join();
            } else {
                sessions.push(h);
            }
        }
        sessions.push(handle);
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
    /// observe `Disconnected` afterwards: an in-memory session ends at its
    /// client's next call, which runs the step that sees the shutdown.
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
