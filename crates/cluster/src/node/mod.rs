//! A runnable FlashCoop node.
//!
//! [`Node`] is the real (threaded) counterpart of the simulation's
//! `CoopServer`: it buffers writes locally through the *same*
//! [`flashcoop::BufferManager`] and policies, replicates dirty pages to its
//! peer over a [`Transport`], flushes evicted blocks to a
//! [`StorageBackend`], sends and monitors heartbeats, and runs the
//! Section III.D recovery protocol (RCT fetch → replay → purge).
//!
//! Durability contract: a [`WriteOutcome::Replicated`] write is held in two
//! memories (local buffer + peer remote buffer); a
//! [`WriteOutcome::WriteThrough`] write is on the backend before the call
//! returns. Either way an acknowledged write survives a single failure.
//!
//! # Pair lifecycle
//!
//! One state machine (`lifecycle.rs`) watches the peer's heartbeats and
//! walks the pair through [`PairState`]:
//!
//! ```text
//! Paired → Suspect → Solo → Paired
//! ```
//!
//! * **Failure detection**: past a heartbeat and a half of silence a
//!   `Paired` node turns `Suspect`; at `failure_timeout` it goes Solo.
//! * **Solo entry** (`peer_failed` / `ack_timeout` / `disconnected`): every
//!   dirty local page is flushed and the peer is sent one version-bounded
//!   Discard for them; the pages hosted for the peer are *taken over* —
//!   destaged sequentially to this node's backend under the [`PEER_NS`]
//!   namespace so the peer's replicated data survives until its recovery
//!   handshake collects it.
//! * **Solo writes** go write-through: every page a Solo node holds is
//!   clean.
//! * **Rejoin** is a cut-over that moves no data: the first beat after a
//!   declared failure (`peer_recovered`), or the retry timer of a node that
//!   went Solo for a data-plane cause while the peer kept beating
//!   (`peer_alive`), takes the node straight back to `Paired`. The peer's
//!   remote buffer holds only pages not yet flushed, as in §III.C, so
//!   there is nothing to catch up on.
//! * **Integrity**: every data payload carries a CRC-32; a receiver that
//!   sees a damaged batch NACKs it (`NackReason::Corrupt`) and the sender
//!   retransmits the clean copy. [`Node::scrub`] repairs silently-corrupted
//!   *local* pages from the peer's replica.
//! * **Backpressure**: the remote buffer is bounded; acks and heartbeats
//!   advertise the remaining credits and a sender that runs out writes
//!   through locally instead of replicating.
//!
//! # Modules, locks and who may send
//!
//! The lock order is link slot → `Inner` → pipe state, and `Inner` →
//! backend; the slot is taken only with no node lock held, the leaves
//! (backend, the parked-calls list) never nest, counting takes no lock at
//! all (`NodeObs` is plain cells), and no code holding `Inner` sends. The
//! file layout is that rule (`scripts/ci.sh` greps that it stays so):
//!
//! | module | owns | may lock | sends? |
//! |---|---|---|---|
//! | `mod` | [`Node`]: spawn, reads, trim/flush, fail/restart/shutdown | `Inner`, then leaves | Discards, after the guard drops (`under_inner`) |
//! | `write` | the group write path, the exactly-once window, the ticket wait that reads the link | the link slot; `Inner`, then leaves | Discards; frames via `ReplPipe::submit`; replies via `pump::read_one` |
//! | `recover` | recovery handshake, scrub | `Inner`, then leaves; parked calls | its own requests |
//! | `migrate` | export / import / fence-out hooks | `Inner`, then leaves | Discards |
//! | `pump` | the link slot and `read_one` (the only receive), frame dispatch, the background thread | the link slot, then `Inner`, parked calls, the pipe's | heartbeats, every reply and a solo entry's Discard |
//! | `state` | `Inner`: the buffer — the one page table, `BufferManager<Resident>` — version clock, eviction flush, solo entry | (holds `Inner`) pipe reset, leaves | never — returns the Discard |
//! | `recv` | `Inner`'s receive handlers and timer tick | (holds `Inner`) leaves | never — returns the reply |
//! | `lifecycle` | [`PairState`] and the heartbeat watch that drives it | (held under `Inner`) — | never — asks `Inner` to go solo or rejoin |
//! | `hosted` | pages hosted for the peer, the [`PEER_NS`] namespace | backend | never |
//! | `crate::pipe` | the replication pipe (names no `Inner`) | its state | the page-carrying frames |
//! | `stats` | [`NodeStats`] and friends; `NodeObs`, every counter's one cell and the event stream | — | — |
//! | `config` | plain types, [`RetryPolicy`] | — | — |

mod config;
mod hosted;
mod lifecycle;
mod migrate;
mod pump;
mod recover;
mod recv;
mod state;
mod stats;
mod write;

pub use config::{NodeConfig, NodeConfigBuilder, RetryPolicy};
pub use hosted::PEER_NS;
pub use lifecycle::PairState;
pub(crate) use stats::NodeObs;
pub use stats::{
    MigrateError, NodeDown, NodeStats, PerClientStats, ReplicationStats, RunOutcome, WriteOutcome,
};

use crate::backend::StorageBackend;
use crate::pipe::ReplPipe;
use crate::transport::Transport;
use crate::wire::{crc32, Message};
use bytes::Bytes;
use crossbeam::channel::Sender;
use fc_obs::Obs;
use parking_lot::Mutex;
use state::{Inner, Resident};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// A backend shared between node incarnations (it is the durable medium, so
/// it must survive a node crash/restart in tests and demos).
pub type SharedBackend = Arc<Mutex<Box<dyn StorageBackend>>>;

/// Wrap a backend for use by a node.
pub fn shared_backend(b: impl StorageBackend + 'static) -> SharedBackend {
    Arc::new(Mutex::new(Box::new(b)))
}

/// What the node's threads share — the pump's one handle.
struct Core {
    cfg: Arc<NodeConfig>,
    /// In an allocation of its own: the handles and flags beside it are
    /// read by every thread on every call, off the lock too, and would
    /// otherwise share cache lines with state written under it.
    inner: Box<Mutex<Inner>>,
    /// The durable medium, reachable without going through `Inner` so hot
    /// paths can hoist backend reads out of the critical section.
    backend: SharedBackend,
    transport: Arc<dyn Transport + Sync>,
    pipe: Arc<ReplPipe>,
    obs: Arc<NodeObs>,
    /// Recovery and scrub calls parked on a reply from the peer (leaf
    /// lock).
    parked: Mutex<Vec<Sender<Message>>>,
    /// The link's receive side: whoever holds it reads and dispatches.
    link: pump::LinkSlot,
    /// Spawn time, the zero of the heartbeats' `at_millis` stamp.
    started: Instant,
    shutdown: AtomicBool,
    /// Crash-fault injection ([`Node::fail`] / [`Node::restart`]): while
    /// set, the pump neither heartbeats nor processes messages, and the
    /// `try_*` entry points refuse with [`NodeDown`].
    halted: AtomicBool,
}

/// A live FlashCoop node: one background pump thread and a synchronous
/// API. Replication frames are sent by the writers themselves, and a writer
/// waiting for its ack reads it off the link itself (DESIGN §16).
pub struct Node {
    core: Arc<Core>,
    pump: Option<JoinHandle<()>>,
}

impl Node {
    /// Start a node over an established transport and backend.
    pub fn spawn(
        cfg: NodeConfig,
        transport: impl Transport + Sync + 'static,
        backend: SharedBackend,
    ) -> Node {
        let cfg = Arc::new(cfg);
        let transport: Arc<dyn Transport + Sync> = Arc::new(transport);
        let obs = Arc::new(NodeObs::default());
        let pipe = Arc::new(ReplPipe::new(cfg.clone(), transport.clone(), obs.clone()));
        let inner = Inner::new(cfg.clone(), backend.clone(), pipe.clone(), obs.clone());
        let core = Arc::new(Core {
            inner: Box::new(Mutex::new(inner)),
            backend,
            transport,
            pipe,
            obs,
            parked: Mutex::default(),
            link: pump::LinkSlot::default(),
            started: Instant::now(),
            shutdown: AtomicBool::new(false),
            halted: AtomicBool::new(false),
            cfg,
        });
        let pump = {
            let core = core.clone();
            std::thread::Builder::new()
                .name(format!("fc-node-{}", core.cfg.id))
                .spawn(move || pump::pump_loop(&core))
                .expect("spawn node pump")
        };
        Node {
            core,
            pump: Some(pump),
        }
    }

    /// Attach observability: publishes every node counter — one
    /// `cluster.node.*` cell per counted [`NodeStats`] field (all but the
    /// derived `writes` and the `remote_pages` gauge),
    /// one `cluster.replication.*` cell per [`ReplicationStats`] field, and
    /// the `cluster.replication.pages_per_batch` histogram;
    /// the cells the node has counted into since spawn, so attaching
    /// mid-run loses nothing — and starts emitting wall-stamped `cluster.node`
    /// events (`repl_batch_send` / `repl_batch_ack` / `repl_retry` /
    /// `repl_dedup` / `write_through` / `lifecycle` / `takeover_destage` /
    /// `corrupt_detected` / `corrupt_repaired` / `scrub_corrupt` /
    /// `scrub_repair` / `credit_stall` / `credit_reject`). Events go to the
    /// first `Obs` attached.
    pub fn attach_obs(&self, obs: &Obs) {
        self.core.obs.attach(obs, u64::from(self.core.cfg.id));
    }

    /// Run `f` under `Inner`. The `(lpn, version)` pairs it hands back —
    /// pages it flushed or dropped — go to the peer as one seq-stamped,
    /// version-bounded Discard *after* the guard drops (fire-and-forget: a
    /// lost Discard only leaves stale — version-guarded — copies there).
    fn under_inner<T>(&self, f: impl FnOnce(&mut Inner) -> (T, Vec<(u64, u64)>)) -> T {
        let (out, discard) = {
            let mut inner = self.core.inner.lock();
            let (out, pages) = f(&mut inner);
            (out, inner.discard(pages))
        };
        if let Some(discard) = discard {
            let _ = self.core.transport.send(discard);
        }
        out
    }

    /// Read one page: local buffer first, then the backend (caching the
    /// result).
    pub fn read(&self, lpn: u64) -> Option<Vec<u8>> {
        let page = self.read_run(None, lpn, 1).pop().flatten();
        page.map(|bytes| bytes.to_vec())
    }

    /// [`Node::read`] on behalf of an identified client (gateway sessions);
    /// the per-client read/hit counters are updated under the same lock as
    /// the node-wide ones.
    pub fn read_from(&self, client: u64, lpn: u64) -> Option<Vec<u8>> {
        let page = self.read_run(Some(client), lpn, 1).pop().flatten();
        page.map(|bytes| bytes.to_vec())
    }

    /// [`Node::try_read_run`]'s walk: the run is **one** buffer access —
    /// one popularity increment per block it touches (§III.B.2) — and one
    /// `Inner` pass that takes every hit and counts the run. Each miss
    /// segment is then fetched with `Inner` dropped ([`Node::fill_miss`]).
    fn read_run(&self, client: Option<u64>, lpn: u64, n: u32) -> Vec<Option<Bytes>> {
        let mut out = Vec::with_capacity(n as usize);
        if n == 0 {
            return out;
        }
        let mut misses = Vec::new();
        {
            let mut inner = self.core.inner.lock();
            let mut hits = 0u64;
            for seg in inner.buffer.read(lpn, n) {
                let pages = seg.lpn..seg.lpn + u64::from(seg.pages);
                if seg.hit {
                    hits += u64::from(seg.pages);
                    out.extend(pages.map(|l| inner.buffer.get(l).map(|p| p.bytes.clone())));
                } else {
                    misses.push((out.len(), pages.start, seg.pages));
                    out.resize(out.len() + seg.pages as usize, None);
                }
            }
            inner.obs.reads.add(u64::from(n));
            inner.obs.read_hits.add(hits);
            if let Some(c) = client {
                let row = &mut inner.client(c).stats;
                row.reads += u64::from(n);
                row.read_hits += hits;
            }
        }
        for (at, lpn, n) in misses {
            for (slot, page) in out[at..].iter_mut().zip(self.fill_miss(lpn, n)) {
                *slot = page;
            }
        }
        out
    }

    /// Fetch a miss segment `lpn..lpn+n` from the backend under one guard
    /// and cache what it found clean, one fill per stretch of consecutive
    /// pages that pass both staleness checks below ([`Inner::fill_runs`]).
    /// The fetch (the slow leaf) and the checksums run without `Inner`
    /// held, so concurrent writers are not serialized behind them.
    fn fill_miss(&self, lpn: u64, n: u32) -> Vec<Option<Bytes>> {
        let fetched: Vec<Option<Resident>> = {
            let be = self.core.backend.lock();
            (lpn..lpn + u64::from(n))
                .map(|l| {
                    let (version, data) = be.read_page(l)?;
                    let bytes = Bytes::from(data);
                    let crc = crc32(&bytes);
                    Some(Resident {
                        bytes,
                        crc,
                        version,
                    })
                })
                .collect()
        };
        self.under_inner(|inner| {
            for page in fetched.iter().flatten() {
                inner.observe_version(page.version);
            }
            let mut out = Vec::with_capacity(fetched.len());
            let mut fill = Vec::with_capacity(fetched.len());
            let backend = inner.backend.lock();
            for (lpn, page) in (lpn..).zip(fetched) {
                let Some(page) = page else {
                    out.push(None);
                    continue;
                };
                if let Some(newer) = inner.buffer.get(lpn) {
                    // A concurrent write landed while we were off the lock;
                    // its buffered copy supersedes the backend's.
                    out.push(Some(newer.bytes.clone()));
                    continue;
                }
                out.push(Some(page.bytes.clone()));
                // A concurrent write was buffered, evicted and flushed, or
                // a delete trimmed the page, while we were off the lock:
                // the copy we read is no longer the page, so it stays
                // uncached (this read overlapped that change and may still
                // return it).
                if backend.version_of(lpn) == Some(page.version) {
                    fill.push((lpn, page));
                }
            }
            drop(backend);
            (out, inner.fill_runs(fill))
        })
    }

    // -- crash-fault injection and the fallible front-end API ---------------

    /// Inject a crash fault *in place*: the pump stops heartbeating and
    /// processing messages (so the peer's failure detector walks the pair
    /// to Solo/takeover), volatile state (buffer, hosted remote pages,
    /// exactly-once windows) is dropped — only the backend survives —
    /// and every `try_*` entry point refuses with [`NodeDown`] until
    /// [`Node::restart`]. The node object survives — a gateway holding an
    /// `Arc<Node>` can route around it and later route back.
    pub fn fail(&self) {
        self.core.halted.store(true, Ordering::SeqCst);
        // Parked recovery calls see their channel close.
        self.core.parked.lock().clear();
        let mut inner = self.core.inner.lock();
        inner.buffer.clear();
        inner.hosted.clear();
        for c in inner.clients.values_mut() {
            c.window = Default::default();
        }
        // Parked writers fail fast: the pipe abandons its window (their
        // tickets resolve Failed) and opens a fresh batch epoch.
        inner.batch_rx = Default::default();
        inner.pipe.reset();
        inner.note("fail", |e| e);
    }

    /// Undo [`Node::fail`]: the pump resumes. The node's own lifecycle
    /// then observes the outage gap and walks it Solo; the peer's
    /// returning heartbeats rejoin the pair.
    pub fn restart(&self) {
        {
            let mut inner = self.core.inner.lock();
            inner.credits = None;
            inner.note("restart", |e| e);
        }
        self.core.halted.store(false, Ordering::SeqCst);
    }

    /// True while crash-faulted ([`Node::fail`] without [`Node::restart`]).
    pub fn is_halted(&self) -> bool {
        self.core.halted.load(Ordering::SeqCst)
    }

    /// `Ok` unless crash-faulted — the first line of every `try_*` entry.
    fn live(&self) -> Result<(), NodeDown> {
        if self.is_halted() {
            return Err(NodeDown);
        }
        Ok(())
    }

    /// In-place clean stop for nodes held behind an `Arc`: flush dirty
    /// pages (discarding their replicas at the peer) and destage hosted
    /// peer pages (same data guarantees as [`Node::shutdown`]), and tell
    /// the pump to exit. The pump thread is joined later by `Drop`.
    pub fn quiesce(&self) {
        self.core.shutdown.store(true, Ordering::SeqCst);
        self.under_inner(|inner| ((), inner.enter_solo("shutdown")));
    }

    /// Read `lpn..lpn+n` on behalf of `client`, one entry per page, `None`
    /// for a page held nowhere. A buffer hit hands out a refcounted handle
    /// on the resident payload — no copy — and a run of hits costs one pass
    /// under the node's lock, not one per page. Refuses with [`NodeDown`]
    /// while halted.
    pub fn try_read_run(
        &self,
        client: u64,
        lpn: u64,
        n: u32,
    ) -> Result<Vec<Option<Bytes>>, NodeDown> {
        self.live()?;
        Ok(self.read_run(Some(client), lpn, n))
    }

    /// Drop every local copy — buffered and durable — of each of
    /// `lpns` (with `only_held`, skipping pages this node holds nowhere) in
    /// one pass: one `Inner` acquisition, one backend guard and one Discard
    /// to the peer for the lot ([`Node::under_inner`]). Each dropped page's
    /// Discard is bounded by the version current here, since every replica
    /// carries one <= it:
    /// the resident record's, else the backend's (an evicted page was
    /// flushed at its last version); only a page held nowhere gets the
    /// unbounded `u64::MAX`, which a reordered Discard could otherwise use
    /// to delete a newer replica. `account` books the dropped-page count
    /// under the same guard. Returns that count; refuses with [`NodeDown`]
    /// while halted.
    fn forget_pages(
        &self,
        lpns: impl Iterator<Item = u64>,
        only_held: bool,
        account: impl FnOnce(&mut Inner, u64),
    ) -> Result<u64, NodeDown> {
        self.live()?;
        Ok(self.under_inner(|inner| {
            let mut bounds = Vec::new();
            {
                let mut backend = self.core.backend.lock();
                for lpn in lpns {
                    let durable = backend.version_of(lpn);
                    if only_held && durable.is_none() && inner.buffer.lookup(lpn).is_none() {
                        continue;
                    }
                    let resident = inner.buffer.remove(lpn).map(|p| p.version);
                    backend.trim_page(lpn);
                    bounds.push((lpn, resident.or(durable).unwrap_or(u64::MAX)));
                }
            }
            let dropped = bounds.len() as u64;
            account(inner, dropped);
            (dropped, bounds)
        }))
    }

    /// Delete the run `lpn..lpn+n` on behalf of `client` (a short-lived
    /// file dies): the buffered copies, the peer's replicas and the backend
    /// copies all go away without a flush, in one pass and one Discard
    /// frame. Refuses with [`NodeDown`]
    /// while halted.
    pub fn try_delete_run(&self, client: u64, lpn: u64, n: u32) -> Result<(), NodeDown> {
        self.forget_pages(lpn..lpn + u64::from(n), false, |inner, pages| {
            inner.obs.deletes.add(pages);
            inner.client(client).stats.trims += pages;
        })?;
        Ok(())
    }

    /// Flush every dirty page in the local buffer to the backend (the
    /// client-visible `Flush` barrier): after this returns, all previously
    /// acknowledged writes are on this node's durable medium, independent of
    /// the peer. Returns the number of pages flushed. The peer's
    /// now-redundant replicas are discarded (version-bounded, so an
    /// in-flight newer write is never lost); only a dirty page ever has a
    /// replica there, so once that Discard lands the peer hosts none of
    /// this node's pages. Refuses with [`NodeDown`] while halted.
    pub fn try_flush_dirty(&self) -> Result<u64, NodeDown> {
        self.live()?;
        Ok(self.under_inner(|inner| {
            let ev = inner.buffer.drain_dirty();
            let flushed = inner.apply_eviction(&ev);
            let n = flushed.len() as u64;
            inner.note("flush_barrier", |e| e.u64_field("pages", n));
            (n, flushed)
        }))
    }

    /// Snapshot of the per-client counters, sorted by client id.
    pub fn client_stats(&self) -> Vec<(u64, PerClientStats)> {
        let inner = self.core.inner.lock();
        let mut v: Vec<(u64, PerClientStats)> =
            inner.clients.iter().map(|(&c, s)| (c, s.stats)).collect();
        v.sort_unstable_by_key(|e| e.0);
        v
    }

    /// Current counters: the cells, read without a lock, around the one
    /// value only `Inner` knows.
    pub fn stats(&self) -> NodeStats {
        let remote = self.core.inner.lock().hosted.pages();
        self.core.obs.snapshot(remote)
    }

    /// Summary of the replication batch-size histogram (pages per
    /// first-send `WriteReplBatch`).
    pub fn repl_batch_histogram(&self) -> fc_obs::HistogramSummary {
        self.core.obs.batch_hist.summary()
    }

    /// Dirty pages in the local buffer.
    pub fn dirty_pages(&self) -> usize {
        self.core.inner.lock().buffer.dirty()
    }

    /// True while the node serves without its peer (Solo).
    pub fn is_degraded(&self) -> bool {
        self.core.inner.lock().lifecycle.state().is_degraded()
    }

    /// Current pair-lifecycle state.
    pub fn lifecycle_state(&self) -> PairState {
        self.core.inner.lock().lifecycle.state()
    }

    /// Lifecycle edges taken since spawn.
    pub fn lifecycle_transitions(&self) -> u64 {
        self.core.obs.lifecycle_transitions.get()
    }

    /// Snapshot of the pages this node holds for its peer — hosted in
    /// memory or taken over onto the backend (diagnostics).
    pub fn hosted_remote_pages(&self) -> Vec<u64> {
        self.core.inner.lock().hosted.lpns()
    }

    /// Export the pages held for the peer, e.g. to re-home them onto a
    /// replacement node after this node's network link died (the peer's
    /// data must survive *our* reconnects). Includes taken-over pages.
    pub fn export_remote(&self) -> Vec<(u64, u64, Vec<u8>)> {
        let snapshot = self.core.inner.lock().hosted.snapshot();
        snapshot
            .into_iter()
            .map(|(l, v, d)| (l, v, d.to_vec()))
            .collect()
    }

    /// Import hosted pages exported from a previous incarnation.
    pub fn import_remote(&self, entries: &[(u64, u64, Vec<u8>)]) {
        let mut inner = self.core.inner.lock();
        for (lpn, ver, data) in entries {
            inner.observe_version(*ver);
            inner
                .hosted
                .insert(*lpn, *ver, Bytes::copy_from_slice(data));
        }
    }

    /// Tell the pump to exit, join it and close the pipe.
    fn stop_pump(&mut self) {
        self.core.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.pump.take() {
            let _ = h.join();
        }
        self.core.pipe.close();
    }

    /// Stop the pump thread and flush all dirty pages to the backend
    /// (a clean shutdown never loses data — ours or the peer's). The pump
    /// stops first, so nothing new is hosted after the takeover destage.
    pub fn shutdown(mut self) {
        self.stop_pump();
        self.quiesce();
    }

    /// Simulate a crash: [`Node::fail`], then the node is gone — no flush.
    pub fn crash(self) {
        self.fail();
    }
}

impl Drop for Node {
    fn drop(&mut self) {
        self.stop_pump();
    }
}

/// Helpers shared by the node modules' tests.
#[cfg(test)]
mod testkit {
    pub(crate) use super::{
        shared_backend, Node, NodeConfig, NodeDown, PerClientStats, RunOutcome, SharedBackend,
        WriteOutcome,
    };
    pub(crate) use super::{PairState, RetryPolicy};
    pub(crate) use crate::backend::MemBackend;
    pub(crate) use crate::fault::{FaultPlan, FaultTransport};
    pub(crate) use crate::transport::{mem_pair, Link, Transport, TransportError};
    pub(crate) use crate::wire::{resync_entry, Message};
    pub(crate) use bytes::Bytes;
    pub(crate) use fc_obs::Obs;
    pub(crate) use parking_lot::Mutex;
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

    /// An `Inner` with no node around it — no pump, no thread — whose pipe
    /// sends on a mem link; the link's far end comes back with it.
    pub(super) fn bare_inner(cfg: NodeConfig) -> (super::Inner, Link<Message>) {
        let cfg = Arc::new(cfg);
        let obs = Arc::new(super::NodeObs::default());
        let (near, far) = mem_pair();
        let pipe = super::ReplPipe::new(cfg.clone(), Arc::new(near), obs.clone());
        let backend = shared_backend(MemBackend::new());
        (super::Inner::new(cfg, backend, Arc::new(pipe), obs), far)
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

    /// One frame event on a [`Tap`]ped link.
    #[derive(Clone, Debug)]
    pub(crate) struct Tapped {
        /// When the send or the receive call began.
        pub(crate) at: Instant,
        /// The name of the thread that made the call.
        pub(crate) thread: String,
        pub(crate) sent: bool,
        /// `None`: a receive that timed out.
        pub(crate) msg: Option<Message>,
        /// The tap's flag was up when the call returned.
        pub(crate) flagged: bool,
    }

    /// A mem link that logs every send and every receive call with the
    /// thread that made it.
    pub(crate) struct Tap {
        link: Link<Message>,
        log: Mutex<Vec<Tapped>>,
        pub(crate) flag: AtomicBool,
    }

    impl Tap {
        pub(crate) fn new(link: Link<Message>) -> Arc<Tap> {
            Arc::new(Tap {
                link,
                log: Mutex::default(),
                flag: AtomicBool::new(false),
            })
        }

        pub(crate) fn log(&self) -> Vec<Tapped> {
            self.log.lock().clone()
        }

        fn record(&self, at: Instant, sent: bool, msg: Option<Message>) {
            let thread = std::thread::current().name().unwrap_or("?").to_string();
            let flagged = self.flag.load(Ordering::SeqCst);
            self.log.lock().push(Tapped {
                at,
                thread,
                sent,
                msg,
                flagged,
            });
        }
    }

    impl Transport for Tap {
        fn send(&self, msg: Message) -> Result<(), TransportError> {
            self.record(Instant::now(), true, Some(msg.clone()));
            Transport::send(&self.link, msg)
        }
        fn recv_timeout(&self, timeout: Duration) -> Result<Option<Message>, TransportError> {
            let at = Instant::now();
            let got = Transport::recv_timeout(&self.link, timeout);
            self.record(at, false, got.clone().ok().flatten());
            got
        }
        fn is_connected(&self) -> bool {
            self.link.is_connected()
        }
    }

    /// A pair over tapped links, each built from `cfg` with its own id.
    pub(crate) fn tapped_pair(cfg: NodeConfig) -> (Node, Node, Arc<Tap>, Arc<Tap>) {
        let (ta, tb) = mem_pair();
        let (tap_a, tap_b) = (Tap::new(ta), Tap::new(tb));
        let a = Node::spawn(
            cfg.clone(),
            tap_a.clone(),
            shared_backend(MemBackend::new()),
        );
        let b = Node::spawn(
            NodeConfig { id: 1, ..cfg },
            tap_b.clone(),
            shared_backend(MemBackend::new()),
        );
        (a, b, tap_a, tap_b)
    }

    /// A node thread named `name`, running `f` on `node`.
    pub(crate) fn named<T: Send + 'static>(
        name: &str,
        node: &Arc<Node>,
        f: impl FnOnce(&Node) -> T + Send + 'static,
    ) -> std::thread::JoinHandle<T> {
        let node = node.clone();
        std::thread::Builder::new()
            .name(name.to_string())
            .spawn(move || f(&node))
            .expect("spawn test thread")
    }

    pub(crate) fn both_paired(a: &Node, b: &Node) -> bool {
        wait_until(
            || a.lifecycle_state() == PairState::Paired && b.lifecycle_state() == PairState::Paired,
            Duration::from_secs(5),
        )
    }

    /// Last peer-advertised hosting credits (None until the peer spoke, or
    /// after going solo).
    pub(crate) fn peer_credits(n: &Node) -> Option<u32> {
        n.core.inner.lock().credits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::testkit::*;

    #[test]
    fn replicated_write_lands_in_peer_remote_buffer() {
        let (a, b, _ba, _bb) = pair();
        assert_eq!(a.write(7, b"hello"), WriteOutcome::Replicated);
        assert!(wait_until(
            || b.hosted_remote_pages() == vec![7],
            Duration::from_millis(500)
        ));
        assert_eq!(a.stats().replicated_pages, 1);
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn read_your_writes_from_buffer() {
        let (a, b, _ba, _bb) = pair();
        a.write(3, b"abc");
        assert_eq!(a.read(3), Some(b"abc".to_vec()));
        assert_eq!(a.stats().read_hits, 1);
        assert_eq!(a.read(99), None);
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn read_run_shares_hits_and_fills_misses_in_place() {
        let (a, b, ba, _bb) = pair();
        a.write_run(1, 10, &[b"p10", b"p11"]);
        // lpn 12 is durable but not buffered; lpn 13 exists nowhere.
        ba.lock().write_page(12, 1, b"p12");
        let got = a.try_read_run(9, 10, 4).unwrap();
        let want: [Option<&[u8]>; 4] = [Some(b"p10"), Some(b"p11"), Some(b"p12"), None];
        assert_eq!(got.iter().map(|p| p.as_deref()).collect::<Vec<_>>(), want);
        let s = a.stats();
        assert_eq!((s.reads, s.read_hits), (4, 2));
        // A hit is a handle on the resident payload, not a copy of it; the
        // miss was cached, so it hits now.
        let again = a.try_read_run(9, 10, 3).unwrap();
        for (first, second) in got.iter().zip(&again) {
            assert_eq!(
                first.as_ref().unwrap().as_ptr(),
                second.as_ref().unwrap().as_ptr()
            );
        }
        let s = a.stats();
        assert_eq!((s.reads, s.read_hits), (7, 5));
        let row = a
            .client_stats()
            .into_iter()
            .find(|(c, _)| *c == 9)
            .unwrap()
            .1;
        assert_eq!((row.reads, row.read_hits), (7, 5));
        a.fail();
        assert_eq!(a.try_read_run(9, 10, 1), Err(NodeDown));
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn per_client_stats_track_each_origin_separately() {
        let (a, b, _ba, _bb) = pair();
        a.write_run(1, 10, &[b"one"]);
        a.write_run(1, 11, &[b"one-b", b"one-c", b"one-d"]);
        a.write_run(2, 20, &[b"two"]);
        assert_eq!(a.read_from(1, 10), Some(b"one".to_vec()));
        assert_eq!(a.read_from(2, 99), None); // miss
        a.try_delete_run(2, 20, 1).unwrap();
        let rows = a.client_stats();
        assert_eq!(rows.len(), 2);
        let (c1, s1) = rows[0];
        let (c2, s2) = rows[1];
        assert_eq!((c1, c2), (1, 2));
        // `writes` counts runs, `pages_written` their pages.
        assert_eq!(s1.writes, 2);
        assert_eq!(s1.pages_written, 4);
        assert_eq!(s1.reads, 1);
        assert_eq!(s1.read_hits, 1);
        assert_eq!(s1.trims, 0);
        assert_eq!((s2.writes, s2.pages_written), (1, 1));
        assert_eq!(s2.reads, 1);
        assert_eq!(s2.read_hits, 0);
        assert_eq!(s2.trims, 1);
        // The node-wide counters still see everything.
        let total = a.stats();
        assert_eq!(total.writes, 5);
        assert_eq!(total.reads, 2);
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn flush_dirty_is_a_durability_barrier() {
        let (a, b, ba, _bb) = pair();
        for i in 0..10u64 {
            a.write(i, format!("d{i}").as_bytes());
        }
        assert!(a.dirty_pages() > 0);
        let flushed = a.try_flush_dirty().unwrap();
        assert_eq!(flushed, 10);
        assert_eq!(a.dirty_pages(), 0);
        // Every page is now on the backend, independent of the peer.
        for i in 0..10u64 {
            assert!(ba.lock().read_page(i).is_some(), "page {i} not flushed");
        }
        // A second flush has nothing to do.
        assert_eq!(a.try_flush_dirty(), Ok(0));
        // Reads still hit the (clean) buffered copies.
        assert_eq!(a.read(3), Some(b"d3".to_vec()));
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn eviction_flushes_to_backend_and_discards_remote() {
        let (a, b, ba, _bb) = pair();
        // Buffer is 64 pages; write 80 distinct pages to force evictions.
        for i in 0..80u64 {
            a.write(i, format!("p{i}").as_bytes());
        }
        assert!(a.stats().flushed_pages > 0);
        assert!(ba.lock().pages() > 0);
        // Discards propagate: the peer hosts fewer pages than were written.
        assert!(
            wait_until(
                || b.hosted_remote_pages().len() <= 64,
                Duration::from_secs(1)
            ),
            "peer still hosts {} pages",
            b.hosted_remote_pages().len()
        );
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn severed_link_degrades_but_stays_durable() {
        let (ta, tb) = mem_pair();
        let ba = shared_backend(MemBackend::new());
        let bb = shared_backend(MemBackend::new());
        let a = Node::spawn(NodeConfig::test_profile(0), ta, ba.clone());
        let b = Node::spawn(NodeConfig::test_profile(1), tb, bb);
        a.write(1, b"before");
        // Cut the network; node A can't reach its peer any more. Severing
        // is not possible — `Link::sever` is on the endpoint moved into the
        // node. Crash B instead (drops its endpoint, disconnecting the
        // channel).
        b.crash();
        let outcome = a.write(2, b"after");
        assert_eq!(outcome, WriteOutcome::WriteThrough);
        assert!(a.is_degraded());
        assert_eq!(a.lifecycle_state(), PairState::Solo);
        // Both pages durable: page 2 written through, page 1 flushed by
        // solo-mode entry.
        let backend = ba.lock();
        assert!(backend.read_page(2).is_some());
        assert!(backend.read_page(1).is_some());
        drop(backend);
        a.shutdown();
    }

    #[test]
    fn solo_entry_discards_what_it_flushed_at_a_peer_that_stayed_up() {
        const DIRTY: u64 = 6;
        let mut cfg_a = NodeConfig::test_profile(0);
        cfg_a.ack_timeout = Duration::from_millis(30);
        // A one-sided data-plane outage: A's outbound batch for the write
        // after the dirty ones is lost with every retransmission, while
        // heartbeats flow both ways.
        let attempts = u64::from(cfg_a.retry.attempts);
        let plan = FaultPlan::new(5).with_partition(DIRTY, DIRTY + attempts);
        let (ta, tb) = mem_pair();
        let ba = shared_backend(MemBackend::new());
        let a = Node::spawn(cfg_a, FaultTransport::new(ta, plan), ba.clone());
        let b = Node::spawn(
            NodeConfig::test_profile(1),
            tb,
            shared_backend(MemBackend::new()),
        );
        for lpn in 0..DIRTY {
            assert_eq!(a.write(lpn, b"dirty"), WriteOutcome::Replicated);
        }
        assert_eq!(b.hosted_remote_pages(), (0..DIRTY).collect::<Vec<_>>());
        assert_eq!(a.write(DIRTY, b"lost"), WriteOutcome::WriteThrough);
        assert_eq!(a.lifecycle_state(), PairState::Solo);
        assert_eq!(a.dirty_pages(), 0);
        for lpn in 0..=DIRTY {
            assert!(ba.lock().read_page(lpn).is_some(), "page {lpn} not durable");
        }
        // The peer_alive timer rejoins; the flushed pages' replicas are gone.
        assert!(both_paired(&a, &b));
        assert!(wait_until(
            || b.hosted_remote_pages().is_empty(),
            Duration::from_secs(1)
        ));
        assert_eq!(b.stats().repl.takeover_destages, 0);
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn clean_shutdown_flushes_everything() {
        let (a, b, ba, _bb) = pair();
        for i in 0..5u64 {
            a.write(i, b"data");
        }
        assert!(a.dirty_pages() > 0);
        a.shutdown();
        assert_eq!(ba.lock().pages(), 5);
        b.shutdown();
    }

    #[test]
    fn delete_removes_page_everywhere() {
        let (ta, tb) = mem_pair();
        let ba = shared_backend(MemBackend::new());
        let tap = Tap::new(ta);
        let a = Node::spawn(NodeConfig::test_profile(0), tap.clone(), ba.clone());
        let b = Node::spawn(
            NodeConfig::test_profile(1),
            tb,
            shared_backend(MemBackend::new()),
        );
        // A four-page run: two pages flushed (durable and buffered clean),
        // one still dirty, one never written.
        a.write_run(0, 3, &[b"ephemeral", b"transient"]);
        a.try_flush_dirty().unwrap();
        a.write(5, b"dirty");
        assert!(wait_until(
            || b.hosted_remote_pages() == vec![5],
            Duration::from_millis(500)
        ));
        let mark = tap.log().len();
        a.try_delete_run(7, 3, 4).unwrap();
        for lpn in 3..7u64 {
            assert_eq!(a.read(lpn), None);
            assert_eq!(ba.lock().read_page(lpn), None);
        }
        assert_eq!(a.stats().deletes, 4);
        let trims: Vec<(u64, u64)> = a
            .client_stats()
            .into_iter()
            .map(|(client, row)| (client, row.trims))
            .collect();
        assert_eq!(trims, vec![(0, 0), (7, 4)], "trims count pages");
        // The whole run went to the peer as one version-bounded Discard.
        let sent: Vec<Vec<(u64, u64)>> = tap.log()[mark..]
            .iter()
            .filter_map(|e| match &e.msg {
                Some(Message::Discard { pages, .. }) if e.sent => Some(pages.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(sent.len(), 1, "{sent:?}");
        assert_eq!(
            sent[0].iter().map(|(lpn, _)| *lpn).collect::<Vec<_>>(),
            vec![3, 4, 5, 6]
        );
        assert_eq!(sent[0][3].1, u64::MAX, "a page held nowhere is unbounded");
        assert!(sent[0][..3].iter().all(|(_, bound)| *bound != u64::MAX));
        assert!(
            wait_until(
                || b.hosted_remote_pages().is_empty(),
                Duration::from_millis(500)
            ),
            "peer replica survived"
        );
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn peer_heartbeats_keep_link_healthy() {
        let (a, b, _ba, _bb) = pair();
        std::thread::sleep(Duration::from_millis(400)); // >> failure_timeout
        assert!(!a.is_degraded(), "beats should prevent degradation");
        assert!(!b.is_degraded());
        assert_eq!(a.lifecycle_state(), PairState::Paired);
        // Heartbeats advertise credits, so each side has learned the
        // other's capacity.
        assert!(peer_credits(&a).is_some());
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn obs_events_and_counters_mirror_node_stats() {
        let (a, b, _ba, _bb) = pair();
        let (obs, ring) = Obs::ring(1024);
        a.attach_obs(&obs);
        for i in 0..8u64 {
            assert_eq!(a.write(i, b"data"), WriteOutcome::Replicated);
        }
        let s = a.stats();
        assert_eq!(s.replicated_pages, 8);
        // Cached counters track live.
        assert_eq!(
            obs.registry()
                .counter("cluster.node.replicated_pages")
                .get(),
            8
        );
        assert_eq!(
            obs.registry().counter("cluster.node.write_through").get(),
            0
        );
        let events = ring.events();
        // Sequential writes each travel as their own single-page batch.
        let sends = events
            .iter()
            .filter(|e| e.kind == "repl_batch_send")
            .count();
        let acks = events.iter().filter(|e| e.kind == "repl_batch_ack").count();
        assert_eq!(acks, 8);
        assert!(sends >= 8, "every replication has at least one send span");
        assert_eq!(s.repl.batches_sent, 8);
        assert_eq!(s.repl.batch_pages, 8);
        let hist = a.repl_batch_histogram();
        assert_eq!(hist.count, 8);
        for e in &events {
            assert_eq!(e.component, "cluster.node");
            assert_eq!(e.get("id").and_then(fc_obs::Value::as_u64), Some(0));
            assert!(matches!(e.t, fc_obs::Stamp::Wall(_)));
        }
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn registry_equals_stats_after_a_mixed_run() {
        let (ta, tb) = mem_pair();
        // A's batch frames are damaged half the time and its buffer holds
        // 32 pages; B hosts 24.
        let fa = FaultTransport::new(ta, FaultPlan::new(42).with_corrupt(0.5));
        let mut cfg_a = NodeConfig::test_profile(0);
        cfg_a.buffer_pages = 32;
        let mut cfg_b = NodeConfig::test_profile(1);
        cfg_b.remote_capacity = 24;
        let a = Node::spawn(cfg_a, fa, shared_backend(MemBackend::new()));
        let b = Node::spawn(cfg_b, tb, shared_backend(MemBackend::new()));
        let (early, _ring) = Obs::ring(4096);
        a.attach_obs(&early);
        // One page per block, so every block is as popular as the next and
        // LAR evicts dirty ones first: replicated writes with Corrupt-NACK
        // resends, credit stalls whenever B is full, flushing evictions
        // past the 32-page buffer; then a retried tagged run, reads, a
        // trim, and a quiesce, whose solo entry is a lifecycle edge.
        for i in 0..80u64 {
            a.write(16 * i, format!("p{i}").as_bytes());
        }
        let run = [Bytes::from_static(b"tagged")];
        a.try_write_run(7, 1, 5, &run).unwrap();
        a.try_write_run(7, 1, 5, &run).unwrap();
        a.try_read_run(7, 16 * 79, 2).unwrap();
        a.try_delete_run(7, 16 * 79, 1).unwrap();
        a.quiesce();
        let s = a.stats();
        let moved = [
            s.replicated_pages,
            s.write_through,
            s.repl.credit_stalls,
            s.repl.retries,
            s.repl.corruptions_repaired,
            s.dedup_hits,
            s.flushed_pages,
            s.deletes,
            s.reads,
            s.repl.lifecycle_transitions,
        ];
        assert!(moved.iter().all(|&n| n > 0), "{s:?}");
        assert!(s.writes_balance());
        // Attached after the traffic: the cells have counted since spawn.
        let (late, _ring) = Obs::ring(16);
        a.attach_obs(&late);
        for obs in [&early, &late] {
            let snap = obs.registry().snapshot();
            let rows = NodeObs::fields(&s);
            assert_eq!(rows.len(), 22);
            assert!(rows.contains(&(
                "cluster.replication.lifecycle_transitions",
                s.repl.lifecycle_transitions
            )));
            for (name, want) in rows {
                assert_eq!(snap.counter(name), Some(want), "{name}");
            }
            let hist = obs
                .registry()
                .histogram("cluster.replication.pages_per_batch");
            assert_eq!(hist.summary(), a.repl_batch_histogram());
            assert_eq!(hist.count(), s.repl.batches_sent);
        }
        a.shutdown();
        b.shutdown();
    }

    /// What a reader's backend fetch returns when, between the fetch and
    /// the fill, a concurrent write of the page is buffered, evicted and
    /// flushed (or a delete trims it): the first `read_page` of an lpn in
    /// `stale` returns the copy from before, while `version_of` already
    /// reports the backend as it is after.
    struct FlushInTheGap {
        mem: MemBackend,
        stale: Mutex<HashMap<u64, (u64, Vec<u8>)>>,
    }

    impl StorageBackend for FlushInTheGap {
        fn write_page(&mut self, lpn: u64, version: u64, data: &[u8]) {
            self.mem.write_page(lpn, version, data);
        }
        fn read_page(&self, lpn: u64) -> Option<(u64, Vec<u8>)> {
            let stale = self.stale.lock().remove(&lpn);
            stale.or_else(|| self.mem.read_page(lpn))
        }
        fn trim_page(&mut self, lpn: u64) {
            self.mem.trim_page(lpn);
        }
        fn pages(&self) -> usize {
            self.mem.pages()
        }
        fn version_of(&self, lpn: u64) -> Option<u64> {
            self.mem.version_of(lpn)
        }
        fn lpns(&self) -> Vec<u64> {
            self.mem.lpns()
        }
    }

    #[test]
    fn read_miss_never_caches_a_copy_the_backend_has_moved_past() {
        // lpn 7 was rewritten (v2 flushed over v1) and lpn 9 deleted while
        // the first read of each was off the lock.
        let mut mem = MemBackend::new();
        mem.write_page(7, 2, b"new");
        let stale = HashMap::from([(7, (1, b"old".to_vec())), (9, (1, b"gone".to_vec()))]);
        let backend = FlushInTheGap {
            mem,
            stale: Mutex::new(stale),
        };
        let (ta, tb) = mem_pair();
        let a = Node::spawn(NodeConfig::test_profile(0), ta, shared_backend(backend));
        let b = Node::spawn(
            NodeConfig::test_profile(1),
            tb,
            shared_backend(MemBackend::new()),
        );
        // The racing reads overlapped the write and the delete, so they may
        // return what they fetched — but must not cache it.
        assert_eq!(a.read(7), Some(b"old".to_vec()));
        assert_eq!(a.read(9), Some(b"gone".to_vec()));
        assert_eq!(a.read(7), Some(b"new".to_vec()), "stale fill was cached");
        assert_eq!(a.read(9), None, "deleted page was cached");
        assert_eq!(a.try_migration_lpns(), Ok(vec![7]));
        assert_eq!(a.stats().read_hits, 0);
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn failed_node_refuses_and_restart_rejoins() {
        let (a, b, _ba, _bb) = pair();
        assert_eq!(a.write(1, b"x"), WriteOutcome::Replicated);
        b.fail();
        assert!(b.is_halted());
        assert_eq!(b.try_read_run(1, 1, 1), Err(NodeDown));
        assert_eq!(b.try_flush_dirty(), Err(NodeDown));
        assert_eq!(
            b.try_write_run(1, 1, 0, &[Bytes::from_static(b"y")]),
            Err(NodeDown)
        );
        // The survivor detects the silence and walks to Solo/takeover.
        assert!(wait_until(
            || a.lifecycle_state() == PairState::Solo,
            Duration::from_secs(2)
        ));
        assert_eq!(a.write(2, b"solo"), WriteOutcome::WriteThrough);
        b.restart();
        assert!(!b.is_halted());
        // Heartbeats resume and both sides re-form the pair.
        assert!(wait_until(
            || {
                a.lifecycle_state() == PairState::Paired && b.lifecycle_state() == PairState::Paired
            },
            Duration::from_secs(5)
        ));
        assert_eq!(a.write(3, b"again"), WriteOutcome::Replicated);
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn reads_follow_writes_through_eviction_and_delete() {
        const BUFFER: usize = 256;
        const WINDOW: u64 = 64 * BUFFER as u64;
        const OPS: u64 = 20_000;
        let cfg = |id: u8| {
            let mut c = NodeConfig::test_profile(id);
            c.buffer_pages = BUFFER;
            c
        };
        let (ta, tb) = mem_pair();
        let a = Node::spawn(cfg(0), ta, shared_backend(MemBackend::new()));
        let b = Node::spawn(cfg(1), tb, shared_backend(MemBackend::new()));

        let mut last: HashMap<u64, Vec<u8>> = HashMap::new();
        let mut touched: Vec<u64> = Vec::new();
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            rng >> 33
        };
        for op in 0..OPS {
            if touched.is_empty() || next() % 5 < 3 {
                let lpn = next() % WINDOW;
                let payload = format!("p{lpn}-{op}").into_bytes();
                a.write(lpn, &payload);
                if last.insert(lpn, payload).is_none() {
                    touched.push(lpn);
                }
            } else {
                // Mostly misses: the touched set is far wider than the
                // buffer, so the page was evicted and comes from the backend.
                let lpn = touched[next() as usize % touched.len()];
                assert_eq!(a.read(lpn).as_ref(), last.get(&lpn), "op {op} lpn {lpn}");
            }
        }
        let s = a.stats();
        assert!(s.flushed_pages > 0 && s.reads > s.read_hits, "{s:?}");

        touched.sort_unstable();
        let deleted: Vec<u64> = touched.iter().copied().step_by(3).collect();
        for &lpn in &deleted {
            a.try_delete_run(0, lpn, 1).unwrap();
            last.remove(&lpn);
        }
        assert!(a.stats().writes_balance());
        for &lpn in &deleted {
            assert_eq!(a.read(lpn), None, "deleted page {lpn} came back");
        }
        for (lpn, want) in &last {
            assert_eq!(a.read(*lpn).as_ref(), Some(want), "lpn {lpn}");
        }
        assert!(
            wait_until(
                || {
                    let hosted = b.hosted_remote_pages();
                    deleted.iter().all(|l| hosted.binary_search(l).is_err())
                },
                Duration::from_secs(2)
            ),
            "peer still hosts a deleted page"
        );
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn read_miss_racing_writes_and_deletes_settles_on_the_last_ack() {
        // A 2-page buffer over 8 lpns: most writes evict and flush, most
        // reads miss, so the readers' fetch-to-fill gaps keep overlapping
        // a rewrite or delete of the page they fetched.
        const WINDOW: u64 = 8;
        const OPS: u64 = 4_000;
        let mut cfg = NodeConfig::test_profile(0);
        cfg.buffer_pages = 2;
        let (ta, tb) = mem_pair();
        let a = Node::spawn(cfg, ta, shared_backend(MemBackend::new()));
        let b = Node::spawn(
            NodeConfig::test_profile(1),
            tb,
            shared_backend(MemBackend::new()),
        );
        let done = AtomicBool::new(false);
        let mut last: HashMap<u64, Vec<u8>> = HashMap::new();
        std::thread::scope(|s| {
            for seed in 1..=2u64 {
                let (a, done) = (&a, &done);
                s.spawn(move || {
                    let mut lpn = seed;
                    while !done.load(Ordering::Relaxed) {
                        lpn = (lpn * 5 + 3) % WINDOW;
                        a.read(lpn);
                    }
                });
            }
            let mut rng = 0x2545_F491_4F6C_DD1Du64;
            let mut stale = None;
            for op in 0..OPS {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                let lpn = rng % WINDOW;
                if rng >> 60 < 3 {
                    a.try_delete_run(0, lpn, 1).unwrap();
                    last.remove(&lpn);
                } else {
                    let payload = format!("p{lpn}-{op}").into_bytes();
                    a.write(lpn, &payload);
                    last.insert(lpn, payload);
                }
                // This thread is the only writer: a read must return the
                // last acked copy, whatever the readers filled meanwhile.
                let probe = (rng >> 32) % WINDOW;
                if a.read(probe).as_ref() != last.get(&probe) {
                    stale = Some((op, probe));
                    break;
                }
            }
            done.store(true, Ordering::Relaxed);
            assert_eq!(stale, None, "(op, lpn) read an older copy than acked");
        });
        for lpn in 0..WINDOW {
            assert_eq!(a.read(lpn).as_ref(), last.get(&lpn), "lpn {lpn}");
        }
        a.shutdown();
        b.shutdown();
    }

    /// A backend whose read of an lpn in `pause` reports the fetch on
    /// `fetched`, then keeps the backend lock long enough for a delete to
    /// take `Inner` and block behind it to trim the same page — the widest
    /// the reader's fetch-to-fill gap can be.
    struct PauseInTheGap {
        mem: MemBackend,
        pause: Arc<Mutex<Vec<u64>>>,
        fetched: crossbeam::channel::Sender<u64>,
    }

    impl StorageBackend for PauseInTheGap {
        fn write_page(&mut self, lpn: u64, version: u64, data: &[u8]) {
            self.mem.write_page(lpn, version, data);
        }
        fn read_page(&self, lpn: u64) -> Option<(u64, Vec<u8>)> {
            let page = self.mem.read_page(lpn);
            if self.pause.lock().contains(&lpn) {
                self.fetched.send(lpn).unwrap();
                std::thread::sleep(Duration::from_millis(100));
            }
            page
        }
        fn trim_page(&mut self, lpn: u64) {
            self.mem.trim_page(lpn);
        }
        fn pages(&self) -> usize {
            self.mem.pages()
        }
        fn version_of(&self, lpn: u64) -> Option<u64> {
            self.mem.version_of(lpn)
        }
        fn lpns(&self) -> Vec<u64> {
            self.mem.lpns()
        }
    }

    #[test]
    fn read_miss_racing_a_delete_caches_nothing() {
        let mut cfg = NodeConfig::test_profile(0);
        cfg.buffer_pages = 1;
        let pause = Arc::new(Mutex::new(Vec::new()));
        let (fetched, on_fetch) = crossbeam::channel::unbounded();
        let backend = PauseInTheGap {
            mem: MemBackend::new(),
            pause: pause.clone(),
            fetched,
        };
        let (ta, tb) = mem_pair();
        let a = Node::spawn(cfg, ta, shared_backend(backend));
        let b = Node::spawn(
            NodeConfig::test_profile(1),
            tb,
            shared_backend(MemBackend::new()),
        );
        a.write(9, b"gone");
        a.write(100, b"filler"); // evicts and flushes 9
        *pause.lock() = vec![9];
        std::thread::scope(|s| {
            // The delete takes `Inner` while the reader's fetch of 9 is off
            // it, and trims the page before the reader gets `Inner` back.
            let reader = s.spawn(|| a.read(9));
            assert_eq!(on_fetch.recv().unwrap(), 9);
            a.try_delete_run(0, 9, 1).unwrap();
            // The read overlapped the delete, so it may return the page.
            assert_eq!(reader.join().unwrap(), Some(b"gone".to_vec()));
        });
        pause.lock().clear();
        assert_eq!(a.read(9), None, "deleted page was cached");
        assert_eq!(a.try_migration_lpns(), Ok(vec![100]));
        a.shutdown();
        b.shutdown();
    }
}
