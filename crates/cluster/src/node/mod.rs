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
//! The node shares the [`PairLifecycle`] state machine with the simulation:
//!
//! ```text
//! Paired → Suspect → Solo → Resyncing → Paired
//! ```
//!
//! * **Solo entry** (`peer_failed` / `ack_timeout` / `disconnected`): every
//!   dirty local page is flushed, and the pages hosted for the peer are
//!   *taken over* — destaged sequentially to this node's backend under the
//!   [`PEER_NS`] namespace so the peer's replicated data survives until its
//!   recovery handshake collects it.
//! * **Solo writes** go write-through and are recorded in a bounded
//!   catch-up journal (latest version per page).
//! * **Rejoin**: when the peer's heartbeats return, the pump hands the
//!   journal to the replication pipe one batch at a time (ordinary
//!   [`Message::WriteReplBatch`] frames) while new writes keep landing in
//!   the journal; once it drains with no batch in flight the node cuts
//!   over to `Paired`. A journal overflow downgrades to a full-buffer
//!   resync.
//! * **Integrity**: every data payload carries a CRC-32; a receiver that
//!   sees a damaged batch NACKs it ([`NackReason::Corrupt`]) and the sender
//!   retransmits the clean copy. [`Node::scrub`] repairs silently-corrupted
//!   *local* pages from the peer's replica.
//! * **Backpressure**: the remote buffer is bounded; acks and heartbeats
//!   advertise the remaining credits and a sender that runs out writes
//!   through locally instead of replicating.

mod config;
mod migrate;
mod recover;
mod stats;
#[cfg(test)]
mod testkit;

pub use config::{NodeConfig, NodeConfigBuilder};
pub use stats::{MigrateError, NodeDown, NodeStats, PerClientStats, RunOutcome, WriteOutcome};

use crate::backend::StorageBackend;
use crate::pipe::{PageOutcome, PipePage, ReplPipe, RunTicket};
use crate::transport::{Transport, TransportError};
use crate::wire::{crc32, Message, NackReason, SeqStatus, SeqTracker};
use bytes::Bytes;
use crossbeam::channel::Sender;
use fc_obs::{Counter, Obs};
use fc_simkit::{SimDuration, SimTime};
use flashcoop::policy::Eviction;
use flashcoop::{
    BufferManager, HeartbeatMonitor, LifecycleTransition, PairLifecycle, PairState, PeerEvent,
    PeerState,
};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// `write_through` event reason for a page kept local because the peer is
/// out of hosting credits (the one reason that also counts a credit stall).
const NO_CREDITS: &str = "no_credits";

/// Backend namespace for pages destaged on behalf of a failed peer. Bit 63
/// keeps them disjoint from the node's own logical pages, so a takeover
/// never clobbers local data and a later Purge can trim exactly the
/// taken-over set.
pub const PEER_NS: u64 = 1 << 63;

/// A backend shared between node incarnations (it is the durable medium, so
/// it must survive a node crash/restart in tests and demos).
pub type SharedBackend = Arc<Mutex<Box<dyn StorageBackend>>>;

/// Wrap a backend for use by a node.
pub fn shared_backend(b: impl StorageBackend + 'static) -> SharedBackend {
    Arc::new(Mutex::new(Box::new(b)))
}

/// Cached obs handles for the hot replication path: counters resolved once
/// at attach time, event emission via the shared [`Obs`] handle.
#[derive(Debug, Clone)]
pub(crate) struct NodeObs {
    pub(crate) obs: Obs,
    id: u64,
    pub(crate) replicated: Counter,
    pub(crate) write_through: Counter,
    pub(crate) retries: Counter,
    dedups: Counter,
}

impl NodeObs {
    /// Start a wall-stamped `cluster.node` event tagged with the node id.
    pub(crate) fn ev(&self, kind: &'static str) -> fc_obs::Event {
        self.obs
            .wall_event("cluster.node", kind)
            .u64_field("id", self.id)
    }
}

/// A page the writer handed to the pipe, kept on the writer's side for the
/// write-through fallback; its outcome is the ticket slot of the same index.
struct Pipelined {
    lpn: u64,
    version: u64,
    bytes: Bytes,
}

impl Pipelined {
    /// The pipe's half of this page, resolving on `ticket`'s slot `slot`.
    fn pipe_page(&self, crc: u32, ticket: &Arc<RunTicket>, slot: usize) -> PipePage {
        // Counted before the run is submitted, so the ticket cannot hit
        // zero while it is being filled.
        ticket.remaining.fetch_add(1, Ordering::Relaxed);
        PipePage {
            lpn: self.lpn,
            version: self.version,
            crc,
            data: self.bytes.clone(),
            ticket: ticket.clone(),
            slot,
        }
    }
}

/// Receiver-side state for the pipelined replication stream: one
/// contiguous per-epoch sequence space, acknowledged cumulatively. Lives in
/// [`Inner`]; reset when the sender abandons an epoch ([`ReplPipe::reset`])
/// and a higher-epoch frame arrives.
#[derive(Debug, Default)]
struct BatchRx {
    epoch: u32,
    /// Highest contiguously applied batch seq this epoch.
    cum: u64,
    /// Applied-but-not-yet-contiguous seqs (reordered arrivals waiting for
    /// the gap below them to fill).
    seen: std::collections::BTreeSet<u64>,
}

/// Progress of one incremental resync towards the cut-over barrier.
struct ResyncRun {
    /// The journal batch the pipe currently holds: the pump's ticket and
    /// the pages on it (slot `i` is `pages[i]`), kept so a failed batch can
    /// go back to the journal.
    outstanding: Option<(Arc<RunTicket>, Vec<Pipelined>)>,
    batches: u64,
    /// Pages the peer acknowledged.
    pages: u64,
}

/// One client's exactly-once window: outcomes of its most recent tagged
/// write runs, evicted FIFO at `cfg.dedup_window` entries.
#[derive(Default)]
struct DedupWindow {
    /// Insertion order, oldest first (drives eviction).
    order: std::collections::VecDeque<u64>,
    /// tag → outcome of the run when it was first applied.
    seen: HashMap<u64, RunOutcome>,
}

impl DedupWindow {
    fn record(&mut self, tag: u64, outcome: RunOutcome, cap: usize) {
        if self.seen.insert(tag, outcome).is_none() {
            self.order.push_back(tag);
        }
        while self.order.len() > cap.max(1) {
            if let Some(old) = self.order.pop_front() {
                self.seen.remove(&old);
            }
        }
    }
}

/// What the node keeps for one buffer-resident page (the buffer itself
/// tracks only residency and dirtiness).
struct Resident {
    bytes: Bytes,
    /// CRC-32 of `bytes` at write/fill time — the reference a scrub
    /// compares against to spot silent local corruption.
    crc: u32,
    /// Pair-clock version of this copy: the stamp of the write that put it
    /// here, or the backend's version for a read-miss fill.
    version: u64,
}

/// The node's mutable heart, behind one mutex.
///
/// # Lock order
///
/// `Inner` ≺ { `backend`, `stats` }: the backend and stats mutexes are
/// *leaf* locks — they may be acquired while holding `Inner` (every
/// destage does: eviction flushes, degraded writes, solo entry, takeover,
/// migration), but nothing that holds a leaf lock may acquire `Inner` (or
/// the other leaf). Hot paths additionally hoist backend *reads* out of the
/// `Inner` critical section entirely (see [`Node::write`] /
/// [`Node::read`]).
struct Inner {
    cfg: Arc<NodeConfig>,
    buffer: BufferManager,
    /// One record per buffer-resident page. Its key set equals `buffer`'s
    /// whenever `Inner` is unlocked: a page that leaves the buffer
    /// (eviction, delete, fence-out, crash) leaves no node-side record.
    resident: HashMap<u64, Resident>,
    next_version: u64,
    backend: SharedBackend,
    /// Pages hosted for the peer: lpn → (version, data). Bounded by
    /// `cfg.remote_capacity`.
    remote: HashMap<u64, (u64, Bytes)>,
    /// Peer pages destaged to our backend (under [`PEER_NS`]) by a
    /// takeover: lpn → version. Still served by RctFetch, trimmed by Purge.
    taken_over: HashMap<u64, u64>,
    /// Data-plane sequence numbers seen from the peer (dedup/reorder
    /// detection for retransmitted or duplicated deliveries).
    peer_seqs: SeqTracker,
    lifecycle: PairLifecycle,
    monitor: HeartbeatMonitor,
    /// Solo-mode writes awaiting the next resync: lpn → (version, data),
    /// latest version only. Cleared (and flagged) on overflow.
    journal: HashMap<u64, (u64, Bytes)>,
    journal_overflowed: bool,
    resync: Option<ResyncRun>,
    /// Earliest instant a Solo node may (re)attempt a resync when the
    /// monitor still considers the peer healthy (data-plane-only failures).
    resync_retry_at: Option<Instant>,
    /// Last peer-advertised hosting credits; `None` until the peer has
    /// spoken (optimistic) or after going solo.
    credits: Option<u32>,
    snapshot_waiters: Vec<Sender<Vec<(u64, u64, Bytes)>>>,
    purge_waiters: Vec<Sender<()>>,
    scrub_waiters: HashMap<u64, Sender<Option<(u64, Bytes)>>>,
    next_seq: u64,
    /// Receiver-side cumulative-ack state for the peer's pipelined batches.
    batch_rx: BatchRx,
    /// Refcount of pages currently in the replication pipeline (enqueued,
    /// unresolved). [`Inner::enter_solo`] still flushes these for safety
    /// but leaves their durability accounting to the writer that owns
    /// them.
    inflight: HashMap<u64, u32>,
    /// This node's replication pipe, held here only so solo entry can
    /// [`ReplPipe::reset`] it (the one `Inner` → pipe nesting).
    pipe: Arc<ReplPipe>,
    /// Node counters — a leaf lock shared with [`Node`] and the pipe, so
    /// `Node::stats` snapshots and pipeline accounting never contend with
    /// writers holding `Inner`.
    stats: Arc<Mutex<NodeStats>>,
    /// Per-origin counters, keyed by the client id the gateway passed to a
    /// `*_from` entry point.
    clients: HashMap<u64, PerClientStats>,
    /// Per-client exactly-once windows for tagged write runs.
    dedup: HashMap<u64, DedupWindow>,
    obs: Option<NodeObs>,
}

impl Inner {
    /// Emit a wall-stamped `cluster.node` event if obs is attached.
    fn note(&self, kind: &'static str, f: impl FnOnce(fc_obs::Event) -> fc_obs::Event) {
        if let Some(o) = &self.obs {
            o.obs.emit(f(o.ev(kind)));
        }
    }

    /// Record a lifecycle edge in the obs stream.
    fn emit_lifecycle(&self, tr: LifecycleTransition) {
        self.note("lifecycle", |e| {
            e.str_field("from", tr.from.name())
                .str_field("to", tr.to.name())
                .str_field("cause", tr.cause)
        });
    }

    /// Advance the version clock past a version observed from the peer (a
    /// hosted replica, a resync entry, a discard bound, a recovered
    /// snapshot) or from the shared backend. Both halves of a pair stamp
    /// writes from their own counter; with every observation folded in,
    /// any *new* write gets a version above every version of that page the
    /// pair has produced so far — which is what lets the backend's
    /// `version >= stored` guard arbitrate correctly when a failover
    /// makes both nodes write the same lpn space.
    fn observe_version(&mut self, v: u64) {
        if v >= self.next_version {
            self.next_version = v + 1;
        }
    }

    /// Remaining hosting credits this node would advertise right now.
    fn advertised_credits(&self) -> u32 {
        self.cfg.remote_capacity.saturating_sub(self.remote.len()) as u32
    }

    /// Write an eviction's runs to the backend under one backend guard;
    /// returns the written `(lpn, version)` pairs.
    fn flush_runs(&self, ev: &Eviction) -> Vec<(u64, u64)> {
        if ev.runs.is_empty() {
            return Vec::new();
        }
        let mut flushed = Vec::with_capacity(ev.flushed_pages() as usize);
        let mut backend = self.backend.lock();
        for run in &ev.runs {
            for lpn in run.lpn..run.end_lpn() {
                if let Some(page) = self.resident.get(&lpn) {
                    backend.write_page(lpn, page.version, &page.bytes);
                    flushed.push((lpn, page.version));
                }
            }
        }
        flushed
    }

    /// Flush an eviction's runs to the backend and forget the pages that
    /// left the buffer; returns the flushed `(lpn, version)` pairs so the
    /// caller can send a version-bounded Discard. Costs what the eviction
    /// evicted, whatever the buffer holds.
    fn apply_eviction(&mut self, ev: &Eviction) -> Vec<(u64, u64)> {
        let flushed = self.flush_runs(ev);
        if !flushed.is_empty() {
            self.stats.lock().flushed_pages += flushed.len() as u64;
        }
        for lpn in &ev.removed {
            self.resident.remove(lpn);
        }
        debug_assert_eq!(self.resident.len(), self.buffer.resident());
        flushed
    }

    /// Stamp a Discard for `pages` with the next data-plane seq (`None`
    /// when there is nothing to discard). Called under the guard that
    /// produced the list; [`Node::send_discard`] puts it on the wire after
    /// the guard drops.
    fn discard_for(&mut self, pages: Vec<(u64, u64)>) -> Option<Message> {
        if pages.is_empty() {
            return None;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        Some(Message::Discard { seq, pages })
    }

    /// Drop every local copy of `lpn` — buffered, journaled, durable — and
    /// return the version bound for the peer's Discard: every replica
    /// carries a version <= the one current here. That is the resident
    /// record's, else the backend's (an evicted page was flushed at its
    /// last version); only a page this node holds nowhere gets the
    /// unbounded `u64::MAX`, which a reordered Discard could otherwise use
    /// to delete a newer replica.
    fn forget_page(&mut self, lpn: u64, backend: &mut dyn StorageBackend) -> u64 {
        self.buffer.discard(lpn, 1);
        self.journal.remove(&lpn);
        let resident = self.resident.remove(&lpn).map(|p| p.version);
        let durable = backend.version_of(lpn);
        backend.trim_page(lpn);
        resident.or(durable).unwrap_or(u64::MAX)
    }

    /// Record a solo-mode write for the next resync. Latest version per
    /// page (a page coming back from a failed resync batch never displaces
    /// a newer solo write); an overflow clears the journal and flags a full
    /// resync.
    fn journal_record(&mut self, lpn: u64, version: u64, data: Bytes) {
        if self.journal_overflowed || self.journal.get(&lpn).is_some_and(|(v, _)| *v >= version) {
            return;
        }
        self.journal.insert(lpn, (version, data));
        if self.journal.len() > self.cfg.journal_entries {
            self.journal.clear();
            self.journal_overflowed = true;
            self.note("journal_overflow", |e| {
                e.u64_field("cap", self.cfg.journal_entries as u64)
            });
        }
    }

    /// Drop one pipeline reference for `lpn` (its write resolved).
    fn inflight_done(&mut self, lpn: u64) {
        if let Some(n) = self.inflight.get_mut(&lpn) {
            *n -= 1;
            if *n == 0 {
                self.inflight.remove(&lpn);
            }
        }
    }

    /// Remote failure handling: flush every dirty page, take over the
    /// peer's replicated pages, and stop forwarding until a resync.
    fn enter_solo(&mut self, cause: &'static str) {
        if self.lifecycle.state() == PairState::Solo {
            return;
        }
        // Abandon the replication pipeline: blocked writers resolve as
        // failed and write through themselves, a resync batch goes back to
        // the journal; the next epoch starts clean.
        self.pipe.reset();
        if let Some(tr) = self.lifecycle.force_solo(cause) {
            self.emit_lifecycle(tr);
        }
        self.settle_resync(true);
        // Flush every dirty local page: the peer replica is no longer a
        // second memory.
        let ev = self.buffer.drain_dirty();
        // A page still in the pipeline is flushed here for safety (the ack
        // may already be in flight) but its writer does the accounting when
        // it resolves.
        let destaged = self
            .flush_runs(&ev)
            .iter()
            .filter(|(lpn, _)| !self.inflight.contains_key(lpn))
            .count() as u64;
        if destaged > 0 {
            let mut s = self.stats.lock();
            s.flushed_pages += destaged;
            s.repl.partition_destages += destaged;
        }
        self.takeover_destage();
        self.credits = None;
        self.resync_retry_at = Some(Instant::now() + self.cfg.failure_timeout);
        // Writers waiting on acks will time out and take the write-through
        // path themselves.
    }

    /// Destage the pages hosted for the (failed) peer to our own backend,
    /// sequentially by lpn, then reclaim the remote buffer's memory. The
    /// pages remain reachable for the peer's recovery handshake through
    /// [`Inner::peer_snapshot`].
    fn takeover_destage(&mut self) {
        if self.remote.is_empty() {
            return;
        }
        let mut lpns: Vec<u64> = self.remote.keys().copied().collect();
        lpns.sort_unstable();
        let pages = lpns.len() as u64;
        {
            let mut backend = self.backend.lock();
            for lpn in &lpns {
                let (ver, data) = &self.remote[lpn];
                backend.write_page(PEER_NS | lpn, *ver, data);
                self.taken_over.insert(*lpn, *ver);
            }
        }
        self.remote.clear();
        self.stats.lock().repl.takeover_destages += pages;
        self.note("takeover_destage", |e| e.u64_field("pages", pages));
    }

    /// Everything this node holds on behalf of its peer: the in-memory
    /// remote buffer plus any taken-over pages re-read from the backend.
    fn peer_snapshot(&self) -> Vec<(u64, u64, Bytes)> {
        let mut v: Vec<(u64, u64, Bytes)> = self
            .remote
            .iter()
            .map(|(&l, (ver, d))| (l, *ver, d.clone()))
            .collect();
        if !self.taken_over.is_empty() {
            let backend = self.backend.lock();
            for (&lpn, &ver) in &self.taken_over {
                if self.remote.contains_key(&lpn) {
                    continue;
                }
                if let Some((bver, data)) = backend.read_page(PEER_NS | lpn) {
                    v.push((lpn, bver.max(ver), Bytes::from(data)));
                }
            }
        }
        v.sort_unstable_by_key(|e| e.0);
        v
    }

    /// Start (or restart) an incremental resync. No-op unless Solo.
    fn begin_resync(&mut self, cause: &'static str) {
        if self.lifecycle.state() != PairState::Solo {
            return;
        }
        if self.journal_overflowed {
            // The journal lost track of what the peer missed; fall back to
            // re-sending every resident page.
            self.journal = self
                .resident
                .iter()
                .map(|(&lpn, page)| (lpn, (page.version, page.bytes.clone())))
                .collect();
            self.journal_overflowed = false;
            self.stats.lock().repl.full_resyncs += 1;
        }
        if let Some(tr) = self.lifecycle.begin_resync(cause) {
            self.emit_lifecycle(tr);
        }
        self.resync = Some(ResyncRun {
            outstanding: None,
            batches: 0,
            pages: 0,
        });
        self.resync_retry_at = None;
        self.note("resync_start", |e| {
            e.u64_field("journal", self.journal.len() as u64)
                .str_field("cause", cause)
        });
    }

    /// Read the outcome of the resync batch the pipe holds off its ticket,
    /// once every page is resolved — or at once when `abort`ing the run
    /// (solo entry just reset the pipe; a slot nobody resolved reads
    /// `Failed`). Acknowledged pages count, refused ones are forgone (they
    /// were written through while solo, so only the second memory is
    /// lost), failed ones return to the journal and end the run.
    fn settle_resync(&mut self, abort: bool) {
        let Some(run) = &mut self.resync else {
            return;
        };
        let mut failed = Vec::new();
        if run
            .outstanding
            .as_ref()
            .is_some_and(|(ticket, _)| abort || ticket.is_done())
        {
            let (ticket, pages) = run.outstanding.take().expect("checked above");
            let mut acked = 0;
            for (slot, page) in pages.into_iter().enumerate() {
                match ticket.outcome(slot) {
                    PageOutcome::Replicated => acked += 1,
                    PageOutcome::NoCredit => {}
                    PageOutcome::Failed => failed.push(page),
                }
            }
            run.pages += acked;
            self.stats.lock().repl.resync_pages += acked;
        }
        if failed.is_empty() && !abort {
            return;
        }
        self.resync = None;
        for p in failed {
            self.journal_record(p.lpn, p.version, p.bytes);
        }
        // Already Solo when aborting: solo entry does its own bookkeeping.
        if let Some(tr) = self.lifecycle.resync_failed("resync_timeout") {
            self.emit_lifecycle(tr);
            self.resync_retry_at = Some(Instant::now() + self.cfg.failure_timeout);
            self.note("resync_failed", |e| {
                e.u64_field("journal", self.journal.len() as u64)
            });
        }
    }

    /// Advance the resync: settle the batch the pipe holds, cut over to
    /// Paired once the journal has drained with nothing outstanding, or cut
    /// the next batch. One batch rides the pipe at a time, so the pump
    /// never puts more than one page-carrying frame on the wire between
    /// two receives (a blocking socket write cannot wedge two pumps that
    /// resync toward each other). Returns the pages to submit to the pipe
    /// (*after* dropping the lock).
    fn drive_resync(&mut self) -> Vec<PipePage> {
        self.settle_resync(false);
        if self.resync.as_ref().is_none_or(|r| r.outstanding.is_some()) {
            return Vec::new();
        }
        if self.journal.is_empty() {
            // Cut-over barrier: the journal drained and nothing is in
            // flight — the peer holds every page we wrote solo.
            let run = self.resync.take().expect("resync run");
            if let Some(tr) = self.lifecycle.resync_complete() {
                self.emit_lifecycle(tr);
            }
            self.note("resync_complete", |e| {
                e.u64_field("batches", run.batches)
                    .u64_field("pages", run.pages)
            });
            return Vec::new();
        }
        // Cut the next batch: smallest lpns first (sequential, like the
        // destage path).
        let mut lpns: Vec<u64> = self.journal.keys().copied().collect();
        lpns.sort_unstable();
        lpns.truncate(self.cfg.repl_batch_pages.max(1));
        let ticket = RunTicket::new(lpns.len());
        let mut kept = Vec::with_capacity(lpns.len());
        let mut pipe_pages = Vec::with_capacity(lpns.len());
        for (slot, lpn) in lpns.into_iter().enumerate() {
            let (version, bytes) = self.journal.remove(&lpn).expect("journal entry");
            let page = Pipelined {
                lpn,
                version,
                bytes,
            };
            pipe_pages.push(page.pipe_page(crc32(&page.bytes), &ticket, slot));
            kept.push(page);
        }
        let run = self.resync.as_mut().expect("resync run");
        run.outstanding = Some((ticket, kept));
        run.batches += 1;
        self.stats.lock().repl.resync_batches += 1;
        pipe_pages
    }
}

/// A live FlashCoop node: one background pump thread and a synchronous
/// API. Replication frames are sent by the writers themselves and resolved
/// by the pump (DESIGN §16).
pub struct Node {
    inner: Arc<Mutex<Inner>>,
    /// Node counters (leaf lock; see the [`Inner`] lock-order rule).
    stats: Arc<Mutex<NodeStats>>,
    /// The durable medium, reachable without going through `Inner` so hot
    /// paths can hoist backend reads out of the critical section.
    backend: SharedBackend,
    transport: Arc<dyn Transport + Sync>,
    pipe: Arc<ReplPipe>,
    shutdown: Arc<AtomicBool>,
    /// Crash-fault injection ([`Node::fail`] / [`Node::restart`]): while
    /// set, the pump neither heartbeats nor processes messages, and the
    /// `try_*` entry points refuse with [`NodeDown`].
    halted: Arc<AtomicBool>,
    pump: Option<JoinHandle<()>>,
}

impl Node {
    /// Start a node over an established transport and backend.
    pub fn spawn(
        cfg: NodeConfig,
        transport: impl Transport + Sync + 'static,
        backend: SharedBackend,
    ) -> Node {
        let monitor = HeartbeatMonitor::new(
            SimDuration::from_nanos(cfg.heartbeat.as_nanos() as u64),
            SimDuration::from_nanos(cfg.failure_timeout.as_nanos() as u64),
        );
        let buffer = BufferManager::new(cfg.policy, cfg.buffer_pages, cfg.pages_per_block, true);
        let cfg = Arc::new(cfg);
        let stats = Arc::new(Mutex::new(NodeStats::default()));
        let transport: Arc<dyn Transport + Sync> = Arc::new(transport);
        let pipe = Arc::new(ReplPipe::new(cfg.clone(), transport.clone(), stats.clone()));
        let inner = Arc::new(Mutex::new(Inner {
            cfg: cfg.clone(),
            buffer,
            resident: HashMap::new(),
            next_version: 1,
            backend: backend.clone(),
            remote: HashMap::new(),
            taken_over: HashMap::new(),
            peer_seqs: SeqTracker::new(),
            lifecycle: PairLifecycle::new(),
            monitor,
            journal: HashMap::new(),
            journal_overflowed: false,
            resync: None,
            resync_retry_at: None,
            credits: None,
            snapshot_waiters: Vec::new(),
            purge_waiters: Vec::new(),
            scrub_waiters: HashMap::new(),
            next_seq: 1,
            batch_rx: BatchRx::default(),
            inflight: HashMap::new(),
            pipe: pipe.clone(),
            stats: stats.clone(),
            clients: HashMap::new(),
            dedup: HashMap::new(),
            obs: None,
        }));
        let shutdown = Arc::new(AtomicBool::new(false));
        let halted = Arc::new(AtomicBool::new(false));
        let pump = {
            let cfg = cfg.clone();
            let inner = inner.clone();
            let transport = transport.clone();
            let pipe = pipe.clone();
            let shutdown = shutdown.clone();
            let halted = halted.clone();
            std::thread::Builder::new()
                .name(format!("fc-node-{}", cfg.id))
                .spawn(move || pump_loop(cfg, inner, transport, pipe, shutdown, halted))
                .expect("spawn node pump")
        };
        Node {
            inner,
            stats,
            backend,
            transport,
            pipe,
            shutdown,
            halted,
            pump: Some(pump),
        }
    }

    /// Write one page. Blocks until the page is durable (replicated or
    /// written through).
    ///
    /// Stats contract: `writes` is committed together with its outcome
    /// counter (`replicated_pages` or `write_through`), under the same lock
    /// acquisition — a concurrent [`Node::stats`] snapshot always satisfies
    /// [`NodeStats::writes_balance`], never observing a write that is
    /// counted but not yet resolved.
    pub fn write(&self, lpn: u64, data: &[u8]) -> WriteOutcome {
        let out = self.write_group(None, vec![(lpn, vec![Bytes::copy_from_slice(data)])])[0];
        if out.all_replicated() {
            WriteOutcome::Replicated
        } else {
            WriteOutcome::WriteThrough
        }
    }

    /// Pipeline front half for a run of consecutive pages (`lpn..lpn+n`):
    /// stamp versions and land the pages in the local buffer, appending the
    /// ones bound for the peer to `pipe_pages` (the caller submits a whole
    /// group's at once, with no lock held) — or resolve individual pages on
    /// the spot for the degraded / no-credit / self-evicted paths. Pays one
    /// backend lock and one `Inner` lock per run rather than per page.
    /// Returns the pages written through on the spot (already counted) and
    /// the pipelined pages; page `i` of those resolves on `ticket`'s slot
    /// `base + i`, `base` being `pipe_pages.len()` on entry.
    fn enqueue_pages(
        &self,
        lpn: u64,
        pages: Vec<Bytes>,
        ticket: &Arc<RunTicket>,
        pipe_pages: &mut Vec<PipePage>,
    ) -> (u64, Vec<Pipelined>) {
        // Payload checksums are pure CPU — computed before any lock is
        // taken so they never extend a critical section.
        let crcs: Vec<u32> = pages.iter().map(|b| crc32(b)).collect();
        // Hoisted out of the `Inner` critical section (lock-order rule):
        // never stamp below the shared backend's copy — after a failover
        // the peer may have written these lpns with its own counter, and a
        // lower version here would lose to the backend's version guard.
        // The reads are benignly racy: the stamp itself happens under
        // `Inner`, and the backend's own `version >= stored` guard
        // arbitrates any concurrent bump. One backend acquisition covers
        // the whole run.
        let backend_vers: Vec<Option<u64>> = {
            let be = self.backend.lock();
            (0..pages.len() as u64)
                .map(|i| be.version_of(lpn + i))
                .collect()
        };
        let mut through = 0u64;
        let mut pipelined: Vec<Pipelined> = Vec::with_capacity(pages.len());
        let mut all_flushed = Vec::new();
        let discard = {
            // One `Inner` acquisition for the whole run: stamping,
            // buffer inserts, and credit debits are memory-only work, so
            // a 32-page run costs one lock round trip instead of 32.
            let mut inner = self.inner.lock();
            for (i, bytes) in pages.into_iter().enumerate() {
                let lpn = lpn + i as u64;
                if let Some(bv) = backend_vers[i] {
                    inner.observe_version(bv);
                }
                let version = inner.next_version;
                inner.next_version += 1;
                // The record must be in place *before* the buffer insert:
                // the insert can evict the very block being written, and
                // the flush needs the data.
                inner.resident.insert(
                    lpn,
                    Resident {
                        bytes: bytes.clone(),
                        crc: crcs[i],
                        version,
                    },
                );

                let degraded = inner.lifecycle.is_degraded();
                if degraded || inner.credits == Some(0) {
                    // Solo or resyncing: write through, journal for catch-up.
                    // Or the peer's remote buffer is full: keep durability
                    // local instead of stalling on a NACK round trip.
                    inner.backend.lock().write_page(lpn, version, &bytes);
                    let ev = inner.buffer.insert_clean(lpn, 1);
                    all_flushed.extend(inner.apply_eviction(&ev));
                    if degraded {
                        inner.journal_record(lpn, version, bytes);
                    }
                    self.count_write_through(lpn, if degraded { "degraded" } else { NO_CREDITS });
                    through += 1;
                } else {
                    let ev = inner.buffer.write(lpn, 1);
                    let flushed = inner.apply_eviction(&ev);
                    let self_evicted = flushed.iter().any(|&(l, _)| l == lpn);
                    all_flushed.extend(flushed);
                    if self_evicted {
                        // The new page was evicted (and flushed) synchronously
                        // by its own insertion — it is already durable on the
                        // backend, so replicating it would only leave a stale
                        // orphan at the peer.
                        self.count_write_through(lpn, "self_evicted");
                        through += 1;
                    } else {
                        if let Some(c) = &mut inner.credits {
                            // Debited at enqueue; every ack re-advertises the
                            // peer's true remaining pool.
                            *c = c.saturating_sub(1);
                        }
                        *inner.inflight.entry(lpn).or_insert(0) += 1;
                        let page = Pipelined {
                            lpn,
                            version,
                            bytes,
                        };
                        pipe_pages.push(page.pipe_page(crcs[i], ticket, pipe_pages.len()));
                        pipelined.push(page);
                    }
                }
            }
            inner.discard_for(all_flushed)
        };
        self.send_discard(discard);
        (through, pipelined)
    }

    /// Write a group of runs through the pipeline and wait — once — for all
    /// of it. Each run is enqueued under its own `Inner` acquisition; then
    /// every run's pages enter the pipe in **one** submission, so the pipe
    /// cuts frames across run boundaries (a 20-page and a 12-page run leave
    /// as one 32-page frame and come back as one ack), the writer parks on
    /// one ticket, and each run commits by itself. One outcome per run, in
    /// order.
    fn write_group(&self, client: Option<u64>, runs: Vec<(u64, Vec<Bytes>)>) -> Vec<RunOutcome> {
        let total = runs.iter().map(|(_, pages)| pages.len()).sum();
        let ticket = RunTicket::new(total);
        let mut pipe_pages: Vec<PipePage> = Vec::with_capacity(total);
        let enqueued: Vec<_> = runs
            .into_iter()
            .map(|(lpn, pages)| {
                let base = pipe_pages.len();
                let (through, pipelined) = self.enqueue_pages(lpn, pages, &ticket, &mut pipe_pages);
                (through, base, pipelined)
            })
            .collect();
        if !pipe_pages.is_empty() {
            self.pipe.submit(pipe_pages);
        }
        ticket.wait();
        enqueued
            .into_iter()
            .map(|(through, base, pipelined)| {
                self.commit_run(client, through, pipelined, &ticket, base)
            })
            .collect()
    }

    /// Commit one run of a resolved group: `through` of its pages were
    /// written through at enqueue, and `pipelined[i]`'s outcome is
    /// `ticket`'s slot `base + i`. The usual case, every pipelined page
    /// acknowledged, commits the run under one `Inner`, one `stats` and one
    /// `obs` acquisition; a run with a refused or failed page falls back to
    /// per-page [`Node::resolve_write`]. Either way `writes` lands together
    /// with its outcome counter under one `stats` guard, preserving
    /// [`NodeStats::writes_balance`] at every snapshot.
    fn commit_run(
        &self,
        client: Option<u64>,
        through: u64,
        pipelined: Vec<Pipelined>,
        ticket: &RunTicket,
        base: usize,
    ) -> RunOutcome {
        let n = through + pipelined.len() as u64;
        let mut out = RunOutcome {
            replicated: 0,
            write_through: through,
        };
        let note_client = |inner: &mut Inner, out: &RunOutcome| {
            if let Some(c) = client {
                let row = inner.clients.entry(c).or_default();
                row.writes += n;
                row.pages_written += n;
                row.write_through += out.write_through;
            }
        };
        let slots = base..base + pipelined.len();
        if slots
            .clone()
            .all(|slot| ticket.outcome(slot) == PageOutcome::Replicated)
        {
            out.replicated = pipelined.len() as u64;
            {
                let mut inner = self.inner.lock();
                for p in &pipelined {
                    inner.inflight_done(p.lpn);
                }
                note_client(&mut inner, &out);
            }
            if out.replicated > 0 {
                {
                    let mut s = self.stats.lock();
                    s.writes += out.replicated;
                    s.replicated_pages += out.replicated;
                }
                if let Some(o) = &*self.pipe.obs.lock() {
                    o.replicated.add(out.replicated);
                }
            }
        } else {
            for (slot, page) in slots.zip(pipelined) {
                match self.resolve_write(page, ticket.outcome(slot)) {
                    WriteOutcome::Replicated => out.replicated += 1,
                    WriteOutcome::WriteThrough => out.write_through += 1,
                }
            }
            note_client(&mut self.inner.lock(), &out);
        }
        out
    }

    /// Commit one pipelined page's outcome (the mixed-run path of
    /// [`Node::commit_run`]).
    fn resolve_write(&self, page: Pipelined, outcome: PageOutcome) -> WriteOutcome {
        let Pipelined {
            lpn,
            version,
            bytes,
        } = page;
        match outcome {
            PageOutcome::Replicated => {
                self.inner.lock().inflight_done(lpn);
                {
                    let mut s = self.stats.lock();
                    s.writes += 1;
                    s.replicated_pages += 1;
                }
                if let Some(o) = &*self.pipe.obs.lock() {
                    o.replicated.inc();
                }
                WriteOutcome::Replicated
            }
            refused => {
                // Make the page durable ourselves; the backend's version
                // guard keeps a newer concurrent copy.
                self.backend.lock().write_page(lpn, version, &bytes);
                let mut inner = self.inner.lock();
                inner.inflight_done(lpn);
                if inner
                    .resident
                    .get(&lpn)
                    .is_some_and(|p| p.version == version)
                {
                    inner.buffer.mark_clean(lpn);
                }
                let reason = if refused == PageOutcome::NoCredit {
                    // Our credit view was stale.
                    inner.credits = Some(0);
                    NO_CREDITS
                } else {
                    // Peer unreachable: go solo; a future resync must
                    // carry the page.
                    inner.enter_solo("ack_timeout");
                    inner.journal_record(lpn, version, bytes);
                    "ack_timeout"
                };
                drop(inner);
                self.count_write_through(lpn, reason);
                WriteOutcome::WriteThrough
            }
        }
    }

    /// Count one page that was made durable by write-through: `writes` and
    /// `write_through` land under one `stats` guard (so every snapshot
    /// satisfies [`NodeStats::writes_balance`]), plus the stall counter and
    /// event when the cause is backpressure. Takes only leaf locks, so it
    /// is callable with or without `Inner` held.
    fn count_write_through(&self, lpn: u64, reason: &'static str) {
        let stalled = reason == NO_CREDITS;
        {
            let mut s = self.stats.lock();
            s.writes += 1;
            s.write_through += 1;
            s.repl.credit_stalls += u64::from(stalled);
        }
        if let Some(o) = &*self.pipe.obs.lock() {
            o.write_through.inc();
            if stalled {
                o.obs.emit(o.ev("credit_stall").u64_field("lpn", lpn));
            }
            o.obs.emit(
                o.ev("write_through")
                    .u64_field("lpn", lpn)
                    .str_field("reason", reason),
            );
        }
    }

    /// Attach observability: registers the node's hot counters
    /// (`cluster.node.replicated_pages`, `cluster.node.write_through`,
    /// `cluster.replication.retries`, `cluster.replication.dups_dropped`)
    /// seeded with the current stats, and starts emitting wall-stamped
    /// `cluster.node` events (`repl_batch_send` / `repl_batch_ack` /
    /// `repl_retry` / `repl_dedup` / `write_through` / `lifecycle` /
    /// `takeover_destage` / `resync_start` / `resync_complete` /
    /// `resync_failed` / `corrupt_detected` / `corrupt_repaired` /
    /// `scrub_corrupt` / `scrub_repair` / `credit_stall` / `credit_reject`
    /// / `journal_overflow`).
    pub fn attach_obs(&self, obs: &Obs) {
        let mut inner = self.inner.lock();
        let snap = *inner.stats.lock();
        let reg = obs.registry();
        let replicated = reg.counter("cluster.node.replicated_pages");
        replicated.store(snap.replicated_pages);
        let write_through = reg.counter("cluster.node.write_through");
        write_through.store(snap.write_through);
        let retries = reg.counter("cluster.replication.retries");
        retries.store(snap.repl.retries);
        let dedups = reg.counter("cluster.replication.dups_dropped");
        dedups.store(snap.repl.dups_dropped);
        inner.obs = Some(NodeObs {
            obs: obs.clone(),
            id: inner.cfg.id as u64,
            replicated,
            write_through,
            retries,
            dedups,
        });
        // The pipe and the writers' commit path emit through their own
        // handle (they never hold `Inner`).
        *self.pipe.obs.lock() = inner.obs.clone();
    }

    /// Send the seq-stamped, version-bounded Discard [`Inner::discard_for`]
    /// built (fire-and-forget: a lost Discard only leaves stale —
    /// version-guarded — copies at the peer).
    fn send_discard(&self, discard: Option<Message>) {
        if let Some(msg) = discard {
            let _ = self.transport.send(msg);
        }
    }

    /// Read one page: local buffer first, then the backend (caching the
    /// result).
    pub fn read(&self, lpn: u64) -> Option<Vec<u8>> {
        self.read_one(None, lpn)
    }

    /// [`Node::read`] on behalf of an identified client (gateway sessions);
    /// the per-client read/hit counters are updated under the same lock as
    /// the node-wide ones.
    pub fn read_from(&self, client: u64, lpn: u64) -> Option<Vec<u8>> {
        self.read_one(Some(client), lpn)
    }

    /// The copying one-page front of [`Node::try_read_run`]'s walk.
    fn read_one(&self, client: Option<u64>, lpn: u64) -> Option<Vec<u8>> {
        let page = self.read_run(client, lpn, 1).pop().flatten();
        page.map(|bytes| bytes.to_vec())
    }

    /// [`Node::try_read_run`]'s walk: a run of hits costs one `Inner`, one
    /// `stats` and one client-row visit, not one per page. A miss drops
    /// `Inner` for the backend fetch and the walk resumes behind it, so the
    /// buffer sees the same accesses in the same order as page-at-a-time
    /// reads.
    fn read_run(&self, client: Option<u64>, lpn: u64, n: u32) -> Vec<Option<Bytes>> {
        let mut out = Vec::with_capacity(n as usize);
        let mut hits = 0u64;
        let mut inner = self.inner.lock();
        for lpn in lpn..lpn + u64::from(n) {
            inner.buffer.read(lpn, 1);
            if let Some(page) = inner.resident.get(&lpn) {
                hits += 1;
                out.push(Some(page.bytes.clone()));
            } else {
                drop(inner);
                out.push(self.fill_miss(lpn));
                inner = self.inner.lock();
            }
        }
        {
            let mut s = inner.stats.lock();
            s.reads += u64::from(n);
            s.read_hits += hits;
        }
        if let Some(c) = client {
            let row = inner.clients.entry(c).or_default();
            row.reads += u64::from(n);
            row.read_hits += hits;
        }
        out
    }

    /// Fetch a page the buffer does not hold from the backend and cache it
    /// clean. The fetch (the slow leaf) and the checksum run without
    /// `Inner` held, so concurrent writers are not serialized behind them.
    fn fill_miss(&self, lpn: u64) -> Option<Bytes> {
        let (version, data) = self.backend.lock().read_page(lpn)?;
        let bytes = Bytes::from(data);
        let crc = crc32(&bytes);
        let (bytes, discard) = {
            let mut inner = self.inner.lock();
            inner.observe_version(version);
            if let Some(newer) = inner.resident.get(&lpn) {
                // A concurrent write landed while we were off the lock;
                // its buffered copy supersedes the backend's.
                (newer.bytes.clone(), None)
            } else {
                let fill = Resident {
                    bytes: bytes.clone(),
                    crc,
                    version,
                };
                inner.resident.insert(lpn, fill);
                let ev = inner.buffer.insert_clean(lpn, 1);
                let flushed = inner.apply_eviction(&ev);
                (bytes, inner.discard_for(flushed))
            }
        };
        self.send_discard(discard);
        Some(bytes)
    }

    /// Write a contiguous run of pages starting at `lpn` on behalf of a
    /// client — the gateway's batched submission path. Pages are written in
    /// address order (the sequential shape the cooperative buffer and the
    /// SSD both prefer); each page is individually durable when this
    /// returns. The whole run is submitted to the replication pipe before
    /// any page is resolved, so it costs O(runs) wire frames (the pipe cuts
    /// queued pages into [`NodeConfig::repl_batch_pages`]-sized batches),
    /// not O(pages) round trips. This is the copying front for borrowed
    /// data; a caller that already owns refcounted pages uses
    /// [`Node::try_write_run`].
    pub fn write_run(&self, client: u64, lpn: u64, pages: &[impl AsRef<[u8]>]) -> RunOutcome {
        let bytes: Vec<Bytes> = pages
            .iter()
            .map(|p| Bytes::copy_from_slice(p.as_ref()))
            .collect();
        self.write_group(Some(client), vec![(lpn, bytes)])[0]
    }

    // -- crash-fault injection and the fallible front-end API ---------------

    /// Inject a crash fault *in place*: the pump stops heartbeating and
    /// processing messages (so the peer's failure detector walks the pair
    /// to Solo/takeover), volatile state is dropped exactly like
    /// [`Node::crash`], and every `try_*` entry point refuses with
    /// [`NodeDown`] until [`Node::restart`]. Unlike `crash`, the node
    /// object survives — a gateway holding an `Arc<Node>` can route around
    /// it and later route back.
    pub fn fail(&self) {
        self.halted.store(true, Ordering::SeqCst);
        let mut inner = self.inner.lock();
        inner.buffer.clear();
        inner.resident.clear();
        inner.remote.clear();
        inner.taken_over.clear();
        inner.journal.clear();
        inner.journal_overflowed = false;
        inner.resync = None;
        inner.scrub_waiters.clear();
        inner.dedup.clear();
        // Parked writers fail fast: the pipe abandons its window (their
        // tickets resolve Failed) and opens a fresh batch epoch.
        inner.batch_rx = BatchRx::default();
        inner.pipe.reset();
        inner.note("fail", |e| e);
    }

    /// Undo [`Node::fail`]: the pump resumes. The node's own heartbeat
    /// monitor then observes the outage gap and walks it Solo; the peer's
    /// returning heartbeats drive the normal resync/rejoin machinery until
    /// the pair re-forms.
    pub fn restart(&self) {
        {
            let mut inner = self.inner.lock();
            inner.credits = None;
            inner.note("restart", |e| e);
        }
        self.halted.store(false, Ordering::SeqCst);
    }

    /// True while crash-faulted ([`Node::fail`] without [`Node::restart`]).
    pub fn is_halted(&self) -> bool {
        self.halted.load(Ordering::SeqCst)
    }

    /// In-place clean stop for nodes held behind an `Arc`: flush dirty
    /// pages and destage hosted peer pages (same data guarantees as
    /// [`Node::shutdown`]), and tell the pump to exit. The pump thread is
    /// joined later by `Drop`.
    pub fn quiesce(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.inner.lock().enter_solo("shutdown");
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
        if self.is_halted() {
            return Err(NodeDown);
        }
        Ok(self.read_run(Some(client), lpn, n))
    }

    /// Delete one page on behalf of `client` (a short-lived file dies): the
    /// buffered copy, the peer's replica, the backend copy, and any
    /// journaled catch-up entry all go away without a flush. Refuses with
    /// [`NodeDown`] while halted.
    pub fn try_delete_from(&self, client: u64, lpn: u64) -> Result<(), NodeDown> {
        if self.is_halted() {
            return Err(NodeDown);
        }
        let discard = {
            let mut inner = self.inner.lock();
            let backend = inner.backend.clone();
            let bound = inner.forget_page(lpn, &mut **backend.lock());
            inner.stats.lock().deletes += 1;
            inner.clients.entry(client).or_default().trims += 1;
            inner.discard_for(vec![(lpn, bound)])
        };
        self.send_discard(discard);
        Ok(())
    }

    /// Flush every dirty page in the local buffer to the backend (the
    /// client-visible `Flush` barrier): after this returns, all previously
    /// acknowledged writes are on this node's durable medium, independent of
    /// the peer. Returns the number of pages flushed. The peer's
    /// now-redundant replicas are discarded (version-bounded, so an
    /// in-flight newer write is never lost). Refuses with [`NodeDown`]
    /// while halted.
    pub fn try_flush_dirty(&self) -> Result<u64, NodeDown> {
        if self.is_halted() {
            return Err(NodeDown);
        }
        let (n, discard) = {
            let mut inner = self.inner.lock();
            let ev = inner.buffer.drain_dirty();
            let flushed = inner.apply_eviction(&ev);
            let n = flushed.len() as u64;
            inner.note("flush_barrier", |e| e.u64_field("pages", n));
            (n, inner.discard_for(flushed))
        };
        self.send_discard(discard);
        Ok(n)
    }

    /// Exactly-once batched write: like [`Node::write_run`], but stamped
    /// with a caller-chosen `tag` that is stable across retries. If this
    /// node already applied a run with the same `(client, tag)` within the
    /// dedup window, the cached [`RunOutcome`] is returned without writing
    /// anything — so a front end may resend after an ambiguous failure
    /// (timeout, failover probe) without double-applying. The one-run case
    /// of [`Node::try_write_runs`]; see there for halting and concurrency.
    pub fn try_write_run(
        &self,
        client: u64,
        tag: u64,
        lpn: u64,
        pages: &[Bytes],
    ) -> Result<RunOutcome, NodeDown> {
        Ok(self.try_write_runs(client, &[(tag, lpn, pages)])?[0])
    }

    /// Exactly-once write of a group of runs — `(tag, first lpn, pages)`
    /// each, typically one request's block-confined pieces — that costs one
    /// replication round trip, not one per run: every run is looked up in
    /// the dedup window and enqueued by itself, then all their pages enter
    /// the replication pipe together, frames are cut across run boundaries,
    /// and the caller waits once. Outcomes, dedup records and counters stay
    /// per run (one [`RunOutcome`] each, in order), so a resent group whose
    /// first attempt applied only some runs re-applies exactly the others.
    ///
    /// Refuses with [`NodeDown`] while halted, including when the node is
    /// failed mid-group (pages already applied are either on the shared
    /// durable backend or dropped with the dead buffer; the caller's retry
    /// re-applies the whole group on whichever replica answers).
    ///
    /// Concurrency: duplicates are detected for *sequential* retries (the
    /// gateway resends from the same session thread). Two racing first
    /// sends of one tag may both apply.
    pub fn try_write_runs(
        &self,
        client: u64,
        runs: &[(u64, u64, &[Bytes])],
    ) -> Result<Vec<RunOutcome>, NodeDown> {
        if self.is_halted() {
            return Err(NodeDown);
        }
        let mut out = vec![RunOutcome::default(); runs.len()];
        // Indices of the runs the window has not seen.
        let mut fresh = Vec::with_capacity(runs.len());
        {
            let inner = self.inner.lock();
            let seen = inner.dedup.get(&client).map(|w| &w.seen);
            for (i, &(tag, lpn, _)) in runs.iter().enumerate() {
                let Some(prev) = seen.and_then(|s| s.get(&tag)) else {
                    fresh.push(i);
                    continue;
                };
                out[i] = *prev;
                inner.stats.lock().dedup_hits += 1;
                inner.note("run_dedup", |e| {
                    e.u64_field("client", client)
                        .u64_field("tag", tag)
                        .u64_field("lpn", lpn)
                });
            }
        }
        if fresh.is_empty() {
            return Ok(out);
        }
        let group = fresh
            .iter()
            .map(|&i| (runs[i].1, runs[i].2.to_vec()))
            .collect();
        let applied = self.write_group(Some(client), group);
        if self.is_halted() {
            return Err(NodeDown);
        }
        let mut inner = self.inner.lock();
        let cap = inner.cfg.dedup_window;
        let window = inner.dedup.entry(client).or_default();
        for (&i, outcome) in fresh.iter().zip(applied) {
            window.record(runs[i].0, outcome, cap);
            out[i] = outcome;
        }
        Ok(out)
    }

    /// Snapshot of the per-client counters, sorted by client id.
    pub fn client_stats(&self) -> Vec<(u64, PerClientStats)> {
        let inner = self.inner.lock();
        let mut v: Vec<(u64, PerClientStats)> =
            inner.clients.iter().map(|(&c, &s)| (c, s)).collect();
        v.sort_unstable_by_key(|e| e.0);
        v
    }

    /// Current counters.
    pub fn stats(&self) -> NodeStats {
        let inner = self.inner.lock();
        // `stats` is a leaf under `Inner` (see the lock-order rule), so the
        // snapshot is taken with both held — writers commit their counter
        // pairs under one `stats` guard, keeping the balance identities
        // exact in this snapshot.
        let mut s = *inner.stats.lock();
        s.remote_pages = (inner.remote.len() + inner.taken_over.len()) as u64;
        s.journal_pages = inner.journal.len() as u64;
        s.repl.lifecycle_transitions = inner.lifecycle.transitions();
        s
    }

    /// Summary of the replication batch-size histogram (pages per
    /// first-send `WriteReplBatch`).
    pub fn repl_batch_histogram(&self) -> fc_obs::HistogramSummary {
        self.pipe.batch_hist.summary()
    }

    /// Dirty pages in the local buffer.
    pub fn dirty_pages(&self) -> usize {
        self.inner.lock().buffer.dirty()
    }

    /// True while the pair is not fully joined (Solo or Resyncing).
    pub fn is_degraded(&self) -> bool {
        self.inner.lock().lifecycle.is_degraded()
    }

    /// Current pair-lifecycle state.
    pub fn lifecycle_state(&self) -> PairState {
        self.inner.lock().lifecycle.state()
    }

    /// Lifecycle edges taken since spawn.
    pub fn lifecycle_transitions(&self) -> u64 {
        self.inner.lock().lifecycle.transitions()
    }

    /// Pages currently waiting in the catch-up journal.
    pub fn journal_len(&self) -> usize {
        self.inner.lock().journal.len()
    }

    /// Last peer-advertised hosting credits (None until the peer spoke, or
    /// after going solo).
    #[cfg(test)]
    pub fn peer_credits(&self) -> Option<u32> {
        self.inner.lock().credits
    }

    /// Snapshot of the pages this node holds for its peer — hosted in
    /// memory or taken over onto the backend (diagnostics).
    pub fn hosted_remote_pages(&self) -> Vec<u64> {
        let inner = self.inner.lock();
        let mut v: Vec<u64> = inner
            .remote
            .keys()
            .chain(inner.taken_over.keys())
            .copied()
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Export the pages held for the peer, e.g. to re-home them onto a
    /// replacement node after this node's network link died (the peer's
    /// data must survive *our* reconnects). Includes taken-over pages.
    pub fn export_remote(&self) -> Vec<(u64, u64, Vec<u8>)> {
        self.inner
            .lock()
            .peer_snapshot()
            .into_iter()
            .map(|(l, v, d)| (l, v, d.to_vec()))
            .collect()
    }

    /// Import hosted pages exported from a previous incarnation.
    pub fn import_remote(&self, entries: &[(u64, u64, Vec<u8>)]) {
        let mut inner = self.inner.lock();
        for (lpn, ver, data) in entries {
            inner.observe_version(*ver);
            let e = inner
                .remote
                .entry(*lpn)
                .or_insert((*ver, Bytes::copy_from_slice(data)));
            if *ver >= e.0 {
                *e = (*ver, Bytes::copy_from_slice(data));
            }
        }
    }

    /// Stop the pump thread and flush all dirty pages to the backend
    /// (a clean shutdown never loses data — ours or the peer's).
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.pump.take() {
            let _ = h.join();
        }
        self.pipe.close();
        let mut inner = self.inner.lock();
        inner.enter_solo("shutdown"); // flushes dirty pages, destages hosted
    }

    /// Simulate a crash: stop the pump *without* flushing. Volatile state
    /// (buffer, hosted remote pages, journal, resync progress) is dropped;
    /// only the backend survives.
    pub fn crash(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.pump.take() {
            let _ = h.join();
        }
        self.pipe.close();
        let mut inner = self.inner.lock();
        inner.buffer.clear();
        inner.resident.clear();
        inner.remote.clear();
        inner.taken_over.clear();
        inner.journal.clear();
        inner.journal_overflowed = false;
        inner.resync = None;
        inner.scrub_waiters.clear();
    }
}

impl Drop for Node {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.pump.take() {
            let _ = h.join();
        }
        self.pipe.close();
    }
}

/// Background loop: receive messages, send heartbeats, watch the monitor,
/// tick the replication pipe's retransmit timer, and drive the resync state
/// machine.
fn pump_loop(
    cfg: Arc<NodeConfig>,
    inner: Arc<Mutex<Inner>>,
    transport: Arc<dyn Transport + Sync>,
    pipe: Arc<ReplPipe>,
    shutdown: Arc<AtomicBool>,
    halted: Arc<AtomicBool>,
) {
    let epoch = Instant::now();
    let now_sim = |at: Instant| SimTime::from_nanos(at.duration_since(epoch).as_nanos() as u64);
    let mut last_beat = Instant::now() - cfg.heartbeat;
    loop {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        // Receive with a short timeout so beats and polls stay timely, and
        // shorter still when the oldest in-flight batch's retransmit
        // deadline comes first.
        let wait = pipe.tick().map_or(cfg.heartbeat / 2, |due| {
            due.saturating_duration_since(Instant::now())
                .min(cfg.heartbeat / 2)
        });
        if halted.load(Ordering::SeqCst) {
            // Crash-faulted: dead nodes send no heartbeats and process no
            // messages. Drain (and drop) inbound traffic so a later restart
            // does not replay a backlog from its outage.
            match transport.recv_timeout(wait) {
                Ok(_) => {}
                Err(TransportError::Timeout) => {}
                Err(TransportError::Disconnected) => std::thread::sleep(cfg.heartbeat),
            }
            continue;
        }
        // Periodic heartbeat, advertising our remaining hosting credits.
        if last_beat.elapsed() >= cfg.heartbeat {
            last_beat = Instant::now();
            let credits = inner.lock().advertised_credits();
            let _ = transport.send(Message::Heartbeat {
                from: cfg.id,
                at_millis: epoch.elapsed().as_millis() as u64,
                credits,
            });
        }
        let msg = transport.recv_timeout(wait);
        let now = now_sim(Instant::now());
        match msg {
            Ok(Some(m)) => handle_message(&inner, &transport, &pipe, m, now),
            Ok(None) => {}
            Err(TransportError::Disconnected) => {
                inner.lock().enter_solo("disconnected");
                // Keep looping: the caller may replace nothing, but shutdown
                // still needs to be honoured; back off a little.
                std::thread::sleep(cfg.heartbeat);
            }
            // A timed-out receive is not a verdict on the link; the
            // heartbeat monitor decides.
            Err(TransportError::Timeout) => {}
        }
        // Failure detection, rejoin, and resync progress.
        let resync_pages = {
            let mut g = inner.lock();
            match g.monitor.poll(now) {
                Some(PeerEvent::Failed) => g.enter_solo("peer_failed"),
                Some(PeerEvent::Suspected) => {
                    if let Some(tr) = g.lifecycle.on_peer_event(PeerEvent::Suspected) {
                        g.emit_lifecycle(tr);
                    }
                }
                _ => {}
            }
            // A data-plane-only failure (ack timeouts with heartbeats still
            // flowing) leaves the monitor Healthy and thus never fires
            // Recovered; retry the resync on a timer instead.
            if g.lifecycle.state() == PairState::Solo
                && g.monitor.state() == PeerState::Healthy
                && g.resync_retry_at.is_some_and(|t| Instant::now() >= t)
            {
                g.begin_resync("peer_alive");
            }
            g.drive_resync()
        };
        if !resync_pages.is_empty() {
            pipe.submit(resync_pages);
        }
    }
}

fn handle_message(
    inner: &Arc<Mutex<Inner>>,
    transport: &Arc<dyn Transport + Sync>,
    pipe: &ReplPipe,
    msg: Message,
    now: SimTime,
) {
    match msg {
        Message::WriteReplBatch {
            epoch,
            seq,
            entries,
        } => {
            // Payload checksums are pure CPU: verified before `Inner` is
            // taken, as the send side computes them.
            let bad = entries
                .iter()
                .filter(|(_, _, crc, data)| crc32(data) != *crc)
                .count() as u64;
            let reply = {
                let mut g = inner.lock();
                if epoch < g.batch_rx.epoch {
                    // Stale epoch: the sender already abandoned that window
                    // and restarted its seq space; replying would corrupt
                    // the new epoch's cumulative-ack stream.
                    None
                } else {
                    if epoch > g.batch_rx.epoch {
                        // The sender reset its pipeline (abandon after
                        // exhausted retries, or a node restart): adopt the
                        // fresh contiguous seq space from 1.
                        g.batch_rx = BatchRx {
                            epoch,
                            cum: 0,
                            seen: Default::default(),
                        };
                    }
                    if bad > 0 {
                        // Reject before recording the seq, so the clean
                        // retransmission is not mistaken for a duplicate.
                        g.stats.lock().repl.corruptions_detected += bad;
                        g.note("corrupt_detected", |e| {
                            e.u64_field("seq", seq)
                                .u64_field("entries", bad)
                                .str_field("msg", "write_repl_batch")
                        });
                        Some(Message::ReplNackBatch {
                            epoch,
                            seq,
                            reason: NackReason::Corrupt,
                        })
                    } else if seq <= g.batch_rx.cum || g.batch_rx.seen.contains(&seq) {
                        // Retransmission whose ack was the casualty:
                        // already applied, re-advertise the cumulative
                        // frontier.
                        g.stats.lock().repl.dups_dropped += 1;
                        if let Some(o) = &g.obs {
                            o.dedups.inc();
                            o.obs.emit(
                                o.ev("repl_dedup")
                                    .u64_field("seq", seq)
                                    .str_field("msg", "write_repl_batch"),
                            );
                        }
                        let credits = g.advertised_credits();
                        Some(Message::ReplAckBatch {
                            epoch,
                            up_to: g.batch_rx.cum,
                            credits,
                        })
                    } else {
                        // Whole-batch credit check: hosting is all-or-
                        // nothing per batch so the cumulative ack never
                        // covers a partially applied frame.
                        let new_pages = entries
                            .iter()
                            .filter(|(lpn, ..)| !g.remote.contains_key(lpn))
                            .map(|(lpn, ..)| *lpn)
                            .collect::<std::collections::BTreeSet<u64>>()
                            .len();
                        if g.remote.len() + new_pages > g.cfg.remote_capacity {
                            g.stats.lock().repl.credit_rejections += 1;
                            g.note("credit_reject", |e| {
                                e.u64_field("seq", seq).u64_field("pages", new_pages as u64)
                            });
                            Some(Message::ReplNackBatch {
                                epoch,
                                seq,
                                reason: NackReason::NoCredit,
                            })
                        } else {
                            if seq == g.batch_rx.cum + 1 {
                                g.batch_rx.cum = seq;
                                // Absorb any batches that arrived ahead of
                                // this gap.
                                loop {
                                    let next = g.batch_rx.cum + 1;
                                    if !g.batch_rx.seen.remove(&next) {
                                        break;
                                    }
                                    g.batch_rx.cum = next;
                                }
                            } else {
                                g.batch_rx.seen.insert(seq);
                                g.stats.lock().repl.reorders_healed += 1;
                            }
                            for (lpn, ver, _crc, data) in entries {
                                g.observe_version(ver);
                                let e = g.remote.entry(lpn).or_insert((ver, data.clone()));
                                if ver >= e.0 {
                                    *e = (ver, data);
                                }
                            }
                            let credits = g.advertised_credits();
                            Some(Message::ReplAckBatch {
                                epoch,
                                up_to: g.batch_rx.cum,
                                credits,
                            })
                        }
                    }
                }
            };
            if let Some(reply) = reply {
                let _ = transport.send(reply);
            }
        }
        Message::ReplAckBatch {
            epoch,
            up_to,
            credits,
        } => {
            inner.lock().credits = Some(credits);
            pipe.on_ack(epoch, up_to);
        }
        Message::ReplNackBatch { epoch, seq, reason } => {
            if matches!(reason, NackReason::NoCredit) {
                inner.lock().credits = Some(0);
            }
            pipe.on_nack(epoch, seq, reason);
        }
        Message::Discard { seq, pages } => {
            let mut g = inner.lock();
            match g.peer_seqs.observe(seq) {
                SeqStatus::Duplicate => {
                    g.stats.lock().repl.dups_dropped += 1;
                    if let Some(o) = &g.obs {
                        o.dedups.inc();
                        o.obs.emit(
                            o.ev("repl_dedup")
                                .u64_field("seq", seq)
                                .str_field("msg", "discard"),
                        );
                    }
                }
                status => {
                    if status == SeqStatus::NewOutOfOrder {
                        g.stats.lock().repl.reorders_healed += 1;
                    }
                    for (lpn, ver) in pages {
                        if ver != u64::MAX {
                            g.observe_version(ver);
                        }
                        // Version-bounded: a reordered Discard must not
                        // delete a copy newer than the flush it refers to.
                        if g.remote.get(&lpn).is_some_and(|(v, _)| *v <= ver) {
                            g.remote.remove(&lpn);
                        }
                    }
                }
            }
        }
        Message::Heartbeat { credits, .. } => {
            let mut g = inner.lock();
            g.credits = Some(credits);
            match g.monitor.on_beat(now) {
                Some(PeerEvent::Recovered) => g.begin_resync("peer_recovered"),
                _ => {
                    if g.lifecycle.state() == PairState::Suspect {
                        if let Some(tr) = g.lifecycle.on_peer_healthy() {
                            g.emit_lifecycle(tr);
                        }
                    }
                }
            }
        }
        Message::RctFetch => {
            let entries = inner.lock().peer_snapshot();
            let _ = transport.send(Message::RctSnapshot { entries });
        }
        Message::RctSnapshot { entries } => {
            let waiters: Vec<_> = std::mem::take(&mut inner.lock().snapshot_waiters);
            for w in waiters {
                let _ = w.send(entries.clone());
            }
        }
        Message::Purge => {
            {
                let mut g = inner.lock();
                g.remote.clear();
                let lpns: Vec<u64> = g.taken_over.keys().copied().collect();
                {
                    let mut backend = g.backend.lock();
                    for lpn in &lpns {
                        backend.trim_page(PEER_NS | lpn);
                    }
                }
                g.taken_over.clear();
            }
            let _ = transport.send(Message::PurgeAck);
        }
        Message::PurgeAck => {
            let waiters: Vec<_> = std::mem::take(&mut inner.lock().purge_waiters);
            for w in waiters {
                let _ = w.send(());
            }
        }
        Message::PageFetch { lpn } => {
            let reply = {
                let g = inner.lock();
                let hit = g
                    .remote
                    .get(&lpn)
                    .map(|(v, d)| (*v, d.clone()))
                    .or_else(|| {
                        g.taken_over.get(&lpn).and_then(|&tv| {
                            g.backend
                                .lock()
                                .read_page(PEER_NS | lpn)
                                .map(|(bv, data)| (bv.max(tv), Bytes::from(data)))
                        })
                    });
                Message::page_data(lpn, hit)
            };
            let _ = transport.send(reply);
        }
        Message::PageData {
            lpn,
            version,
            crc,
            found,
            data,
        } => {
            let waiter = inner.lock().scrub_waiters.remove(&lpn);
            if let Some(tx) = waiter {
                // A repair sourced from a damaged replica would be worse
                // than no repair; verify before handing it to the scrubber.
                let hit = if found && crc32(&data) == crc {
                    Some((version, data))
                } else {
                    None
                };
                let _ = tx.send(hit);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testkit::*;
    use super::*;

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
        a.write_run(1, 11, &[b"one-b"]);
        a.write_run(2, 20, &[b"two"]);
        assert_eq!(a.read_from(1, 10), Some(b"one".to_vec()));
        assert_eq!(a.read_from(2, 99), None); // miss
        a.try_delete_from(2, 20).unwrap();
        let rows = a.client_stats();
        assert_eq!(rows.len(), 2);
        let (c1, s1) = rows[0];
        let (c2, s2) = rows[1];
        assert_eq!((c1, c2), (1, 2));
        assert_eq!(s1.writes, 2);
        assert_eq!(s1.pages_written, 2);
        assert_eq!(s1.reads, 1);
        assert_eq!(s1.read_hits, 1);
        assert_eq!(s1.trims, 0);
        assert_eq!(s2.writes, 1);
        assert_eq!(s2.reads, 1);
        assert_eq!(s2.read_hits, 0);
        assert_eq!(s2.trims, 1);
        // The node-wide counters still see everything.
        let total = a.stats();
        assert_eq!(total.writes, 3);
        assert_eq!(total.reads, 2);
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn write_run_is_durable_and_counted() {
        let (a, b, _ba, _bb) = pair();
        let pages: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; 8]).collect();
        let out = a.write_run(7, 40, &pages);
        assert_eq!(out.pages(), 4);
        assert!(out.all_replicated(), "{out:?}");
        for (i, page) in pages.iter().enumerate() {
            assert_eq!(a.read(40 + i as u64), Some(page.clone()));
        }
        let rows = a.client_stats();
        assert_eq!(rows[0].0, 7);
        assert_eq!(rows[0].1.pages_written, 4);
        assert!(a.stats().writes_balance());
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
        // Cut the network; node A can't reach its peer any more. We sever
        // via a fresh handle is not possible — MemTransport::sever is on the
        // endpoint we moved into the node. Crash B instead (drops its
        // endpoint, disconnecting the channel).
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
    fn survivor_takes_over_peer_pages_on_failure() {
        let (ta, tb) = mem_pair();
        let ba = shared_backend(MemBackend::new());
        let bb = shared_backend(MemBackend::new());
        let a = Node::spawn(NodeConfig::test_profile(0), ta, ba);
        let b = Node::spawn(NodeConfig::test_profile(1), tb, bb.clone());
        for i in 0..10u64 {
            assert_eq!(
                a.write(i, format!("v{i}").as_bytes()),
                WriteOutcome::Replicated
            );
        }
        assert_eq!(b.hosted_remote_pages().len(), 10);
        // A dies; B notices via heartbeat silence and destages the hosted
        // pages sequentially onto its own backend.
        a.crash();
        assert!(
            wait_until(
                || b.lifecycle_state() == PairState::Solo,
                Duration::from_secs(2)
            ),
            "survivor never went solo"
        );
        let s = b.stats();
        assert_eq!(s.repl.takeover_destages, 10);
        // Still reachable for A's recovery handshake…
        assert_eq!(b.hosted_remote_pages().len(), 10);
        assert_eq!(b.export_remote().len(), 10);
        // …and durably on B's backend, in the peer namespace.
        for i in 0..10u64 {
            let (_, data) = bb.lock().read_page(PEER_NS | i).expect("destaged page");
            assert_eq!(data, format!("v{i}").into_bytes());
        }
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
        let (a, b, ba, _bb) = pair();
        a.write(3, b"ephemeral");
        assert!(wait_until(
            || b.hosted_remote_pages() == vec![3],
            Duration::from_millis(500)
        ));
        a.try_delete_from(0, 3).unwrap();
        assert_eq!(a.read(3), None);
        assert_eq!(ba.lock().read_page(3), None);
        assert_eq!(a.stats().deletes, 1);
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
        assert!(a.peer_credits().is_some());
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn credit_backpressure_writes_through_when_peer_is_full() {
        let (ta, tb) = mem_pair();
        let ba = shared_backend(MemBackend::new());
        let bb = shared_backend(MemBackend::new());
        let cfg_a = NodeConfig::test_profile(0);
        let mut cfg_b = NodeConfig::test_profile(1);
        cfg_b.remote_capacity = 4; // B will host at most 4 pages for A
        let a = Node::spawn(cfg_a, ta, ba.clone());
        let b = Node::spawn(cfg_b, tb, bb);
        let mut replicated = 0u64;
        let mut through = 0u64;
        for i in 0..10u64 {
            match a.write(i, b"page") {
                WriteOutcome::Replicated => replicated += 1,
                WriteOutcome::WriteThrough => through += 1,
            }
        }
        assert_eq!(replicated, 4, "exactly the credit pool replicates");
        assert_eq!(through, 6);
        assert_eq!(b.hosted_remote_pages().len(), 4);
        let s = a.stats();
        assert!(
            s.repl.credit_stalls >= 6 - 1,
            "stalls counted (first refusal may be a NACK)"
        );
        assert!(s.writes_balance());
        // Backpressure is not a failure: the pair stays joined.
        assert_eq!(a.lifecycle_state(), PairState::Paired);
        // Every write durable *somewhere* right now: replicated in B's
        // remote buffer, or written through to A's backend.
        for i in 4..10u64 {
            assert!(ba.lock().read_page(i).is_some());
        }
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn idle_node_retransmits_a_batch_whose_ack_was_lost() {
        let (ta, tb) = mem_pair();
        // B's first data-plane send — the only ack — is dropped.
        let fb = Arc::new(FaultTransport::new(
            tb,
            FaultPlan::new(5).with_drop_first(1),
        ));
        let mut cfg_a = NodeConfig::test_profile(0);
        cfg_a.ack_timeout = Duration::from_millis(60);
        let a = Node::spawn(cfg_a, ta, shared_backend(MemBackend::new()));
        let b = Node::spawn(
            NodeConfig::test_profile(1),
            fb.clone(),
            shared_backend(MemBackend::new()),
        );
        // One write and nothing after it: only the pump's timer tick can
        // notice the missing ack and resend.
        assert_eq!(a.write(9, b"once"), WriteOutcome::Replicated);
        assert_eq!(fb.fault_stats().dropped, 1);
        let s = a.stats();
        assert_eq!(s.repl.retries, 1);
        assert_eq!(s.repl.batches_sent, 1, "a resend is not a new batch");
        assert!(s.writes_balance());
        // The resend was a duplicate to B, which re-acked its frontier.
        assert_eq!(b.stats().repl.dups_dropped, 1);
        assert_eq!(b.hosted_remote_pages(), vec![9]);
        assert_eq!(a.lifecycle_state(), PairState::Paired);
        a.shutdown();
        b.shutdown();
    }

    /// Hides the peer's heartbeats, so the node never learns the peer's
    /// credit pool and keeps replicating optimistically.
    struct NoBeats(crate::transport::MemTransport);

    impl Transport for NoBeats {
        fn send(&self, msg: Message) -> Result<(), TransportError> {
            self.0.send(msg)
        }
        fn recv_timeout(&self, timeout: Duration) -> Result<Option<Message>, TransportError> {
            match self.0.recv_timeout(timeout)? {
                Some(Message::Heartbeat { .. }) => Ok(None),
                other => Ok(other),
            }
        }
        fn is_connected(&self) -> bool {
            self.0.is_connected()
        }
    }

    #[test]
    fn run_straddling_two_batches_keeps_the_first_when_the_second_is_refused() {
        let (ta, tb) = mem_pair();
        let ba = shared_backend(MemBackend::new());
        let mut cfg_a = NodeConfig::test_profile(0);
        cfg_a.repl_batch_pages = 4;
        let mut cfg_b = NodeConfig::test_profile(1);
        cfg_b.remote_capacity = 4; // room for exactly the first batch
        let a = Node::spawn(cfg_a, NoBeats(ta), ba.clone());
        let b = Node::spawn(cfg_b, tb, shared_backend(MemBackend::new()));
        let pages: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i; 8]).collect();
        let out = a.write_run(1, 0, &pages);
        // Batch 1 (lpns 0..4) is hosted and acked; batch 2 (lpns 4..8) is
        // NACKed `NoCredit` and its pages write through.
        assert_eq!((out.replicated, out.write_through), (4, 4));
        assert_eq!(b.hosted_remote_pages(), vec![0, 1, 2, 3]);
        assert_eq!(b.stats().repl.credit_rejections, 1);
        for lpn in 4..8u64 {
            assert!(ba.lock().read_page(lpn).is_some(), "page {lpn} not durable");
        }
        let s = a.stats();
        assert!(s.writes_balance());
        assert_eq!((s.replicated_pages, s.write_through), (4, 4));
        assert_eq!(s.repl.batches_sent, 2);
        assert_eq!(a.peer_credits(), Some(0));
        // Backpressure is not a failure: the pair stays joined.
        assert_eq!(a.lifecycle_state(), PairState::Paired);
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn corrupted_replication_is_nacked_and_repaired_by_resend() {
        let (ta, tb) = mem_pair();
        // Corrupt A→B data traffic with p=0.5; acks (B→A) are clean.
        let fa = Arc::new(FaultTransport::new(
            ta,
            FaultPlan::new(42).with_corrupt(0.5),
        ));
        let ba = shared_backend(MemBackend::new());
        let bb = shared_backend(MemBackend::new());
        let a = Node::spawn(NodeConfig::test_profile(0), fa.clone(), ba);
        let b = Node::spawn(NodeConfig::test_profile(1), tb, bb);
        for i in 0..20u64 {
            // Every write must end replicated: a corrupted copy is NACKed
            // and the clean resend lands within the retry budget.
            assert_eq!(
                a.write(i, format!("payload-{i}").as_bytes()),
                WriteOutcome::Replicated
            );
        }
        let injected = fa.fault_stats().corrupted;
        assert!(injected > 0, "p=0.5 over 20 writes should corrupt some");
        // Every injected corruption was detected at B and repaired by A's
        // resend — wait for the last NACK/ack exchange to settle.
        assert!(wait_until(
            || b.stats().repl.corruptions_detected == injected,
            Duration::from_secs(2)
        ));
        assert_eq!(a.stats().repl.corruptions_repaired, injected);
        // No corrupted payload was ever applied.
        assert_eq!(b.hosted_remote_pages().len(), 20);
        for (lpn, _ver, data) in b.export_remote() {
            assert_eq!(data, format!("payload-{lpn}").into_bytes());
        }
        assert_eq!(a.lifecycle_state(), PairState::Paired);
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn solo_writes_resync_and_rejoin_to_paired() {
        // Partition both directions long enough for failure detection, then
        // heal; the pair must walk Solo → Resyncing → Paired and the solo
        // writes must reach the peer's remote buffer.
        let (a, b) = partitioned_pair(
            NodeConfig::test_profile(0),
            NodeConfig::test_profile(1),
            FaultPlan::new(1),
        );
        // Writes during the partition: write-through + journal.
        for i in 0..12u64 {
            assert_eq!(
                a.write(i, format!("solo-{i}").as_bytes()),
                WriteOutcome::WriteThrough
            );
        }
        assert!(a.journal_len() > 0);
        // The partition heals; heartbeats resume; both sides rejoin.
        assert!(
            both_paired(&a, &b),
            "pair never re-formed: a={:?} b={:?}",
            a.lifecycle_state(),
            b.lifecycle_state()
        );
        // The journal drained into B's remote buffer.
        assert_eq!(a.journal_len(), 0);
        assert!(wait_until(
            || b.hosted_remote_pages().len() == 12,
            Duration::from_secs(1)
        ));
        for (lpn, _ver, data) in b.export_remote() {
            assert_eq!(data, format!("solo-{lpn}").into_bytes());
        }
        let s = a.stats();
        assert!(s.repl.resync_batches >= 1);
        assert_eq!(s.repl.resync_pages, 12);
        assert!(
            s.repl.lifecycle_transitions >= 2,
            "solo + resync + paired edges"
        );
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn journal_overflow_falls_back_to_full_resync() {
        let mut cfg_a = NodeConfig::test_profile(0);
        cfg_a.journal_entries = 4; // overflow quickly
        let (a, b) = partitioned_pair(cfg_a, NodeConfig::test_profile(1), FaultPlan::new(3));
        for i in 0..10u64 {
            a.write(i, format!("x{i}").as_bytes());
        }
        assert_eq!(a.journal_len(), 0, "overflow clears the journal");
        assert!(wait_until(
            || a.lifecycle_state() == PairState::Paired,
            Duration::from_secs(3)
        ));
        let s = a.stats();
        assert_eq!(s.repl.full_resyncs, 1);
        // The full resync pushed every resident page, so the solo writes
        // all made it to the peer.
        assert!(wait_until(
            || b.hosted_remote_pages().len() >= 10,
            Duration::from_secs(1)
        ));
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn resync_into_a_nearly_full_peer_rejoins_and_keeps_every_page() {
        let mut cfg_b = NodeConfig::test_profile(1);
        cfg_b.remote_capacity = 20; // below the 40-page journal
        let (a, b) = partitioned_pair(NodeConfig::test_profile(0), cfg_b, FaultPlan::new(7));
        for i in 0..40u64 {
            assert_eq!(
                a.write(i, format!("solo-{i}").as_bytes()),
                WriteOutcome::WriteThrough
            );
        }
        assert!(
            both_paired(&a, &b),
            "a refused batch must not fail the resync"
        );
        assert_eq!(a.journal_len(), 0);
        // The first 16-page batch fits; the other two are refused whole and
        // forgone — their pages were written through, A still serves them.
        assert_eq!(a.stats().repl.resync_pages, 16);
        assert_eq!(b.stats().repl.credit_rejections, 2);
        for i in 0..40u64 {
            assert_eq!(a.read(i), Some(format!("solo-{i}").into_bytes()));
        }
        let hosted = b.export_remote();
        assert_eq!(hosted.len(), 16);
        for (lpn, _ver, data) in hosted {
            assert_eq!(data, format!("solo-{lpn}").into_bytes());
        }
        assert!(a.stats().writes_balance());
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn peer_severed_mid_resync_returns_unacked_pages_to_the_journal() {
        let mut cfg_a = NodeConfig::test_profile(0);
        cfg_a.repl_batch_pages = 4;
        cfg_a.ack_timeout = Duration::from_millis(30);
        // A's data plane goes dark again three batches into the resync: the
        // fourth batch is lost with every one of its retransmissions.
        let attempts = cfg_a.retry.attempts as u64;
        let plan_a = FaultPlan::new(8).with_partition(3, 3 + attempts);
        let (a, b) = partitioned_pair(cfg_a, NodeConfig::test_profile(1), plan_a);
        let (obs, ring) = Obs::ring(4096);
        a.attach_obs(&obs);
        for i in 0..24u64 {
            assert_eq!(
                a.write(i, format!("solo-{i}").as_bytes()),
                WriteOutcome::WriteThrough
            );
        }
        // First heal: 12 pages land, the fourth batch exhausts its retries
        // and A falls back to Solo. Heartbeats never stopped, so the retry
        // timer starts the second resync, which carries the rest.
        assert!(both_paired(&a, &b));
        let events = ring.events();
        let failed: Vec<_> = events
            .iter()
            .filter(|e| e.kind == "resync_failed")
            .collect();
        assert_eq!(failed.len(), 1);
        // Back in the journal: the lost batch plus the eight never sent.
        assert_eq!(
            failed[0].get("journal").and_then(fc_obs::Value::as_u64),
            Some(12)
        );
        assert!(events.iter().any(|e| e.kind == "lifecycle"
            && e.get("from").and_then(fc_obs::Value::as_str) == Some("resyncing")
            && e.get("to").and_then(fc_obs::Value::as_str) == Some("solo")));
        let s = a.stats();
        assert_eq!(
            s.repl.resync_pages, 24,
            "every distinct page acked exactly once"
        );
        assert_eq!(s.repl.retries, attempts - 1);
        assert_eq!(a.journal_len(), 0);
        let hosted = b.export_remote();
        assert_eq!(hosted.len(), 24);
        for (lpn, _ver, data) in hosted {
            assert_eq!(data, format!("solo-{lpn}").into_bytes());
        }
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn stats_snapshot_is_consistent_while_writes_run() {
        // Regression: `writes` used to be bumped at the top of Node::write,
        // with the outcome counter (`replicated_pages`/`write_through`)
        // only landing after the unlocked retry loop — so a concurrent
        // stats() call could observe writes > replicated + write_through.
        let (a, b, _ba, _bb) = pair();
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let stop = stop.clone();
            let a = Arc::new(a);
            let a2 = a.clone();
            let h = std::thread::spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::SeqCst) {
                    a2.write(i % 256, b"payload");
                    i += 1;
                }
            });
            (a, h)
        };
        let (a, h) = writer;
        let deadline = Instant::now() + Duration::from_millis(500);
        let mut snapshots = 0u32;
        while Instant::now() < deadline {
            let s = a.stats();
            assert!(
                s.writes_balance(),
                "inconsistent snapshot: writes={} replicated={} write_through={}",
                s.writes,
                s.replicated_pages,
                s.write_through
            );
            snapshots += 1;
        }
        stop.store(true, Ordering::SeqCst);
        h.join().unwrap();
        assert!(snapshots > 100, "sampler barely ran");
        let s = a.stats();
        assert!(s.writes > 0 && s.writes_balance());
        Arc::try_unwrap(a)
            .ok()
            .expect("writer released node")
            .shutdown();
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
    fn stale_version_does_not_overwrite_newer_remote_copy() {
        let (a, b, _ba, _bb) = pair();
        a.write(1, b"v1");
        a.write(1, b"v2");
        // Wait for both replications to land.
        std::thread::sleep(Duration::from_millis(100));
        let g = b.hosted_remote_pages();
        assert_eq!(g, vec![1]);
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn duplicate_tagged_run_applies_once() {
        let (a, b, _ba, _bb) = pair();
        let pages: Vec<Bytes> = (0..3u8).map(|i| Bytes::from(vec![i; 8])).collect();
        let first = a.try_write_run(7, 42, 100, &pages).unwrap();
        assert_eq!(first.pages(), 3);
        let writes_after_first = a.stats().writes;
        // Same (client, tag): answered from the window, nothing re-applied.
        let second = a.try_write_run(7, 42, 100, &pages).unwrap();
        assert_eq!(second, first);
        let s = a.stats();
        assert_eq!(s.writes, writes_after_first);
        assert_eq!(s.dedup_hits, 1);
        // A different client reusing the tag is a distinct request.
        let other = a.try_write_run(8, 42, 100, &pages).unwrap();
        assert_eq!(other.pages(), 3);
        assert_eq!(a.stats().writes, writes_after_first + 3);
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn dedup_window_evicts_oldest_tag() {
        let (ta, tb) = mem_pair();
        let ba = shared_backend(MemBackend::new());
        let bb = shared_backend(MemBackend::new());
        let mut cfg = NodeConfig::test_profile(0);
        cfg.dedup_window = 2;
        let a = Node::spawn(cfg, ta, ba);
        let b = Node::spawn(NodeConfig::test_profile(1), tb, bb);
        let page = [Bytes::from(vec![1u8; 8])];
        a.try_write_run(1, 10, 0, &page).unwrap();
        a.try_write_run(1, 11, 1, &page).unwrap();
        a.try_write_run(1, 12, 2, &page).unwrap(); // evicts tag 10
        let writes = a.stats().writes;
        // Tags 11 and 12 are still remembered.
        a.try_write_run(1, 11, 1, &page).unwrap();
        a.try_write_run(1, 12, 2, &page).unwrap();
        assert_eq!(a.stats().writes, writes);
        assert_eq!(a.stats().dedup_hits, 2);
        // Tag 10 fell out of the window: the resend applies again.
        a.try_write_run(1, 10, 0, &page).unwrap();
        assert_eq!(a.stats().writes, writes + 1);
        assert_eq!(a.stats().dedup_hits, 2);
        a.shutdown();
        b.shutdown();
    }

    /// A pair with 32-page blocks and 32-page frames, and a 20-page and a
    /// 12-page run that meet at the boundary between blocks 0 and 1.
    fn straddling_group() -> (Node, Node, Vec<Bytes>, Vec<Bytes>) {
        let (ta, tb) = mem_pair();
        let mut cfg = NodeConfig::test_profile(0);
        cfg.pages_per_block = 32;
        cfg.repl_batch_pages = 32;
        let a = Node::spawn(cfg.clone(), ta, shared_backend(MemBackend::new()));
        cfg.id = 1;
        let b = Node::spawn(cfg, tb, shared_backend(MemBackend::new()));
        let run = |n: u8, fill: u8| (0..n).map(|i| Bytes::from(vec![fill ^ i; 8])).collect();
        (a, b, run(20, 0x20), run(12, 0xC0))
    }

    #[test]
    fn group_write_of_two_runs_is_one_frame_one_ack_and_two_outcomes() {
        let (a, b, head, tail) = straddling_group();
        let (obs, ring) = Obs::ring(256);
        a.attach_obs(&obs);
        let out = a
            .try_write_runs(7, &[(1, 12, &head), (2, 32, &tail)])
            .unwrap();
        let replicated = |n| RunOutcome {
            replicated: n,
            write_through: 0,
        };
        assert_eq!(out, vec![replicated(20), replicated(12)]);
        // The pipe cut its frame across the run boundary.
        let events = ring.events();
        let sends: Vec<_> = events
            .iter()
            .filter(|e| e.kind == "repl_batch_send")
            .collect();
        assert_eq!(sends.len(), 1);
        assert_eq!(
            sends[0].get("pages").and_then(fc_obs::Value::as_u64),
            Some(32)
        );
        let acks = events.iter().filter(|e| e.kind == "repl_batch_ack").count();
        assert_eq!(acks, 1);
        let s = a.stats();
        assert_eq!((s.repl.batches_sent, s.repl.batch_pages), (1, 32));
        assert_eq!((s.writes, s.replicated_pages), (32, 32));
        assert!(s.writes_balance());
        assert_eq!(b.hosted_remote_pages(), (12..44).collect::<Vec<u64>>());
        assert_eq!(a.read(31).unwrap(), head[19].to_vec());
        assert_eq!(a.read(32).unwrap(), tail[0].to_vec());
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn group_write_resent_hits_the_dedup_window_run_by_run() {
        let (a, b, head, tail) = straddling_group();
        // Half-cached: the first run was applied by an earlier attempt,
        // so the group applies only the second.
        let first = a.try_write_run(7, 1, 12, &head).unwrap();
        let group = [(1, 12, &head[..]), (2, 32, &tail[..])];
        let out = a.try_write_runs(7, &group).unwrap();
        assert_eq!(out[0], first);
        assert_eq!(out[1].replicated, 12);
        let s = a.stats();
        assert_eq!((s.writes, s.dedup_hits), (32, 1));
        assert_eq!((s.repl.batches_sent, s.repl.batch_pages), (2, 32));
        // Resent whole: nothing is written, nothing is sent, both runs
        // answer from the window.
        assert_eq!(a.try_write_runs(7, &group).unwrap(), out);
        let s = a.stats();
        assert_eq!((s.writes, s.dedup_hits), (32, 3));
        assert_eq!(s.repl.batches_sent, 2);
        assert_eq!(
            a.client_stats(),
            vec![(
                7,
                PerClientStats {
                    writes: 32,
                    pages_written: 32,
                    ..Default::default()
                }
            )]
        );
        a.shutdown();
        b.shutdown();
    }

    /// [`NoBeats`] that also loses every outbound batch frame numbered
    /// `.1`.
    struct LoseBatch(NoBeats, u64);

    impl Transport for LoseBatch {
        fn send(&self, msg: Message) -> Result<(), TransportError> {
            match msg {
                Message::WriteReplBatch { seq, .. } if seq == self.1 => Ok(()),
                msg => self.0.send(msg),
            }
        }
        fn recv_timeout(&self, timeout: Duration) -> Result<Option<Message>, TransportError> {
            self.0.recv_timeout(timeout)
        }
        fn is_connected(&self) -> bool {
            self.0.is_connected()
        }
    }

    #[test]
    fn group_write_refused_or_failed_run_leaves_its_neighbours_outcome_alone() {
        // Two 4-page runs, 4-page frames: frame 1 is exactly the first
        // run and is acked; frame 2, the second run, is refused `NoCredit`
        // (the peer has room for four pages) or lost for good.
        for lose_second in [false, true] {
            let (ta, tb) = mem_pair();
            let ba = shared_backend(MemBackend::new());
            let mut cfg_a = NodeConfig::test_profile(0);
            cfg_a.repl_batch_pages = 4;
            cfg_a.ack_timeout = Duration::from_millis(40);
            cfg_a.retry = RetryPolicy::no_retries();
            let mut cfg_b = NodeConfig::test_profile(1);
            cfg_b.remote_capacity = if lose_second { 512 } else { 4 };
            let lost = if lose_second { 2 } else { u64::MAX };
            let a = Node::spawn(cfg_a, LoseBatch(NoBeats(ta), lost), ba.clone());
            let b = Node::spawn(cfg_b, tb, shared_backend(MemBackend::new()));
            let pages: Vec<Bytes> = (0..8u8).map(|i| Bytes::from(vec![i; 8])).collect();
            let out = a
                .try_write_runs(1, &[(10, 0, &pages[..4]), (11, 4, &pages[4..])])
                .unwrap();
            assert_eq!(
                out.iter()
                    .map(|o| (o.replicated, o.write_through))
                    .collect::<Vec<_>>(),
                vec![(4, 0), (0, 4)],
                "lose_second {lose_second}"
            );
            assert_eq!(b.hosted_remote_pages(), vec![0, 1, 2, 3]);
            for lpn in 4..8u64 {
                assert!(ba.lock().read_page(lpn).is_some(), "page {lpn} not durable");
            }
            let s = a.stats();
            assert!(s.writes_balance());
            assert_eq!((s.replicated_pages, s.write_through), (4, 4));
            if lose_second {
                // A lost frame is a link failure: solo, journaled for resync.
                assert_eq!(a.lifecycle_state(), PairState::Solo);
                assert_eq!(a.journal_len(), 4);
            } else {
                assert_eq!(a.lifecycle_state(), PairState::Paired);
                assert_eq!(a.peer_credits(), Some(0));
            }
            // The window remembers each run's own outcome.
            assert_eq!(a.try_write_run(1, 10, 0, &pages[..4]).unwrap(), out[0]);
            assert_eq!(a.try_write_run(1, 11, 4, &pages[4..]).unwrap(), out[1]);
            a.shutdown();
            b.shutdown();
        }
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
    fn migration_lpns_excludes_pages_hosted_for_the_peer() {
        let (a, b, _ba, _bb) = pair();
        assert_eq!(a.write(5, b"mine-via-a"), WriteOutcome::Replicated);
        a.fail();
        // b walks Solo and takeover-destages a's replica under PEER_NS.
        assert!(wait_until(
            || b.lifecycle_state() == PairState::Solo,
            Duration::from_secs(2)
        ));
        b.write(100, b"bs-own");
        let lpns = b.try_migration_lpns().unwrap();
        assert!(lpns.contains(&100));
        assert!(
            !lpns.iter().any(|&l| l == 5 || l & PEER_NS != 0),
            "peer-hosted pages must not migrate with b's blocks: {lpns:?}"
        );
        assert_eq!(a.try_migration_lpns(), Err(NodeDown));
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn resident_table_tracks_the_buffer_through_eviction_and_delete() {
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
            if op % 512 == 0 {
                let (table, buffer) = table_and_buffer(&a);
                assert!(table.len() <= BUFFER, "op {op}: {} records", table.len());
                assert_eq!(table, buffer, "op {op}");
            }
        }
        let s = a.stats();
        assert!(s.flushed_pages > 0 && s.reads > s.read_hits, "{s:?}");

        touched.sort_unstable();
        let deleted: Vec<u64> = touched.iter().copied().step_by(3).collect();
        for &lpn in &deleted {
            a.try_delete_from(0, lpn).unwrap();
            last.remove(&lpn);
        }
        let (table, buffer) = table_and_buffer(&a);
        assert_eq!(table, buffer);
        assert!(a.stats().writes_balance());
        for &lpn in &deleted {
            assert_eq!(a.read(lpn), None, "deleted page {lpn} came back");
        }
        for (lpn, want) in &last {
            assert_eq!(a.read(*lpn).as_ref(), Some(want), "lpn {lpn}");
        }
        let (table, buffer) = table_and_buffer(&a);
        assert!(table.len() <= BUFFER);
        assert_eq!(table, buffer);
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

    mod dedup_prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]
            /// Replaying any prefix of an already-applied tagged-run
            /// sequence (in any prefix order) never double-applies: the
            /// node's write count does not move and every page still reads
            /// back with its latest contents.
            #[test]
            fn replayed_prefixes_never_double_apply(
                runs in proptest::collection::vec((0u64..4, 0u64..32, 1usize..4), 1..12),
                replay_len in 0usize..12,
            ) {
                let (a, b, _ba, _bb) = pair();
                let mut applied: Vec<(u64, u64, u64, Vec<Bytes>)> = Vec::new();
                for (i, (client, lpn, pages)) in runs.iter().enumerate() {
                    let tag = i as u64 + 1; // client-stamped, unique per run
                    let data: Vec<Bytes> = (0..*pages)
                        .map(|p| Bytes::from(format!("r{i}p{p}").into_bytes()))
                        .collect();
                    a.try_write_run(*client, tag, *lpn, &data).unwrap();
                    applied.push((*client, tag, *lpn, data));
                }
                let writes_before = a.stats().writes;
                // Replay a prefix of the history, as a retrying gateway
                // would after an ambiguous failure.
                for (client, tag, lpn, data) in applied.iter().take(replay_len) {
                    a.try_write_run(*client, *tag, *lpn, data).unwrap();
                }
                let s = a.stats();
                prop_assert_eq!(s.writes, writes_before, "replay must not re-apply");
                prop_assert_eq!(s.dedup_hits, replay_len.min(applied.len()) as u64);
                // Latest writer per page still wins.
                let mut latest: HashMap<u64, Vec<u8>> = HashMap::new();
                for (_, _, lpn, data) in &applied {
                    for (p, d) in data.iter().enumerate() {
                        latest.insert(lpn + p as u64, d.to_vec());
                    }
                }
                for (lpn, want) in latest {
                    prop_assert_eq!(a.read(lpn), Some(want));
                }
                a.shutdown();
                b.shutdown();
            }
        }
    }
}
