//! [`Inner`]: the node's mutable heart behind one mutex, and the operations
//! every path shares — the version clock, eviction flushes and solo entry.
//! Sends nothing: a method that has something for the peer returns it and
//! the caller sends after the guard drops.

use super::hosted::Hosted;
use super::lifecycle::{Ask, Lifecycle};
use super::recv::BatchRx;
use super::write::{ClientState, MAX_CLIENTS};
use super::{NodeConfig, NodeObs, SharedBackend};
use crate::pipe::ReplPipe;
use crate::wire::{Message, SeqTracker};
use bytes::Bytes;
use flashcoop::policy::Eviction;
use flashcoop::{BufferConfig, BufferManager};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// What the node keeps for one buffer-resident page: the buffer's record
/// type, so the buffer (which tracks residency and dirtiness) is the one
/// page table.
#[derive(Clone)]
pub(super) struct Resident {
    pub(super) bytes: Bytes,
    /// CRC-32 of `bytes` at write/fill time — the reference a scrub
    /// compares against to spot silent local corruption.
    pub(super) crc: u32,
    /// Pair-clock version of this copy: the stamp of the write that put it
    /// here, or the backend's version for a read-miss fill.
    pub(super) version: u64,
}

/// The node's mutable heart, behind one mutex.
///
/// # Lock order
///
/// `Inner` ≺ pipe state, and `Inner` ≺ `backend`: the backend mutex is a
/// *leaf* lock — it may be acquired while holding `Inner` (every destage
/// does: eviction flushes, degraded writes, solo entry, takeover,
/// migration), but nothing that holds it may acquire `Inner`. Hot paths
/// additionally hoist backend *reads* out of the `Inner` critical section
/// entirely (see `Node::enqueue_pages` / `Node::fill_miss`). Counting is
/// not in the order: `obs` is plain atomic cells.
pub(super) struct Inner {
    pub(super) cfg: Arc<NodeConfig>,
    /// The local buffer, holding each resident page's bytes and version.
    pub(super) buffer: BufferManager<Resident>,
    pub(super) next_version: u64,
    pub(super) backend: SharedBackend,
    /// Pages hosted for the peer.
    pub(super) hosted: Hosted,
    /// Data-plane sequence numbers seen from the peer (dedup/reorder
    /// detection for retransmitted or duplicated Discards).
    pub(super) peer_seqs: SeqTracker,
    /// Where the pair stands, and the heartbeat watch that moves it.
    pub(super) lifecycle: Lifecycle,
    /// Last peer-advertised hosting credits; `None` until the peer has
    /// spoken (optimistic) or after going solo.
    pub(super) credits: Option<u32>,
    /// Seq of the next Discard sent to the peer.
    pub(super) next_seq: u64,
    /// Receiver-side cumulative-ack state for the peer's pipelined batches.
    pub(super) batch_rx: BatchRx,
    /// This node's replication pipe, held here only so solo entry can
    /// [`ReplPipe::reset`] it (the one `Inner` → pipe nesting).
    pub(super) pipe: Arc<ReplPipe>,
    /// Per-origin counters and exactly-once window, keyed by the client id
    /// the gateway passed to a `*_from` / `try_*` entry point; at most
    /// [`MAX_CLIENTS`] rows ([`Inner::client`]).
    pub(super) clients: HashMap<u64, ClientState>,
    /// Requests counted by [`Inner::client`] so far — the clock a row's
    /// `touched` stamp is read off.
    client_clock: u64,
    /// Every node counter and the event stream (lock-free).
    pub(super) obs: Arc<NodeObs>,
}

impl Inner {
    pub(super) fn new(
        cfg: Arc<NodeConfig>,
        backend: SharedBackend,
        pipe: Arc<ReplPipe>,
        obs: Arc<NodeObs>,
    ) -> Inner {
        Inner {
            buffer: BufferManager::from_config(BufferConfig {
                policy: cfg.policy,
                capacity: cfg.buffer_pages,
                pages_per_block: cfg.pages_per_block,
                ..BufferConfig::default()
            }),
            next_version: 1,
            hosted: Hosted::new(cfg.remote_capacity, backend.clone()),
            backend,
            peer_seqs: SeqTracker::new(),
            lifecycle: Lifecycle::new(&cfg, obs.clone(), Instant::now()),
            credits: None,
            next_seq: 1,
            batch_rx: BatchRx::default(),
            pipe,
            clients: HashMap::new(),
            client_clock: 0,
            obs,
            cfg,
        }
    }

    /// Emit a wall-stamped `cluster.node` event if obs is attached.
    pub(super) fn note(&self, kind: &'static str, f: impl FnOnce(fc_obs::Event) -> fc_obs::Event) {
        self.obs.note(kind, f);
    }

    /// Take the edge the lifecycle asks for, with its work; returns the
    /// Discard for the pages solo entry flushed, if any.
    pub(super) fn answer(&mut self, ask: Option<Ask>) -> Option<Message> {
        match ask {
            Some(Ask::Solo(cause)) => {
                let flushed = self.enter_solo(cause);
                self.discard(flushed)
            }
            Some(Ask::Rejoin(cause)) => {
                self.lifecycle.rejoin(cause);
                None
            }
            None => None,
        }
    }

    /// The seq-stamped, version-bounded Discard telling the peer these
    /// `(lpn, version)` pages are durable or gone here; `None` for none.
    pub(super) fn discard(&mut self, pages: Vec<(u64, u64)>) -> Option<Message> {
        if pages.is_empty() {
            return None;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        Some(Message::Discard { seq, pages })
    }

    /// One duplicate delivery from the peer (`msg` names the frame kind)
    /// dropped instead of applied twice.
    pub(super) fn note_duplicate(&self, seq: u64, msg: &'static str) {
        self.obs.dups_dropped.inc();
        self.note("repl_dedup", |e| {
            e.u64_field("seq", seq).str_field("msg", msg)
        });
    }

    /// Advance the version clock past a version observed from the peer (a
    /// hosted replica, a replicated entry, a discard bound, a recovered
    /// snapshot) or from the shared backend. Both halves of a pair stamp
    /// writes from their own counter; with every observation folded in,
    /// any *new* write gets a version above every version of that page the
    /// pair has produced so far — which is what lets the backend's
    /// `version >= stored` guard arbitrate correctly when a failover
    /// makes both nodes write the same lpn space.
    pub(super) fn observe_version(&mut self, v: u64) {
        if v >= self.next_version {
            self.next_version = v + 1;
        }
    }

    /// Write an eviction's pages, which carry their records, to the
    /// backend under one backend guard; returns the written
    /// `(lpn, version)` pairs.
    fn flush_runs(&self, ev: &Eviction<Resident>) -> Vec<(u64, u64)> {
        if ev.runs.is_empty() {
            return Vec::new();
        }
        let mut backend = self.backend.lock();
        ev.pages()
            .map(|(lpn, page)| {
                backend.write_page(lpn, page.version, &page.bytes);
                (lpn, page.version)
            })
            .collect()
    }

    /// Flush an eviction's runs to the backend; returns the flushed
    /// `(lpn, version)` pairs so the caller can send a version-bounded
    /// Discard. Costs what the eviction evicted, whatever the buffer holds.
    pub(super) fn apply_eviction(&mut self, ev: &Eviction<Resident>) -> Vec<(u64, u64)> {
        let flushed = self.flush_runs(ev);
        if !flushed.is_empty() {
            self.obs.flushed_pages.add(flushed.len() as u64);
        }
        flushed
    }

    /// Cache `pages` clean — `(lpn, record)` in the caller's order — with
    /// one buffer fill per stretch of consecutive lpns, flushing what each
    /// fill evicts; returns the flushed `(lpn, version)` pairs.
    pub(super) fn fill_runs(&mut self, mut pages: Vec<(u64, Resident)>) -> Vec<(u64, u64)> {
        let mut flushed = Vec::new();
        while let Some(&(start, _)) = pages.first() {
            let len = (1..pages.len())
                .find(|&i| pages[i].0 != start + i as u64)
                .unwrap_or(pages.len());
            let ev = self
                .buffer
                .fill_pages(start, pages.drain(..len).map(|(_, page)| page));
            flushed.extend(self.apply_eviction(&ev));
        }
        flushed
    }

    /// `client`'s row, created by its first request and stamped by every
    /// one. The table is bounded: at [`MAX_CLIENTS`] rows a new client
    /// displaces the one heard from longest ago — its counters and its
    /// exactly-once window go, so a retry from a client that idle applies
    /// again (as it would after its tags aged out of the window).
    pub(super) fn client(&mut self, client: u64) -> &mut ClientState {
        if self.clients.len() >= MAX_CLIENTS && !self.clients.contains_key(&client) {
            let oldest = self.clients.iter().min_by_key(|(_, c)| c.touched);
            if let Some(id) = oldest.map(|(&id, _)| id) {
                self.clients.remove(&id);
            }
        }
        self.client_clock += 1;
        let row = self.clients.entry(client).or_default();
        row.touched = self.client_clock;
        row
    }

    /// Remote failure handling: flush every dirty page, take over the
    /// peer's replicated pages, and stop forwarding until the peer is back.
    /// Returns the flushed `(lpn, version)` pairs — the caller sends them
    /// to the peer as one Discard once `Inner` drops, so a peer that stayed
    /// up stops hosting them (on a dead link the frame is lost, harmlessly:
    /// the pages are durable here). Empty if already Solo.
    pub(super) fn enter_solo(&mut self, cause: &'static str) -> Vec<(u64, u64)> {
        if !self.lifecycle.force_solo(cause, Instant::now()) {
            return Vec::new();
        }
        // Abandon the replication pipeline: blocked writers resolve as
        // failed and write through themselves; the next epoch starts clean.
        self.pipe.reset();
        // Flush every dirty local page: the peer replica is no longer a
        // second memory. Every page written counts, one still in the
        // pipeline too: if its writer then writes it through, it was
        // written twice and counts in `write_through` as well.
        let ev = self.buffer.drain_dirty();
        let flushed = self.apply_eviction(&ev);
        self.obs.partition_destages.add(flushed.len() as u64);
        // The pages hosted for the (failed) peer stay reachable for its
        // recovery handshake, from our backend.
        let taken = self.hosted.takeover();
        if taken > 0 {
            self.obs.takeover_destages.add(taken);
            self.note("takeover_destage", |e| e.u64_field("pages", taken));
        }
        self.credits = None;
        // Writers waiting on acks will time out and take the write-through
        // path themselves.
        flushed
    }
}
