//! The write path: a group of runs is enqueued run by run under `Inner`,
//! submitted to the replication pipe in one call, waited for once and
//! committed run by run (DESIGN §16), with the per-client exactly-once
//! window in front. No node lock is held across the pipe submission or the
//! ticket wait, in which the writer reads its own ack off the link.

use super::state::Resident;
use super::{pump, Node, NodeDown, PerClientStats, RunOutcome, WriteOutcome};
#[cfg(doc)]
use super::{NodeConfig, NodeStats};
use crate::pipe::{PageOutcome, PipePage, RunTicket};
use crate::wire::crc32;
use bytes::Bytes;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// `write_through` event reason for a page kept local because the peer is
/// out of hosting credits (the one reason that also counts a credit stall).
const NO_CREDITS: &str = "no_credits";

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

/// One client's exactly-once window: outcomes of its most recent tagged
/// write runs, evicted FIFO at `cfg.dedup_window` entries.
#[derive(Default)]
pub(super) struct DedupWindow {
    /// Insertion order, oldest first (drives eviction).
    order: VecDeque<u64>,
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

/// Most clients a node keeps a row for ([`Inner::client`] reaps beyond
/// it): ids are minted per gateway session and chosen freely by TCP
/// clients, so without a bound a long-lived node would keep a stats row
/// and up to `dedup_window` outcomes for every connection it ever served.
pub(crate) const MAX_CLIENTS: usize = 4096;

/// What the node keeps per client id.
#[derive(Default)]
pub(super) struct ClientState {
    pub(super) stats: PerClientStats,
    /// Volatile: a crash fault ([`Node::fail`]) empties it; the counters
    /// stay.
    pub(super) window: DedupWindow,
    /// `Inner`'s client clock at this client's latest request.
    pub(super) touched: u64,
}

impl Node {
    /// Write one page. Blocks until the page is durable (replicated or
    /// written through).
    ///
    /// Stats contract: a page is counted — `replicated_pages` or
    /// `write_through` — only once it is resolved, and a [`Node::stats`]
    /// snapshot derives `writes` from those two, so it always satisfies
    /// [`NodeStats::writes_balance`] and never shows a write that is
    /// counted but not yet durable.
    pub fn write(&self, lpn: u64, data: &[u8]) -> WriteOutcome {
        let out = self.write_group(None, &[(lpn, &[Bytes::copy_from_slice(data)])])[0];
        if out.all_replicated() {
            WriteOutcome::Replicated
        } else {
            WriteOutcome::WriteThrough
        }
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
        self.write_group(Some(client), &[(lpn, &bytes)])[0]
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
        self.live()?;
        let mut out = vec![RunOutcome::default(); runs.len()];
        // Indices of the runs the window has not seen.
        let mut fresh = Vec::with_capacity(runs.len());
        {
            let inner = self.core.inner.lock();
            let seen = inner.clients.get(&client).map(|c| &c.window.seen);
            for (i, &(tag, lpn, _)) in runs.iter().enumerate() {
                let Some(prev) = seen.and_then(|s| s.get(&tag)) else {
                    fresh.push(i);
                    continue;
                };
                out[i] = *prev;
                inner.obs.dedup_hits.inc();
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
        let group: Vec<(u64, &[Bytes])> = fresh.iter().map(|&i| (runs[i].1, runs[i].2)).collect();
        let applied = self.write_group(Some(client), &group);
        self.live()?;
        let mut inner = self.core.inner.lock();
        let cap = inner.cfg.dedup_window;
        let window = &mut inner.client(client).window;
        for (&i, outcome) in fresh.iter().zip(applied) {
            window.record(runs[i].0, outcome, cap);
            out[i] = outcome;
        }
        Ok(out)
    }

    /// Pipeline front half for a run of consecutive pages (`lpn..lpn+n`):
    /// stamp versions and land the run in the local buffer with **one**
    /// buffer call, so its block earns one access however many pages it
    /// carries (§III.B.2: "sequentially accessing multiple pages of the
    /// block is treated as one block access"). Under the same guard the
    /// run's pages are then sorted: a prefix bound for the peer is appended
    /// to `pipe_pages` (the caller submits a whole group's at once, with no
    /// lock held), and the rest are written through on the spot — the
    /// whole run while degraded or when its own insertion evicted any of
    /// it, else the pages past the peer's hosting credits. Pays one backend
    /// lock, one `Inner` lock and one buffer access per run, not per page.
    /// Returns the pages written through (already counted) and the
    /// pipelined pages; page `i` of those resolves on `ticket`'s slot
    /// `base + i`, `base` being `pipe_pages.len()` on entry.
    fn enqueue_pages(
        &self,
        lpn: u64,
        pages: &[Bytes],
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
            let be = self.core.backend.lock();
            (0..pages.len() as u64)
                .map(|i| be.version_of(lpn + i))
                .collect()
        };
        self.under_inner(|inner| {
            let n = pages.len();
            let versions: Vec<u64> = backend_vers
                .iter()
                .map(|bv| {
                    if let Some(bv) = *bv {
                        inner.observe_version(bv);
                    }
                    let version = inner.next_version;
                    inner.next_version += 1;
                    version
                })
                .collect();
            let records =
                pages
                    .iter()
                    .zip(&crcs)
                    .zip(&versions)
                    .map(|((bytes, &crc), &version)| Resident {
                        bytes: bytes.clone(),
                        crc,
                        version,
                    });
            let ev = inner.buffer.write_pages(lpn, records);
            let flushed = inner.apply_eviction(&ev);
            let end = lpn + n as u64;
            let degraded = inner.lifecycle.state().is_degraded();
            // The run's pages that go to the peer are a prefix, `..k`.
            let (k, reason) = if degraded {
                // Solo: write through.
                (0, "degraded")
            } else if flushed.iter().any(|&(l, _)| (lpn..end).contains(&l)) {
                // Part of the run was evicted (and flushed) synchronously
                // by its own insertion: replicating the run would only
                // leave stale orphans at the peer.
                (0, "self_evicted")
            } else if let Some(c) = &mut inner.credits {
                // Debited at enqueue; every ack re-advertises the peer's
                // true remaining pool. Past it, the peer's remote buffer is
                // full: keep durability local instead of stalling on a NACK
                // round trip.
                let k = n.min(*c as usize);
                *c -= k as u32;
                (k, NO_CREDITS)
            } else {
                (n, NO_CREDITS)
            };
            let mut pipelined: Vec<Pipelined> = Vec::with_capacity(k);
            for (i, bytes) in pages[..k].iter().enumerate() {
                let page = Pipelined {
                    lpn: lpn + i as u64,
                    version: versions[i],
                    bytes: bytes.clone(),
                };
                pipe_pages.push(page.pipe_page(crcs[i], ticket, pipe_pages.len()));
                pipelined.push(page);
            }
            if k < n {
                let mut backend = inner.backend.lock();
                for i in k..n {
                    let l = lpn + i as u64;
                    // A page the eviction took or wrote back is durable
                    // already; the rest become durable here, and clean.
                    if inner.buffer.lookup(l) == Some(true) {
                        backend.write_page(l, versions[i], &pages[i]);
                        inner.buffer.mark_clean(l);
                    }
                }
                drop(backend);
                for i in k..n {
                    self.count_write_through(lpn + i as u64, reason);
                }
            }
            (((n - k) as u64, pipelined), flushed)
        })
    }

    /// Write a group of runs through the pipeline and wait — once — for all
    /// of it. Each run is enqueued under its own `Inner` acquisition; then
    /// every run's pages enter the pipe in **one** submission, so the pipe
    /// cuts frames across run boundaries (a 20-page and a 12-page run leave
    /// as one 32-page frame and come back as one ack), the writer waits on
    /// one ticket, and each run commits by itself. One outcome per run, in
    /// order.
    fn write_group(&self, client: Option<u64>, runs: &[(u64, &[Bytes])]) -> Vec<RunOutcome> {
        let total = runs.iter().map(|(_, pages)| pages.len()).sum();
        let ticket = RunTicket::new(total);
        let mut pipe_pages: Vec<PipePage> = Vec::with_capacity(total);
        let enqueued: Vec<_> = runs
            .iter()
            .map(|&(lpn, pages)| {
                let base = pipe_pages.len();
                let (through, pipelined) = self.enqueue_pages(lpn, pages, &ticket, &mut pipe_pages);
                (through, base, pipelined)
            })
            .collect();
        if !pipe_pages.is_empty() {
            self.core.pipe.submit(pipe_pages);
        }
        self.await_ticket(&ticket);
        enqueued
            .into_iter()
            .map(|(through, base, pipelined)| {
                self.commit_run(client, through, pipelined, &ticket, base)
            })
            .collect()
    }

    /// Wait for `ticket` to resolve, reading the pair link meanwhile: the
    /// ack that resolves it is dispatched on this thread, not by a pump that
    /// then has to wake it. On an in-memory pair the ticket has usually
    /// resolved before the wait starts: the writer's send ran the peer's
    /// receive, and the peer's ack send ran this node's (`pump::drain`).
    /// A writer that finds the link taken parks until
    /// its ticket resolves or the link is handed to it; a halted node's
    /// writers read nothing and wait for `fail`'s pipe reset. A ticket
    /// resolved by another thread (`fail`, solo entry, the pump abandoning
    /// the window) while this one is inside a receive is noticed when that
    /// receive times out.
    fn await_ticket(&self, ticket: &Arc<RunTicket>) {
        let core = &*self.core;
        while !ticket.is_done() {
            if !self.is_halted() && core.link.take(ticket) {
                let _ = pump::read_one(core, pump::wait(core));
            } else {
                std::thread::park();
            }
        }
        pump::release(core);
    }

    /// Commit one run of a resolved group: `through` of its pages were
    /// written through at enqueue, and `pipelined[i]`'s outcome is
    /// `ticket`'s slot `base + i`. The acknowledged pages commit together —
    /// one counter add, and one `Inner` acquisition for the client's row;
    /// each refused or failed page then goes through
    /// [`Node::write_through_refused`].
    fn commit_run(
        &self,
        client: Option<u64>,
        through: u64,
        pipelined: Vec<Pipelined>,
        ticket: &RunTicket,
        base: usize,
    ) -> RunOutcome {
        let pages = pipelined.len() as u64;
        let refused: Vec<_> = (base..)
            .zip(pipelined)
            .filter_map(|(slot, page)| match ticket.outcome(slot) {
                PageOutcome::Replicated => None,
                outcome => Some((page, outcome)),
            })
            .collect();
        let out = RunOutcome {
            replicated: pages - refused.len() as u64,
            write_through: through + refused.len() as u64,
        };
        if let Some(c) = client {
            let mut inner = self.core.inner.lock();
            let row = &mut inner.client(c).stats;
            row.writes += 1;
            row.pages_written += out.pages();
            row.write_through += out.write_through;
        }
        if out.replicated > 0 {
            self.core.obs.replicated_pages.add(out.replicated);
        }
        for (page, outcome) in refused {
            self.write_through_refused(page, outcome == PageOutcome::NoCredit);
        }
        out
    }

    /// A pipelined page came back refused (`no_credit`) or failed: make it
    /// durable ourselves and count it written through.
    fn write_through_refused(&self, page: Pipelined, no_credit: bool) {
        let Pipelined {
            lpn,
            version,
            bytes,
        } = page;
        // The backend's version guard keeps a newer concurrent copy.
        self.core.backend.lock().write_page(lpn, version, &bytes);
        let reason = self.under_inner(|inner| {
            if inner.buffer.get(lpn).is_some_and(|p| p.version == version) {
                inner.buffer.mark_clean(lpn);
            }
            if no_credit {
                // Our credit view was stale.
                inner.credits = Some(0);
                (NO_CREDITS, Vec::new())
            } else {
                // Peer unreachable: go solo.
                ("ack_timeout", inner.enter_solo("ack_timeout"))
            }
        });
        self.count_write_through(lpn, reason);
    }

    /// Count one page that was made durable by write-through, plus the
    /// stall counter and event when the cause is backpressure. Takes no
    /// lock, so it is callable with or without `Inner` held.
    fn count_write_through(&self, lpn: u64, reason: &'static str) {
        let obs = &self.core.obs;
        obs.write_through.inc();
        if reason == NO_CREDITS {
            obs.credit_stalls.inc();
            obs.note("credit_stall", |e| e.u64_field("lpn", lpn));
        }
        obs.note("write_through", |e| {
            e.u64_field("lpn", lpn).str_field("reason", reason)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::testkit::*;
    use std::sync::atomic::AtomicU64;

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
    fn an_empty_run_writes_nothing() {
        let (a, b, _ba, _bb) = pair();
        assert_eq!(a.write_run(7, 0, &[] as &[Vec<u8>]), RunOutcome::default());
        assert!(a.write_run(7, 0, &[b"page"]).all_replicated());
        assert_eq!(a.stats().replicated_pages, 1);
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn solo_entry_counts_a_run_still_in_the_pipe_and_its_write_through() {
        // A silent peer: A's batch leaves and is never acked, and A goes
        // Solo on heartbeat silence while the run waits in the pipe.
        let (ta, _silent) = mem_pair();
        let mut cfg = NodeConfig::test_profile(0);
        cfg.ack_timeout = Duration::from_secs(10);
        let a = Node::spawn(cfg, ta, shared_backend(MemBackend::new()));
        let out = a.write_run(0, 40, &[b"p40", b"p41", b"p42", b"p43"]);
        assert_eq!(out.write_through, 4, "{out:?}");
        assert_eq!(a.lifecycle_state(), PairState::Solo);
        // Solo entry flushed the four dirty pages, and their writer wrote
        // each through again when the abandoned pipe failed it.
        let s = a.stats();
        assert_eq!((s.flushed_pages, s.repl.partition_destages), (4, 4));
        assert_eq!((s.replicated_pages, s.write_through), (0, 4));
        assert!(s.writes_balance());
        a.shutdown();
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

    /// Hides the peer's heartbeats, so the node never learns the peer's
    /// credit pool and keeps replicating optimistically.
    struct NoBeats(Link<Message>);

    impl Transport for NoBeats {
        fn send(&self, msg: Message) -> Result<(), TransportError> {
            Transport::send(&self.0, msg)
        }
        fn recv_timeout(&self, timeout: Duration) -> Result<Option<Message>, TransportError> {
            match Transport::recv_timeout(&self.0, timeout)? {
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
        assert_eq!(peer_credits(&a), Some(0));
        // Backpressure is not a failure: the pair stays joined.
        assert_eq!(a.lifecycle_state(), PairState::Paired);
        a.shutdown();
        b.shutdown();
    }

    /// A pair of `cfg`s, with `cfg_b` for node B; A's backend comes back.
    fn pair_of(cfg_a: NodeConfig, cfg_b: NodeConfig) -> (Node, Node, SharedBackend) {
        let (ta, tb) = mem_pair();
        let ba = shared_backend(MemBackend::new());
        let a = Node::spawn(cfg_a, ta, ba.clone());
        let b = Node::spawn(cfg_b, tb, shared_backend(MemBackend::new()));
        (a, b, ba)
    }

    fn pages(n: u8) -> Vec<Bytes> {
        (0..n).map(|i| Bytes::from(vec![i; 8])).collect()
    }

    #[test]
    fn a_run_is_one_block_access_so_lar_evicts_it_before_a_twice_written_block() {
        // 32-page blocks and a 34-page buffer: block A (0..32) gets one
        // 32-page run, popularity 1; block B (32..64) two 1-page writes,
        // popularity 2. That fills the buffer exactly.
        let mut cfg = NodeConfig::test_profile(0);
        cfg.pages_per_block = 32;
        cfg.buffer_pages = 34;
        let (a, b, ba) = pair_of(cfg.clone(), NodeConfig { id: 1, ..cfg });
        assert!(a
            .try_write_run(1, 1, 0, &pages(32))
            .unwrap()
            .all_replicated());
        assert_eq!(a.write(32, b"b0"), WriteOutcome::Replicated);
        assert_eq!(a.write(33, b"b1"), WriteOutcome::Replicated);
        assert_eq!(ba.lock().pages(), 0);
        // A third page of B evicts: LAR's victim is A, the least popular
        // block, whole; B stays buffered, and the new page replicates.
        assert_eq!(a.write(34, b"b2"), WriteOutcome::Replicated);
        let durable: Vec<u64> = (0..64)
            .filter(|&l| ba.lock().read_page(l).is_some())
            .collect();
        assert_eq!(durable, (0..32).collect::<Vec<u64>>());
        let s = a.stats();
        assert_eq!((s.flushed_pages, s.write_through), (32, 0));
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn a_run_its_own_insertion_evicts_is_written_through_whole() {
        // 4-page blocks and a 4-page buffer. Block 0 holds pages 0 and 1,
        // each written twice: popularity 4.
        let mut cfg = NodeConfig::test_profile(0);
        cfg.buffer_pages = 4;
        let (a, b, ba) = pair_of(cfg, NodeConfig::test_profile(1));
        for _ in 0..2 {
            a.write(0, b"p0");
            a.write(1, b"p1");
        }
        // A 4-page run over blocks 1 (6, 7) and 2 (8, 9), popularity 1
        // each: its insertion evicts block 1, half the run.
        let run = pages(4);
        let out = a.write_run(1, 6, &run);
        assert_eq!((out.replicated, out.write_through), (0, 4));
        // None of the run went to the peer; all of it is durable here, and
        // what stayed buffered is clean.
        assert_eq!(b.hosted_remote_pages(), vec![0, 1]);
        for (lpn, page) in (6..10u64).zip(&run) {
            assert_eq!(ba.lock().read_page(lpn).unwrap().1, page.to_vec());
        }
        assert_eq!(a.try_flush_dirty(), Ok(2), "only pages 0 and 1 are dirty");
        let s = a.stats();
        assert!(s.writes_balance());
        assert_eq!((s.replicated_pages, s.write_through), (4, 4));
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn a_run_out_of_credits_part_way_replicates_its_head_and_writes_the_rest_through() {
        let mut cfg_b = NodeConfig::test_profile(1);
        cfg_b.remote_capacity = 3;
        let (a, b, ba) = pair_of(NodeConfig::test_profile(0), cfg_b);
        assert!(wait_until(
            || peer_credits(&a) == Some(3),
            Duration::from_secs(2)
        ));
        let out = a.write_run(1, 0, &pages(8));
        assert_eq!((out.replicated, out.write_through), (3, 5));
        assert_eq!(b.hosted_remote_pages(), vec![0, 1, 2]);
        assert_eq!(b.stats().repl.credit_rejections, 0, "no frame was refused");
        for lpn in 0..8u64 {
            assert_eq!(ba.lock().read_page(lpn).is_some(), lpn >= 3, "lpn {lpn}");
        }
        let s = a.stats();
        assert!(s.writes_balance());
        assert_eq!(s.repl.credit_stalls, 5);
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn stats_snapshot_is_consistent_while_writes_run() {
        // The balance is definitional (a snapshot sums the two outcome
        // cells); what the cells must guarantee is the other half of the
        // contract — a page is counted only once it is durable, so a
        // snapshot taken from this third thread (neither the writer nor a
        // pump) never runs ahead of the writes the writer has finished plus
        // the one it may be in.
        let (a, b, _ba, _bb) = pair();
        let stop = Arc::new(AtomicBool::new(false));
        let done = Arc::new(AtomicU64::new(0));
        let writer = {
            let (stop, done) = (stop.clone(), done.clone());
            let a = Arc::new(a);
            let a2 = a.clone();
            let h = std::thread::spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::SeqCst) {
                    a2.write(i % 256, b"payload");
                    i += 1;
                    done.store(i, Ordering::SeqCst);
                }
            });
            (a, h)
        };
        let (a, h) = writer;
        let deadline = Instant::now() + Duration::from_millis(500);
        let mut snapshots = 0u32;
        while Instant::now() < deadline {
            let s = a.stats();
            let finished = done.load(Ordering::SeqCst);
            assert!(
                s.writes_balance() && s.writes <= finished + 1,
                "inconsistent snapshot: writes={} replicated={} write_through={} finished={finished}",
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
    fn client_table_is_bounded_and_keeps_the_most_recent_clients() {
        let (a, b, _ba, _bb) = pair();
        let page = [Bytes::from_static(b"p")];
        let clients = MAX_CLIENTS as u64 + 904;
        let first = a.try_write_run(1, 9, 0, &page).unwrap();
        for client in 2..=clients {
            a.try_write_run(client, 9, client % 64, &page).unwrap();
        }
        // One row (counters + exactly-once window) per client, capped; the
        // clients heard from longest ago went first.
        let rows = a.client_stats();
        assert_eq!(rows.len(), MAX_CLIENTS);
        assert_eq!(rows[0].0, clients - MAX_CLIENTS as u64 + 1);
        assert_eq!(rows.last().unwrap().0, clients);
        // The most recent client's retry still answers from its window...
        let hits = a.stats().dedup_hits;
        a.try_write_run(clients, 9, clients % 64, &page).unwrap();
        assert_eq!(a.stats().dedup_hits, hits + 1);
        // ...while the reaped first client's applies again, as a new client.
        assert_eq!(a.try_write_run(1, 9, 0, &page).unwrap(), first);
        assert_eq!(a.stats().dedup_hits, hits + 1);
        assert_eq!(a.client_stats().len(), MAX_CLIENTS);
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
                    writes: 2,
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
            for lpn in 4..8u64 {
                assert!(ba.lock().read_page(lpn).is_some(), "page {lpn} not durable");
            }
            let s = a.stats();
            assert!(s.writes_balance());
            assert_eq!((s.replicated_pages, s.write_through), (4, 4));
            if lose_second {
                // A lost frame is a link failure: solo entry flushes the
                // first run and discards its replicas at the peer.
                assert_eq!(a.lifecycle_state(), PairState::Solo);
                for lpn in 0..4u64 {
                    assert!(ba.lock().read_page(lpn).is_some(), "page {lpn} not flushed");
                }
                assert!(wait_until(
                    || b.hosted_remote_pages().is_empty(),
                    Duration::from_secs(1)
                ));
            } else {
                assert_eq!(b.hosted_remote_pages(), vec![0, 1, 2, 3]);
                assert_eq!(a.lifecycle_state(), PairState::Paired);
                assert_eq!(peer_credits(&a), Some(0));
            }
            // The window remembers each run's own outcome.
            assert_eq!(a.try_write_run(1, 10, 0, &pages[..4]).unwrap(), out[0]);
            assert_eq!(a.try_write_run(1, 11, 4, &pages[4..]).unwrap(), out[1]);
            a.shutdown();
            b.shutdown();
        }
    }

    #[test]
    fn link_slot_peer_batches_acked_by_writers_both_ways() {
        let (a, b, tap_a, tap_b) = tapped_pair(NodeConfig::test_profile(0));
        let (a, b) = (Arc::new(a), Arc::new(b));
        let write = |base: u64| {
            move |n: &Node| {
                for i in 0..200u64 {
                    assert_eq!(n.write(base + i % 32, b"page"), WriteOutcome::Replicated);
                }
            }
        };
        let wa = named("a-writer", &a, write(0));
        let wb = named("b-writer", &b, write(100));
        wa.join().unwrap();
        wb.join().unwrap();
        for n in [&a, &b] {
            let s = n.stats();
            assert_eq!((s.replicated_pages, s.repl.retries), (200, 0), "{s:?}");
        }
        // Each node hosts the other's pages, and acked some of them while
        // one of its own writers held the link.
        assert_eq!(a.hosted_remote_pages(), (100..132).collect::<Vec<u64>>());
        assert_eq!(b.hosted_remote_pages(), (0..32).collect::<Vec<u64>>());
        for (tap, writer) in [(tap_a, "a-writer"), (tap_b, "b-writer")] {
            let answered = tap
                .log()
                .iter()
                .filter(|e| {
                    e.thread == writer
                        && !e.sent
                        && matches!(e.msg, Some(Message::WriteReplBatch { .. }))
                })
                .count();
            assert!(answered > 0, "{writer} read no peer batch");
        }
        for n in [a, b] {
            Arc::try_unwrap(n)
                .ok()
                .expect("writers released node")
                .shutdown();
        }
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
