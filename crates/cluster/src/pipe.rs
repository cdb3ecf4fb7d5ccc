//! The replication pipe: the one sender of page-carrying frames on the pair
//! link. Nothing here names the node's `Inner` or its backend — the pipe
//! touches only its own state mutex and the lock-free obs handle it counts
//! and narrates through.

use crate::node::{NodeConfig, NodeObs};
use crate::transport::{Transport, TransportError};
use crate::wire::{Message, NackReason};
use bytes::Bytes;
use parking_lot::{Mutex, MutexGuard};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::Thread;
use std::time::{Duration, Instant};

/// Resolution of one pipelined page replication, delivered to the writer
/// parked in [`Node::write_group`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum PageOutcome {
    /// The peer acknowledged the batch carrying this page.
    Replicated,
    /// The peer refused the batch for lack of hosting credits; the writer
    /// falls back to local write-through.
    NoCredit,
    /// Retries exhausted or the transport died; the writer makes the page
    /// durable itself and takes the node solo.
    Failed,
}

/// One submission's completion — a writer's group of runs: whoever
/// resolves its last page unparks the submitter.
pub(crate) struct RunTicket {
    /// One outcome per pipelined page, [`PageOutcome::Failed`] until
    /// resolved — so a page dropped unresolved (closed or abandoned pipe)
    /// reads as failed and the writer keeps it durable itself.
    slots: Vec<AtomicU8>,
    /// Pages not yet resolved. [`PipePage`]'s drop decrements it with
    /// `Release` after its slot store; the writer's `Acquire` load of zero
    /// pairs with every one of them, so it sees every slot.
    pub(crate) remaining: AtomicUsize,
    writer: Thread,
}

impl RunTicket {
    /// A ticket for the calling thread's submission of up to `pages` pages.
    pub(crate) fn new(pages: usize) -> Arc<RunTicket> {
        Arc::new(RunTicket {
            slots: (0..pages)
                .map(|_| AtomicU8::new(PageOutcome::Failed as u8))
                .collect(),
            remaining: AtomicUsize::new(0),
            writer: std::thread::current(),
        })
    }

    /// True once every page is resolved or dropped; the `Acquire` side of
    /// the pairing described on `remaining`.
    pub(crate) fn is_done(&self) -> bool {
        self.remaining.load(Ordering::Acquire) == 0
    }

    /// The submitting thread, unparked when the last page resolves.
    pub(crate) fn writer(&self) -> &Thread {
        &self.writer
    }

    pub(crate) fn outcome(&self, slot: usize) -> PageOutcome {
        match self.slots[slot].load(Ordering::Relaxed) {
            v if v == PageOutcome::Replicated as u8 => PageOutcome::Replicated,
            v if v == PageOutcome::NoCredit as u8 => PageOutcome::NoCredit,
            _ => PageOutcome::Failed,
        }
    }
}

/// One page handed to the pipe by a writer: payload, its enqueue-time
/// CRC-32 (carried into every frame, first send or resend), and its slot
/// on the writer's ticket. Dropping it — resolved or not — counts the page
/// down and wakes the writer on the last one.
pub(crate) struct PipePage {
    pub(crate) lpn: u64,
    pub(crate) version: u64,
    pub(crate) crc: u32,
    pub(crate) data: Bytes,
    pub(crate) ticket: Arc<RunTicket>,
    pub(crate) slot: usize,
}

impl PipePage {
    fn resolve(self, outcome: PageOutcome) {
        self.ticket.slots[self.slot].store(outcome as u8, Ordering::Relaxed);
    }
}

impl Drop for PipePage {
    fn drop(&mut self) {
        if self.ticket.remaining.fetch_sub(1, Ordering::Release) == 1 {
            self.ticket.writer.unpark();
        }
    }
}

/// One unacknowledged batch in the pipe's window.
struct PipeBatch {
    seq: u64,
    entries: Vec<PipePage>,
    sent_at: Instant,
    /// Transmissions so far (1 after the first send).
    attempts: u32,
    /// Corrupt NACKs absorbed by this batch — each one a corruption that
    /// counts as repaired once the clean resend finally acks.
    corrupt_resends: u64,
}

impl PipeBatch {
    /// The wire frame for this batch (clean copy; used for first sends and
    /// every retransmission).
    fn frame(&self, epoch: u32) -> Message {
        Message::WriteReplBatch {
            epoch,
            seq: self.seq,
            entries: self
                .entries
                .iter()
                .map(|p| (p.lpn, p.version, p.crc, p.data.clone()))
                .collect(),
        }
    }
}

/// The mutable half of [`ReplPipe`].
struct PipeState {
    epoch: u32,
    next_seq: u64,
    /// Submitted pages not yet cut into a batch (the window was full).
    queue: VecDeque<PipePage>,
    /// Unacknowledged batches, oldest first; at most `repl_window`.
    window: VecDeque<PipeBatch>,
    /// Frames cut (or re-cut for a resend) but not yet on the wire, in
    /// send order.
    outbox: VecDeque<Message>,
    /// A thread is draining `outbox`; the others leave their frames to it,
    /// so frames leave in `seq` order without the lock held across a send.
    sending: bool,
    /// Shut down: submitted pages fail at once.
    closed: bool,
}

impl PipeState {
    /// Fail every queued and in-flight page (their writers fall back to
    /// write-through) and open a fresh epoch at seq 1, which the receiver
    /// adopts on the first higher-epoch frame. Dropping a page unresolved
    /// is what fails it.
    fn abandon(&mut self) {
        self.window.clear();
        self.queue.clear();
        self.outbox.clear();
        self.epoch = self.epoch.wrapping_add(1);
        self.next_seq = 1;
    }
}

/// The replication pipe: submitted pages are cut into
/// [`Message::WriteReplBatch`] frames, up to `repl_window` of them stay in
/// flight, a batch is retransmitted on timeout or Corrupt NACK (same seq,
/// so the receiver dedups late deliveries), and writers resolve on
/// cumulative acks. It has no thread of its own: the state sits behind one
/// mutex and is stepped by whoever holds the event — a writer submitting
/// its run, the link's reader (a waiting writer or the pump) on an ack or a
/// NACK, the pump on its timer tick.
///
/// Lock order: `Inner` → `state`, and `state` is a leaf. Nothing here takes
/// `Inner` or the backend, and `state` is never held across a transport
/// send.
pub(crate) struct ReplPipe {
    cfg: Arc<NodeConfig>,
    transport: Arc<dyn Transport + Sync>,
    state: Mutex<PipeState>,
    /// The node's counters (the always-on pages-per-batch histogram among
    /// them) and its event stream.
    obs: Arc<NodeObs>,
}

impl ReplPipe {
    pub(crate) fn new(
        cfg: Arc<NodeConfig>,
        transport: Arc<dyn Transport + Sync>,
        obs: Arc<NodeObs>,
    ) -> ReplPipe {
        ReplPipe {
            cfg,
            transport,
            state: Mutex::new(PipeState {
                epoch: 1,
                next_seq: 1,
                queue: VecDeque::new(),
                window: VecDeque::new(),
                outbox: VecDeque::new(),
                sending: false,
                closed: false,
            }),
            obs,
        }
    }

    /// When `b` times out: a further attempt waits out the backoff first;
    /// an exhausted batch abandons at the bare ack timeout.
    fn due_at(&self, b: &PipeBatch) -> Instant {
        let wait = if b.attempts >= self.cfg.retry.attempts {
            Duration::ZERO
        } else {
            self.cfg.retry.backoff_for(b.attempts.saturating_sub(1))
        };
        b.sent_at + self.cfg.ack_timeout + wait
    }

    /// Count and narrate one retransmission of `b`, and queue its frame.
    fn resend(&self, st: &mut PipeState, pos: usize, reason: &'static str) {
        let b = &mut st.window[pos];
        b.attempts += 1;
        b.sent_at = Instant::now();
        self.obs.retries.inc();
        self.obs.note("repl_retry", |e| {
            e.u64_field("seq", b.seq)
                .u64_field("attempt", b.attempts as u64)
                .str_field("reason", reason)
        });
        let frame = b.frame(st.epoch);
        st.outbox.push_back(frame);
    }

    /// Cut queued pages into batches while the window has room, then put
    /// the outbox on the wire unless another thread is already doing so.
    /// The lock is released around each send, so a thread stuck in a
    /// socket write stalls neither ack processing nor other writers'
    /// submits; their frames queue behind it in order.
    fn step<'a>(&'a self, mut st: MutexGuard<'a, PipeState>) -> MutexGuard<'a, PipeState> {
        while st.window.len() < self.cfg.repl_window.max(1) && !st.queue.is_empty() {
            let n = st.queue.len().min(self.cfg.repl_batch_pages.max(1));
            let entries: Vec<PipePage> = st.queue.drain(..n).collect();
            let seq = st.next_seq;
            st.next_seq += 1;
            let b = PipeBatch {
                seq,
                entries,
                sent_at: Instant::now(),
                attempts: 1,
                corrupt_resends: 0,
            };
            self.obs.batches_sent.inc();
            self.obs.batch_pages.add(n as u64);
            self.obs.batch_hist.record(n as u64);
            let epoch = st.epoch;
            self.obs.note("repl_batch_send", |e| {
                e.u64_field("seq", seq)
                    .u64_field("epoch", epoch as u64)
                    .u64_field("pages", n as u64)
            });
            st.outbox.push_back(b.frame(epoch));
            st.window.push_back(b);
        }
        if st.sending {
            return st;
        }
        st.sending = true;
        while let Some(frame) = st.outbox.pop_front() {
            drop(st);
            let sent = self.transport.send(frame);
            st = self.state.lock();
            if sent == Err(TransportError::Disconnected) {
                // Writers make their pages durable themselves
                // (write-through).
                st.abandon();
            }
        }
        st.sending = false;
        st
    }

    /// A writer's run enters the pipe; the writer itself sends whatever
    /// the window admits. Call with no node lock held.
    pub(crate) fn submit(&self, pages: Vec<PipePage>) {
        let mut st = self.state.lock();
        if st.closed {
            return; // dropping the pages fails them
        }
        st.queue.extend(pages);
        drop(self.step(st));
    }

    /// The peer cumulatively acknowledged every batch up to `up_to`.
    pub(crate) fn on_ack(&self, epoch: u32, up_to: u64) {
        let mut st = self.state.lock();
        if epoch != st.epoch {
            return;
        }
        let mut acked = Vec::new();
        while st.window.front().is_some_and(|b| b.seq <= up_to) {
            let b = st.window.pop_front().expect("front checked");
            if b.corrupt_resends > 0 {
                self.obs.corruptions_repaired.add(b.corrupt_resends);
                self.obs.note("corrupt_repaired", |e| {
                    e.u64_field("seq", b.seq)
                        .u64_field("resends", b.corrupt_resends)
                });
            }
            acked.push(b);
        }
        if !acked.is_empty() {
            // Emit the span *before* resolving the waiters: a writer
            // released by its ticket may immediately snapshot the event
            // ring and must see this ack.
            self.obs.note("repl_batch_ack", |e| {
                e.u64_field("up_to", up_to)
                    .u64_field("batches", acked.len() as u64)
            });
        }
        for b in acked {
            for p in b.entries {
                p.resolve(PageOutcome::Replicated);
            }
        }
        drop(self.step(st));
    }

    /// The peer refused one batch.
    pub(crate) fn on_nack(&self, epoch: u32, seq: u64, reason: NackReason) {
        let mut st = self.state.lock();
        if epoch != st.epoch {
            return;
        }
        let Some(pos) = st.window.iter().position(|b| b.seq == seq) else {
            return;
        };
        match reason {
            // Damaged in flight; resend the clean copy at once (same seq,
            // receiver dedups).
            NackReason::Corrupt if st.window[pos].attempts >= self.cfg.retry.attempts => {
                st.abandon();
            }
            NackReason::Corrupt => {
                st.window[pos].corrupt_resends += 1;
                self.resend(&mut st, pos, "corrupt_nack");
            }
            NackReason::NoCredit => {
                // The peer is out of hosting space: resolve the writers
                // (they write through locally) and resend the batch
                // *empty* under the same seq so the cumulative ack space
                // stays contiguous.
                let epoch = st.epoch;
                let b = &mut st.window[pos];
                for p in b.entries.drain(..) {
                    p.resolve(PageOutcome::NoCredit);
                }
                b.sent_at = Instant::now();
                let frame = b.frame(epoch);
                st.outbox.push_back(frame);
            }
        }
        drop(self.step(st));
    }

    /// The pump's timer tick: retransmit the oldest unacked batch if its
    /// deadline passed (selective repeat: later batches stay put, the
    /// receiver stashes them), or abandon the window once its retries are
    /// spent.
    pub(crate) fn tick(&self) {
        let mut st = self.state.lock();
        if let Some(b) = st.window.front() {
            if Instant::now() >= self.due_at(b) {
                if b.attempts >= self.cfg.retry.attempts {
                    st.abandon();
                } else {
                    self.resend(&mut st, 0, "ack_timeout");
                }
                drop(self.step(st));
            }
        }
    }

    /// The oldest in-flight batch's retransmit deadline, if a batch is in
    /// flight.
    pub(crate) fn due(&self) -> Option<Instant> {
        let st = self.state.lock();
        st.window.front().map(|b| self.due_at(b))
    }

    /// Abandon the pipeline (solo entry / crash fault): parked writers
    /// resolve as failed and write through themselves; the next epoch
    /// starts clean. Sends nothing, so it is safe under `Inner`.
    pub(crate) fn reset(&self) {
        self.state.lock().abandon();
    }

    /// Fail outstanding work and refuse new pages (node shutdown).
    pub(crate) fn close(&self) {
        let mut st = self.state.lock();
        st.closed = true;
        st.abandon();
    }
}
