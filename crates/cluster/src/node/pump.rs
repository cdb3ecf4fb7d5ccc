//! The pair link's receive side and the node's one background thread.
//!
//! The link is read by whoever holds its slot ([`LinkSlot`]): on an
//! in-memory link, the thread that sent the frame ([`drain`], the node's
//! delivery step, run by the peer's send); a writer waiting for its acks;
//! or the pump once nobody has asked for the slot for a whole pass. The
//! holder receives, dispatches and replies ([`read_one`]), in arrival
//! order. The pump also heartbeats, ticks the pipe's retransmit timer and
//! polls the failure detector; it sends no page-carrying frame. This file
//! is the only node code that receives from the link, and besides
//! [`super::Node`]'s own methods the only code that sends on it — every
//! handler it calls returns its reply instead of sending it, and no `Inner`
//! guard is held across a send. Lock order: a delivery takes the far
//! node's slot, try-only, holding none of its own. The link runs a
//! delivery as a plain call, so several may arrive at once; the slot is
//! the only thing that decides which of them reads.

use super::Core;
use crate::pipe::RunTicket;
use crate::transport::TransportError;
use crate::wire::{damaged, Message, NackReason};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// The pair link's receive side, held by one thread at a time. A delivery
/// takes it only if it is free and otherwise leaves a mark, so whoever
/// holds it reads what the delivery brought before letting go ([`release`]).
/// A writer waiting on its ticket takes it when it is free and hands it to
/// the next waiting writer when the ticket resolves; the pump takes it only
/// when it is free and nobody bid for it for a whole pass, so it stands
/// between a writer and its ack at most once after the link was idle. The
/// slot is taken with no node lock held (lock order: slot → `Inner` → pipe
/// state / backend); the mutex inside is a leaf.
#[derive(Default)]
pub(super) struct LinkSlot(Mutex<SlotState>);

#[derive(Default)]
struct SlotState {
    holder: Option<ThreadId>,
    /// Writers parked for the slot, by ticket, first come first served.
    waiting: VecDeque<Arc<RunTicket>>,
    /// Bids writers and deliveries have made — took the slot free, queued
    /// for it, or found it held: the pump reads only after a pass in which
    /// this did not move.
    writer_bids: u64,
    /// A delivery found the slot held: its frame waits for the holder.
    marked: bool,
}

impl LinkSlot {
    /// A writer's bid for the thread `ticket` belongs to: true if that
    /// thread holds the slot — it was free, or was handed to it. Otherwise
    /// the writer is queued (once) and parks until its ticket resolves or
    /// the slot is handed to it.
    pub(super) fn take(&self, ticket: &Arc<RunTicket>) -> bool {
        let me = ticket.writer().id();
        let mut st = self.0.lock();
        match st.holder {
            None => {
                st.holder = Some(me);
                st.writer_bids += 1;
                true
            }
            Some(id) => {
                if id != me && !st.waiting.iter().any(|t| t.writer().id() == me) {
                    st.waiting.push_back(ticket.clone());
                    st.writer_bids += 1;
                }
                id == me
            }
        }
    }

    /// A delivery's bid: the slot if nobody holds it, the calling thread
    /// included; else a mark, which makes the holder read what is waiting
    /// before it lets go.
    fn try_take(&self) -> bool {
        let mut st = self.0.lock();
        st.writer_bids += 1;
        if st.holder.is_some() {
            st.marked = true;
            return false;
        }
        st.holder = Some(std::thread::current().id());
        true
    }

    /// The pump's bid: the slot if it is free and no writer bid for it
    /// since the pump's previous bid (`bids` carries the count between
    /// them).
    fn take_idle(&self, bids: &mut u64) -> bool {
        let mut st = self.0.lock();
        let idle = st.holder.is_none() && st.writer_bids == *bids;
        *bids = st.writer_bids;
        if idle {
            st.holder = Some(std::thread::current().id());
        }
        idle
    }

    /// The calling thread is done with the slot: if it holds it, hand it to
    /// the first waiting writer whose ticket is still open (unparking it),
    /// else free it; if it was waiting, stop. False, with the slot kept
    /// and the mark cleared, if a delivery left a mark: read first.
    fn release(&self) -> bool {
        let me = std::thread::current().id();
        let mut st = self.0.lock();
        if st.holder != Some(me) {
            st.waiting.retain(|t| t.writer().id() != me);
            return true;
        }
        if std::mem::take(&mut st.marked) {
            return false;
        }
        // A writer whose ticket resolved while it queued needs no turn; it
        // finds itself dequeued when it wakes.
        let next = loop {
            match st.waiting.pop_front() {
                Some(t) if t.is_done() => continue,
                next => break next,
            }
        };
        st.holder = next.as_ref().map(|t| t.writer().id());
        drop(st);
        if let Some(t) = next {
            t.writer().unpark();
        }
        true
    }
}

/// Let go of the link slot (or of a place in its queue), first reading
/// whatever deliveries left while it was held.
pub(super) fn release(core: &Core) {
    while !core.link.release() {
        while let Ok(true) = read_one(core, Duration::ZERO) {}
    }
}

/// The node's delivery step, run by the thread that sent the peer's frame
/// (`Node::spawn` registers it on an in-memory link), by several senders
/// at once if they send at once: if the slot is free, read until nothing
/// is left and let go; else the mark it leaves hands the frame to the
/// holder.
pub(super) fn drain(core: &Core) {
    if core.link.try_take() {
        while let Ok(true) = read_one(core, Duration::ZERO) {}
        release(core);
    }
}

/// How long one receive may wait — a pump pass, or a writer's read while it
/// holds the slot: half a heartbeat, or less when the oldest in-flight
/// batch's retransmit deadline comes first.
pub(super) fn wait(core: &Core) -> Duration {
    let half = core.cfg.heartbeat / 2;
    core.pipe.due().map_or(half, |due| {
        due.saturating_duration_since(Instant::now()).min(half)
    })
}

/// Receive one frame, waiting up to `timeout`, and act on it: dispatch it
/// and send its reply — or, while the node is halted, drop it (a dead node
/// processes no messages, and a restart must not replay a backlog from its
/// outage). A dead link sends the node solo (its Discard is sent anyway,
/// and lost unless the link recovers). True if a frame came. Only the
/// slot's holder calls this.
pub(super) fn read_one(core: &Core, timeout: Duration) -> Result<bool, TransportError> {
    let msg = core.transport.recv_timeout(timeout);
    if core.halted.load(Ordering::SeqCst) {
        return msg.map(|m| m.is_some());
    }
    match msg {
        Ok(Some(m)) => {
            if let Some(reply) = dispatch(core, m) {
                let _ = core.transport.send(reply);
            }
            Ok(true)
        }
        Err(TransportError::Disconnected) => {
            let discard = {
                let mut inner = core.inner.lock();
                let flushed = inner.enter_solo("disconnected");
                inner.discard(flushed)
            };
            if let Some(discard) = discard {
                let _ = core.transport.send(discard);
            }
            Err(TransportError::Disconnected)
        }
        // A timed-out receive is not a verdict on the link; the
        // lifecycle's failure detector decides.
        Ok(None) | Err(TransportError::Timeout) => Ok(false),
    }
}

/// Background loop, one pass per [`wait`] or up to the next heartbeat,
/// whichever is sooner: tick the replication pipe's retransmit timer, send
/// the heartbeat when it is due, read the link if no writer or delivery
/// asked for it last pass (else sleep the pass out), and tick the
/// lifecycle.
pub(super) fn pump_loop(core: &Core) {
    let cfg = &core.cfg;
    // Beats leave on a fixed schedule, one heartbeat apart. Sent whenever a
    // pass noticed one was due, each left a little more than a period after
    // the last, and an idle peer suspected this node twice a period.
    let mut next_beat = Instant::now();
    let mut bids = 0;
    while !core.shutdown.load(Ordering::SeqCst) {
        core.pipe.tick();
        // Crash-faulted: dead nodes send no heartbeats and watch nothing.
        let halted = core.halted.load(Ordering::SeqCst);
        let now = Instant::now();
        if now >= next_beat {
            next_beat += cfg.heartbeat;
            if next_beat <= now {
                // A stall longer than a period restarts the schedule
                // rather than bursting the missed beats.
                next_beat = now + cfg.heartbeat;
            }
            if !halted {
                // Advertising our remaining hosting credits.
                let credits = core.inner.lock().hosted.credits();
                let _ = core.transport.send(Message::Heartbeat {
                    from: cfg.id,
                    at_millis: core.started.elapsed().as_millis() as u64,
                    credits,
                });
            }
        }
        let wait = wait(core).min(next_beat.saturating_duration_since(Instant::now()));
        if core.link.take_idle(&mut bids) {
            let read = read_one(core, wait);
            release(core);
            if read == Err(TransportError::Disconnected) {
                // Back off a little; shutdown still needs to be honoured.
                std::thread::sleep(cfg.heartbeat);
            }
        } else {
            std::thread::sleep(wait);
        }
        if !halted {
            let discard = core.inner.lock().on_tick(Instant::now());
            if let Some(discard) = discard {
                let _ = core.transport.send(discard);
            }
        }
    }
}

/// Route one frame from the peer to whoever owns its state — `Inner`'s
/// receive handlers, the pipe, or a parked recovery call — and return the
/// reply to send, if any (every guard taken here is gone by then).
fn dispatch(core: &Core, msg: Message) -> Option<Message> {
    match msg {
        Message::WriteReplBatch {
            epoch,
            seq,
            entries,
        } => {
            let damaged = damaged(&entries);
            core.inner.lock().on_batch(epoch, seq, entries, damaged)
        }
        Message::ReplAckBatch {
            epoch,
            up_to,
            credits,
        } => {
            core.inner.lock().credits = Some(credits);
            core.pipe.on_ack(epoch, up_to);
            None
        }
        Message::ReplNackBatch { epoch, seq, reason } => {
            if reason == NackReason::NoCredit {
                core.inner.lock().credits = Some(0);
            }
            core.pipe.on_nack(epoch, seq, reason);
            None
        }
        Message::Discard { seq, pages } => {
            core.inner.lock().on_discard(seq, pages);
            None
        }
        Message::Heartbeat { credits, .. } => {
            core.inner.lock().on_heartbeat(credits, Instant::now())
        }
        Message::RctFetch { id, lpns } => {
            let entries = core.inner.lock().hosted.entries(&lpns);
            Some(Message::RctEntries { id, entries })
        }
        Message::Purge => {
            core.inner.lock().hosted.purge();
            Some(Message::PurgeAck)
        }
        reply @ (Message::RctEntries { .. } | Message::PurgeAck) => {
            // Every parked call gets it and picks out its own; one that
            // gave up dropped its receiver and is forgotten here.
            let mut parked = core.parked.lock();
            parked.retain(|call| call.send(reply.clone()).is_ok());
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::testkit::*;
    use std::sync::atomic::AtomicU64;

    /// Whether `e` is a frame received (not a timed-out receive) on a thread
    /// whose name starts with `thread`.
    fn received_on(e: &Tapped, thread: &str) -> bool {
        !e.sent && e.msg.is_some() && e.thread.starts_with(thread)
    }

    fn is_ack(e: &Tapped) -> bool {
        matches!(e.msg, Some(Message::ReplAckBatch { .. }))
    }

    #[test]
    fn link_slot_acks_reach_their_own_writer() {
        let (a, b, tap, _) = tapped_pair(NodeConfig::test_profile(0));
        let a = Arc::new(a);
        let writer = named("writer", &a, move |a| {
            assert_eq!(a.write(0, b"warm-up"), WriteOutcome::Replicated);
            let mark = tap.log().len();
            for i in 0..200u64 {
                assert_eq!(a.write(i % 32, b"page"), WriteOutcome::Replicated);
            }
            tap.log().split_off(mark)
        });
        let log = writer.join().unwrap();
        let acks = log.iter().filter(|e| !e.sent && is_ack(e)).count();
        let own = log
            .iter()
            .filter(|e| received_on(e, "writer") && is_ack(e))
            .count();
        assert!(acks >= 200, "{acks} acks for 200 writes");
        assert!(
            own * 10 >= acks * 9,
            "{own} of {acks} acks read by the writer"
        );
        Arc::try_unwrap(a)
            .ok()
            .expect("writer released node")
            .shutdown();
        b.shutdown();
    }

    #[test]
    fn link_slot_returns_to_the_pump_within_two_passes() {
        let mut cfg = NodeConfig::test_profile(0);
        cfg.heartbeat = Duration::from_millis(100);
        cfg.failure_timeout = Duration::from_millis(500);
        let (a, b, tap, _) = tapped_pair(cfg.clone());
        for i in 0..100u64 {
            assert_eq!(a.write(i % 32, b"page"), WriteOutcome::Replicated);
        }
        let stop = Instant::now();
        // Ten heartbeat periods with no writer: the pump alone reads A's
        // link, and neither side's failure detector so much as suspects.
        while stop.elapsed() < 10 * cfg.heartbeat {
            for n in [&a, &b] {
                assert_eq!(n.lifecycle_state(), PairState::Paired);
            }
            std::thread::sleep(cfg.heartbeat / 4);
        }
        let pump = tap
            .log()
            .into_iter()
            .filter(|e| !e.sent && e.thread == "fc-node-0" && e.at >= stop)
            .collect::<Vec<_>>();
        let pass = cfg.heartbeat / 2;
        let back = pump[0].at - stop;
        assert!(
            back <= 2 * pass + Duration::from_millis(25),
            "pump back on the link {back:?} after the last write"
        );
        let beats = pump
            .iter()
            .filter(|e| matches!(e.msg, Some(Message::Heartbeat { .. })))
            .count();
        assert!(beats >= 8, "the pump read {beats} heartbeats");
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn idle_pair_takes_no_lifecycle_edge() {
        let (a, b, _, _) = pair();
        let heartbeat = NodeConfig::test_profile(0).heartbeat;
        std::thread::sleep(20 * heartbeat);
        for n in [&a, &b] {
            assert_eq!(n.lifecycle_state(), PairState::Paired);
            assert_eq!(n.lifecycle_transitions(), 0, "an idle pair flapped");
        }
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn link_slot_fail_mid_burst_dispatches_nothing_on_writers() {
        let (a, b, tap, _) = tapped_pair(NodeConfig::test_profile(0));
        let (a, b) = (Arc::new(a), Arc::new(b));
        let stop = Arc::new(AtomicBool::new(false));
        // B writes too, so A's writers have peer batches to answer.
        let peer = {
            let stop = stop.clone();
            named("peer-writer", &b, move |b| {
                for i in 0.. {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    b.write(100 + i % 32, b"peer");
                }
            })
        };
        let written = Arc::new(AtomicU64::new(0));
        let writers: Vec<_> = (0..4u64)
            .map(|w| {
                let written = written.clone();
                named(&format!("writer-{w}"), &a, move |a| {
                    let page = [Bytes::from_static(b"burst")];
                    // Until the node refuses: a write in flight when it
                    // fails resolves, and the next one is turned away.
                    for tag in 0.. {
                        if a.try_write_run(w, tag, 8 * w + tag % 8, &page).is_err() {
                            break;
                        }
                        written.fetch_add(1, Ordering::SeqCst);
                    }
                })
            })
            .collect();
        assert!(wait_until(
            || written.load(Ordering::SeqCst) >= 40,
            Duration::from_secs(5)
        ));
        a.fail();
        tap.flag.store(true, Ordering::SeqCst);
        for w in writers {
            w.join().unwrap();
        }
        // Per writer thread, in order: a frame received after `fail`
        // returned is never answered.
        let log = tap.log();
        for w in 0..4 {
            let name = format!("writer-{w}");
            let mine: Vec<_> = log.iter().filter(|e| e.thread == name).collect();
            for pair in mine.windows(2) {
                let answered = pair[1].sent
                    && matches!(
                        pair[1].msg,
                        Some(Message::ReplAckBatch { .. } | Message::ReplNackBatch { .. })
                    );
                assert!(
                    !(received_on(pair[0], &name) && pair[0].flagged && answered),
                    "{name} dispatched {:?} after the node halted",
                    pair[0].msg
                );
            }
        }
        stop.store(true, Ordering::SeqCst);
        peer.join().unwrap();
        a.restart();
        assert!(both_paired(&a, &b));
        assert_eq!(a.write(1, b"again"), WriteOutcome::Replicated);
        for n in [a, b] {
            Arc::try_unwrap(n)
                .ok()
                .expect("threads released node")
                .shutdown();
        }
    }

    /// A test profile with a heartbeat of `heartbeat`: pump passes last
    /// half of it, and the failure detector never fires in a test.
    fn slow_pump(id: u8, heartbeat: Duration) -> NodeConfig {
        NodeConfig {
            heartbeat,
            failure_timeout: Duration::from_secs(60),
            ..NodeConfig::test_profile(id)
        }
    }

    fn spawn_on(cfg: NodeConfig, link: Link<Message>) -> Node {
        Node::spawn(cfg, link, shared_backend(MemBackend::new()))
    }

    #[test]
    fn link_slot_delivery_to_a_held_slot_is_read_when_it_is_released() {
        let heartbeat = Duration::from_secs(10);
        let (ta, tb) = mem_pair();
        let a = Arc::new(spawn_on(slow_pump(0, heartbeat), ta));
        let b = spawn_on(slow_pump(1, heartbeat), tb);
        // After a delivered write both pumps sleep out their five-second
        // passes: nothing but a release reads B's link for that long.
        assert_eq!(a.write(0, b"warm"), WriteOutcome::Replicated);
        let ticket = RunTicket::new(0);
        while !b.core.link.take(&ticket) {
            std::thread::park_timeout(Duration::from_millis(5));
        }
        // A's batch reaches B's step on the writer's thread and finds the
        // slot held: it leaves its mark, and the batch to the holder.
        let writer = named("writer", &a, |a| (a.write(1, b"late"), Instant::now()));
        assert!(wait_until(
            || b.core.link.0.lock().marked,
            Duration::from_secs(5)
        ));
        assert!(!writer.is_finished(), "the batch is the holder's to read");
        let released = Instant::now();
        release(&b.core);
        let (outcome, done) = writer.join().unwrap();
        assert_eq!(outcome, WriteOutcome::Replicated);
        assert!(
            done - released < Duration::from_millis(100),
            "the write returned {:?} after the release",
            done - released
        );
        // Each shutdown waits for its pump's pass to end.
        let a = Arc::try_unwrap(a).ok().expect("writer released node");
        std::thread::scope(|s| {
            s.spawn(|| a.shutdown());
            b.shutdown();
        });
    }

    #[test]
    fn link_slot_deliveries_both_ways_lose_no_frame() {
        let heartbeat = Duration::from_secs(2);
        let (ta, tb) = mem_pair();
        let a = Arc::new(spawn_on(slow_pump(0, heartbeat), ta));
        let b = Arc::new(spawn_on(slow_pump(1, heartbeat), tb));
        // 4 writers per node, 2,500 writes each: 20,000 writes.
        let writers: Vec<_> = [&a, &b]
            .into_iter()
            .enumerate()
            .flat_map(|(n, node)| {
                (0..4u64).map(move |w| {
                    named(&format!("writer-{n}-{w}"), node, move |node| {
                        let base = 8 * w;
                        let mut slowest = Duration::ZERO;
                        for i in 0..2_500u64 {
                            let started = Instant::now();
                            let outcome = node.write(base + i % 8, b"both-ways");
                            assert_eq!(outcome, WriteOutcome::Replicated, "write {i}");
                            slowest = slowest.max(started.elapsed());
                        }
                        slowest
                    })
                })
            })
            .collect();
        for w in writers {
            let slowest = w.join().unwrap();
            // A stranded frame waits out a pump pass: a second.
            assert!(
                slowest < Duration::from_millis(500),
                "a write took {slowest:?}"
            );
        }
        for n in [a, b] {
            let s = n.stats();
            assert_eq!(s.replicated_pages, 10_000, "{s:?}");
            Arc::try_unwrap(n)
                .ok()
                .expect("writers released node")
                .shutdown();
        }
    }

    #[test]
    fn link_slot_halted_reader_drops_what_it_reads() {
        let (ta, peer) = mem_pair();
        let a = Node::spawn(
            NodeConfig::test_profile(0),
            ta,
            shared_backend(MemBackend::new()),
        );
        a.fail();
        // Take the link from the pump, as a writer would.
        let ticket = RunTicket::new(0);
        while !a.core.link.take(&ticket) {
            std::thread::park_timeout(Duration::from_millis(5));
        }
        while peer.recv_timeout(Duration::ZERO).unwrap().is_some() {}
        let batch = vec![resync_entry(7, 1, Bytes::from_static(b"late"))];
        peer.send(Message::WriteReplBatch {
            epoch: 1,
            seq: 1,
            entries: batch,
        })
        .unwrap();
        assert_eq!(read_one(&a.core, Duration::from_secs(1)), Ok(true));
        release(&a.core);
        assert!(a.hosted_remote_pages().is_empty());
        assert_eq!(peer.recv_timeout(Duration::from_millis(50)), Ok(None));
        a.shutdown();
    }
}
