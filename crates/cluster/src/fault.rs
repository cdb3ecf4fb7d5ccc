//! Deterministic fault injection for transports.
//!
//! [`FaultTransport`] wraps any [`Transport`] and misbehaves on purpose:
//! messages are dropped, delayed, duplicated, reordered, payload-corrupted,
//! or swallowed by one-way partitions (index-span or timed), all according
//! to a seeded [`FaultPlan`]. Every fault
//! decision is drawn from a [`DetRng`] keyed only by the plan's seed and the
//! position of the message in the send sequence, so a given (seed, plan,
//! message sequence) always produces the *same decision trace* — the chaos
//! suite asserts this literally, and a failing chaos run can be replayed
//! from its printed seed.
//!
//! Faults apply to outbound traffic of the wrapped endpoint. Only
//! the data plane ([`Message::WriteReplBatch`] with its cumulative acks and
//! per-batch nacks, and [`Message::Discard`]) is disturbed; control
//! traffic (heartbeats, the recovery handshake) passes through untouched so
//! a lossy-but-alive link does not masquerade as a dead peer; only timed
//! partitions swallow everything.
//!
//! Time-based effects (added latency) necessarily depend
//! on wall-clock scheduling; the *decisions* — what is dropped, how long
//! each delay is, what is duplicated — stay deterministic regardless.
//! The layer has no thread: held and delayed frames wait in one pending
//! queue that the link's own users step (see [`FaultTransport`]), and the
//! decision trace is its one record ([`FaultTransport::fault_stats`] is a
//! fold of it).

use crate::transport::{Transport, TransportError};
use crate::wire::Message;
use fc_simkit::DetRng;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// A seeded schedule of network misbehaviour.
///
/// Partition spans and the drop/dup/reorder probabilities are evaluated
/// against the *eligible-send index*: the count of faultable messages sent
/// so far. Indexing by send count instead of wall time keeps every decision
/// reproducible under arbitrary thread scheduling.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Seed for all fault decisions.
    pub seed: u64,
    /// Probability an eligible message is silently dropped.
    pub drop_prob: f64,
    /// Probability a delivered message is sent twice.
    pub dup_prob: f64,
    /// Fixed latency added to every delivered message.
    pub base_delay: Duration,
    /// Additional uniformly-jittered latency in `[0, jitter)`.
    pub jitter: Duration,
    /// Probability an eligible message is held back and released only after
    /// `reorder_window` further eligible sends (bounded reordering).
    pub reorder_prob: f64,
    /// How many later sends overtake a held-back message.
    pub reorder_window: u64,
    /// One-way partitions as half-open `[start, end)` spans over the
    /// eligible-send index: messages inside a span vanish. The partition
    /// "heals" once the send index passes `end`.
    pub partitions: Vec<(u64, u64)>,
    /// One-way partitions as half-open `[start, end)` wall-clock windows
    /// measured from the transport's creation. Unlike index spans these
    /// model a real timed outage, so they swallow *all* traffic — control
    /// messages included — which is what lets
    /// heartbeat-based failure detection actually fire in chaos tests.
    /// Window membership depends on wall-clock scheduling; the rest of the
    /// decision trace stays deterministic.
    pub timed_partitions: Vec<(Duration, Duration)>,
    /// Probability a delivered data-carrying message has one payload byte
    /// flipped in flight (the embedded payload CRC goes stale, so the
    /// receiver detects it).
    pub corrupt_prob: f64,
}

impl FaultPlan {
    /// A fault-free plan with the given seed (builder starting point).
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Drop each eligible message with probability `p`.
    pub fn with_drop(mut self, p: f64) -> Self {
        self.drop_prob = p;
        self
    }

    /// Duplicate each delivered message with probability `p`.
    pub fn with_dup(mut self, p: f64) -> Self {
        self.dup_prob = p;
        self
    }

    /// Add `base` latency plus uniform jitter in `[0, jitter)`.
    pub fn with_delay(mut self, base: Duration, jitter: Duration) -> Self {
        self.base_delay = base;
        self.jitter = jitter;
        self
    }

    /// Hold back each eligible message with probability `p` until `window`
    /// further eligible messages have been sent.
    pub fn with_reorder(mut self, p: f64, window: u64) -> Self {
        self.reorder_prob = p;
        self.reorder_window = window;
        self
    }

    /// Add a one-way partition over eligible-send indices `[start, end)`.
    pub fn with_partition(mut self, start: u64, end: u64) -> Self {
        assert!(start <= end, "partition span must be ordered");
        self.partitions.push((start, end));
        self
    }

    /// Add a one-way partition lasting `len`, starting `start` after the
    /// transport is created. Timed partitions swallow *all* traffic (control
    /// included), so the peer's failure detector sees real silence.
    pub fn with_partition_for(mut self, start: Duration, len: Duration) -> Self {
        self.timed_partitions.push((start, start + len));
        self
    }

    /// Flip one payload byte of each delivered data-carrying message with
    /// probability `p` (wire corruption; the payload CRC catches it).
    pub fn with_corrupt(mut self, p: f64) -> Self {
        self.corrupt_prob = p;
        self
    }

    fn partitioned(&self, index: u64) -> bool {
        self.partitions
            .iter()
            .any(|&(start, end)| index >= start && index < end)
    }

    fn timed_partitioned(&self, elapsed: Duration) -> bool {
        self.timed_partitions
            .iter()
            .any(|&(start, end)| elapsed >= start && elapsed < end)
    }

    /// Only data-plane messages are disturbed; heartbeats and the recovery
    /// handshake always pass through.
    fn eligible(&self, msg: &Message) -> bool {
        matches!(
            msg,
            Message::Discard { .. }
                | Message::WriteReplBatch { .. }
                | Message::ReplAckBatch { .. }
                | Message::ReplNackBatch { .. }
        )
    }

    /// True when no latency is configured: every delivery is forwarded
    /// inline, in send order, and nothing pending waits on the clock.
    fn synchronous(&self) -> bool {
        self.base_delay.is_zero() && self.jitter.is_zero()
    }
}

/// What the fault layer decided to do with one eligible message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Forwarded (possibly late, possibly twice, possibly damaged).
    Deliver {
        /// Added latency in nanoseconds.
        delay_nanos: u64,
        /// A duplicate copy was also sent (the duplicate is always clean).
        dup: bool,
        /// One payload byte of the primary copy was flipped in flight.
        corrupt: bool,
    },
    /// Silently dropped.
    Drop,
    /// Swallowed by an active partition span.
    Partitioned,
    /// Held back for reordering; released after the eligible-send index
    /// reaches `release_at`.
    Held {
        /// Index at which the message is re-injected.
        release_at: u64,
    },
}

/// The sequence number recorded in the decision trace: data-plane seq, or
/// the echoed seq of an ack/nack.
fn fault_seq(msg: &Message) -> Option<u64> {
    match msg {
        Message::ReplNackBatch { seq, .. } => Some(*seq),
        Message::ReplAckBatch { up_to, .. } => Some(*up_to),
        m => m.data_seq(),
    }
}

/// One entry of the decision trace: what happened to eligible send `index`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRecord {
    /// Eligible-send index the decision applies to.
    pub index: u64,
    /// Data-plane sequence number of the message, if it carries one.
    pub seq: Option<u64>,
    /// The decision.
    pub action: FaultAction,
}

/// Aggregate fault counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Messages subject to fault decisions.
    pub eligible: u64,
    /// Eligible messages forwarded (excluding duplicates).
    pub delivered: u64,
    /// Eligible messages dropped by the `drop_prob` draw (exact loss of
    /// chosen messages is a partition span, counted in `partitioned`).
    pub dropped: u64,
    /// Extra copies sent by duplication.
    pub duplicated: u64,
    /// Messages held back for reordering.
    pub held: u64,
    /// Messages swallowed by partition spans (index-based and timed).
    pub partitioned: u64,
    /// Delivered messages whose payload was corrupted in flight.
    pub corrupted: u64,
    /// Control messages passed through untouched.
    pub passthrough: u64,
}

/// When a pending frame is due: after a later send's eligible index, or at
/// an instant.
enum Due {
    /// A held frame, re-injected once the eligible-send index reaches it.
    Index(u64),
    /// A delayed frame, forwarded at this instant.
    At(Instant),
}

struct FaultState {
    rng: DetRng,
    /// Count of eligible sends so far (the decision index).
    index: u64,
    /// Frames not yet forwarded — held and delayed alike — in send order.
    pending: Vec<(Due, Message)>,
    /// One record per eligible send: the source of [`FaultStats`].
    trace: Vec<FaultRecord>,
    /// Control frames passed through untouched.
    passthrough: u64,
    /// Control frames swallowed by a timed partition.
    control_partitioned: u64,
}

/// A [`Transport`] decorator that injects the faults described by a
/// [`FaultPlan`] into outbound traffic. Receiving and connectivity are
/// delegated to the wrapped transport (wrap both endpoints to disturb both
/// directions).
///
/// It has no thread. Held and delayed frames wait in one pending queue,
/// and whoever next calls [`Transport::send`] or
/// [`Transport::recv_timeout`] on this end forwards the ones that are due;
/// a receive caps each wait on the wrapped link at the next due time. A
/// frame still pending when this end's users stop calling — its node
/// crashed for good or shut down — is lost, like one in flight.
pub struct FaultTransport<T: Transport + Sync + 'static> {
    inner: T,
    plan: FaultPlan,
    state: Mutex<FaultState>,
    /// Reference point for [`FaultPlan::timed_partitions`].
    epoch: Instant,
}

impl<T: Transport + Sync + 'static> FaultTransport<T> {
    /// Wrap `inner`, disturbing its outbound messages per `plan`.
    pub fn new(inner: T, plan: FaultPlan) -> Self {
        let rng = DetRng::new(plan.seed);
        FaultTransport {
            inner,
            plan,
            state: Mutex::new(FaultState {
                rng,
                index: 0,
                pending: Vec::new(),
                trace: Vec::new(),
                passthrough: 0,
                control_partitioned: 0,
            }),
            epoch: Instant::now(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, FaultState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The decision trace so far (one record per eligible send).
    pub fn fault_trace(&self) -> Vec<FaultRecord> {
        self.lock().trace.clone()
    }

    /// Aggregate fault counters so far: a fold of the decision trace, plus
    /// the control frames it does not record.
    pub fn fault_stats(&self) -> FaultStats {
        let state = self.lock();
        let count = |hit: fn(FaultAction) -> bool| {
            state.trace.iter().filter(|r| hit(r.action)).count() as u64
        };
        FaultStats {
            eligible: state.trace.len() as u64,
            delivered: count(|a| matches!(a, FaultAction::Deliver { .. })),
            dropped: count(|a| a == FaultAction::Drop),
            duplicated: count(|a| matches!(a, FaultAction::Deliver { dup: true, .. })),
            held: count(|a| matches!(a, FaultAction::Held { .. })),
            partitioned: state.control_partitioned + count(|a| a == FaultAction::Partitioned),
            corrupted: count(|a| matches!(a, FaultAction::Deliver { corrupt: true, .. })),
            passthrough: state.passthrough,
        }
    }

    /// Forward now when the plan has no delay, else queue until due.
    fn forward(
        &self,
        state: &mut FaultState,
        msg: Message,
        delay: Duration,
    ) -> Result<(), TransportError> {
        if self.plan.synchronous() {
            return self.inner.send(msg);
        }
        state.pending.push((Due::At(Instant::now() + delay), msg));
        Ok(())
    }

    /// Forward every pending frame that is due — delayed ones in due order,
    /// then held ones in send order — stopping at the first send error (a
    /// closed link takes the rest with it).
    fn release_due(&self, state: &mut FaultState) -> Result<(), TransportError> {
        let (now, index) = (Instant::now(), state.index);
        let mut due: Vec<(Instant, Message)> = state
            .pending
            .extract_if(.., |(due, _)| match *due {
                Due::Index(at) => at <= index,
                Due::At(at) => at <= now,
            })
            .map(|(due, msg)| match due {
                Due::Index(_) => (now, msg),
                Due::At(at) => (at, msg),
            })
            .collect();
        due.sort_by_key(|&(at, _)| at);
        due.into_iter()
            .try_for_each(|(_, msg)| self.inner.send(msg))
    }

    /// Draw the added latency for one delivery.
    fn draw_delay(&self, rng: &mut DetRng) -> Duration {
        let mut d = self.plan.base_delay;
        if !self.plan.jitter.is_zero() {
            let j = self.plan.jitter.as_nanos() as f64 * rng.unit();
            d += Duration::from_nanos(j as u64);
        }
        d
    }

    /// Flip one payload byte of a data-carrying message (the embedded
    /// payload CRC is left stale on purpose — that is the corruption the
    /// receiver detects). Returns `None` when the message carries no
    /// corruptible payload.
    fn corrupt_copy(msg: &Message, rng: &mut DetRng) -> Option<Message> {
        let Message::WriteReplBatch {
            epoch,
            seq,
            entries,
        } = msg
        else {
            return None;
        };
        let candidates: Vec<usize> = (0..entries.len())
            .filter(|&i| !entries[i].3.is_empty())
            .collect();
        if candidates.is_empty() {
            return None;
        }
        let pick = candidates[rng.below(candidates.len() as u64) as usize];
        let mut entries = entries.clone();
        let mut v = entries[pick].3.to_vec();
        let i = rng.below(v.len() as u64) as usize;
        v[i] ^= 0xFF;
        entries[pick].3 = bytes::Bytes::from(v);
        Some(Message::WriteReplBatch {
            epoch: *epoch,
            seq: *seq,
            entries,
        })
    }

    /// Decide the fate of one eligible message — `dark` when a timed
    /// partition swallows it — record the decision, and forward, queue or
    /// discard the message. A partitioned message still takes an index and
    /// a record, so the trace stays aligned with the eligible sends.
    fn disturb(
        &self,
        state: &mut FaultState,
        msg: Message,
        dark: bool,
    ) -> Result<(), TransportError> {
        let index = state.index;
        state.index += 1;
        let seq = fault_seq(&msg);
        let plan = &self.plan;
        let (action, sent) = if dark || plan.partitioned(index) {
            (FaultAction::Partitioned, Ok(()))
        } else if plan.drop_prob > 0.0 && state.rng.chance(plan.drop_prob) {
            (FaultAction::Drop, Ok(()))
        } else if plan.reorder_window > 0
            && plan.reorder_prob > 0.0
            && state.rng.chance(plan.reorder_prob)
        {
            let release_at = index + plan.reorder_window;
            state.pending.push((Due::Index(release_at), msg));
            (FaultAction::Held { release_at }, Ok(()))
        } else {
            let dup = plan.dup_prob > 0.0 && state.rng.chance(plan.dup_prob);
            let delay = self.draw_delay(&mut state.rng);
            let copy = dup.then(|| (self.draw_delay(&mut state.rng), msg.clone()));
            // Corruption damages the primary copy only; a duplicate (like a
            // retransmission) is an independent transmission and goes clean.
            let damaged = if plan.corrupt_prob > 0.0 && state.rng.chance(plan.corrupt_prob) {
                Self::corrupt_copy(&msg, &mut state.rng)
            } else {
                None
            };
            let action = FaultAction::Deliver {
                delay_nanos: delay.as_nanos() as u64,
                dup,
                corrupt: damaged.is_some(),
            };
            let sent = self.forward(state, damaged.unwrap_or(msg), delay);
            if let Some((delay, msg)) = copy {
                let _ = self.forward(state, msg, delay);
            }
            (action, sent)
        };
        state.trace.push(FaultRecord { index, seq, action });
        sent
    }
}

impl<T: Transport + Sync + 'static> Transport for FaultTransport<T> {
    fn send(&self, msg: Message) -> Result<(), TransportError> {
        let mut state = self.lock();
        // Timed partitions model a real outage: they swallow everything,
        // control traffic included, and release nothing.
        let dark = self.plan.timed_partitioned(self.epoch.elapsed());
        if !self.plan.eligible(&msg) {
            if dark {
                state.control_partitioned += 1;
                return Ok(());
            }
            state.passthrough += 1;
            let released = self.release_due(&mut state);
            drop(state);
            return self.inner.send(msg).and(released);
        }
        let sent = self.disturb(&mut state, msg, dark);
        if dark {
            return sent;
        }
        // Pending frames now due — held ones whose window this send closed,
        // delayed ones whose time came — re-enter the stream.
        sent.and(self.release_due(&mut state))
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Option<Message>, TransportError> {
        // Without a delay nothing waits on the clock: only a send releases
        // a held frame.
        if self.plan.synchronous() {
            return self.inner.recv_timeout(timeout);
        }
        let started = Instant::now();
        loop {
            let next_due = {
                let mut state = self.lock();
                let _ = self.release_due(&mut state);
                state
                    .pending
                    .iter()
                    .filter_map(|(due, _)| match *due {
                        Due::At(at) => Some(at),
                        Due::Index(_) => None,
                    })
                    .min()
            };
            let left = timeout.saturating_sub(started.elapsed());
            let wait = next_due.map_or(left, |at| {
                at.saturating_duration_since(Instant::now()).min(left)
            });
            if let Some(msg) = self.inner.recv_timeout(wait)? {
                return Ok(Some(msg));
            }
            if started.elapsed() >= timeout {
                return Ok(None);
            }
        }
    }

    fn is_connected(&self) -> bool {
        self.inner.is_connected()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::mem_pair;
    use bytes::Bytes;

    const SHORT: Duration = Duration::from_millis(300);

    /// The sample data-plane frame: a one-entry replication batch.
    fn write_repl(seq: u64) -> Message {
        Message::WriteReplBatch {
            epoch: 1,
            seq,
            entries: vec![crate::wire::resync_entry(
                seq,
                1,
                Bytes::from_static(b"xyzw"),
            )],
        }
    }

    /// Whether every page of a delivered batch still matches its CRC.
    fn intact_batch(m: &Message) -> bool {
        let Message::WriteReplBatch { entries, .. } = m else {
            panic!("not a batch: {m:?}");
        };
        crate::wire::damaged(entries) == 0
    }

    fn drain(t: &impl Transport, window: Duration) -> Vec<Message> {
        let deadline = Instant::now() + window;
        let mut got = Vec::new();
        while Instant::now() < deadline {
            match t.recv_timeout(Duration::from_millis(20)) {
                Ok(Some(m)) => got.push(m),
                Ok(None) => {}
                Err(_) => break,
            }
        }
        got
    }

    #[test]
    fn clean_plan_is_transparent() {
        let (a, b) = mem_pair();
        let f = FaultTransport::new(a, FaultPlan::new(1));
        for s in 1..=5 {
            f.send(write_repl(s)).unwrap();
        }
        let got = drain(&b, Duration::from_millis(100));
        assert_eq!(got.len(), 5);
        assert_eq!(got[0].data_seq(), Some(1));
        assert_eq!(got[4].data_seq(), Some(5));
        let st = f.fault_stats();
        assert_eq!(st.delivered, 5);
        assert_eq!(st.dropped + st.duplicated + st.held + st.partitioned, 0);
    }

    #[test]
    fn control_traffic_bypasses_faults() {
        let (a, b) = mem_pair();
        // Drop *everything* eligible; heartbeats must still flow.
        let f = FaultTransport::new(a, FaultPlan::new(7).with_drop(1.0));
        f.send(write_repl(1)).unwrap();
        f.send(Message::Heartbeat {
            from: 0,
            at_millis: 1,
            credits: 0,
        })
        .unwrap();
        let got = drain(&b, Duration::from_millis(100));
        assert_eq!(
            got,
            vec![Message::Heartbeat {
                from: 0,
                at_millis: 1,
                credits: 0,
            }]
        );
        assert_eq!(f.fault_stats().passthrough, 1);
        assert_eq!(f.fault_stats().dropped, 1);
    }

    #[test]
    fn duplication_sends_two_copies() {
        let (a, b) = mem_pair();
        let f = FaultTransport::new(a, FaultPlan::new(3).with_dup(1.0));
        f.send(write_repl(9)).unwrap();
        let got = drain(&b, Duration::from_millis(100));
        assert_eq!(got.len(), 2);
        assert_eq!(got[0], got[1]);
        assert_eq!(f.fault_stats().duplicated, 1);
    }

    #[test]
    fn reordering_holds_within_bounded_window() {
        let (a, b) = mem_pair();
        let f = FaultTransport::new(a, FaultPlan::new(5).with_reorder(0.5, 2));
        for s in 1..=40 {
            f.send(write_repl(s)).unwrap();
        }
        let got = drain(&b, Duration::from_millis(200));
        let seqs: Vec<u64> = got.iter().map(|m| m.data_seq().unwrap()).collect();
        let held = f.fault_stats().held;
        assert!(held > 0, "plan should have held something");
        // Bounded reordering: every message arrives, none displaced by more
        // than the window (+ concurrent helds).
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        for (pos, &s) in seqs.iter().enumerate() {
            let natural = (s - 1) as i64;
            assert!(
                (pos as i64 - natural).abs() <= 2 + held as i64,
                "seq {s} displaced too far (pos {pos})"
            );
        }
        assert_ne!(seqs, sorted, "seed 5 should reorder at least one pair");
    }

    /// A span swallows exactly its sends; one starting at 0 is exact loss
    /// of the first messages.
    #[test]
    fn partition_swallows_span_then_heals() {
        for ((start, end), delivered) in [((1, 3), vec![1, 4, 5]), ((0, 3), vec![4, 5])] {
            let (a, b) = mem_pair();
            let f = FaultTransport::new(a, FaultPlan::new(2).with_partition(start, end));
            for s in 1..=5 {
                f.send(write_repl(s)).unwrap();
            }
            let got = drain(&b, Duration::from_millis(100));
            assert_eq!(
                got.iter()
                    .map(|m| m.data_seq().unwrap())
                    .collect::<Vec<_>>(),
                delivered
            );
            let st = f.fault_stats();
            assert_eq!((st.partitioned, st.dropped), (end - start, 0));
        }
    }

    #[test]
    fn delayed_delivery_arrives_late_but_arrives() {
        let (a, b) = mem_pair();
        let f = FaultTransport::new(
            a,
            FaultPlan::new(4).with_delay(Duration::from_millis(50), Duration::ZERO),
        );
        let t0 = Instant::now();
        f.send(write_repl(1)).unwrap();
        assert_eq!(b.recv_timeout(Duration::from_millis(5)).unwrap(), None);
        // The sending end's own receive delivers the frame when it is due.
        let _ = f.recv_timeout(Duration::from_millis(100));
        let got = b.recv_timeout(SHORT).unwrap();
        assert_eq!(got, Some(write_repl(1)));
        assert!(t0.elapsed() >= Duration::from_millis(45));
    }

    #[test]
    fn same_seed_same_plan_identical_trace() {
        let run = || {
            let (a, _b) = mem_pair();
            let f = FaultTransport::new(
                a,
                FaultPlan::new(0xFEED)
                    .with_drop(0.2)
                    .with_dup(0.2)
                    .with_reorder(0.2, 3),
            );
            for s in 1..=64 {
                f.send(write_repl(s)).unwrap();
            }
            (f.fault_trace(), f.fault_stats())
        };
        let (t1, s1) = run();
        let (t2, s2) = run();
        assert_eq!(t1, t2, "decision trace must be reproducible");
        assert_eq!(s1, s2);
        assert!(!t1.is_empty());
    }

    #[test]
    fn different_seeds_diverge() {
        let run = |seed| {
            let (a, _b) = mem_pair();
            let f = FaultTransport::new(a, FaultPlan::new(seed).with_drop(0.5));
            for s in 1..=64 {
                f.send(write_repl(s)).unwrap();
            }
            f.fault_trace()
        };
        assert_ne!(run(1), run(2), "seeds should matter");
    }

    #[test]
    fn corruption_damages_exactly_the_traced_copies() {
        let (a, b) = mem_pair();
        let f = FaultTransport::new(a, FaultPlan::new(11).with_corrupt(0.5));
        let n = 64;
        for s in 1..=n {
            f.send(write_repl(s)).unwrap();
        }
        let corrupted: u64 = f
            .fault_trace()
            .iter()
            .filter(|r| matches!(r.action, FaultAction::Deliver { corrupt: true, .. }))
            .count() as u64;
        assert!(corrupted > 0, "p=0.5 over 64 sends must corrupt something");
        assert!(corrupted < n, "and must leave something clean");
        assert_eq!(f.fault_stats().corrupted, corrupted);
        // Every delivered message either verifies or is one of the damaged ones.
        let got = drain(&b, Duration::from_millis(200));
        assert_eq!(got.len() as u64, n);
        let bad = got.iter().filter(|m| !intact_batch(m)).count() as u64;
        assert_eq!(bad, corrupted, "stale payload CRC must expose each flip");
    }

    #[test]
    fn corruption_is_deterministic_per_seed() {
        let run = || {
            let (a, b) = mem_pair();
            let f = FaultTransport::new(a, FaultPlan::new(5).with_corrupt(0.3));
            for s in 1..=32 {
                f.send(write_repl(s)).unwrap();
            }
            (f.fault_trace(), drain(&b, Duration::from_millis(200)))
        };
        assert_eq!(run(), run(), "same seed, same flips, same bytes");
    }

    #[test]
    fn duplicate_copy_stays_clean_when_primary_is_corrupted() {
        let (a, b) = mem_pair();
        // Force both dup and corrupt on every send.
        let f = FaultTransport::new(a, FaultPlan::new(3).with_dup(1.0).with_corrupt(1.0));
        f.send(write_repl(7)).unwrap();
        let got = drain(&b, Duration::from_millis(200));
        assert_eq!(got.len(), 2, "primary + duplicate");
        let clean = got.iter().filter(|m| intact_batch(m)).count();
        let bad = got.len() - clean;
        assert_eq!((clean, bad), (1, 1), "exactly one copy is damaged");
    }

    #[test]
    fn timed_partition_swallows_all_traffic_then_heals() {
        let (a, b) = mem_pair();
        let f = FaultTransport::new(
            a,
            FaultPlan::new(1).with_partition_for(Duration::ZERO, Duration::from_millis(80)),
        );
        // Inside the window: both data and control vanish.
        f.send(write_repl(1)).unwrap();
        f.send(Message::Heartbeat {
            from: 0,
            at_millis: 1,
            credits: 0,
        })
        .unwrap();
        assert!(drain(&b, Duration::from_millis(40)).is_empty());
        assert_eq!(f.fault_stats().partitioned, 2);
        // After the window closes the link heals.
        std::thread::sleep(Duration::from_millis(100));
        f.send(write_repl(2)).unwrap();
        let got = drain(&b, Duration::from_millis(100));
        assert_eq!(got, vec![write_repl(2)]);
    }

    #[test]
    fn corrupt_zero_prob_keeps_legacy_traces_identical() {
        let run = |plan: FaultPlan| {
            let (a, _b) = mem_pair();
            let f = FaultTransport::new(a, plan);
            for s in 1..=64 {
                f.send(write_repl(s)).unwrap();
            }
            f.fault_trace()
        };
        let legacy = run(FaultPlan::new(9).with_drop(0.2).with_dup(0.2));
        let gated = run(FaultPlan::new(9)
            .with_drop(0.2)
            .with_dup(0.2)
            .with_corrupt(0.0));
        assert_eq!(legacy, gated, "p=0 must not consume RNG draws");
    }

    /// One seeded plan that takes every action kind: delivery (delayed,
    /// duplicated, corrupted), drop, hold, an index partition and a timed
    /// one, which also swallows a control frame. Its trace and counters
    /// are pinned record by record.
    #[test]
    fn every_action_kind_is_pinned() {
        let plan = FaultPlan::new(0x5EED)
            .with_drop(0.15)
            .with_dup(0.2)
            .with_delay(Duration::from_micros(100), Duration::from_micros(400))
            .with_reorder(0.15, 2)
            .with_corrupt(0.25)
            .with_partition(6, 8)
            .with_partition_for(Duration::from_millis(150), Duration::from_secs(3600));
        let (a, _b) = mem_pair();
        let f = FaultTransport::new(a, plan);
        let beat = Message::Heartbeat {
            from: 0,
            at_millis: 1,
            credits: 0,
        };
        for s in 1..=20 {
            f.send(write_repl(s)).unwrap();
        }
        f.send(beat.clone()).unwrap();
        // Past the timed partition's start: data and control both vanish.
        std::thread::sleep(Duration::from_millis(200));
        for s in 21..=23 {
            f.send(write_repl(s)).unwrap();
        }
        f.send(beat).unwrap();
        let render = |r: &FaultRecord| {
            let seq = r.seq.map_or("-".to_string(), |s| s.to_string());
            let action = match r.action {
                FaultAction::Deliver {
                    delay_nanos,
                    dup,
                    corrupt,
                } => format!(
                    "deliver {delay_nanos}ns{}{}",
                    if dup { " dup" } else { "" },
                    if corrupt { " corrupt" } else { "" }
                ),
                FaultAction::Drop => "drop".to_string(),
                FaultAction::Partitioned => "partitioned".to_string(),
                FaultAction::Held { release_at } => format!("held until {release_at}"),
            };
            format!("{} s{seq} {action}", r.index)
        };
        let trace: Vec<String> = f.fault_trace().iter().map(render).collect();
        assert_eq!(
            trace,
            [
                "0 s1 deliver 274950ns dup",
                "1 s2 deliver 424749ns dup",
                "2 s3 deliver 112657ns dup",
                "3 s4 drop",
                "4 s5 deliver 318030ns",
                "5 s6 deliver 475521ns dup",
                "6 s7 partitioned",
                "7 s8 partitioned",
                "8 s9 deliver 122013ns",
                "9 s10 deliver 139297ns",
                "10 s11 deliver 215713ns corrupt",
                "11 s12 deliver 427633ns",
                "12 s13 deliver 185326ns",
                "13 s14 held until 15",
                "14 s15 deliver 203417ns corrupt",
                "15 s16 deliver 217126ns",
                "16 s17 deliver 470365ns",
                "17 s18 deliver 350921ns corrupt",
                "18 s19 deliver 235660ns corrupt",
                "19 s20 held until 21",
                "20 s21 partitioned",
                "21 s22 partitioned",
                "22 s23 partitioned",
            ]
        );
        assert_eq!(
            f.fault_stats(),
            FaultStats {
                eligible: 23,
                delivered: 15,
                dropped: 1,
                duplicated: 4,
                held: 2,
                partitioned: 6,
                corrupted: 4,
                passthrough: 1,
            }
        );
    }

    /// The counters are the trace, folded, plus the two control counts the
    /// trace does not hold.
    #[test]
    fn stats_are_a_fold_of_the_trace() {
        let (a, _b) = mem_pair();
        let f = FaultTransport::new(
            a,
            FaultPlan::new(0xFEED)
                .with_drop(0.2)
                .with_dup(0.2)
                .with_reorder(0.2, 3)
                .with_corrupt(0.2)
                .with_partition(10, 14)
                .with_partition_for(Duration::from_millis(150), Duration::from_secs(3600)),
        );
        let beat = Message::Heartbeat {
            from: 0,
            at_millis: 1,
            credits: 0,
        };
        for s in 1..=64 {
            f.send(write_repl(s)).unwrap();
            if s % 8 == 0 {
                f.send(beat.clone()).unwrap();
            }
        }
        std::thread::sleep(Duration::from_millis(200));
        for s in 65..=70 {
            f.send(write_repl(s)).unwrap();
            f.send(beat.clone()).unwrap();
        }
        let (passthrough, control_partitioned) = {
            let state = f.lock();
            (state.passthrough, state.control_partitioned)
        };
        assert_eq!((passthrough, control_partitioned), (8, 6));
        let mut folded = FaultStats {
            passthrough,
            partitioned: control_partitioned,
            ..FaultStats::default()
        };
        for r in f.fault_trace() {
            folded.eligible += 1;
            match r.action {
                FaultAction::Deliver { dup, corrupt, .. } => {
                    folded.delivered += 1;
                    folded.duplicated += u64::from(dup);
                    folded.corrupted += u64::from(corrupt);
                }
                FaultAction::Drop => folded.dropped += 1,
                FaultAction::Partitioned => folded.partitioned += 1,
                FaultAction::Held { .. } => folded.held += 1,
            }
        }
        assert_eq!(f.fault_stats(), folded);
        assert_eq!(folded.eligible, 70);
    }

    /// A delayed frame waits for this end's users: nobody calling, nothing
    /// arrives, however late; a receive on the sending end that spans the
    /// due time forwards it then, not before.
    #[test]
    fn a_delayed_frame_moves_only_when_its_end_is_used() {
        let delay = Duration::from_millis(40);
        let (a, b) = mem_pair();
        let f = FaultTransport::new(a, FaultPlan::new(4).with_delay(delay, Duration::ZERO));
        f.send(write_repl(1)).unwrap();
        std::thread::sleep(2 * delay);
        assert_eq!(b.recv_timeout(Duration::from_millis(20)).unwrap(), None);
        assert_eq!(f.recv_timeout(Duration::ZERO).unwrap(), None);
        assert_eq!(b.recv_timeout(Duration::ZERO).unwrap(), Some(write_repl(1)));

        let sent = Instant::now();
        f.send(write_repl(2)).unwrap();
        let arrived = std::thread::scope(|s| {
            s.spawn(|| f.recv_timeout(3 * delay));
            let got = b.recv_timeout(SHORT).unwrap();
            assert_eq!(got, Some(write_repl(2)));
            sent.elapsed()
        });
        assert!(
            arrived >= delay,
            "arrived after {arrived:?}, due after {delay:?}"
        );
    }
}
