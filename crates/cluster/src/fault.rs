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

use crate::transport::{Transport, TransportError};
use crate::wire::Message;
use fc_obs::Obs;
use fc_simkit::DetRng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
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
    /// Deterministically drop the first `drop_first` eligible messages
    /// (before any probabilistic decision). Drives exact retry tests.
    pub drop_first: u64,
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

    /// Deterministically drop the first `n` eligible messages.
    pub fn with_drop_first(mut self, n: u64) -> Self {
        self.drop_first = n;
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

    /// True when every delivery can bypass the delivery worker (no latency
    /// configured), which preserves synchronous FIFO order.
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
    /// Eligible messages dropped (probabilistic + `drop_first`).
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

struct FaultState {
    rng: DetRng,
    /// Count of eligible sends so far (the decision index).
    index: u64,
    /// Held-back messages: (release-at index, message).
    held: Vec<(u64, Message)>,
    trace: Vec<FaultRecord>,
    stats: FaultStats,
    /// Tiebreak counter so equal-due deliveries stay FIFO.
    next_order: u64,
}

struct Delivery {
    due: Instant,
    order: u64,
    msg: Message,
}

impl PartialEq for Delivery {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.order == other.order
    }
}
impl Eq for Delivery {}
impl PartialOrd for Delivery {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Delivery {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.due, self.order).cmp(&(other.due, other.order))
    }
}

struct DeliveryQueue {
    heap: Mutex<BinaryHeap<Reverse<Delivery>>>,
    ready: Condvar,
    shutdown: AtomicBool,
}

/// A [`Transport`] decorator that injects the faults described by a
/// [`FaultPlan`] into outbound traffic. Receiving and connectivity are
/// delegated to the wrapped transport untouched (wrap both endpoints to
/// disturb both directions).
pub struct FaultTransport<T: Transport + Sync + 'static> {
    inner: Arc<T>,
    plan: FaultPlan,
    state: Mutex<FaultState>,
    queue: Arc<DeliveryQueue>,
    worker: Option<JoinHandle<()>>,
    obs: Option<Obs>,
    /// Reference point for [`FaultPlan::timed_partitions`].
    epoch: Instant,
}

impl<T: Transport + Sync + 'static> FaultTransport<T> {
    /// Wrap `inner`, disturbing its outbound messages per `plan`.
    pub fn new(inner: T, plan: FaultPlan) -> Self {
        let inner = Arc::new(inner);
        let queue = Arc::new(DeliveryQueue {
            heap: Mutex::new(BinaryHeap::new()),
            ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let worker = {
            let inner = inner.clone();
            let queue = queue.clone();
            std::thread::Builder::new()
                .name("fc-fault-delivery".into())
                .spawn(move || delivery_loop(inner, queue))
                .expect("spawn fault delivery thread")
        };
        let rng = DetRng::new(plan.seed);
        FaultTransport {
            inner,
            plan,
            state: Mutex::new(FaultState {
                rng,
                index: 0,
                held: Vec::new(),
                trace: Vec::new(),
                stats: FaultStats::default(),
                next_order: 0,
            }),
            queue,
            worker: Some(worker),
            obs: None,
            epoch: Instant::now(),
        }
    }

    /// Attach observability before handing the transport to a node: every
    /// fault decision is mirrored as a wall-stamped `cluster.fault`/
    /// `decision` event tagged with the plan's seed and the eligible-send
    /// index — exactly one event per [`FaultRecord`], in trace order.
    /// To keep a queryable handle while a [`crate::Node`] owns the
    /// transport, wrap it in an [`Arc`] and spawn the node over a clone.
    pub fn attach_obs(&mut self, obs: &Obs) {
        self.obs = Some(obs.clone());
    }

    /// Mirror one decision into the obs stream.
    fn emit_decision(&self, index: u64, seq: Option<u64>, action: FaultAction) {
        let Some(o) = &self.obs else { return };
        let mut ev = o
            .wall_event("cluster.fault", "decision")
            .u64_field("seed", self.plan.seed)
            .u64_field("index", index);
        if let Some(s) = seq {
            ev = ev.u64_field("seq", s);
        }
        ev = match action {
            FaultAction::Deliver {
                delay_nanos,
                dup,
                corrupt,
            } => ev
                .str_field("action", "deliver")
                .u64_field("delay_ns", delay_nanos)
                .bool_field("dup", dup)
                .bool_field("corrupt", corrupt),
            FaultAction::Drop => ev.str_field("action", "drop"),
            FaultAction::Partitioned => ev.str_field("action", "partitioned"),
            FaultAction::Held { release_at } => ev
                .str_field("action", "held")
                .u64_field("release_at", release_at),
        };
        o.emit(ev);
    }

    /// The decision trace so far (one record per eligible send).
    pub fn fault_trace(&self) -> Vec<FaultRecord> {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .trace
            .clone()
    }

    /// Aggregate fault counters so far.
    pub fn fault_stats(&self) -> FaultStats {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).stats
    }

    /// Forward now (synchronously when the plan allows it) or enqueue for
    /// the delivery worker.
    fn forward(
        &self,
        state: &mut FaultState,
        msg: Message,
        delay: Duration,
    ) -> Result<(), TransportError> {
        if delay.is_zero() && self.plan.synchronous() {
            return self.inner.send(msg);
        }
        let order = state.next_order;
        state.next_order += 1;
        let mut heap = self.queue.heap.lock().unwrap_or_else(|e| e.into_inner());
        heap.push(Reverse(Delivery {
            due: Instant::now() + delay,
            order,
            msg,
        }));
        drop(heap);
        self.queue.ready.notify_one();
        Ok(())
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
    fn corrupt_copy(msg: &Message, rng: &mut fc_simkit::DetRng) -> Option<Message> {
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

    /// Release every held-back message whose window has expired.
    fn release_due(&self, state: &mut FaultState) -> Result<(), TransportError> {
        let index = state.index;
        let mut i = 0;
        while i < state.held.len() {
            if state.held[i].0 <= index {
                let (_, msg) = state.held.remove(i);
                self.forward(state, msg, Duration::ZERO)?;
            } else {
                i += 1;
            }
        }
        Ok(())
    }
}

impl<T: Transport + Sync + 'static> Transport for FaultTransport<T> {
    fn send(&self, msg: Message) -> Result<(), TransportError> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());

        // Timed partitions model a real outage: they swallow everything,
        // control traffic included. Eligible
        // messages still consume an index and a trace entry so the decision
        // trace stays aligned with the eligible-send sequence.
        if self.plan.timed_partitioned(self.epoch.elapsed()) {
            state.stats.partitioned += 1;
            if self.plan.eligible(&msg) {
                let index = state.index;
                state.index += 1;
                state.stats.eligible += 1;
                let seq = fault_seq(&msg);
                state.trace.push(FaultRecord {
                    index,
                    seq,
                    action: FaultAction::Partitioned,
                });
                self.emit_decision(index, seq, FaultAction::Partitioned);
            }
            return Ok(());
        }

        if !self.plan.eligible(&msg) {
            state.stats.passthrough += 1;
            drop(state);
            return self.inner.send(msg);
        }

        let index = state.index;
        state.index += 1;
        state.stats.eligible += 1;
        let seq = fault_seq(&msg);
        let record = |state: &mut FaultState, action: FaultAction| {
            state.trace.push(FaultRecord { index, seq, action });
            self.emit_decision(index, seq, action);
        };

        let result = if self.plan.partitioned(index) {
            state.stats.partitioned += 1;
            record(&mut state, FaultAction::Partitioned);
            Ok(())
        } else if index < self.plan.drop_first
            || (self.plan.drop_prob > 0.0 && state.rng.chance(self.plan.drop_prob))
        {
            state.stats.dropped += 1;
            record(&mut state, FaultAction::Drop);
            Ok(())
        } else if self.plan.reorder_window > 0
            && self.plan.reorder_prob > 0.0
            && state.rng.chance(self.plan.reorder_prob)
        {
            let release_at = index + self.plan.reorder_window;
            state.stats.held += 1;
            record(&mut state, FaultAction::Held { release_at });
            state.held.push((release_at, msg));
            Ok(())
        } else {
            let dup = self.plan.dup_prob > 0.0 && state.rng.chance(self.plan.dup_prob);
            let delay = self.draw_delay(&mut state.rng);
            let dup_delay = if dup {
                self.draw_delay(&mut state.rng)
            } else {
                Duration::ZERO
            };
            // Corruption damages the primary copy only; a duplicate (like a
            // retransmission) is an independent transmission and goes clean.
            let damaged =
                if self.plan.corrupt_prob > 0.0 && state.rng.chance(self.plan.corrupt_prob) {
                    Self::corrupt_copy(&msg, &mut state.rng)
                } else {
                    None
                };
            let corrupt = damaged.is_some();
            state.stats.delivered += 1;
            if dup {
                state.stats.duplicated += 1;
            }
            if corrupt {
                state.stats.corrupted += 1;
            }
            record(
                &mut state,
                FaultAction::Deliver {
                    delay_nanos: delay.as_nanos() as u64,
                    dup,
                    corrupt,
                },
            );
            let primary = damaged.unwrap_or_else(|| msg.clone());
            let first = self.forward(&mut state, primary, delay);
            if dup {
                let _ = self.forward(&mut state, msg, dup_delay);
            }
            first
        };

        // Held-back messages whose window expired re-enter the stream.
        let released = self.release_due(&mut state);
        result.and(released)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Option<Message>, TransportError> {
        self.inner.recv_timeout(timeout)
    }

    fn is_connected(&self) -> bool {
        self.inner.is_connected()
    }
}

impl<T: Transport + Sync + 'static> Drop for FaultTransport<T> {
    fn drop(&mut self) {
        self.queue.shutdown.store(true, Ordering::SeqCst);
        self.queue.ready.notify_all();
        if let Some(h) = self.worker.take() {
            let _ = h.join();
        }
    }
}

/// Delivery worker: forwards queued messages when they fall due (messages
/// still in the queue at shutdown were "in flight" and are lost, like a real
/// crash).
fn delivery_loop<T: Transport + Sync>(inner: Arc<T>, queue: Arc<DeliveryQueue>) {
    let mut heap = queue.heap.lock().unwrap_or_else(|e| e.into_inner());
    loop {
        if queue.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let now = Instant::now();
        let next_due = heap.peek().map(|Reverse(d)| d.due);
        match next_due {
            Some(due) if due <= now => {
                let Reverse(d) = heap.pop().expect("peeked entry");
                drop(heap);
                let _ = inner.send(d.msg);
                heap = queue.heap.lock().unwrap_or_else(|e| e.into_inner());
            }
            Some(due) => {
                let (g, _) = queue
                    .ready
                    .wait_timeout(heap, due - now)
                    .unwrap_or_else(|e| e.into_inner());
                heap = g;
            }
            None => {
                let (g, _) = queue
                    .ready
                    .wait_timeout(heap, Duration::from_millis(50))
                    .unwrap_or_else(|e| e.into_inner());
                heap = g;
            }
        }
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
    fn drop_first_drops_exactly_n() {
        let (a, b) = mem_pair();
        let f = FaultTransport::new(a, FaultPlan::new(1).with_drop_first(3));
        for s in 1..=5 {
            f.send(write_repl(s)).unwrap();
        }
        let got = drain(&b, Duration::from_millis(100));
        assert_eq!(
            got.iter()
                .map(|m| m.data_seq().unwrap())
                .collect::<Vec<_>>(),
            vec![4, 5]
        );
        assert_eq!(f.fault_stats().dropped, 3);
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

    #[test]
    fn partition_swallows_span_then_heals() {
        let (a, b) = mem_pair();
        let f = FaultTransport::new(a, FaultPlan::new(2).with_partition(1, 3));
        for s in 1..=5 {
            f.send(write_repl(s)).unwrap();
        }
        let got = drain(&b, Duration::from_millis(100));
        assert_eq!(
            got.iter()
                .map(|m| m.data_seq().unwrap())
                .collect::<Vec<_>>(),
            vec![1, 4, 5]
        );
        assert_eq!(f.fault_stats().partitioned, 2);
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
    fn obs_decision_events_match_byte_identical_trace() {
        // The chaos suite's reproducibility contract extended to the obs
        // stream: the `cluster.fault` decision events must reconstruct the
        // FaultRecord trace exactly — same order, same indices, same seqs,
        // same actions — for a seeded plan exercising every action kind.
        use fc_obs::Value;
        let plan = FaultPlan::new(0xFEED)
            .with_drop(0.2)
            .with_dup(0.2)
            .with_reorder(0.2, 3)
            .with_partition(10, 14);
        let (a, _b) = mem_pair();
        let (obs, ring) = Obs::ring(256);
        let mut f = FaultTransport::new(a, plan.clone());
        f.attach_obs(&obs);
        for s in 1..=64 {
            f.send(write_repl(s)).unwrap();
        }
        let trace = f.fault_trace();
        assert!(!trace.is_empty());
        let events = ring.events();
        let decisions: Vec<_> = events
            .iter()
            .filter(|e| e.component == "cluster.fault" && e.kind == "decision")
            .collect();
        assert_eq!(decisions.len(), trace.len());

        let rebuilt: Vec<FaultRecord> = decisions
            .iter()
            .map(|e| {
                let g = |n: &str| e.get(n).and_then(Value::as_u64);
                assert_eq!(g("seed"), Some(plan.seed));
                let action = match e.get("action").and_then(Value::as_str).unwrap() {
                    "deliver" => FaultAction::Deliver {
                        delay_nanos: g("delay_ns").unwrap(),
                        dup: e.get("dup").and_then(Value::as_bool).unwrap(),
                        corrupt: e.get("corrupt").and_then(Value::as_bool).unwrap(),
                    },
                    "drop" => FaultAction::Drop,
                    "partitioned" => FaultAction::Partitioned,
                    "held" => FaultAction::Held {
                        release_at: g("release_at").unwrap(),
                    },
                    other => panic!("unknown action {other}"),
                };
                FaultRecord {
                    index: g("index").unwrap(),
                    seq: g("seq"),
                    action,
                }
            })
            .collect();
        assert_eq!(rebuilt, trace, "obs stream must mirror the decision trace");
        // Every action kind actually occurred, so the mapping is exercised.
        assert!(trace
            .iter()
            .any(|r| matches!(r.action, FaultAction::Deliver { .. })));
        assert!(trace.iter().any(|r| r.action == FaultAction::Drop));
        assert!(trace.iter().any(|r| r.action == FaultAction::Partitioned));
        assert!(trace
            .iter()
            .any(|r| matches!(r.action, FaultAction::Held { .. })));
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
}
