//! What the node does with what the peer sends: one `Inner` method per
//! frame kind that changes node state, plus the pump's timer tick. Each
//! takes the clock as an argument and *returns* its reply — `pump.rs` sends
//! it after the guard drops — so the handlers run without a thread, a
//! transport or a sleep (see the tests).

use super::state::Inner;
use crate::wire::{Message, NackReason, ResyncEntry, SeqStatus};
use std::collections::BTreeSet;
use std::time::Instant;

/// Receiver-side state for the pipelined replication stream: one
/// contiguous per-epoch sequence space, acknowledged cumulatively. Reset
/// when the sender abandons an epoch (`ReplPipe::reset`) and a
/// higher-epoch frame arrives.
#[derive(Debug, Default)]
pub(super) struct BatchRx {
    epoch: u32,
    /// Highest contiguously applied batch seq this epoch.
    cum: u64,
    /// Applied-but-not-yet-contiguous seqs (reordered arrivals waiting for
    /// the gap below them to fill).
    seen: BTreeSet<u64>,
}

impl BatchRx {
    fn is_duplicate(&self, seq: u64) -> bool {
        seq <= self.cum || self.seen.contains(&seq)
    }

    /// Record an applied batch. In order, it advances the frontier through
    /// any batches that arrived ahead of it; ahead of a gap it is stashed
    /// and `false` comes back.
    fn record(&mut self, seq: u64) -> bool {
        if seq != self.cum + 1 {
            self.seen.insert(seq);
            return false;
        }
        self.cum = seq;
        while self.seen.remove(&(self.cum + 1)) {
            self.cum += 1;
        }
        true
    }
}

impl Inner {
    /// A `WriteReplBatch` from the peer, `damaged` of whose entries failed
    /// their CRC. Returns the ack or NACK, or `None` for a stale epoch.
    pub(super) fn on_batch(
        &mut self,
        epoch: u32,
        seq: u64,
        entries: Vec<ResyncEntry>,
        damaged: u64,
    ) -> Option<Message> {
        if epoch < self.batch_rx.epoch {
            // The sender already abandoned that window and restarted its
            // seq space; replying would corrupt the new epoch's
            // cumulative-ack stream.
            return None;
        }
        if epoch > self.batch_rx.epoch {
            // The sender reset its pipeline (abandon after exhausted
            // retries, or a node restart): adopt the fresh contiguous seq
            // space from 1.
            self.batch_rx = BatchRx {
                epoch,
                ..BatchRx::default()
            };
        }
        let nack = |reason| Some(Message::ReplNackBatch { epoch, seq, reason });
        if damaged > 0 {
            // Reject before recording the seq, so the clean retransmission
            // is not mistaken for a duplicate.
            self.obs.corruptions_detected.add(damaged);
            self.note("corrupt_detected", |e| {
                e.u64_field("seq", seq)
                    .u64_field("entries", damaged)
                    .str_field("msg", "write_repl_batch")
            });
            return nack(NackReason::Corrupt);
        }
        if self.batch_rx.is_duplicate(seq) {
            // Retransmission whose ack was the casualty: already applied,
            // re-advertise the cumulative frontier.
            self.note_duplicate(seq, "write_repl_batch");
        } else {
            let newest = entries.iter().map(|(_, version, ..)| *version).max();
            if let Err(new_pages) = self.hosted.admit(entries) {
                self.obs.credit_rejections.inc();
                self.note("credit_reject", |e| {
                    e.u64_field("seq", seq).u64_field("pages", new_pages as u64)
                });
                return nack(NackReason::NoCredit);
            }
            if let Some(version) = newest {
                self.observe_version(version);
            }
            if !self.batch_rx.record(seq) {
                self.obs.reorders_healed.inc();
            }
        }
        Some(Message::ReplAckBatch {
            epoch,
            up_to: self.batch_rx.cum,
            credits: self.hosted.credits(),
        })
    }

    /// A `Discard` from the peer: it flushed (or deleted) these pages up
    /// to these versions, so the hosted copies are redundant.
    pub(super) fn on_discard(&mut self, seq: u64, pages: Vec<(u64, u64)>) {
        match self.peer_seqs.observe(seq) {
            SeqStatus::Duplicate => return self.note_duplicate(seq, "discard"),
            SeqStatus::NewOutOfOrder => self.obs.reorders_healed.inc(),
            SeqStatus::New => {}
        }
        for (lpn, bound) in pages {
            if bound != u64::MAX {
                self.observe_version(bound);
            }
            self.hosted.discard(lpn, bound);
        }
    }

    /// A heartbeat from the peer, advertising its hosting credits. Returns
    /// the frame answering the lifecycle's ask sends, if any (a beat asks
    /// at most to rejoin, which sends nothing).
    pub(super) fn on_heartbeat(&mut self, credits: u32, now: Instant) -> Option<Message> {
        self.credits = Some(credits);
        let ask = self.lifecycle.beat(now);
        self.answer(ask)
    }

    /// The pump's per-iteration tick: failure detection and rejoin. Returns
    /// the Discard of a solo entry it caused, if any.
    pub(super) fn on_tick(&mut self, now: Instant) -> Option<Message> {
        let ask = self.lifecycle.tick(now);
        self.answer(ask)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::testkit::*;

    /// A bare `Inner` hosting up to `remote_capacity` pages for its peer.
    fn hosting(remote_capacity: usize) -> Inner {
        let cfg = NodeConfig {
            remote_capacity,
            ..NodeConfig::test_profile(1)
        };
        bare_inner(cfg).0
    }

    /// One page per lpn, at version `10 * lpn`.
    fn batch(lpns: &[u64]) -> Vec<ResyncEntry> {
        lpns.iter()
            .map(|&lpn| resync_entry(lpn, 10 * lpn, Bytes::from(format!("p{lpn}").into_bytes())))
            .collect()
    }

    #[derive(Debug, PartialEq)]
    enum Reply {
        Ack { up_to: u64, credits: u32 },
        Nack(NackReason),
        Silent,
    }

    /// Deliver one batch frame, checksummed as the pump would.
    fn deliver(inner: &mut Inner, epoch: u32, seq: u64, entries: Vec<ResyncEntry>) -> Reply {
        let bad = damaged(&entries);
        match inner.on_batch(epoch, seq, entries, bad) {
            Some(Message::ReplAckBatch {
                epoch: e,
                up_to,
                credits,
            }) => {
                assert_eq!(e, epoch);
                Reply::Ack { up_to, credits }
            }
            Some(Message::ReplNackBatch {
                epoch: e,
                seq: s,
                reason,
            }) => {
                assert_eq!((e, s), (epoch, seq));
                Reply::Nack(reason)
            }
            None => Reply::Silent,
            other => panic!("unexpected reply {other:?}"),
        }
    }

    #[test]
    fn batch_handler_acks_stashes_dedups_and_refuses() {
        let mut torn = batch(&[1]);
        torn[0].3 = Bytes::from_static(b"bit rot");
        // (case, remote capacity, frames as (epoch, seq, entries) with the
        // reply each must get, hosted lpns afterwards).
        type Frame = ((u32, u64, Vec<ResyncEntry>), Reply);
        let ack = |up_to, credits| Reply::Ack { up_to, credits };
        let cases: Vec<(&str, usize, Vec<Frame>, Vec<u64>)> = vec![
            (
                "in order: each batch acks its own seq",
                8,
                vec![
                    ((1, 1, batch(&[1, 2])), ack(1, 6)),
                    ((1, 2, batch(&[3])), ack(2, 5)),
                ],
                vec![1, 2, 3],
            ),
            (
                "seq 2 before 1 is stashed; the ack jumps to 2 when 1 arrives",
                8,
                vec![
                    ((1, 2, batch(&[2])), ack(0, 7)),
                    ((1, 1, batch(&[1])), ack(2, 6)),
                ],
                vec![1, 2],
            ),
            (
                "a duplicate re-acks the frontier and applies nothing",
                8,
                vec![
                    ((1, 1, batch(&[1])), ack(1, 7)),
                    ((1, 1, batch(&[9])), ack(1, 7)),
                ],
                vec![1],
            ),
            (
                "a stale-epoch frame gets no reply",
                8,
                vec![
                    ((2, 1, batch(&[1])), ack(1, 7)),
                    ((1, 5, batch(&[9])), Reply::Silent),
                    ((2, 2, batch(&[2])), ack(2, 6)),
                ],
                vec![1, 2],
            ),
            (
                "a corrupt frame is NACKed without recording its seq",
                8,
                vec![
                    ((1, 1, torn), Reply::Nack(NackReason::Corrupt)),
                    ((1, 1, batch(&[1])), ack(1, 7)),
                ],
                vec![1],
            ),
            (
                "a batch with no room is refused whole; its empty resend acks",
                2,
                vec![
                    ((1, 1, batch(&[1])), ack(1, 1)),
                    ((1, 2, batch(&[1, 2, 3])), Reply::Nack(NackReason::NoCredit)),
                    ((1, 2, Vec::new()), ack(2, 1)),
                ],
                vec![1],
            ),
        ];
        for (case, capacity, frames, hosted) in cases {
            let mut inner = hosting(capacity);
            for ((epoch, seq, entries), want) in frames {
                assert_eq!(deliver(&mut inner, epoch, seq, entries), want, "{case}");
            }
            assert_eq!(inner.hosted.lpns(), hosted, "{case}");
        }
    }

    #[test]
    fn batch_handler_counts_what_it_dropped_healed_and_refused() {
        let mut inner = hosting(2);
        let mut torn = batch(&[1]);
        torn[0].3 = Bytes::from_static(b"bit rot");
        deliver(&mut inner, 1, 1, torn);
        deliver(&mut inner, 1, 2, batch(&[2])); // ahead of the gap
        deliver(&mut inner, 1, 1, batch(&[1]));
        deliver(&mut inner, 1, 2, batch(&[2])); // duplicate
        deliver(&mut inner, 1, 3, batch(&[3])); // no room
        let repl = inner.obs.snapshot(0).repl;
        assert_eq!(repl.corruptions_detected, 1);
        assert_eq!(repl.reorders_healed, 1);
        assert_eq!(repl.dups_dropped, 1);
        assert_eq!(repl.credit_rejections, 1);
        // The version clock ran past everything hosted, not the refused page.
        assert_eq!(inner.next_version, 21);
    }

    #[test]
    fn reordered_discard_never_removes_a_newer_version() {
        let mut inner = hosting(8);
        // Hosted at versions 40 and 50.
        deliver(&mut inner, 1, 1, batch(&[4, 5]));
        // Discard 2 overtakes discard 1 and refers to an older flush of 5.
        inner.on_discard(2, vec![(5, 49)]);
        assert_eq!(inner.hosted.lpns(), vec![4, 5]);
        inner.on_discard(1, vec![(4, 40)]);
        assert_eq!(inner.hosted.lpns(), vec![5]);
        // A duplicate is dropped unread, whatever it names.
        inner.on_discard(2, vec![(5, u64::MAX)]);
        assert_eq!(inner.hosted.lpns(), vec![5]);
        inner.on_discard(3, vec![(5, u64::MAX)]);
        assert!(inner.hosted.lpns().is_empty());
        let repl = inner.obs.snapshot(0).repl;
        assert_eq!((repl.reorders_healed, repl.dups_dropped), (1, 1));
        // Bounds advance the version clock; the unbounded marker does not.
        assert_eq!(inner.next_version, 51);
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
        for (lpn, _ver, _crc, data) in b.export_remote() {
            assert_eq!(data, format!("payload-{lpn}").into_bytes());
        }
        assert_eq!(a.lifecycle_state(), PairState::Paired);
        a.shutdown();
        b.shutdown();
    }
}
