//! The catch-up journal and the incremental resync that drains it: solo
//! writes are *recorded*, a returning peer *begins* a run, the pump
//! *drives* it one pipe batch at a time and *settles* each batch off its
//! ticket. Runs under `Inner`; sends nothing — the pump submits the pages
//! [`Inner::drive_resync`] hands back.

use super::state::Inner;
use super::write::Pipelined;
use crate::pipe::{PageOutcome, PipePage, RunTicket};
use crate::wire::crc32;
use bytes::Bytes;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

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

/// Journal and resync state; only this module touches the fields.
#[derive(Default)]
pub(super) struct Resync {
    /// Solo-mode writes awaiting the next resync: lpn → (version, data),
    /// latest version only. Cleared (and flagged) on overflow.
    journal: HashMap<u64, (u64, Bytes)>,
    overflowed: bool,
    run: Option<ResyncRun>,
}

impl Resync {
    /// Pages currently waiting in the journal.
    pub(super) fn journal_len(&self) -> usize {
        self.journal.len()
    }

    /// A deleted or fenced-out page needs no catch-up.
    pub(super) fn forget(&mut self, lpn: u64) {
        self.journal.remove(&lpn);
    }

    /// Crash fault: the journal and any run in progress are volatile.
    pub(super) fn clear(&mut self) {
        self.journal.clear();
        self.overflowed = false;
        self.run = None;
    }
}

impl Inner {
    /// Record a solo-mode write for the next resync. Latest version per
    /// page (a page coming back from a failed resync batch never displaces
    /// a newer solo write); an overflow clears the journal and flags a full
    /// resync. During a run the journal may grow to the buffer's size
    /// first: a full resync loads every resident page, so a smaller cap
    /// would overflow it again on the next write and restart the run.
    pub(super) fn journal_record(&mut self, lpn: u64, version: u64, data: Bytes) {
        let r = &mut self.resync;
        let cap = match r.run {
            Some(_) => self.cfg.journal_entries.max(self.cfg.buffer_pages),
            None => self.cfg.journal_entries,
        };
        if r.overflowed || r.journal.get(&lpn).is_some_and(|(v, _)| *v >= version) {
            return;
        }
        r.journal.insert(lpn, (version, data));
        if r.journal.len() > cap {
            r.journal.clear();
            r.overflowed = true;
            self.note("journal_overflow", |e| e.u64_field("cap", cap as u64));
        }
    }

    /// After an overflow the journal no longer knows what the peer missed:
    /// fall back to a full resync, re-sending every resident page.
    fn refill_overflowed_journal(&mut self) {
        if !self.resync.overflowed {
            return;
        }
        self.resync.journal = self
            .buffer
            .iter()
            .map(|(lpn, page)| (lpn, (page.version, page.bytes.clone())))
            .collect();
        self.resync.overflowed = false;
        self.obs.full_resyncs.inc();
    }

    /// Start (or restart) an incremental resync. No-op unless Solo.
    pub(super) fn begin_resync(&mut self, cause: &'static str) {
        if !self.lifecycle.begin_resync(cause) {
            return;
        }
        self.refill_overflowed_journal();
        self.resync.run = Some(ResyncRun {
            outstanding: None,
            batches: 0,
            pages: 0,
        });
        self.note("resync_start", |e| {
            e.u64_field("journal", self.resync.journal.len() as u64)
                .str_field("cause", cause)
        });
    }

    /// Read the outcome of the resync batch the pipe holds off its ticket,
    /// once every page is resolved — or at once when `abort`ing the run
    /// (solo entry just reset the pipe; a slot nobody resolved reads
    /// `Failed`). Acknowledged pages count, refused ones are forgone (they
    /// were written through while solo, so only the second memory is
    /// lost), failed ones return to the journal and end the run.
    pub(super) fn settle_resync(&mut self, abort: bool) {
        let Some(run) = &mut self.resync.run else {
            return;
        };
        let mut failed = Vec::new();
        let settled = |(ticket, _): &mut (Arc<RunTicket>, _)| abort || ticket.is_done();
        if let Some((ticket, pages)) = run.outstanding.take_if(settled) {
            let mut acked = 0;
            for (slot, page) in pages.into_iter().enumerate() {
                match ticket.outcome(slot) {
                    PageOutcome::Replicated => acked += 1,
                    PageOutcome::NoCredit => {}
                    PageOutcome::Failed => failed.push(page),
                }
            }
            run.pages += acked;
            self.obs.resync_pages.add(acked);
        }
        if failed.is_empty() && !abort {
            return;
        }
        self.resync.run = None;
        for p in failed {
            self.journal_record(p.lpn, p.version, p.bytes);
        }
        // Already Solo when aborting: solo entry does its own bookkeeping.
        if self.lifecycle.resync_failed(Instant::now()) {
            self.note("resync_failed", |e| {
                e.u64_field("journal", self.resync.journal.len() as u64)
            });
        }
    }

    /// Advance the resync: settle the batch the pipe holds, cut over to
    /// Paired once the journal has drained with nothing outstanding, or cut
    /// the next batch. A journal that overflowed during the run is refilled
    /// first, as at its start. One batch rides the pipe at a time, so the
    /// pump never puts more than one page-carrying frame on the wire
    /// between two receives (a blocking socket write cannot wedge two
    /// pumps that resync toward each other). Returns the pages to submit to
    /// the pipe (*after* dropping the lock).
    pub(super) fn drive_resync(&mut self) -> Vec<PipePage> {
        self.settle_resync(false);
        let Some(run) = self.resync.run.take_if(|r| r.outstanding.is_none()) else {
            return Vec::new();
        };
        self.refill_overflowed_journal();
        if self.resync.journal.is_empty() {
            // Cut-over barrier: the journal drained and nothing is in
            // flight — the peer holds every page we wrote solo.
            self.lifecycle.resync_complete();
            self.note("resync_complete", |e| {
                e.u64_field("batches", run.batches)
                    .u64_field("pages", run.pages)
            });
            return Vec::new();
        }
        // Cut the next batch: smallest lpns first (sequential, like the
        // destage path).
        let mut lpns: Vec<u64> = self.resync.journal.keys().copied().collect();
        lpns.sort_unstable();
        lpns.truncate(self.cfg.repl_batch_pages.max(1));
        let ticket = RunTicket::new(lpns.len());
        let mut kept = Vec::with_capacity(lpns.len());
        let mut pipe_pages = Vec::with_capacity(lpns.len());
        for (slot, lpn) in lpns.into_iter().enumerate() {
            let (version, bytes) = self.resync.journal.remove(&lpn).expect("journal entry");
            let page = Pipelined {
                lpn,
                version,
                bytes,
            };
            pipe_pages.push(page.pipe_page(crc32(&page.bytes), &ticket, slot));
            kept.push(page);
        }
        self.resync.run = Some(ResyncRun {
            outstanding: Some((ticket, kept)),
            batches: run.batches + 1,
            ..run
        });
        self.obs.resync_batches.inc();
        pipe_pages
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::state::Resident;
    use crate::node::testkit::*;

    /// A solo write as the write path does it under `Inner`, minus the
    /// backend: buffered clean, journaled for the peer.
    fn solo_write(inner: &mut Inner, lpn: u64) {
        let version = inner.next_version;
        inner.next_version += 1;
        let bytes = Bytes::from(format!("v{version}").into_bytes());
        let page = Resident {
            crc: crc32(&bytes),
            bytes: bytes.clone(),
            version,
        };
        let ev = inner.buffer.fill_pages(lpn, [page]);
        inner.apply_eviction(&ev);
        inner.journal_record(lpn, version, bytes);
    }

    /// Drive `a`'s resync to the cut-over barrier, acking every batch the
    /// peer end of its link receives; `during(a, step)` runs while batch
    /// `step` is in flight. Returns what reached the peer: lpn → payload.
    fn resync_to_paired(
        a: &mut Inner,
        peer: &Link<Message>,
        mut during: impl FnMut(&mut Inner, usize),
    ) -> HashMap<u64, Bytes> {
        let mut hosted = HashMap::new();
        for step in 0.. {
            let pages = a.drive_resync();
            if a.lifecycle.state() == PairState::Paired {
                break;
            }
            assert!(step < 50, "the resync never cut over");
            a.pipe.submit(pages);
            during(a, step);
            let Ok(Some(Message::WriteReplBatch {
                epoch,
                seq,
                entries,
            })) = Transport::recv_timeout(peer, Duration::from_secs(1))
            else {
                panic!("no resync batch on the link");
            };
            for (lpn, _, _, data) in entries {
                hosted.insert(lpn, data);
            }
            a.pipe.on_ack(epoch, seq);
        }
        hosted
    }

    #[test]
    fn journal_overflow_mid_resync_sends_the_overflowed_writes_before_cut_over() {
        let cfg = NodeConfig {
            buffer_pages: 8,
            journal_entries: 4,
            repl_batch_pages: 2,
            ..NodeConfig::test_profile(0)
        };
        let (mut a, peer) = bare_inner(cfg);
        a.enter_solo("ack_timeout");
        for lpn in 0..3 {
            solo_write(&mut a, lpn);
        }
        a.begin_resync("peer_alive");
        // Writes land while the first batch is in flight, overflowing the
        // journal past the eight-page buffer.
        let during_run: Vec<u64> = (10..20).collect();
        let hosted = resync_to_paired(&mut a, &peer, |a, step| {
            if step == 0 {
                for &lpn in &during_run {
                    solo_write(a, lpn);
                }
            }
        });
        for lpn in during_run {
            let resident = a.buffer.get(lpn).map(|p| p.bytes.clone());
            assert_eq!(hosted.get(&lpn), resident.as_ref(), "lpn {lpn}");
        }
        assert_eq!(a.obs.full_resyncs.get(), 1);
        assert_eq!(a.resync.journal_len(), 0);
    }

    #[test]
    fn writes_during_a_full_resync_do_not_restart_it() {
        let cfg = NodeConfig {
            journal_entries: 4,
            repl_batch_pages: 2,
            ..NodeConfig::test_profile(0)
        };
        assert!(cfg.buffer_pages > 10);
        let (mut a, peer) = bare_inner(cfg);
        a.enter_solo("ack_timeout");
        // Ten solo writes overflow the four-entry journal: the run is a
        // full resync that loads all ten resident pages.
        for lpn in 0..10 {
            solo_write(&mut a, lpn);
        }
        a.begin_resync("peer_recovered");
        assert_eq!(a.obs.full_resyncs.get(), 1);
        // Each of the first five batches in flight sees a rewrite of a
        // page the run already sent.
        let hosted = resync_to_paired(&mut a, &peer, |a, step| {
            if step < 5 {
                solo_write(a, step as u64);
            }
        });
        assert_eq!(a.obs.full_resyncs.get(), 1, "the run restarted");
        assert_eq!(a.obs.resync_batches.get(), 8);
        for lpn in 0..10 {
            let resident = a.buffer.get(lpn).map(|p| p.bytes.clone());
            assert_eq!(hosted.get(&lpn), resident.as_ref(), "lpn {lpn}");
        }
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
}
