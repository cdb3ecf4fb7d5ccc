//! Repair from the peer's replica: the Section III.D recovery handshake
//! (RCT fetch → replay → purge) and the local-corruption scrub. Both fetch
//! pages with one `RctFetch` and apply only what passes its writer's CRC.

use super::state::Resident;
use super::Node;
use crate::transport::TransportError;
use crate::wire::{intact, Message, ResyncEntry};
use crossbeam::channel::{unbounded, RecvTimeoutError};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

impl Node {
    /// Send `request` and park until `pick` accepts one of the peer's
    /// recovery-protocol replies (the pump hands each of them to every
    /// parked call).
    fn ask<T>(
        &self,
        request: Message,
        timeout: Duration,
        pick: impl Fn(Message) -> Option<T>,
    ) -> Result<T, TransportError> {
        let (tx, rx) = unbounded();
        self.core.parked.lock().push(tx);
        self.core.transport.send(request)?;
        let deadline = Instant::now() + timeout;
        loop {
            let reply = rx.recv_deadline(deadline).map_err(|e| match e {
                RecvTimeoutError::Timeout => TransportError::Timeout,
                RecvTimeoutError::Disconnected => TransportError::Disconnected,
            })?;
            if let Some(v) = pick(reply) {
                return Ok(v);
            }
        }
    }

    /// The pages the peer holds for this node among `lpns` (all of them
    /// for an empty `lpns`), as it sent them: one request, matched to its
    /// reply by id.
    fn fetch(&self, lpns: Vec<u64>, timeout: Duration) -> Result<Vec<ResyncEntry>, TransportError> {
        let id = self.core.next_fetch.fetch_add(1, Ordering::Relaxed);
        self.ask(Message::RctFetch { id, lpns }, timeout, |m| match m {
            Message::RctEntries { id: got, entries } if got == id => Some(entries),
            _ => None,
        })
    }

    /// `entries` without those whose data no longer matches its writer's
    /// CRC ([`intact`]); each of those counts in `corruptions_detected`.
    /// What recovery, scrub and [`Node::import_remote`] apply.
    pub(super) fn checked(
        &self,
        mut entries: Vec<ResyncEntry>,
        msg: &'static str,
    ) -> Vec<ResyncEntry> {
        let obs = &self.core.obs;
        entries.retain(|(lpn, _, crc, data)| {
            let ok = intact(*crc, data);
            if !ok {
                obs.corruptions_detected.inc();
                obs.note("corrupt_detected", |e| {
                    e.u64_field("lpn", *lpn).str_field("msg", msg)
                });
            }
            ok
        });
        entries
    }

    /// Run the local-failure recovery protocol: fetch the peer's whole RCT
    /// for this node, replay every page that passes its CRC into the
    /// backend, then ask the peer to purge. Returns the number of pages
    /// replayed.
    pub fn recover_from_peer(&self, timeout: Duration) -> Result<usize, TransportError> {
        let entries = self.checked(self.fetch(Vec::new(), timeout)?, "recovery");
        {
            let mut inner = self.core.inner.lock();
            for (_, ver, ..) in &entries {
                inner.observe_version(*ver);
            }
            let backend = inner.backend.clone();
            let mut backend = backend.lock();
            // Version-guarded replay: a page the peer rewrote (with a higher
            // pair-clock version) while we were down keeps its newer copy.
            for (lpn, ver, _, data) in &entries {
                backend.write_page(*lpn, *ver, data);
            }
        }
        let purged = self.ask(Message::Purge, timeout, |m| {
            (m == Message::PurgeAck).then_some(())
        });
        match purged {
            // The pages are replayed either way; a slow PurgeAck only means
            // the peer hosts them a little longer.
            Ok(()) | Err(TransportError::Timeout) => Ok(entries.len()),
            Err(e) => Err(e),
        }
    }

    /// Scrub the local buffer: detect resident pages whose contents no
    /// longer match their recorded CRC-32 (bit rot, DMA error) and repair
    /// them from the peer's replicas, fetched in one request. Returns
    /// `(detected, repaired)`.
    pub fn scrub(&self, timeout: Duration) -> (u64, u64) {
        let bad: Vec<u64> = {
            let g = self.core.inner.lock();
            let mut v: Vec<u64> = g
                .buffer
                .iter()
                .filter(|(_, p)| !intact(p.crc, &p.bytes))
                .map(|(l, _)| l)
                .collect();
            v.sort_unstable();
            v
        };
        // Nothing to fetch — and an empty fetch would ask for the whole RCT.
        if bad.is_empty() {
            return (0, 0);
        }
        let detected = bad.len() as u64;
        let obs = &self.core.obs;
        for &lpn in &bad {
            obs.corruptions_detected.inc();
            obs.note("scrub_corrupt", |e| e.u64_field("lpn", lpn));
        }
        // A repair sourced from a damaged replica would be worse than no
        // repair: only replicas that pass their CRC are used.
        let replicas = match self.fetch(bad, timeout) {
            Ok(entries) => self.checked(entries, "scrub"),
            Err(_) => Vec::new(),
        };
        let mut g = self.core.inner.lock();
        let mut repaired = 0u64;
        for (lpn, ver, crc, data) in replicas {
            let local_ver = g.buffer.get(lpn).map_or(0, |p| p.version);
            // Only a replica at least as new as our metadata can stand in
            // for the damaged copy.
            if ver < local_ver {
                continue;
            }
            g.backend.lock().write_page(lpn, ver, &data);
            // `Inner` was dropped while waiting for the peer: a page
            // evicted meanwhile is repaired on the backend only (where a
            // dirty eviction flushed the damaged copy) and is not put back
            // in the buffer.
            if let Some(page) = g.buffer.get_mut(lpn) {
                *page = Resident {
                    bytes: data,
                    crc,
                    version: ver,
                };
            }
            g.obs.corruptions_repaired.inc();
            g.obs.scrub_repairs.inc();
            g.note("scrub_repair", |e| {
                e.u64_field("lpn", lpn).u64_field("version", ver)
            });
            repaired += 1;
        }
        (detected, repaired)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::testkit::*;

    #[test]
    fn scrub_repairs_local_corruption_from_peer_replica() {
        let (a, b, ba, _bb) = pair();
        assert_eq!(a.write(5, b"precious"), WriteOutcome::Replicated);
        assert!(wait_until(
            || b.hosted_remote_pages() == vec![5],
            Duration::from_millis(500)
        ));
        // Bit rot on A's resident copy.
        assert!(corrupt_local_page(&a, 5));
        let (detected, repaired) = a.scrub(Duration::from_secs(1));
        assert_eq!((detected, repaired), (1, 1));
        let s = a.stats();
        assert_eq!(s.repl.scrub_repairs, 1);
        assert_eq!(s.repl.corruptions_detected, 1);
        assert_eq!(s.repl.corruptions_repaired, 1);
        // The repaired bytes are back, in memory and on the backend.
        assert_eq!(a.read(5), Some(b"precious".to_vec()));
        assert_eq!(ba.lock().read_page(5).unwrap().1, b"precious".to_vec());
        // A clean follow-up scrub finds nothing.
        assert_eq!(a.scrub(Duration::from_secs(1)), (0, 0));
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn scrub_does_not_resurrect_a_page_evicted_during_repair() {
        // The test plays the peer by hand, so it decides what happens
        // between the scrubber's fetch and the reply.
        let (ta, tb) = mem_pair();
        let ba = shared_backend(MemBackend::new());
        let a = Arc::new(Node::spawn(NodeConfig::test_profile(0), ta, ba.clone()));
        // A silent peer: A goes Solo and writes through.
        assert!(wait_until(
            || a.lifecycle_state() == PairState::Solo,
            Duration::from_secs(2)
        ));
        assert_eq!(a.write(5, b"precious"), WriteOutcome::WriteThrough);
        assert!(corrupt_local_page(&a, 5));
        let scrubber = {
            let a = a.clone();
            std::thread::spawn(move || a.scrub(Duration::from_secs(5)))
        };
        let deadline = Instant::now() + Duration::from_secs(5);
        let id = loop {
            assert!(Instant::now() < deadline, "no RctFetch from the scrubber");
            if let Ok(Some(Message::RctFetch { id, lpns })) =
                tb.recv_timeout(Duration::from_millis(50))
            {
                assert_eq!(lpns, [5]);
                break id;
            }
        };
        // Detection is done and `Inner` is unlocked: push page 5 out.
        for i in 0..4 * NodeConfig::test_profile(0).buffer_pages as u64 {
            a.write(1000 + i, b"filler");
        }
        assert_eq!(
            a.core.inner.lock().buffer.lookup(5),
            None,
            "page 5 still resident"
        );
        let version = ba.lock().version_of(5).expect("written through");
        tb.send(Message::RctEntries {
            id,
            entries: vec![resync_entry(5, version, Bytes::from_static(b"precious"))],
        })
        .unwrap();
        assert_eq!(scrubber.join().unwrap(), (1, 1));
        assert!(
            a.core.inner.lock().buffer.get(5).is_none(),
            "scrub put page 5 back in the buffer"
        );
        assert_eq!(ba.lock().read_page(5).unwrap().1, b"precious".to_vec());
        assert_eq!(a.read(5), Some(b"precious".to_vec()));
        a.quiesce();
    }

    #[test]
    fn scrub_fetches_every_bad_page_in_one_frame() {
        let (a, b, tap, _) = tapped_pair(NodeConfig::test_profile(0));
        let pages: Vec<Vec<u8>> = (0..3u8).map(|i| vec![b'a' + i; 8]).collect();
        assert!(a.write_run(0, 10, &pages).all_replicated());
        assert!(wait_until(
            || b.hosted_remote_pages() == vec![10, 11, 12],
            Duration::from_millis(500)
        ));
        for lpn in 10..13 {
            assert!(corrupt_local_page(&a, lpn));
        }
        let mark = tap.log().len();
        assert_eq!(a.scrub(Duration::from_secs(1)), (3, 3));
        let fetches = tap.log()[mark..]
            .iter()
            .filter(|e| e.sent && matches!(e.msg, Some(Message::RctFetch { .. })))
            .count();
        assert_eq!(fetches, 1, "one fetch frame for every bad page");
        for (lpn, page) in (10..).zip(&pages) {
            assert_eq!(a.read(lpn).as_ref(), Some(page));
        }
        assert_eq!(a.stats().repl.corruptions_repaired, 3);
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn import_remote_drops_a_damaged_entry() {
        let (a, b, _, _) = pair();
        for lpn in 0..4u64 {
            assert_eq!(a.write(lpn, b"hosted"), WriteOutcome::Replicated);
        }
        assert!(wait_until(
            || b.hosted_remote_pages().len() == 4,
            Duration::from_millis(500)
        ));
        let mut entries = b.export_remote();
        // Page 2 rots after its writer's CRC was taken.
        entries[2].3 = Bytes::from_static(b"rotten");
        let (c, d, _, _) = pair();
        let before = c.stats().repl.corruptions_detected;
        assert_eq!(c.import_remote(entries), 3);
        assert_eq!(c.stats().repl.corruptions_detected, before + 1);
        assert_eq!(c.hosted_remote_pages(), vec![0, 1, 3]);
        for n in [a, b, c, d] {
            n.shutdown();
        }
    }
}
