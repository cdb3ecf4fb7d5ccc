//! Repair from the peer's replica: the Section III.D recovery handshake
//! (RCT fetch → replay → purge) and the local-corruption scrub.

use super::state::Resident;
use super::Node;
use crate::transport::TransportError;
use crate::wire::{crc32, Message};
use crossbeam::channel::{unbounded, RecvTimeoutError};
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

    /// Run the local-failure recovery protocol: fetch the peer's snapshot of
    /// our replicated pages, replay it into the backend, then ask the peer
    /// to purge. Returns the number of pages recovered.
    pub fn recover_from_peer(&self, timeout: Duration) -> Result<usize, TransportError> {
        let entries = self.ask(Message::RctFetch, timeout, |m| match m {
            Message::RctSnapshot { entries } => Some(entries),
            _ => None,
        })?;
        {
            let mut inner = self.core.inner.lock();
            for (_, ver, _) in &entries {
                inner.observe_version(*ver);
            }
            let backend = inner.backend.clone();
            let mut backend = backend.lock();
            // Version-guarded replay: a page the peer rewrote (with a higher
            // pair-clock version) while we were down keeps its newer copy.
            for (lpn, ver, data) in &entries {
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
    /// each from the peer's replica. Returns `(detected, repaired)`.
    pub fn scrub(&self, timeout: Duration) -> (u64, u64) {
        let bad: Vec<u64> = {
            let g = self.core.inner.lock();
            let mut v: Vec<u64> = g
                .buffer
                .iter()
                .filter(|(_, p)| crc32(&p.bytes) != p.crc)
                .map(|(l, _)| l)
                .collect();
            v.sort_unstable();
            v
        };
        let mut repaired = 0u64;
        for &lpn in &bad {
            let obs = &self.core.obs;
            obs.corruptions_detected.inc();
            obs.note("scrub_corrupt", |e| e.u64_field("lpn", lpn));
            let replica = self.ask(Message::PageFetch { lpn }, timeout, |m| match m {
                Message::PageData {
                    lpn: l,
                    version,
                    crc,
                    found,
                    data,
                } if l == lpn => {
                    // A repair sourced from a damaged replica would be
                    // worse than no repair; verify before using it.
                    Some((found && crc32(&data) == crc).then_some((version, data)))
                }
                _ => None,
            });
            let Ok(Some((ver, data))) = replica else {
                continue;
            };
            let mut g = self.core.inner.lock();
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
                    crc: crc32(&data),
                    bytes: data,
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
        (bad.len() as u64, repaired)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::testkit::*;

    /// Silently flip one byte of a resident page *without* updating its
    /// recorded CRC, simulating local media corruption for [`Node::scrub`]
    /// to find. Returns false if the page is not resident.
    fn corrupt_local_page(node: &Node, lpn: u64) -> bool {
        let mut g = node.core.inner.lock();
        match g.buffer.get_mut(lpn) {
            Some(page) if !page.bytes.is_empty() => {
                let mut v = page.bytes.to_vec();
                v[0] ^= 0xFF;
                page.bytes = Bytes::from(v);
                true
            }
            _ => false,
        }
    }

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
        // between the scrubber's PageFetch and its PageData.
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
        loop {
            assert!(Instant::now() < deadline, "no PageFetch from the scrubber");
            if let Ok(Some(Message::PageFetch { lpn: 5 })) =
                tb.recv_timeout(Duration::from_millis(50))
            {
                break;
            }
        }
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
        tb.send(Message::page_data(
            5,
            Some((version, Bytes::from_static(b"precious"))),
        ))
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
}
