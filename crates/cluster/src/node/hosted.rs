//! The pages this node hosts for its peer — §III.C's remote buffer — and
//! the one place that knows *where* they live: in memory while the pair is
//! joined, under the [`PEER_NS`] namespace of this node's backend after a
//! takeover. Takes the backend leaf lock; sends nothing.

use super::SharedBackend;
use crate::wire::{resync_entry, ResyncEntry};
use bytes::Bytes;
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};

/// Backend namespace for pages destaged on behalf of a failed peer. Bit 63
/// keeps them disjoint from the node's own logical pages, so a takeover
/// never clobbers local data and a later Purge can trim exactly the
/// taken-over set.
pub const PEER_NS: u64 = 1 << 63;

pub(super) struct Hosted {
    /// Pages this node will hold in memory (the credit pool it advertises).
    capacity: usize,
    backend: SharedBackend,
    /// Hosted in memory: lpn → (version, the writer's CRC, data). Bounded
    /// by `capacity`.
    remote: HashMap<u64, (u64, u32, Bytes)>,
    /// Destaged under [`PEER_NS`] by a takeover: lpn → version. Still
    /// served to the peer's recovery handshake, trimmed by its Purge.
    taken_over: HashMap<u64, u64>,
}

impl Hosted {
    pub(super) fn new(capacity: usize, backend: SharedBackend) -> Hosted {
        Hosted {
            capacity,
            backend,
            remote: HashMap::new(),
            taken_over: HashMap::new(),
        }
    }

    /// Remaining hosting credits this node would advertise right now.
    pub(super) fn credits(&self) -> u32 {
        self.capacity.saturating_sub(self.remote.len()) as u32
    }

    /// Pages held for the peer, in memory plus taken over.
    pub(super) fn pages(&self) -> u64 {
        (self.remote.len() + self.taken_over.len()) as u64
    }

    /// Every hosted lpn, sorted.
    pub(super) fn lpns(&self) -> Vec<u64> {
        let all: BTreeSet<u64> = self
            .remote
            .keys()
            .chain(self.taken_over.keys())
            .copied()
            .collect();
        all.into_iter().collect()
    }

    /// Host a whole batch or none of it, so a cumulative ack never covers a
    /// partially applied frame. `Err` carries the new pages it had no room
    /// for.
    pub(super) fn admit(&mut self, entries: Vec<ResyncEntry>) -> Result<(), usize> {
        // Counting every entry the map lacks bounds the new pages from
        // above (an lpn repeated inside the frame counts once per copy), so
        // a frame that fits under the bound fits; only one that does not
        // is counted exactly.
        let absent = |lpn: &&u64| !self.remote.contains_key(*lpn);
        let mut new_pages = entries.iter().map(|(lpn, ..)| lpn).filter(absent).count();
        if self.remote.len() + new_pages > self.capacity {
            let mut lpns: Vec<u64> = entries
                .iter()
                .map(|(lpn, ..)| lpn)
                .filter(absent)
                .copied()
                .collect();
            lpns.sort_unstable();
            lpns.dedup();
            new_pages = lpns.len();
            if self.remote.len() + new_pages > self.capacity {
                return Err(new_pages);
            }
        }
        for entry in entries {
            self.insert(entry);
        }
        Ok(())
    }

    /// Version-guarded insert: a stale or reordered copy never replaces a
    /// newer one. One map probe. The page keeps the CRC it came with.
    pub(super) fn insert(&mut self, (lpn, version, crc, data): ResyncEntry) {
        match self.remote.entry(lpn) {
            Entry::Occupied(mut held) if held.get().0 <= version => {
                held.insert((version, crc, data));
            }
            Entry::Occupied(_) => {}
            Entry::Vacant(slot) => {
                slot.insert((version, crc, data));
            }
        }
    }

    /// Version-bounded discard: a reordered Discard must not delete a copy
    /// newer than the flush it refers to.
    pub(super) fn discard(&mut self, lpn: u64, bound: u64) {
        if self.remote.get(&lpn).is_some_and(|(v, ..)| *v <= bound) {
            self.remote.remove(&lpn);
        }
    }

    /// The hosted copy of one page, wherever it lives. One held in memory
    /// carries the CRC it arrived with; the backend keeps none, so a
    /// taken-over page's is computed from the bytes read back.
    fn lookup(&self, lpn: u64) -> Option<ResyncEntry> {
        if let Some((version, crc, data)) = self.remote.get(&lpn) {
            return Some((lpn, *version, *crc, data.clone()));
        }
        let version = *self.taken_over.get(&lpn)?;
        let (stored, data) = self.backend.lock().read_page(PEER_NS | lpn)?;
        Some(resync_entry(lpn, stored.max(version), Bytes::from(data)))
    }

    /// The hosted copies of `lpns` that this node holds, in the order
    /// asked — or, for an empty `lpns`, everything held on behalf of the
    /// peer, sorted by lpn.
    pub(super) fn entries(&self, lpns: &[u64]) -> Vec<ResyncEntry> {
        let page = |&lpn: &u64| self.lookup(lpn);
        if lpns.is_empty() {
            self.lpns().iter().filter_map(page).collect()
        } else {
            lpns.iter().filter_map(page).collect()
        }
    }

    /// The peer failed: destage its pages to our own backend, sequentially
    /// by lpn, and reclaim the memory. They stay reachable through
    /// [`Hosted::entries`]. Returns the pages moved.
    pub(super) fn takeover(&mut self) -> u64 {
        let mut pages: Vec<(u64, (u64, u32, Bytes))> = self.remote.drain().collect();
        pages.sort_unstable_by_key(|(lpn, _)| *lpn);
        if !pages.is_empty() {
            let mut backend = self.backend.lock();
            for (lpn, (version, _, data)) in &pages {
                backend.write_page(PEER_NS | lpn, *version, data);
                self.taken_over.insert(*lpn, *version);
            }
        }
        pages.len() as u64
    }

    /// The peer recovered its pages: drop them all, trimming exactly the
    /// taken-over set from the backend.
    pub(super) fn purge(&mut self) {
        self.remote.clear();
        if !self.taken_over.is_empty() {
            let mut backend = self.backend.lock();
            for (lpn, _) in self.taken_over.drain() {
                backend.trim_page(PEER_NS | lpn);
            }
        }
    }

    /// Crash fault: forget everything volatile (what a takeover destaged
    /// stays on the backend, unreachable, as after a real crash).
    pub(super) fn clear(&mut self) {
        self.remote.clear();
        self.taken_over.clear();
    }

    /// The backend's lpns outside the peer namespace: the node's own
    /// durable pages.
    pub(super) fn own_durable_lpns(&self) -> Vec<u64> {
        let mut lpns = self.backend.lock().lpns();
        lpns.retain(|lpn| lpn & PEER_NS == 0);
        lpns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::testkit::*;

    fn entry(lpn: u64, version: u64) -> ResyncEntry {
        resync_entry(
            lpn,
            version,
            Bytes::from(format!("peer-{lpn}-v{version}").into_bytes()),
        )
    }

    #[test]
    fn takeover_serves_every_page_and_purge_trims_only_the_peer_namespace() {
        let backend = shared_backend(MemBackend::new());
        // The node's own durable pages, one of them at an lpn it also hosts.
        backend.lock().write_page(1, 7, b"own-1");
        backend.lock().write_page(2, 7, b"own-2");
        let mut hosted = Hosted::new(8, backend.clone());
        hosted
            .admit(vec![entry(2, 5), entry(3, 5), entry(4, 5)])
            .unwrap();
        let before = hosted.entries(&[]);
        assert_eq!(hosted.credits(), 5);

        assert_eq!(hosted.takeover(), 3);
        // Memory is reclaimed, yet nothing the peer may ask for is lost.
        assert_eq!(hosted.credits(), 8);
        assert_eq!((hosted.pages(), hosted.lpns()), (3, vec![2, 3, 4]));
        assert_eq!(hosted.entries(&[]), before);
        for e in &before {
            assert_eq!(hosted.lookup(e.0).as_ref(), Some(e));
        }
        assert_eq!(hosted.lookup(1), None, "own data is not hosted data");
        // The destaged copies sit beside the node's own pages, not on them.
        assert_eq!(backend.lock().pages(), 5);
        assert_eq!(backend.lock().read_page(2).unwrap().1, b"own-2");
        let mut own = hosted.own_durable_lpns();
        own.sort_unstable();
        assert_eq!(own, vec![1, 2]);
        // A page re-hosted after the takeover shadows its destaged copy.
        let newer = resync_entry(3, 6, Bytes::from_static(b"newer"));
        hosted.insert(newer.clone());
        assert_eq!(hosted.lookup(3), Some(newer.clone()));
        assert_eq!(hosted.entries(&[3, 9, 2]), [newer, before[0].clone()]);
        assert_eq!(hosted.entries(&[]).len(), 3);

        hosted.purge();
        assert_eq!((hosted.pages(), hosted.entries(&[]).len()), (0, 0));
        let mut left = backend.lock().lpns();
        left.sort_unstable();
        assert_eq!(left, vec![1, 2], "purge trims exactly the peer namespace");
        assert_eq!(backend.lock().read_page(1).unwrap().1, b"own-1");
    }

    #[test]
    fn admit_is_all_or_nothing_and_versions_guard_insert_and_discard() {
        let mut hosted = Hosted::new(2, shared_backend(MemBackend::new()));
        hosted.admit(vec![entry(1, 5), entry(2, 5)]).unwrap();
        // One overwrite and one new page: no room for the new one, so the
        // overwrite is not applied either.
        assert_eq!(hosted.admit(vec![entry(1, 6), entry(3, 6)]), Err(1));
        assert_eq!(hosted.lookup(1).unwrap().1, 5);
        // Overwrites alone need no credit; an older copy never wins.
        hosted.admit(vec![entry(1, 6), entry(2, 4)]).unwrap();
        assert_eq!(hosted.lookup(1).unwrap().1, 6);
        assert_eq!(hosted.lookup(2).unwrap().1, 5);
        // A discard bounded below the hosted version leaves it alone.
        hosted.discard(1, 5);
        assert_eq!(hosted.lpns(), vec![1, 2]);
        hosted.discard(1, 6);
        assert_eq!((hosted.lpns(), hosted.credits()), (vec![2], 1));
        // A frame that carries one new lpn twice needs one credit, not two:
        // it fits the last one, and the newer copy wins whatever the order.
        hosted.admit(vec![entry(7, 9), entry(7, 8)]).unwrap();
        assert_eq!((hosted.lookup(7).unwrap().1, hosted.credits()), (9, 0));
        assert_eq!(
            hosted.admit(vec![entry(8, 1), entry(8, 2), entry(9, 1)]),
            Err(2)
        );
        assert_eq!(hosted.lpns(), vec![2, 7]);
    }

    #[test]
    fn survivor_takes_over_peer_pages_on_failure() {
        let (ta, tb) = mem_pair();
        let ba = shared_backend(MemBackend::new());
        let bb = shared_backend(MemBackend::new());
        let a = Node::spawn(NodeConfig::test_profile(0), ta, ba);
        let b = Node::spawn(NodeConfig::test_profile(1), tb, bb.clone());
        for i in 0..10u64 {
            assert_eq!(
                a.write(i, format!("v{i}").as_bytes()),
                WriteOutcome::Replicated
            );
        }
        assert_eq!(b.hosted_remote_pages().len(), 10);
        // A dies; B notices via heartbeat silence and destages the hosted
        // pages sequentially onto its own backend.
        a.crash();
        assert!(
            wait_until(
                || b.lifecycle_state() == PairState::Solo,
                Duration::from_secs(2)
            ),
            "survivor never went solo"
        );
        let s = b.stats();
        assert_eq!(s.repl.takeover_destages, 10);
        // Still reachable for A's recovery handshake…
        assert_eq!(b.hosted_remote_pages().len(), 10);
        assert_eq!(b.export_remote().len(), 10);
        // …and durably on B's backend, in the peer namespace.
        for i in 0..10u64 {
            let (_, data) = bb.lock().read_page(PEER_NS | i).expect("destaged page");
            assert_eq!(data, format!("v{i}").into_bytes());
        }
        b.shutdown();
    }

    #[test]
    fn migration_lpns_excludes_pages_hosted_for_the_peer() {
        let (a, b, _ba, _bb) = pair();
        assert_eq!(a.write(5, b"mine-via-a"), WriteOutcome::Replicated);
        a.fail();
        // b walks Solo and takeover-destages a's replica under PEER_NS.
        assert!(wait_until(
            || b.lifecycle_state() == PairState::Solo,
            Duration::from_secs(2)
        ));
        b.write(100, b"bs-own");
        let lpns = b.try_migration_lpns().unwrap();
        assert!(lpns.contains(&100));
        assert!(
            !lpns.iter().any(|&l| l == 5 || l & PEER_NS != 0),
            "peer-hosted pages must not migrate with b's blocks: {lpns:?}"
        );
        assert_eq!(a.try_migration_lpns(), Err(NodeDown));
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn stale_version_does_not_overwrite_newer_remote_copy() {
        let (a, b, _ba, _bb) = pair();
        a.write(1, b"v1");
        a.write(1, b"v2");
        // Wait for both replications to land.
        std::thread::sleep(Duration::from_millis(100));
        let g = b.hosted_remote_pages();
        assert_eq!(g, vec![1]);
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn recovery_replays_only_pages_that_pass_the_writers_crc() {
        let (ta, tb) = mem_pair();
        let ba = shared_backend(MemBackend::new());
        let a = Node::spawn(NodeConfig::test_profile(0), ta, ba.clone());
        // B keeps hosting in memory through A's short outage: no takeover.
        let mut cfg_b = NodeConfig::test_profile(1);
        cfg_b.failure_timeout = Duration::from_secs(30);
        let b = Node::spawn(cfg_b, tb, shared_backend(MemBackend::new()));
        let pages: Vec<Vec<u8>> = (0..5u8).map(|i| vec![b'a' + i; 16]).collect();
        assert!(a.write_run(0, 0, &pages).all_replicated());
        assert_eq!(b.hosted_remote_pages(), vec![0, 1, 2, 3, 4]);
        // Page 2 rots in B's memory after its CRC arrived.
        {
            let mut g = b.core.inner.lock();
            let held = g.hosted.remote.get_mut(&2).expect("hosted");
            held.2 = Bytes::from_static(b"rotten");
        }
        a.fail();
        a.restart();
        let before = a.stats().repl.corruptions_detected;
        assert_eq!(a.recover_from_peer(Duration::from_secs(2)), Ok(4));
        assert_eq!(a.stats().repl.corruptions_detected, before + 1);
        let backend = ba.lock();
        assert_eq!(backend.read_page(2), None, "rotten bytes were replayed");
        for lpn in [0, 1, 3, 4] {
            let (_, data) = backend.read_page(lpn).expect("replayed");
            assert_eq!(data, pages[lpn as usize]);
        }
        drop(backend);
        a.shutdown();
        b.shutdown();
    }
}
