//! Elastic-membership hooks: what the gateway's rebalance calls to list,
//! export, import and fence out a pair's blocks.

use super::state::Resident;
use super::{MigrateError, Node, NodeDown};
use crate::wire::{crc32, resync_entry, ResyncEntry};
use bytes::Bytes;

impl Node {
    /// Every lpn this node holds as the pair's *own* data — buffer-resident
    /// pages plus durable backend pages, excluding the peer namespace
    /// (pages hosted for the peer move with the peer, not with this pair's
    /// blocks). Sorted ascending. This is the occupancy set the gateway's
    /// rebalance intersects with the ring diff to fence the minimal
    /// moved-block set.
    pub fn try_migration_lpns(&self) -> Result<Vec<u64>, NodeDown> {
        self.live()?;
        let inner = self.core.inner.lock();
        let mut lpns = inner.buffer.resident_pages();
        lpns.extend(inner.hosted.own_durable_lpns());
        lpns.sort_unstable();
        lpns.dedup();
        Ok(lpns)
    }

    /// Export the newest acked copy of each requested page as CRC-framed
    /// [`ResyncEntry`]s — the same `(lpn, version, crc, data)` framing the
    /// pair's replication batches use, so the importer verifies integrity
    /// before applying. Absent pages are skipped (a trim may race the
    /// plan); the node's own state is untouched. Call under the gateway's migration
    /// fence so no client write to these pages is in flight.
    pub fn try_export_pages(&self, lpns: &[u64]) -> Result<Vec<ResyncEntry>, NodeDown> {
        self.live()?;
        let inner = self.core.inner.lock();
        let mut out = Vec::with_capacity(lpns.len());
        for &lpn in lpns {
            if let Some(page) = inner.buffer.get(lpn) {
                out.push(resync_entry(lpn, page.version, page.bytes.clone()));
            } else if let Some((ver, data)) = inner.backend.lock().read_page(lpn) {
                out.push(resync_entry(lpn, ver, Bytes::from(data)));
            }
        }
        Ok(out)
    }

    /// Import migrated pages from another pair. Every frame CRC is
    /// verified *before* anything is applied — a torn batch changes
    /// nothing and the rebalance can resend it. Accepted pages land durable on
    /// the backend (version-guarded, so a newer local copy is never rolled
    /// back) and clean in the buffer; they are not replicated to the peer
    /// (the next client write replicates normally). Returns the pages
    /// applied.
    pub fn try_import_pages(&self, entries: &[ResyncEntry]) -> Result<u64, MigrateError> {
        self.live()?;
        for (lpn, _ver, crc, data) in entries {
            if crc32(data) != *crc {
                return Err(MigrateError::Corrupt { lpn: *lpn });
            }
        }
        Ok(self.under_inner(|inner| {
            for (_, ver, ..) in entries {
                inner.observe_version(*ver);
            }
            let mut fill = Vec::with_capacity(entries.len());
            let mut backend = inner.backend.lock();
            for (lpn, ver, crc, data) in entries {
                backend.write_page(*lpn, *ver, data);
                // The guard kept a newer durable copy; don't shadow it
                // with an older buffered one.
                let stale = backend.version_of(*lpn).is_some_and(|bv| bv > *ver);
                if stale || inner.buffer.get(*lpn).is_some_and(|p| p.version > *ver) {
                    continue;
                }
                let page = Resident {
                    bytes: data.clone(),
                    crc: *crc,
                    version: *ver,
                };
                fill.push((*lpn, page));
            }
            drop(backend);
            let imported = fill.len() as u64;
            let flushed = inner.fill_runs(fill);
            inner.obs.migrated_in_pages.add(imported);
            inner.note("migrate_in", |e| e.u64_field("pages", imported));
            (imported, flushed)
        }))
    }

    /// Fence migrated pages out of this pair: drop the buffered copy and
    /// the backend copy, and send the peer a version-bounded discard for
    /// its replicas — after this returns, nothing on either node of the
    /// pair can resurrect the page (the node-side half of migration
    /// fencing; the gateway's routing fence is the other).
    /// Returns the pages that existed here. Call only after the
    /// destination acked the import.
    pub fn try_release_pages(&self, lpns: &[u64]) -> Result<u64, NodeDown> {
        self.forget_pages(lpns.iter().copied(), true, |inner, released| {
            inner.obs.migrated_out_pages.add(released);
            inner.note("migrate_out", |e| e.u64_field("pages", released));
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::testkit::*;

    #[test]
    fn migration_moves_pages_between_pairs_and_fences_the_source() {
        let (a1, a2, _ba, _bb) = pair();
        let (tb1, tb2) = mem_pair();
        let b1 = Node::spawn(
            NodeConfig::test_profile(2),
            tb1,
            shared_backend(MemBackend::new()),
        );
        let b2 = Node::spawn(
            NodeConfig::test_profile(3),
            tb2,
            shared_backend(MemBackend::new()),
        );
        for lpn in 0..4u64 {
            assert_eq!(a1.write(lpn, format!("m{lpn}").as_bytes()), {
                WriteOutcome::Replicated
            });
        }
        a1.try_flush_dirty().unwrap(); // half durable, half will re-dirty
        a1.write(0, b"m0v2");
        let lpns = a1.try_migration_lpns().unwrap();
        assert_eq!(lpns, vec![0, 1, 2, 3]);

        let entries = a1.try_export_pages(&lpns).unwrap();
        assert_eq!(entries.len(), 4);
        for (_, _, crc, data) in &entries {
            assert_eq!(*crc, crc32(data));
        }
        assert_eq!(b1.try_import_pages(&entries), Ok(4));
        assert_eq!(b1.read(0), Some(b"m0v2".to_vec()), "newest copy must move");
        assert_eq!(b1.stats().migrated_in_pages, 4);

        assert_eq!(a1.try_release_pages(&lpns), Ok(4));
        assert_eq!(a1.stats().migrated_out_pages, 4);
        for lpn in 0..4u64 {
            assert_eq!(a1.read(lpn), None, "fenced page served after release");
            assert!(b1.read(lpn).is_some());
        }
        // The version-bounded discard scrubs the peer's replicas too.
        assert!(wait_until(
            || a2.hosted_remote_pages().is_empty(),
            Duration::from_secs(2)
        ));
        a1.shutdown();
        a2.shutdown();
        b1.shutdown();
        b2.shutdown();
    }

    #[test]
    fn import_verifies_crc_before_applying_anything() {
        let (a, b, _ba, _bb) = pair();
        let good = resync_entry(1, 1, Bytes::from_static(b"ok"));
        let mut bad = resync_entry(2, 1, Bytes::from_static(b"tampered"));
        bad.3 = Bytes::from_static(b"tampereX");
        assert_eq!(
            a.try_import_pages(&[good, bad]),
            Err(MigrateError::Corrupt { lpn: 2 })
        );
        // Torn batch: nothing applied, not even the valid frame.
        assert_eq!(a.read(1), None);
        assert_eq!(a.stats().migrated_in_pages, 0);
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn import_never_rolls_back_a_newer_local_copy() {
        let (a, b, _ba, _bb) = pair();
        a.write(7, b"newer");
        let stale = resync_entry(7, 0, Bytes::from_static(b"stale"));
        assert_eq!(a.try_import_pages(&[stale]), Ok(0));
        assert_eq!(a.read(7), Some(b"newer".to_vec()));
        a.shutdown();
        b.shutdown();
    }
}
