//! Client ops through the router — read, trim, flush, batch-window write
//! submission — each under the route-table read guard for its whole
//! fan-out, every shard call through [`Gateway::with_shard`].

use bytes::Bytes;

use super::failover::Unavail;
use super::Gateway;
use crate::batch::{coalesce_sharded, run_origin, WriteSpan};

impl Gateway {
    /// Read `[lpn, lpn+pages)` through the router. Returns the page
    /// payloads (present/absent), or [`Unavail`] when a touched shard
    /// stayed down past the retry deadline (pages from segments already
    /// served are counted but not returned). The span is
    /// walked as contiguous same-shard segments, each counted and timed
    /// against its shard's `gateway.shard.*` instruments — a read
    /// straddling a shard boundary touches every owning pair.
    pub(super) fn do_read(
        &self,
        client: u64,
        lpn: u64,
        pages: u32,
    ) -> Result<Vec<Option<Bytes>>, Unavail> {
        let mut out = Vec::with_capacity(pages as usize);
        let rt = self.routes.read();
        for (shard, start, count) in rt.segments(lpn, pages) {
            let sb = rt.shard(shard);
            let seg = self.with_shard(shard, sb, |node| node.try_read_run(client, start, count))?;
            sb.ins.read_pages.add(u64::from(count));
            sb.ins.read_found.add(seg.iter().flatten().count() as u64);
            out.extend(seg);
        }
        Ok(out)
    }

    /// Trim `[lpn, lpn+pages)` through the router, segment-counted per
    /// shard like [`Gateway::do_read`].
    pub(super) fn do_trim(&self, client: u64, lpn: u64, pages: u32) -> Result<(), Unavail> {
        let rt = self.routes.read();
        for (shard, start, count) in rt.segments(lpn, pages) {
            let sb = rt.shard(shard);
            self.with_shard(shard, sb, |node| node.try_delete_run(client, start, count))?;
            sb.ins.trim_pages.add(u64::from(count));
        }
        Ok(())
    }

    /// Flush dirty pages, fanned out to every ring member's active replica
    /// (during a rebalance window: the union of old and new members, since
    /// a retiring pair still holds unmigrated dirty pages). Returns total
    /// pages destaged, or [`Unavail`] when some pair is entirely down
    /// (pages flushed on earlier shards stay flushed and counted).
    ///
    /// Shards that are `provably_dead` are skipped up front instead of each
    /// burning the full retry deadline; the flush still walks every
    /// serviceable shard, then answers `Unavailable` for the first dead one
    /// (every shard's hint is the same failback period).
    pub(super) fn do_flush(&self) -> Result<u64, Unavail> {
        let rt = self.routes.read();
        let mut total = 0u64;
        let mut dead: Option<(u16, u32)> = None;
        for shard in rt.flush_members() {
            let sb = rt.shard(shard);
            if let Some(hint) = sb.provably_dead() {
                dead = dead.or(Some((shard, hint)));
                continue;
            }
            let flushed = self.with_shard(shard, sb, |node| node.try_flush_dirty())?;
            sb.ins.flushed_pages.add(flushed);
            total += flushed;
        }
        if let Some((shard, retry_after_ms)) = dead {
            return Err(self.give_up(shard, rt.shard(shard), retry_after_ms));
        }
        Ok(total)
    }

    /// Coalesce one batch window's pages into runs and submit them. Runs
    /// never cross a logical-block boundary nor a shard boundary
    /// ([`coalesce_sharded`]) — each run goes whole to exactly one pair —
    /// and the runs one pair owns go to it together: one
    /// [`Gateway::with_shard`] call and one [`Node::try_write_runs`](fc_cluster::Node::try_write_runs) group
    /// per shard touched, lpn order kept inside the group, so a request
    /// straddling a block boundary pays one replication round trip.
    ///
    /// `spans` are the window's admitted writes, one `(id, lpn, pages)`
    /// each in receive order; each run is stamped with a tag derived from
    /// the id of the last one covering it, so a client resending
    /// the same write request after an ambiguous failure — or `with_shard`
    /// retrying a group on the surviving replica — hits the node's dedup
    /// window run by run instead of double-applying. `Ok` says whether
    /// every page submitted was replicated to its node's peer. If a shard
    /// stays down past the retry deadline, submission stops there —
    /// groups already applied stay applied (and counted), and the caller
    /// answers *every* write in the batch with `Unavailable`, which is
    /// safe precisely because the dedup tags make the client's resend of
    /// the already-applied runs idempotent.
    pub(super) fn submit_writes(
        &self,
        client: u64,
        flat: Vec<(u64, Bytes)>,
        spans: &[WriteSpan],
    ) -> Result<bool, Unavail> {
        let mut all_replicated = true;
        let rt = self.routes.read();
        let tagged = coalesce_sharded(flat, self.cfg.pages_per_block, |lpn| rt.owner_of_lpn(lpn));
        // One group of run indices per shard touched, shards in order of
        // first appearance.
        let mut groups: Vec<(u16, Vec<usize>)> = Vec::new();
        for (i, (shard, _)) in tagged.iter().enumerate() {
            match groups.iter_mut().find(|(s, _)| s == shard) {
                Some((_, group)) => group.push(i),
                None => groups.push((*shard, vec![i])),
            }
        }
        for (shard, group) in groups {
            let sb = rt.shard(shard);
            // Each run's tag, and the pages the window's writes put inside
            // it before coalescing — counted only once the run submits,
            // keeping the counter-sum identity exact even when a batch
            // aborts midway.
            let (runs, in_pages): (Vec<_>, Vec<u64>) = group
                .iter()
                .map(|&i| {
                    let run = &tagged[i].1;
                    let (id, in_n) = run_origin(spans, run);
                    // Stable across resends of the same request; mixed so
                    // ids from different clients' id spaces don't collide
                    // within one window.
                    let tag = id.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ run.lpn;
                    ((tag, run.lpn, run.pages.as_slice()), in_n)
                })
                .unzip();
            let outcomes = self.with_shard(shard, sb, |node| node.try_write_runs(client, &runs))?;
            for ((&i, outcome), in_n) in group.iter().zip(outcomes).zip(in_pages) {
                let out_n = tagged[i].1.len() as u64;
                sb.ins.runs.inc();
                sb.ins.write_pages.add(in_n);
                sb.ins.coalesced_pages.add(in_n - out_n);
                // (A dedup-cached outcome may describe a run composed
                // differently on the first attempt, hence `>=`.)
                all_replicated &= outcome.replicated >= out_n;
            }
        }
        Ok(all_replicated)
    }
}
