//! One cooperative storage server.
//!
//! [`CoopServer`] wires the access portal of Figure 3 to a virtual-clock
//! replay: requests arrive at trace timestamps and contend for two FIFO
//! resources — the SSD channel and the replication NIC. A request's response
//! time is queueing plus service on whatever it had to touch:
//!
//! * **FlashCoop write** — DRAM insert + replication round trip to the peer's
//!   remote buffer; the SSD is *not* on the critical path. Evicted blocks are
//!   flushed asynchronously (they occupy the SSD timeline, delaying later
//!   read misses — the paper's "internal operations … compete for resources
//!   with incoming foreground requests").
//! * **FlashCoop read** — buffer hits cost DRAM; misses queue on the SSD and
//!   the fetched pages are cached.
//! * **Baseline** — every request goes synchronously to the SSD.
//!
//! The server also keeps the durability bookkeeping behind
//! [`CoopServer::unrecoverable_pages`]: `committed` models what is on the
//! SSD (the flash simulator stores no user data), and `versions` is the
//! oracle of acknowledged writes. Its peer's remote store is always
//! reachable; a peer that fails is the threaded node's concern
//! (`fc_cluster::Node`).

use crate::buffer::{BufferConfig, BufferManager};
use crate::config::{FlashCoopConfig, Scheme};
use crate::policy::Eviction;
use crate::tables::RemoteStore;
use fc_obs::{Histogram, Obs};
use fc_simkit::resource::Timeline;
use fc_simkit::stats::LatencyStats;
use fc_simkit::{SimDuration, SimTime};
use fc_ssd::{Lpn, Ssd};
use std::collections::HashMap;

/// Per-server response-time and replication counters.
#[derive(Debug, Clone, Default)]
pub struct ServerMetrics {
    /// All requests.
    pub response: LatencyStats,
    /// Writes only.
    pub write_response: LatencyStats,
    /// Reads only.
    pub read_response: LatencyStats,
    /// Pages replicated to the peer.
    pub replicated_pages: u64,
    /// Replications refused by a full remote store (forced sync flushes).
    pub remote_rejections: u64,
    /// Write requests handled.
    pub writes: u64,
    /// Read requests handled.
    pub reads: u64,
    /// TRIM requests handled.
    pub trims: u64,
    /// Length in pages of every destage run issued to the SSD (the
    /// sequentiality the buffer reshaped random writes into). When an
    /// observability handle is attached this is the registry's
    /// `core.destage.run_pages` histogram, shared by handle.
    pub destage_run_pages: Histogram,
}

/// Resource-utilisation snapshot for the dynamic allocation monitor
/// (the mᵢ, pᵢ, nᵢ of Equation 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UtilSample {
    /// Memory utilisation: buffer occupancy.
    pub m: f64,
    /// CPU utilisation.
    pub p: f64,
    /// Network utilisation.
    pub n: f64,
}

/// One cooperative storage server under trace replay.
pub struct CoopServer {
    cfg: FlashCoopConfig,
    scheme: Scheme,
    buffer: BufferManager,
    ssd: Ssd,
    /// Foreground device queue (synchronous writes, read misses).
    ssd_q: Timeline,
    /// Background device queue (asynchronous buffer flushes). Foreground
    /// requests do not wait behind this queue; they pay a bounded
    /// interference penalty instead (the device finishes its current
    /// page-level operation before serving the read).
    ssd_bg: Timeline,
    nic_q: Timeline,
    /// Latest acknowledged version per page (test oracle; would be the
    /// client's knowledge in a real deployment).
    versions: HashMap<u64, u64>,
    /// Version durably on the SSD per page (models device contents).
    committed: HashMap<u64, u64>,
    next_version: u64,
    metrics: ServerMetrics,
    cpu_busy: SimDuration,
    obs: Option<Obs>,
}

impl CoopServer {
    /// Build a server. `scheme` selects Baseline or FlashCoop behaviour; for
    /// Baseline the buffer exists but is bypassed.
    pub fn new(cfg: FlashCoopConfig, scheme: Scheme) -> Self {
        let buffer = BufferManager::from_config(BufferConfig {
            policy: cfg.policy,
            capacity: cfg.buffer_pages,
            pages_per_block: cfg.pages_per_block(),
            clustering: cfg.clustering,
            lar_dirty_tiebreak: cfg.lar_dirty_tiebreak,
            dirty_watermark: cfg.dirty_watermark,
        });
        let ssd = Ssd::new(cfg.ssd);
        CoopServer {
            buffer,
            ssd,
            ssd_q: Timeline::new(),
            ssd_bg: Timeline::new(),
            nic_q: Timeline::new(),
            versions: HashMap::new(),
            committed: HashMap::new(),
            next_version: 1,
            metrics: ServerMetrics::default(),
            cpu_busy: SimDuration::ZERO,
            cfg,
            scheme,
            obs: None,
        }
    }

    /// Wire the whole server into an observability handle: the buffer's
    /// hit/miss counters and eviction events, the SSD's program/erase/GC
    /// stream, per-request `write`/`read`/`trim` response events, `destage`
    /// events, and the `core.destage.run_pages` run-length histogram.
    ///
    /// Attach *after* preconditioning so aging traffic stays out of the
    /// stream. The handle's sim clock is advanced by each request handler.
    pub fn attach_obs(&mut self, obs: &Obs) {
        self.buffer.attach_obs(obs);
        self.ssd.attach_obs(obs);
        // Share the registry's histogram handle so destage recording feeds
        // snapshots directly (pre-attach recordings are folded in once:
        // a fresh server has none, so this is a plain handle swap).
        self.metrics.destage_run_pages = obs.registry().histogram("core.destage.run_pages");
        self.obs = Some(obs.clone());
    }

    /// The underlying SSD (stats inspection).
    pub fn ssd(&self) -> &Ssd {
        &self.ssd
    }

    /// Mutable SSD access (preconditioning).
    pub fn ssd_mut(&mut self) -> &mut Ssd {
        &mut self.ssd
    }

    /// The local buffer.
    pub fn buffer(&self) -> &BufferManager {
        &self.buffer
    }

    /// Response-time metrics.
    pub fn metrics(&self) -> &ServerMetrics {
        &self.metrics
    }

    /// Mutable metrics (percentile queries sort internally).
    pub fn metrics_mut(&mut self) -> &mut ServerMetrics {
        &mut self.metrics
    }

    /// Dynamic-allocation parameters (Equation 1 weights and period).
    pub fn alloc_params(&self) -> crate::config::AllocParams {
        self.cfg.alloc
    }

    /// Re-evaluation period for the dynamic allocation loop.
    pub fn util_period(&self) -> SimDuration {
        self.cfg.alloc.period
    }

    /// Resource utilisation over `[0, now]` (Equation 1 inputs).
    pub fn util_sample(&self, now: SimTime) -> UtilSample {
        let horizon = now.as_nanos();
        let p = if horizon == 0 {
            0.0
        } else {
            (self.cpu_busy.as_nanos() as f64 / horizon as f64).min(1.0)
        };
        UtilSample {
            m: self.buffer.occupancy().min(1.0),
            p,
            n: self.nic_q.utilization(now),
        }
    }

    /// Bounded interference a foreground request suffers when background
    /// flush work is in flight: the device completes its current page-level
    /// operation before switching to the foreground request.
    fn bg_interference(&self, now: SimTime) -> SimDuration {
        if self.ssd_bg.is_idle_at(now) {
            SimDuration::ZERO
        } else {
            self.cfg.ssd.timing.host_page_program()
        }
    }

    /// Handle a write request arriving at `now`. `remote` is the store the
    /// peer donates for this server's replicas.
    pub fn handle_write(
        &mut self,
        now: SimTime,
        lpn: u64,
        pages: u32,
        remote: &mut RemoteStore,
    ) -> SimDuration {
        if let Some(o) = &self.obs {
            o.set_sim_now(now.as_nanos());
        }
        let version = self.next_version;
        self.next_version += 1;
        for i in 0..pages as u64 {
            self.versions.insert(lpn + i, version);
        }
        self.metrics.writes += 1;
        self.cpu_busy += self.cfg.cpu_per_request;

        let resp = match self.scheme {
            Scheme::Baseline => {
                let service = self.ssd.write(Lpn(lpn), pages) + self.bg_interference(now);
                let grant = self.ssd_q.acquire(now, service);
                self.commit_range(lpn, pages, version);
                grant.latency_since(now)
            }
            Scheme::FlashCoop(_) => {
                let dram = self.cfg.dram_page_access.saturating_mul(pages as u64);
                self.cpu_busy += dram;
                let ev = self.buffer.write(lpn, pages);

                // Replicate every written page to the peer's remote buffer.
                let mut rejected: Vec<u64> = Vec::new();
                let mut ack_at = now + dram;
                if self.cfg.replication {
                    for i in 0..pages as u64 {
                        let p = lpn + i;
                        if remote.write(p, version) {
                            self.metrics.replicated_pages += 1;
                        } else {
                            rejected.push(p);
                            self.metrics.remote_rejections += 1;
                        }
                    }
                    let bytes = pages as u64 * self.cfg.ssd.geometry.page_bytes as u64;
                    let grant = self
                        .nic_q
                        .acquire(now, self.cfg.link.serialization_time(bytes));
                    ack_at = ack_at.max(grant.end + self.cfg.link.latency * 2);
                }

                // Pages that could not be replicated are flushed
                // synchronously — durability must not regress.
                if !rejected.is_empty() {
                    let runs: Vec<(Lpn, u32)> = rejected.iter().map(|&p| (Lpn(p), 1)).collect();
                    let service = self.ssd.write_batch(&runs);
                    let grant = self.ssd_q.acquire(now, service);
                    ack_at = ack_at.max(grant.end);
                    for &p in &rejected {
                        self.committed.insert(p, version);
                        self.buffer.mark_clean(p);
                    }
                }

                self.issue_flushes(now, &ev, remote);
                // Proactive cleaning, when configured: write back dirty data
                // in the background before replacement pressure forces it.
                let bg = self.buffer.background_clean();
                self.issue_flushes(now, &bg, remote);
                ack_at.saturating_since(now)
            }
        };
        self.metrics.response.push(resp);
        self.metrics.write_response.push(resp);
        if let Some(o) = &self.obs {
            o.emit(
                o.event("core", "write")
                    .u64_field("lpn", lpn)
                    .u64_field("pages", pages as u64)
                    .u64_field("resp_ns", resp.as_nanos()),
            );
        }
        resp
    }

    /// Handle a read request arriving at `now`.
    pub fn handle_read(
        &mut self,
        now: SimTime,
        lpn: u64,
        pages: u32,
        remote: &mut RemoteStore,
    ) -> SimDuration {
        if let Some(o) = &self.obs {
            o.set_sim_now(now.as_nanos());
        }
        self.metrics.reads += 1;
        self.cpu_busy += self.cfg.cpu_per_request;
        let resp = match self.scheme {
            Scheme::Baseline => {
                let service = self.ssd.read(Lpn(lpn), pages) + self.bg_interference(now);
                let grant = self.ssd_q.acquire(now, service);
                grant.latency_since(now)
            }
            Scheme::FlashCoop(_) => {
                let segments = self.buffer.read(lpn, pages);
                let mut done = now;
                let mut dram_total = SimDuration::ZERO;
                for seg in &segments {
                    if seg.hit {
                        dram_total += self.cfg.dram_page_access.saturating_mul(seg.pages as u64);
                    } else {
                        let service =
                            self.ssd.read(Lpn(seg.lpn), seg.pages) + self.bg_interference(now);
                        let grant = self.ssd_q.acquire(now, service);
                        done = done.max(grant.end);
                        let ev = self.buffer.insert_clean(seg.lpn, seg.pages);
                        self.issue_flushes(now, &ev, remote);
                    }
                }
                self.cpu_busy += dram_total;
                done = done.max(now + dram_total);
                done.saturating_since(now)
            }
        };
        self.metrics.response.push(resp);
        self.metrics.read_response.push(resp);
        if let Some(o) = &self.obs {
            o.emit(
                o.event("core", "read")
                    .u64_field("lpn", lpn)
                    .u64_field("pages", pages as u64)
                    .u64_field("resp_ns", resp.as_nanos()),
            );
        }
        resp
    }

    /// Record that `pages` pages at `lpn` are durable at `version`.
    fn commit_range(&mut self, lpn: u64, pages: u32, version: u64) {
        for i in 0..pages as u64 {
            let e = self.committed.entry(lpn + i).or_insert(version);
            *e = (*e).max(version);
        }
    }

    /// Issue the flush work of an eviction as one batched device write, off
    /// the request's critical path; commit versions and release remote copies.
    fn issue_flushes(&mut self, now: SimTime, ev: &Eviction, remote: &mut RemoteStore) {
        if ev.is_empty() {
            return;
        }
        let runs: Vec<(Lpn, u32)> = ev.runs.iter().map(|r| (Lpn(r.lpn), r.pages)).collect();
        for r in &ev.runs {
            self.metrics.destage_run_pages.record(r.pages as u64);
        }
        let service = self.ssd.write_batch(&runs);
        self.ssd_bg.acquire_background(now, service);
        if let Some(o) = &self.obs {
            let lengths: Vec<u64> = ev.runs.iter().map(|r| r.pages as u64).collect();
            o.emit(
                o.event("core", "destage")
                    .u64_field("runs", lengths.len() as u64)
                    .u64_field("pages", lengths.iter().sum())
                    .u64s_field("run_pages", lengths)
                    .u64_field("service_ns", service.as_nanos()),
            );
        }
        for r in &ev.runs {
            for i in 0..r.pages as u64 {
                let p = r.lpn + i;
                if let Some(&v) = self.versions.get(&p) {
                    let e = self.committed.entry(p).or_insert(v);
                    *e = (*e).max(v);
                }
                remote.discard(p);
            }
        }
    }

    /// Handle a TRIM (file deletion) arriving at `now`: the data ceases to
    /// exist everywhere — buffer, remote replica, device mapping, and the
    /// durability oracle. "Short lived files … are removed and purged from
    /// the buffer before they are pushed to SSD" (Section III.A).
    pub fn handle_trim(
        &mut self,
        now: SimTime,
        lpn: u64,
        pages: u32,
        remote: &mut RemoteStore,
    ) -> SimDuration {
        if let Some(o) = &self.obs {
            o.set_sim_now(now.as_nanos());
        }
        self.metrics.trims += 1;
        self.cpu_busy += self.cfg.cpu_per_request;
        match self.scheme {
            Scheme::FlashCoop(_) => {
                self.buffer.discard(lpn, pages);
            }
            Scheme::Baseline => {}
        }
        for i in 0..pages as u64 {
            let p = lpn + i;
            self.versions.remove(&p);
            self.committed.remove(&p);
            remote.discard(p);
        }
        let service = self.ssd.trim(Lpn(lpn), pages);
        // TRIM is a metadata command; it still serialises on the device.
        let grant = self.ssd_q.acquire(now, service);
        let resp = grant.latency_since(now).max(self.cfg.dram_page_access);
        self.metrics.response.push(resp);
        if let Some(o) = &self.obs {
            o.emit(
                o.event("core", "trim")
                    .u64_field("lpn", lpn)
                    .u64_field("pages", pages as u64)
                    .u64_field("resp_ns", resp.as_nanos()),
            );
        }
        resp
    }

    /// Apply a new local-buffer capacity (dynamic memory allocation);
    /// evictions forced by a shrink are flushed in the background.
    pub fn resize_buffer(&mut self, now: SimTime, pages: usize, remote: &mut RemoteStore) {
        let ev = self.buffer.set_capacity(pages);
        self.issue_flushes(now, &ev, remote);
    }

    // ---- local failure (Section III.D) ------------------------------------

    /// Local failure: the server crashes, losing its volatile buffer. SSD
    /// contents (`committed`) survive.
    pub fn crash(&mut self) {
        self.buffer.clear();
    }

    /// Local-failure recovery, step 2-3: replay the peer's remote-buffer
    /// snapshot into the SSD. Returns the time the replay occupied the SSD.
    /// The caller then purges the peer's store (step 4).
    pub fn recover_from_snapshot(&mut self, now: SimTime, snapshot: &[(u64, u64)]) -> SimDuration {
        if snapshot.is_empty() {
            return SimDuration::ZERO;
        }
        let mut runs = Vec::new();
        crate::policy::push_runs(&mut runs, snapshot.iter().map(|&(l, _)| (l, true)));
        let batch: Vec<(Lpn, u32)> = runs.iter().map(|r| (Lpn(r.lpn), r.pages)).collect();
        let service = self.ssd.write_batch(&batch);
        let grant = self.ssd_q.acquire(now, service);
        for &(lpn, ver) in snapshot {
            let e = self.committed.entry(lpn).or_insert(ver);
            *e = (*e).max(ver);
        }
        grant.latency_since(now)
    }

    /// Durability check: every acknowledged write's latest version must be
    /// recoverable — on the SSD, dirty in the local buffer, or replicated in
    /// the peer's store. Returns the LPNs that violate this (empty = safe).
    pub fn unrecoverable_pages(&self, peer_store: &RemoteStore) -> Vec<u64> {
        let mut bad: Vec<u64> = self
            .versions
            .iter()
            .filter(|&(&lpn, &ver)| {
                let committed_ok = self.committed.get(&lpn).is_some_and(|&c| c >= ver);
                let buffered_ok = self.buffer.lookup(lpn) == Some(true);
                let replicated_ok = peer_store.get(lpn).is_some_and(|v| v >= ver);
                !committed_ok && !buffered_ok && !replicated_ok
            })
            .map(|(&lpn, _)| lpn)
            .collect();
        bad.sort_unstable();
        bad
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PolicyKind;
    use fc_ssd::FtlKind;

    fn server(scheme: Scheme) -> CoopServer {
        let policy = match scheme {
            Scheme::FlashCoop(p) => p,
            Scheme::Baseline => PolicyKind::Lar,
        };
        CoopServer::new(FlashCoopConfig::tiny(FtlKind::PageLevel, policy), scheme)
    }

    fn lar() -> Scheme {
        Scheme::FlashCoop(PolicyKind::Lar)
    }

    #[test]
    fn flashcoop_write_is_much_faster_than_baseline() {
        let mut fc = server(lar());
        let mut base = server(Scheme::Baseline);
        let mut remote = RemoteStore::new(1024);
        let t_fc = fc.handle_write(SimTime::ZERO, 0, 1, &mut remote);
        let t_base = base.handle_write(SimTime::ZERO, 0, 1, &mut remote);
        assert!(
            t_fc.as_nanos() * 3 < t_base.as_nanos(),
            "buffered {t_fc} vs sync {t_base}"
        );
        assert_eq!(remote.len(), 1, "only the buffered write replicates");
    }

    #[test]
    fn read_hit_is_served_from_dram() {
        let mut s = server(lar());
        let mut remote = RemoteStore::new(1024);
        s.handle_write(SimTime::ZERO, 5, 1, &mut remote);
        let t = s.handle_read(SimTime::from_millis(1), 5, 1, &mut remote);
        assert_eq!(t, s.cfg.dram_page_access);
    }

    #[test]
    fn read_miss_queues_on_ssd_and_caches() {
        let mut s = server(lar());
        let mut remote = RemoteStore::new(1024);
        let t1 = s.handle_read(SimTime::ZERO, 9, 1, &mut remote);
        assert!(t1 >= SimDuration::from_micros(100)); // at least the bus transfer
                                                      // Second read of the same page hits DRAM.
        let t2 = s.handle_read(SimTime::from_millis(1), 9, 1, &mut remote);
        assert!(t2 < t1);
    }

    #[test]
    fn eviction_commits_versions_and_discards_remote_copies() {
        let mut s = server(lar());
        let mut remote = RemoteStore::new(1024);
        // Tiny config: 16-page buffer, 4-page blocks. Fill 5 blocks with
        // single accesses → overflow evicts least-popular whole blocks.
        let mut now = SimTime::ZERO;
        for blk in 0..5u64 {
            s.handle_write(now, blk * 4, 4, &mut remote);
            now += SimDuration::from_millis(1);
        }
        assert!(!s.committed.is_empty(), "flushes must commit pages");
        // Every acknowledged page is recoverable somewhere.
        assert!(s.unrecoverable_pages(&remote).is_empty());
        // Remote copies of committed pages were discarded.
        assert!(remote.len() < 20);
    }

    #[test]
    fn baseline_commits_synchronously() {
        let mut s = server(Scheme::Baseline);
        let mut remote = RemoteStore::new(1024);
        s.handle_write(SimTime::ZERO, 3, 2, &mut remote);
        assert_eq!(s.committed.len(), 2);
        assert!(remote.is_empty());
        assert!(s.unrecoverable_pages(&remote).is_empty());
    }

    #[test]
    fn crash_loses_buffer_but_replicas_cover_it() {
        let mut s = server(lar());
        let mut remote = RemoteStore::new(1024);
        s.handle_write(SimTime::ZERO, 0, 4, &mut remote);
        s.crash();
        // Buffer gone: the only copies are remote.
        assert_eq!(s.buffer().resident(), 0);
        assert!(s.unrecoverable_pages(&remote).is_empty());
        let lost = RemoteStore::new(0);
        assert_eq!(s.unrecoverable_pages(&lost), vec![0, 1, 2, 3]);
        // Recovery replays the snapshot into the SSD.
        let snap = remote.snapshot();
        let d = s.recover_from_snapshot(SimTime::from_millis(5), &snap);
        assert!(d > SimDuration::ZERO);
        assert!(s.unrecoverable_pages(&lost).is_empty());
    }

    #[test]
    fn full_remote_store_forces_synchronous_flush() {
        let mut s = server(lar());
        let mut remote = RemoteStore::new(2);
        let t = s.handle_write(SimTime::ZERO, 0, 4, &mut remote);
        // 2 pages replicated, 2 rejected → sync flush dominates latency.
        assert_eq!(s.metrics().replicated_pages, 2);
        assert_eq!(s.metrics().remote_rejections, 2);
        assert!(t >= SimDuration::from_micros(300));
        assert!(s.unrecoverable_pages(&remote).is_empty());
    }

    #[test]
    fn util_sample_tracks_buffer_and_nic() {
        let mut s = server(lar());
        let mut remote = RemoteStore::new(1024);
        let u0 = s.util_sample(SimTime::ZERO);
        assert_eq!(u0.m, 0.0);
        s.handle_write(SimTime::ZERO, 0, 8, &mut remote);
        let u = s.util_sample(SimTime::from_millis(1));
        assert!(u.m > 0.0);
        assert!(u.n > 0.0);
        assert!(u.p > 0.0);
        assert!(u.m <= 1.0 && u.n <= 1.0 && u.p <= 1.0);
    }

    #[test]
    fn dirty_watermark_bounds_exposed_data() {
        let mut cfg = FlashCoopConfig::tiny(FtlKind::PageLevel, PolicyKind::Lar);
        cfg.dirty_watermark = Some(0.5);
        let mut s = CoopServer::new(cfg, Scheme::FlashCoop(PolicyKind::Lar));
        let mut remote = RemoteStore::new(1024);
        let mut now = SimTime::ZERO;
        for i in 0..64u64 {
            s.handle_write(now, i % 14, 1, &mut remote);
            now += SimDuration::from_millis(1);
        }
        // 16-page buffer, 0.5 watermark: dirty stays near/below 8 + one block.
        assert!(
            s.buffer().dirty() <= 12,
            "dirty {} not bounded by the watermark",
            s.buffer().dirty()
        );
        // Cleaned pages were committed (durable) and remain readable fast.
        assert!(!s.committed.is_empty());
        assert!(s.unrecoverable_pages(&remote).is_empty());
    }

    #[test]
    fn trim_erases_all_traces_of_the_data() {
        let mut s = server(lar());
        let mut remote = RemoteStore::new(1024);
        s.handle_write(SimTime::ZERO, 0, 4, &mut remote);
        assert_eq!(s.buffer().dirty(), 4);
        assert_eq!(remote.len(), 4);
        s.handle_trim(SimTime::from_millis(1), 0, 4, &mut remote);
        assert_eq!(s.buffer().dirty(), 0);
        assert_eq!(s.buffer().resident(), 0);
        assert_eq!(remote.len(), 0);
        // Deleted data needs no recovery: nothing is unrecoverable.
        assert!(s.unrecoverable_pages(&remote).is_empty());
        assert_eq!(s.metrics().trims, 1);
        // The short-lived data never reached the SSD.
        assert_eq!(s.ssd().stats().host_pages_written, 0);
    }

    #[test]
    fn baseline_trim_reaches_the_device() {
        let mut s = server(Scheme::Baseline);
        let mut remote = RemoteStore::new(1024);
        s.handle_write(SimTime::ZERO, 0, 2, &mut remote);
        s.handle_trim(SimTime::from_millis(1), 0, 2, &mut remote);
        assert_eq!(s.ssd().stats().trims, 1);
        assert!(s.unrecoverable_pages(&remote).is_empty());
    }

    #[test]
    fn obs_request_events_cover_every_response_sample() {
        let (obs, ring) = fc_obs::Obs::ring(4096);
        let mut s = server(lar());
        s.attach_obs(&obs);
        let mut remote = RemoteStore::new(1024);
        let mut now = SimTime::ZERO;
        for blk in 0..6u64 {
            s.handle_write(now, blk * 4, 4, &mut remote);
            now += SimDuration::from_millis(1);
        }
        s.handle_read(now, 0, 2, &mut remote);
        s.handle_trim(now, 20, 1, &mut remote);
        let events = ring.events();
        let resp: Vec<u64> = events
            .iter()
            .filter(|e| {
                e.component == "core" && matches!(e.kind.as_ref(), "write" | "read" | "trim")
            })
            .map(|e| e.get("resp_ns").unwrap().as_u64().unwrap())
            .collect();
        assert_eq!(resp.len() as u64, s.metrics().response.count());
        // The stream reproduces the mean response time exactly.
        let mean = resp.iter().sum::<u64>() as f64 / resp.len() as f64;
        let reported = s.metrics_mut().response.mean().as_nanos() as f64;
        assert!((mean - reported).abs() <= 1.0, "{mean} vs {reported}");
        // Destage events carry the same run lengths the histogram recorded.
        let destage_pages: u64 = events
            .iter()
            .filter(|e| e.kind == "destage")
            .map(|e| e.get("pages").unwrap().as_u64().unwrap())
            .sum();
        assert!(destage_pages > 0, "writes overflowed the tiny buffer");
        assert_eq!(destage_pages, s.metrics().destage_run_pages.sum());
    }

    #[test]
    fn metrics_partition_reads_and_writes() {
        let mut s = server(lar());
        let mut remote = RemoteStore::new(1024);
        s.handle_write(SimTime::ZERO, 0, 1, &mut remote);
        s.handle_read(SimTime::from_millis(1), 0, 1, &mut remote);
        s.handle_read(SimTime::from_millis(2), 50, 1, &mut remote);
        let m = s.metrics();
        assert_eq!(m.writes, 1);
        assert_eq!(m.reads, 2);
        assert_eq!(m.response.count(), 3);
        assert_eq!(m.write_response.count(), 1);
        assert_eq!(m.read_response.count(), 2);
    }
}
