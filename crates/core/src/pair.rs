//! The cooperative pair — two servers backing each other's writes.
//!
//! "Storage cluster is configured into cooperative pairs, in which each
//! server of the pair serves its own read/write requests, as well as remote
//! write requests from neighboring peer" (Section III.A). [`CoopPair`]
//! replays two traces merged by timestamp, each server replicating into the
//! remote store its peer donates, and runs the dynamic memory allocation
//! loop of Equation 1 between them (Figure 9). The pair never fails:
//! crashes, heartbeats and recovery are the threaded node's
//! (`fc_cluster::Node`).

use crate::alloc::{resource_usage, theta, ThetaSample, WorkloadWindow};
use crate::config::{FlashCoopConfig, Scheme};
use crate::server::CoopServer;
use crate::tables::RemoteStore;
use fc_simkit::SimTime;
use fc_trace::Trace;

/// Two cooperative servers and the allocation loop between them.
pub struct CoopPair {
    servers: [CoopServer; 2],
    /// `stores[i]` holds server *i*'s replicated pages; it is memory
    /// donated by server `1-i`.
    stores: [RemoteStore; 2],
    windows: [WorkloadWindow; 2],
    total_mem: [usize; 2],
    theta_now: [f64; 2],
    theta_log: [Vec<ThetaSample>; 2],
    last_alloc: SimTime,
}

impl CoopPair {
    /// Build a pair. `cfg.buffer_pages` is interpreted as each server's
    /// *total* donatable memory M; the dynamic allocator splits it into
    /// local buffer (M·(1−θ)) and hosted remote buffer (M·θ), starting at
    /// 50/50.
    pub fn new(cfg0: FlashCoopConfig, cfg1: FlashCoopConfig) -> Self {
        let m0 = cfg0.buffer_pages;
        let m1 = cfg1.buffer_pages;
        let s0 = Scheme::FlashCoop(cfg0.policy);
        let s1 = Scheme::FlashCoop(cfg1.policy);
        let mut pair = CoopPair {
            servers: [CoopServer::new(cfg0, s0), CoopServer::new(cfg1, s1)],
            stores: [RemoteStore::new(m1 / 2), RemoteStore::new(m0 / 2)],
            windows: [WorkloadWindow::new(), WorkloadWindow::new()],
            total_mem: [m0, m1],
            theta_now: [0.5, 0.5],
            theta_log: [Vec::new(), Vec::new()],
            last_alloc: SimTime::ZERO,
        };
        for i in 0..2 {
            pair.apply_theta(SimTime::ZERO, i, 0.5);
        }
        pair
    }

    /// θ history of server `i` (Figure 9's series).
    pub fn theta_log(&self, i: usize) -> &[ThetaSample] {
        &self.theta_log[i]
    }

    /// Current θ of server `i`.
    pub fn theta_now(&self, i: usize) -> f64 {
        self.theta_now[i]
    }

    /// Replay two traces (one per server) merged by timestamp, re-evaluating
    /// the allocation every `alloc.period` of trace time.
    pub fn replay(&mut self, traces: [&Trace; 2]) {
        let mut idx = [0usize, 0usize];
        loop {
            // Next request across both traces.
            let t0 = traces[0].requests.get(idx[0]).map(|r| r.at);
            let t1 = traces[1].requests.get(idx[1]).map(|r| r.at);
            let (who, at) = match (t0, t1) {
                (None, None) => break,
                (Some(a), None) => (0, a),
                (None, Some(b)) => (1, b),
                (Some(a), Some(b)) => {
                    if a <= b {
                        (0, a)
                    } else {
                        (1, b)
                    }
                }
            };
            if at.saturating_since(self.last_alloc) >= self.servers[0].util_period() {
                self.evaluate_allocation(at);
                self.last_alloc = at;
            }

            let req = traces[who].requests[idx[who]];
            idx[who] += 1;
            // Server `who` replicates into stores[who], hosted at its peer.
            self.servers[who].handle(&req, &mut self.stores[who]);
        }
    }

    /// Every acknowledged-but-unrecoverable page across the pair, as
    /// `(server, lpn)`. Empty = the pair lost nothing.
    pub fn unrecoverable(&self) -> Vec<(usize, u64)> {
        (0..2)
            .flat_map(|i| {
                self.servers[i]
                    .unrecoverable_pages(&self.stores[i])
                    .into_iter()
                    .map(move |lpn| (i, lpn))
            })
            .collect()
    }

    // ---- internals --------------------------------------------------------

    fn evaluate_allocation(&mut self, now: SimTime) {
        for i in 0..2 {
            let peer = 1 - i;
            let pm = self.servers[peer].metrics();
            let a_peer = self.windows[peer].write_fraction(pm.writes, pm.reads);
            let params = self.servers[i].alloc_params();
            let b_local = resource_usage(&params, self.servers[i].util_sample(now));
            let th = theta(a_peer, b_local);
            self.theta_log[i].push(ThetaSample {
                at_secs: now.as_secs_f64(),
                local_usage: b_local,
                peer_write_fraction: a_peer,
                theta: th,
            });
            self.apply_theta(now, i, th);
        }
    }

    /// Resize server `i`'s local buffer and its hosted remote store to match θ.
    fn apply_theta(&mut self, now: SimTime, i: usize, th: f64) {
        self.theta_now[i] = th;
        let m = self.total_mem[i];
        let remote_cap = ((m as f64) * th) as usize;
        let local_cap = m.saturating_sub(remote_cap).max(1);
        // The store hosted at `i` holds the *peer's* pages.
        self.stores[1 - i].set_capacity(remote_cap.max(1));
        self.servers[i].resize_buffer(now, local_cap, &mut self.stores[i]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PolicyKind;
    use fc_simkit::{DetRng, SimDuration};
    use fc_ssd::FtlKind;
    use fc_trace::{IoRequest, Op};

    fn cfg() -> FlashCoopConfig {
        let mut c = FlashCoopConfig::tiny(FtlKind::PageLevel, PolicyKind::Lar);
        c.buffer_pages = 32;
        c.alloc.period = SimDuration::from_millis(500);
        c
    }

    fn trace(pages: u64, n: usize, write_frac: f64, seed: u64, name: &str) -> Trace {
        let mut rng = DetRng::new(seed);
        let mut t = Trace::new(name);
        let mut now = SimTime::ZERO;
        for _ in 0..n {
            now += SimDuration::from_millis(15 + rng.below(15));
            let op = if rng.chance(write_frac) {
                Op::Write
            } else {
                Op::Read
            };
            t.push(IoRequest {
                at: now,
                lpn: rng.below(pages - 2),
                pages: 1,
                op,
            });
        }
        t
    }

    fn device_pages() -> u64 {
        CoopServer::new(cfg(), Scheme::Baseline)
            .ssd()
            .logical_pages()
    }

    /// Equation 1 resizes both buffers throughout the run; every shrink
    /// destages what it evicts, so no acknowledged write is lost.
    #[test]
    fn healthy_pair_loses_nothing() {
        let pages = device_pages();
        let mut pair = CoopPair::new(cfg(), cfg());
        let t0 = trace(pages, 400, 0.9, 1, "a");
        let t1 = trace(pages, 400, 0.2, 2, "b");
        pair.replay([&t0, &t1]);
        for i in 0..2 {
            let log = pair.theta_log(i);
            assert!(
                log.iter().any(|s| s.theta != 0.5),
                "server {i}: the allocation loop never moved θ off 50/50"
            );
        }
        assert!(
            pair.unrecoverable().is_empty(),
            "acknowledged writes lost: {:?}",
            pair.unrecoverable()
        );
        assert!(pair.servers[0].metrics().writes > 0);
        assert!(pair.servers[1].metrics().reads > 0);
    }

    #[test]
    fn dynamic_allocation_tracks_peer_write_intensity() {
        let pages = device_pages();
        // Server 1's peer (server 0) is write-heavy; server 1 is idle-ish.
        let mut pair = CoopPair::new(cfg(), cfg());
        let t0 = trace(pages, 2_000, 0.95, 7, "writer");
        let t1 = trace(pages, 200, 0.05, 8, "reader");
        pair.replay([&t0, &t1]);
        let log1 = pair.theta_log(1); // server 1 donates to write-heavy peer
        let log0 = pair.theta_log(0); // server 0 donates to read-heavy peer
        assert!(!log1.is_empty() && !log0.is_empty());
        let avg = |l: &[ThetaSample]| l.iter().map(|s| s.theta).sum::<f64>() / l.len() as f64;
        assert!(
            avg(log1) > avg(log0),
            "write-heavy peer should earn more remote buffer: {} vs {}",
            avg(log1),
            avg(log0)
        );
    }
}
