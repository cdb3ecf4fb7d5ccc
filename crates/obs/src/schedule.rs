//! Periodic registry snapshots keyed to simulated time.
//!
//! Simulations advance time in jumps (to the next request), so a snapshot
//! "timer" can't be a thread — the replay driver polls the scheduler with
//! the current sim time and the scheduler emits one snapshot event per
//! elapsed period, stamped at the *scheduled* time (not the poll time).
//! Under a fixed clock sequence the emitted stream is therefore fully
//! deterministic.

use crate::event::Stamp;
use crate::handle::Obs;

/// Emits a registry snapshot every `period` nanoseconds of sim time.
#[derive(Clone, Debug)]
pub struct SnapshotScheduler {
    period_ns: u64,
    next_ns: u64,
}

impl SnapshotScheduler {
    /// New scheduler; the first snapshot fires once sim time reaches
    /// `period_ns`.
    pub fn new(period_ns: u64) -> Self {
        assert!(period_ns > 0, "snapshot period must be positive");
        Self {
            period_ns,
            next_ns: period_ns,
        }
    }

    /// Advance to `now_ns`, emitting one snapshot event per period boundary
    /// crossed. Returns how many snapshots were emitted.
    pub fn poll(&mut self, now_ns: u64, obs: &Obs) -> usize {
        let mut emitted = 0;
        while now_ns >= self.next_ns {
            obs.emit_snapshot(Stamp::Sim(self.next_ns));
            self.next_ns += self.period_ns;
            emitted += 1;
        }
        emitted
    }

    /// Emit one final snapshot stamped `now_ns` regardless of the period
    /// (end-of-run totals).
    pub fn finish(&mut self, now_ns: u64, obs: &Obs) {
        obs.emit_snapshot(Stamp::Sim(now_ns));
        self.next_ns = now_ns.saturating_add(self.period_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Obs;

    #[test]
    fn emits_one_snapshot_per_period_boundary() {
        let (obs, ring) = Obs::ring(64);
        let n = obs.registry().counter("n");
        let mut sched = SnapshotScheduler::new(100);
        assert_eq!(sched.poll(99, &obs), 0);
        n.inc();
        assert_eq!(sched.poll(100, &obs), 1);
        n.add(10);
        // Jumping over several boundaries emits a snapshot for each one.
        assert_eq!(sched.poll(350, &obs), 2);
        let evs = ring.events();
        let stamps: Vec<Stamp> = evs.iter().map(|e| e.t).collect();
        assert_eq!(
            stamps,
            vec![Stamp::Sim(100), Stamp::Sim(200), Stamp::Sim(300)]
        );
        assert_eq!(sched.poll(399, &obs), 0, "the next boundary is 400");
    }

    #[test]
    fn snapshots_under_fixed_clock_are_deterministic() {
        // Two identical runs produce byte-identical JSONL snapshot streams.
        let run = || {
            let (obs, ring) = Obs::ring(64);
            let hits = obs.registry().counter("core.buffer.hits");
            let depth = obs.registry().gauge("simkit.queue.depth");
            let lat = obs.registry().histogram("server.response_ns");
            let mut sched = SnapshotScheduler::new(1_000);
            for step in 1..=5u64 {
                hits.add(step);
                depth.set_u64(step % 3);
                lat.record(step * 250);
                sched.poll(step * 700, &obs);
            }
            sched.finish(3_500, &obs);
            ring.events()
                .iter()
                .map(|e| e.to_json())
                .collect::<Vec<_>>()
                .join("\n")
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }
}
