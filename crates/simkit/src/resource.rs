//! FIFO resource timelines for virtual-clock trace replay.
//!
//! Most FlashCoop experiments are open-loop trace replays: requests arrive at
//! trace timestamps and contend for two serial resources — the SSD channel and
//! the replication NIC. Rather than running a full event-driven simulation, we
//! model each resource as a *timeline*: the instant it next becomes free. A
//! request arriving at `t` with service demand `s` starts at
//! `max(t, free_at)`, finishes at `start + s`, and its queueing delay is
//! `start - t`. This is exactly an M/G/1-style FIFO queue replay and is the
//! standard technique in storage-trace simulators (DiskSim uses the same idea
//! per component).

use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Outcome of acquiring a resource: when service began and ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// Instant service actually started (>= request arrival).
    pub start: SimTime,
    /// Instant service completed.
    pub end: SimTime,
}

impl Grant {
    /// Total latency (queueing + service) since the arrival instant.
    pub fn latency_since(&self, arrival: SimTime) -> SimDuration {
        self.end.saturating_since(arrival)
    }
}

/// A single FIFO server: busy until `free_at`.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct Timeline {
    free_at: SimTime,
    busy: SimDuration,
}

impl Timeline {
    /// A timeline that is free immediately.
    pub fn new() -> Self {
        Timeline::default()
    }

    /// Instant the resource next becomes free.
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }

    /// Total busy time accumulated so far (for utilisation reporting).
    pub fn busy_time(&self) -> SimDuration {
        self.busy
    }

    /// Utilisation over `[0, horizon]`: busy time / horizon, clamped to 1.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        if horizon == SimTime::ZERO {
            return 0.0;
        }
        (self.busy.as_nanos() as f64 / horizon.as_nanos() as f64).min(1.0)
    }

    /// Occupy the resource for `service`, starting no earlier than `arrival`.
    pub fn acquire(&mut self, arrival: SimTime, service: SimDuration) -> Grant {
        let start = arrival.max(self.free_at);
        let end = start + service;
        self.free_at = end;
        self.busy += service;
        Grant { start, end }
    }

    /// Occupy the resource in the *background*: work is appended to the queue
    /// but never starts before `not_before` (used for asynchronous flushes
    /// that should not preempt an idle period retroactively).
    pub fn acquire_background(&mut self, not_before: SimTime, service: SimDuration) -> Grant {
        self.acquire(not_before, service)
    }

    /// True if the resource is idle at `now`.
    pub fn is_idle_at(&self, now: SimTime) -> bool {
        self.free_at <= now
    }

    /// Reset to the initial, idle-at-zero state.
    pub fn reset(&mut self) {
        *self = Timeline::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const US: fn(u64) -> SimDuration = SimDuration::from_micros;
    const AT: fn(u64) -> SimTime = SimTime::from_micros;

    #[test]
    fn idle_resource_serves_immediately() {
        let mut t = Timeline::new();
        let g = t.acquire(AT(10), US(5));
        assert_eq!(g.start, AT(10));
        assert_eq!(g.end, AT(15));
        assert_eq!(g.latency_since(AT(10)), US(5));
    }

    #[test]
    fn busy_resource_queues_fifo() {
        let mut t = Timeline::new();
        t.acquire(AT(0), US(100));
        let g = t.acquire(AT(10), US(5));
        assert_eq!(g.start, AT(100));
        assert_eq!(g.end, AT(105));
    }

    #[test]
    fn busy_time_and_utilization_accumulate() {
        let mut t = Timeline::new();
        t.acquire(AT(0), US(30));
        t.acquire(AT(50), US(20));
        assert_eq!(t.busy_time(), US(50));
        let u = t.utilization(AT(100));
        assert!((u - 0.5).abs() < 1e-9);
        assert_eq!(t.utilization(SimTime::ZERO), 0.0);
    }

    #[test]
    fn utilization_clamps_to_one() {
        let mut t = Timeline::new();
        t.acquire(AT(0), US(500));
        assert_eq!(t.utilization(AT(100)), 1.0);
    }

    #[test]
    fn reset_restores_idle_state() {
        let mut t = Timeline::new();
        t.acquire(AT(0), US(10));
        t.reset();
        assert!(t.is_idle_at(SimTime::ZERO));
        assert_eq!(t.busy_time(), SimDuration::ZERO);
    }
}
