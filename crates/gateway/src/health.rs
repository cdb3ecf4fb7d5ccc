//! Per-shard backend health: a consecutive-error circuit breaker and the
//! active-replica route.
//!
//! Each sharded-gateway shard owns one [`ShardHealth`]: which replica of
//! the pair currently serves client traffic ([`Replica`]), and a
//! [`CircuitBreaker`] tracking the *primary's* health. The breaker walks
//! the classic three states:
//!
//! ```text
//!            threshold consecutive errors
//!   Closed ───────────────────────────────▶ Open
//!      ▲                                      │ cooldown elapses
//!      │ probe succeeds                       ▼
//!      └─────────────────────────────────  HalfOpen
//!                    probe fails ──▶ Open (new cooldown)
//! ```
//!
//! While the breaker is Open the shard routes to the secondary (which the
//! pair lifecycle has walked to Solo/takeover). The cooldown timer doubles
//! as the failback probe cadence: each time it elapses the gateway moves
//! the breaker to HalfOpen and attempts one failback (recover the primary
//! from its peer, flush the secondary as a read barrier, flip the route).
//! A failed probe re-opens the breaker and re-arms the timer.

use std::time::{Duration, Instant};

/// Which node of the pair serves a shard's client traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Replica {
    Primary,
    Secondary,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BreakerState {
    Closed,
    Open,
    HalfOpen,
}

/// Consecutive-error circuit breaker over a shard's primary node.
#[derive(Debug)]
pub(crate) struct CircuitBreaker {
    state: BreakerState,
    consecutive_errors: u32,
    threshold: u32,
    cooldown: Duration,
    /// When Open: earliest instant a HalfOpen probe may run.
    probe_at: Option<Instant>,
}

impl CircuitBreaker {
    pub(crate) fn new(threshold: u32, cooldown: Duration) -> CircuitBreaker {
        CircuitBreaker {
            state: BreakerState::Closed,
            consecutive_errors: 0,
            threshold: threshold.max(1),
            cooldown,
            probe_at: None,
        }
    }

    pub(crate) fn state(&self) -> BreakerState {
        self.state
    }

    /// The primary proved healthy (op served, or failback completed):
    /// close the breaker and forget the error streak.
    pub(crate) fn on_success(&mut self) {
        self.state = BreakerState::Closed;
        self.consecutive_errors = 0;
        self.probe_at = None;
    }

    /// True when [`CircuitBreaker::on_success`] would change anything —
    /// lets the hot path skip the write lock on healthy shards.
    pub(crate) fn needs_success(&self) -> bool {
        self.state != BreakerState::Closed || self.consecutive_errors != 0
    }

    /// Record one failed op (or failed probe) against the primary at
    /// `now`. Returns true when this error *trips* the breaker
    /// Closed→Open — the moment the caller should fail the route over.
    pub(crate) fn on_error(&mut self, now: Instant) -> bool {
        self.consecutive_errors += 1;
        match self.state {
            BreakerState::Closed if self.consecutive_errors >= self.threshold => {
                self.state = BreakerState::Open;
                self.probe_at = Some(now + self.cooldown);
                true
            }
            BreakerState::Closed => false,
            // A failed probe re-opens with a fresh cooldown; errors while
            // already Open just push the next probe out.
            BreakerState::HalfOpen | BreakerState::Open => {
                self.state = BreakerState::Open;
                self.probe_at = Some(now + self.cooldown);
                false
            }
        }
    }

    /// True when the breaker is Open and the cooldown has elapsed.
    pub(crate) fn probe_due(&self, now: Instant) -> bool {
        self.state == BreakerState::Open && self.probe_at.is_some_and(|at| now >= at)
    }

    /// Move Open→HalfOpen if a probe is due. Returns true when the caller
    /// now owns the (single) probe attempt.
    pub(crate) fn try_probe(&mut self, now: Instant) -> bool {
        if self.probe_due(now) {
            self.state = BreakerState::HalfOpen;
            true
        } else {
            false
        }
    }

    /// The cooldown, as the `retry_after_ms` hint for `Unavailable`.
    pub(crate) fn retry_after_ms(&self) -> u32 {
        (self.cooldown.as_millis() as u32).max(1)
    }
}

/// One shard's routing + health state, behind the `RwLock` that
/// `gateway/failover.rs` owns.
#[derive(Debug)]
pub(crate) struct ShardHealth {
    pub(crate) breaker: CircuitBreaker,
    pub(crate) active: Replica,
}

impl ShardHealth {
    pub(crate) fn new(threshold: u32, cooldown: Duration) -> ShardHealth {
        ShardHealth {
            breaker: CircuitBreaker::new(threshold, cooldown),
            active: Replica::Primary,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breaker() -> CircuitBreaker {
        CircuitBreaker::new(3, Duration::from_millis(50))
    }

    #[test]
    fn trips_only_on_threshold() {
        let mut b = breaker();
        let now = Instant::now();
        assert!(!b.on_error(now));
        assert!(!b.on_error(now));
        assert!(b.on_error(now), "third consecutive error trips");
        assert_eq!(b.state(), BreakerState::Open);
        // Further errors while Open never re-report a trip.
        assert!(!b.on_error(now));
    }

    #[test]
    fn success_resets_the_streak() {
        let mut b = breaker();
        let now = Instant::now();
        b.on_error(now);
        b.on_error(now);
        b.on_success();
        assert!(!b.on_error(now));
        assert!(!b.on_error(now));
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn probe_cycle_half_open_then_reopen_or_close() {
        let mut b = breaker();
        let t0 = Instant::now();
        for _ in 0..3 {
            b.on_error(t0);
        }
        assert!(!b.probe_due(t0), "cooldown not elapsed yet");
        assert!(!b.try_probe(t0));
        let later = t0 + Duration::from_millis(60);
        assert!(b.probe_due(later));
        assert!(b.try_probe(later), "first caller wins the probe");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(!b.try_probe(later), "probe is single-owner");
        // Failed probe: re-open with a fresh cooldown.
        assert!(!b.on_error(later));
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.probe_due(later + Duration::from_millis(10)));
        assert!(b.probe_due(later + Duration::from_millis(60)));
        // Successful probe closes.
        assert!(b.try_probe(later + Duration::from_millis(60)));
        b.on_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(!b.needs_success());
    }
}
