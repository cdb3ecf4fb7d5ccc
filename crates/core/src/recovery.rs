//! Heartbeat-based failure detection — the "Monitor & Recovery" module of
//! Figure 3 and Section III.D.

use fc_simkit::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Observed peer health.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PeerState {
    /// Beats arriving on schedule.
    Healthy,
    /// A beat is overdue (more than one interval late) but within timeout.
    Suspected,
    /// No beat for the full timeout: the peer is declared failed, triggering
    /// remote-failure handling.
    Failed,
}

/// A state transition worth acting on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PeerEvent {
    /// Healthy → Suspected.
    Suspected,
    /// Suspected/Healthy → Failed.
    Failed,
    /// Failed → Healthy (a beat arrived after a declared failure).
    Recovered,
}

/// Heartbeat monitor for one peer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HeartbeatMonitor {
    interval: SimDuration,
    timeout: SimDuration,
    last_beat: SimTime,
    state: PeerState,
}

impl HeartbeatMonitor {
    /// Create a monitor. `timeout` must be at least `interval`; beats more
    /// than one `interval` late raise suspicion, beats more than `timeout`
    /// late declare failure.
    pub fn new(interval: SimDuration, timeout: SimDuration) -> Self {
        assert!(!interval.is_zero(), "heartbeat interval must be positive");
        assert!(timeout >= interval, "timeout below heartbeat interval");
        HeartbeatMonitor {
            interval,
            timeout,
            last_beat: SimTime::ZERO,
            state: PeerState::Healthy,
        }
    }

    /// Current state.
    pub fn state(&self) -> PeerState {
        self.state
    }

    /// A beat arrived at `now`.
    pub fn on_beat(&mut self, now: SimTime) -> Option<PeerEvent> {
        self.last_beat = self.last_beat.max(now);
        match self.state {
            PeerState::Failed => {
                self.state = PeerState::Healthy;
                Some(PeerEvent::Recovered)
            }
            PeerState::Suspected => {
                self.state = PeerState::Healthy;
                None
            }
            PeerState::Healthy => None,
        }
    }

    /// Re-evaluate at `now`; returns a transition if one fired.
    pub fn poll(&mut self, now: SimTime) -> Option<PeerEvent> {
        let silence = now.saturating_since(self.last_beat);
        let next = if silence >= self.timeout {
            PeerState::Failed
        } else if silence > self.interval {
            PeerState::Suspected
        } else {
            PeerState::Healthy
        };
        let event = match (self.state, next) {
            (PeerState::Healthy, PeerState::Suspected) => Some(PeerEvent::Suspected),
            (PeerState::Healthy, PeerState::Failed) | (PeerState::Suspected, PeerState::Failed) => {
                Some(PeerEvent::Failed)
            }
            _ => None,
        };
        // poll() never un-fails a peer — only an actual beat does.
        if !(self.state == PeerState::Failed && next != PeerState::Failed) {
            self.state = next;
        }
        event
    }
}

/// Where a node stands relative to its cooperative partner.
///
/// The lifecycle replaces the old one-way `degraded: bool`: instead of a
/// latch that only trips, it is a loop — `Paired → Suspect → Solo →
/// Resyncing → Paired` — so a node that loses its peer takes over the
/// peer's pages, serves solo, and re-enters the pair when the peer returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PairState {
    /// Replication is live; acked writes are redundant on the peer.
    Paired,
    /// The peer's beat is overdue. Replication continues optimistically but
    /// the node is one timeout away from going solo.
    Suspect,
    /// The peer is gone (declared failed, link severed, or acks exhausted).
    /// Writes go through to the local SSD and into the catch-up journal.
    Solo,
    /// The peer is back and the journal is streaming over; writes still go
    /// through locally until the cut-over barrier drains the journal.
    Resyncing,
}

impl PairState {
    /// Lower-case label used in obs events.
    pub fn name(self) -> &'static str {
        match self {
            PairState::Paired => "paired",
            PairState::Suspect => "suspect",
            PairState::Solo => "solo",
            PairState::Resyncing => "resyncing",
        }
    }

    /// True when writes must bypass replication (write-through locally).
    pub fn is_degraded(self) -> bool {
        matches!(self, PairState::Solo | PairState::Resyncing)
    }
}

/// One edge of the lifecycle graph, reported so callers can mirror it into
/// their observability stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LifecycleTransition {
    /// State left.
    pub from: PairState,
    /// State entered.
    pub to: PairState,
    /// Static label naming the trigger (e.g. `"peer_failed"`).
    pub cause: &'static str,
}

/// Transitions are total functions: an event that is illegal in the current
/// state returns `None` and changes nothing, which makes the machine robust
/// against racing signal sources (monitor poll vs. data-plane timeouts).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PairLifecycle {
    state: PairState,
    transitions: u64,
}

impl Default for PairLifecycle {
    fn default() -> Self {
        PairLifecycle::new()
    }
}

impl PairLifecycle {
    /// A fresh lifecycle starts `Paired` (matching a freshly spawned pair).
    pub fn new() -> Self {
        PairLifecycle {
            state: PairState::Paired,
            transitions: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> PairState {
        self.state
    }

    /// Transitions taken so far (each emitted edge counts once).
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// True when writes must bypass replication.
    pub fn is_degraded(&self) -> bool {
        self.state.is_degraded()
    }

    fn go(&mut self, to: PairState, cause: &'static str) -> Option<LifecycleTransition> {
        if self.state == to {
            return None;
        }
        let tr = LifecycleTransition {
            from: self.state,
            to,
            cause,
        };
        self.state = to;
        self.transitions += 1;
        Some(tr)
    }

    /// Feed a [`HeartbeatMonitor`] event into the machine.
    pub fn on_peer_event(&mut self, ev: PeerEvent) -> Option<LifecycleTransition> {
        match (ev, self.state) {
            (PeerEvent::Suspected, PairState::Paired) => {
                self.go(PairState::Suspect, "peer_suspected")
            }
            (PeerEvent::Failed, PairState::Paired)
            | (PeerEvent::Failed, PairState::Suspect)
            | (PeerEvent::Failed, PairState::Resyncing) => self.go(PairState::Solo, "peer_failed"),
            (PeerEvent::Recovered, PairState::Solo) => {
                self.go(PairState::Resyncing, "peer_recovered")
            }
            _ => None,
        }
    }

    /// A beat arrived while merely suspicious: clear the suspicion.
    /// (From `Solo`, only a `Recovered` event or an explicit
    /// [`PairLifecycle::begin_resync`] rejoins — a beat alone is not enough,
    /// because solo entry may have been caused by data-plane failures the
    /// heartbeat path cannot see.)
    pub fn on_peer_healthy(&mut self) -> Option<LifecycleTransition> {
        if self.state == PairState::Suspect {
            self.go(PairState::Paired, "peer_healthy")
        } else {
            None
        }
    }

    /// Drop to `Solo` from any state — used for data-plane causes the
    /// monitor cannot see (ack timeout exhausted, transport disconnected)
    /// and for aborting a resync whose peer died again.
    pub fn force_solo(&mut self, cause: &'static str) -> Option<LifecycleTransition> {
        self.go(PairState::Solo, cause)
    }

    /// Start streaming the catch-up journal (`Solo → Resyncing`).
    pub fn begin_resync(&mut self, cause: &'static str) -> Option<LifecycleTransition> {
        if self.state == PairState::Solo {
            self.go(PairState::Resyncing, cause)
        } else {
            None
        }
    }

    /// Cut-over barrier passed: the journal is drained and acknowledged
    /// (`Resyncing → Paired`).
    pub fn resync_complete(&mut self) -> Option<LifecycleTransition> {
        if self.state == PairState::Resyncing {
            self.go(PairState::Paired, "resync_complete")
        } else {
            None
        }
    }

    /// The resync stream died (`Resyncing → Solo`).
    pub fn resync_failed(&mut self, cause: &'static str) -> Option<LifecycleTransition> {
        if self.state == PairState::Resyncing {
            self.go(PairState::Solo, cause)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mon() -> HeartbeatMonitor {
        HeartbeatMonitor::new(SimDuration::from_millis(100), SimDuration::from_millis(500))
    }

    const AT: fn(u64) -> SimTime = SimTime::from_millis;

    #[test]
    fn healthy_while_beats_arrive() {
        let mut m = mon();
        for t in (0..10).map(|i| AT(i * 100)) {
            assert_eq!(m.on_beat(t), None);
            assert_eq!(m.poll(t), None);
            assert_eq!(m.state(), PeerState::Healthy);
        }
    }

    #[test]
    fn late_beat_raises_suspicion_then_recovers_silently() {
        let mut m = mon();
        m.on_beat(AT(0));
        assert_eq!(m.poll(AT(250)), Some(PeerEvent::Suspected));
        assert_eq!(m.state(), PeerState::Suspected);
        // A beat clears suspicion without a Recovered event (never failed).
        assert_eq!(m.on_beat(AT(260)), None);
        assert_eq!(m.state(), PeerState::Healthy);
    }

    #[test]
    fn timeout_declares_failure_once() {
        let mut m = mon();
        m.on_beat(AT(0));
        assert_eq!(m.poll(AT(600)), Some(PeerEvent::Failed));
        assert_eq!(m.state(), PeerState::Failed);
        // Polling again does not re-fire.
        assert_eq!(m.poll(AT(700)), None);
        assert_eq!(m.state(), PeerState::Failed);
    }

    #[test]
    fn beat_after_failure_recovers() {
        let mut m = mon();
        m.on_beat(AT(0));
        m.poll(AT(600));
        assert_eq!(m.on_beat(AT(650)), Some(PeerEvent::Recovered));
        assert_eq!(m.state(), PeerState::Healthy);
        assert_eq!(m.poll(AT(700)), None);
    }

    #[test]
    fn poll_does_not_resurrect_failed_peer() {
        let mut m = mon();
        m.on_beat(AT(0));
        m.poll(AT(600));
        // Even though last_beat math would say "suspected", a failed peer
        // stays failed until an actual beat.
        assert_eq!(m.poll(AT(601)), None);
        assert_eq!(m.state(), PeerState::Failed);
    }

    #[test]
    fn direct_healthy_to_failed_jump() {
        let mut m = mon();
        m.on_beat(AT(0));
        // One giant gap with no intermediate poll.
        assert_eq!(m.poll(AT(10_000)), Some(PeerEvent::Failed));
    }

    #[test]
    fn stale_beat_does_not_rewind_clock() {
        let mut m = mon();
        m.on_beat(AT(1000));
        m.on_beat(AT(400)); // out-of-order delivery
        assert_eq!(m.poll(AT(1050)), None);
        assert_eq!(m.state(), PeerState::Healthy);
    }

    #[test]
    #[should_panic(expected = "timeout below heartbeat interval")]
    fn invalid_timeout_panics() {
        HeartbeatMonitor::new(SimDuration::from_millis(100), SimDuration::from_millis(50));
    }

    #[test]
    fn silence_exactly_at_timeout_boundary_fails() {
        // `silence >= timeout` declares failure, so the boundary itself
        // (silence == timeout, here 500 ms on the nose) must fail.
        let mut m = mon();
        m.on_beat(AT(0));
        assert_eq!(m.poll(AT(500)), Some(PeerEvent::Failed));
        assert_eq!(m.state(), PeerState::Failed);
        // One tick earlier is only suspicion.
        let mut m = mon();
        m.on_beat(AT(0));
        assert_eq!(m.poll(AT(499)), Some(PeerEvent::Suspected));
        assert_eq!(m.state(), PeerState::Suspected);
    }

    #[test]
    fn silence_exactly_at_interval_boundary_stays_healthy() {
        // Suspicion needs silence *strictly greater* than one interval: a
        // beat that lands exactly one period after the last is on time.
        let mut m = mon();
        m.on_beat(AT(0));
        assert_eq!(m.poll(AT(100)), None);
        assert_eq!(m.state(), PeerState::Healthy);
        assert_eq!(m.poll(AT(101)), Some(PeerEvent::Suspected));
    }

    #[test]
    fn failed_recovered_suspected_cycle() {
        // A peer that dies, comes back, then starts lagging again must walk
        // the full Failed → Recovered → Suspected → Failed cycle with one
        // event per transition.
        let mut m = mon();
        m.on_beat(AT(0));
        assert_eq!(m.poll(AT(600)), Some(PeerEvent::Failed));
        assert_eq!(m.on_beat(AT(650)), Some(PeerEvent::Recovered));
        assert_eq!(m.state(), PeerState::Healthy);
        // Lagging again: suspicion fires anew after recovery…
        assert_eq!(m.poll(AT(900)), Some(PeerEvent::Suspected));
        // …and a second full silence re-declares failure.
        assert_eq!(m.poll(AT(1200)), Some(PeerEvent::Failed));
        assert_eq!(m.state(), PeerState::Failed);
        // The cycle is repeatable, not a one-shot.
        assert_eq!(m.on_beat(AT(1210)), Some(PeerEvent::Recovered));
        assert_eq!(m.poll(AT(1211)), None);
        assert_eq!(m.state(), PeerState::Healthy);
    }

    #[test]
    fn zero_gap_double_beat_is_harmless() {
        // Two beats with the same timestamp (burst delivery after a stall)
        // must not fire spurious events or disturb the clock.
        let mut m = mon();
        assert_eq!(m.on_beat(AT(300)), None);
        assert_eq!(m.on_beat(AT(300)), None);
        assert_eq!(m.state(), PeerState::Healthy);
        assert_eq!(m.poll(AT(400)), None);
        // Same at the recovery edge: only the first beat reports Recovered.
        let mut m = mon();
        m.on_beat(AT(0));
        m.poll(AT(600));
        assert_eq!(m.on_beat(AT(600)), Some(PeerEvent::Recovered));
        assert_eq!(m.on_beat(AT(600)), None);
    }

    #[test]
    fn beat_at_time_zero_counts() {
        // last_beat starts at SimTime::ZERO; a beat at t=0 is
        // indistinguishable — verify the monitor still behaves (fails after
        // the timeout, recovers on the next beat).
        let mut m = mon();
        assert_eq!(m.on_beat(SimTime::ZERO), None);
        assert_eq!(m.poll(AT(499)), Some(PeerEvent::Suspected));
        assert_eq!(m.poll(AT(500)), Some(PeerEvent::Failed));
        assert_eq!(m.on_beat(AT(500)), Some(PeerEvent::Recovered));
    }

    // ---- PairLifecycle -------------------------------------------------

    #[test]
    fn lifecycle_full_loop() {
        let mut l = PairLifecycle::new();
        assert_eq!(l.state(), PairState::Paired);
        assert!(!l.is_degraded());

        let tr = l.on_peer_event(PeerEvent::Suspected).unwrap();
        assert_eq!((tr.from, tr.to), (PairState::Paired, PairState::Suspect));
        assert!(!l.is_degraded());

        let tr = l.on_peer_event(PeerEvent::Failed).unwrap();
        assert_eq!((tr.from, tr.to), (PairState::Suspect, PairState::Solo));
        assert!(l.is_degraded());

        let tr = l.on_peer_event(PeerEvent::Recovered).unwrap();
        assert_eq!((tr.from, tr.to), (PairState::Solo, PairState::Resyncing));
        assert!(l.is_degraded(), "writes stay write-through during resync");

        let tr = l.resync_complete().unwrap();
        assert_eq!((tr.from, tr.to), (PairState::Resyncing, PairState::Paired));
        assert!(!l.is_degraded());
        assert_eq!(l.transitions(), 4);
    }

    #[test]
    fn lifecycle_suspicion_clears_on_healthy_beat() {
        let mut l = PairLifecycle::new();
        l.on_peer_event(PeerEvent::Suspected);
        let tr = l.on_peer_healthy().unwrap();
        assert_eq!((tr.from, tr.to), (PairState::Suspect, PairState::Paired));
        // A healthy beat alone never rescues Solo — only Recovered/resync.
        l.force_solo("ack_timeout");
        assert_eq!(l.on_peer_healthy(), None);
        assert_eq!(l.state(), PairState::Solo);
    }

    #[test]
    fn lifecycle_illegal_events_are_inert() {
        let mut l = PairLifecycle::new();
        // Recovered without ever failing: nothing happens.
        assert_eq!(l.on_peer_event(PeerEvent::Recovered), None);
        assert_eq!(l.resync_complete(), None);
        assert_eq!(l.begin_resync("x"), None);
        assert_eq!(l.state(), PairState::Paired);
        assert_eq!(l.transitions(), 0);
        // Suspected while already Solo: stays Solo.
        l.force_solo("disconnected");
        assert_eq!(l.on_peer_event(PeerEvent::Suspected), None);
        assert_eq!(l.state(), PairState::Solo);
    }

    #[test]
    fn lifecycle_peer_dies_again_mid_resync() {
        let mut l = PairLifecycle::new();
        l.force_solo("peer_failed");
        l.begin_resync("peer_recovered");
        let tr = l.on_peer_event(PeerEvent::Failed).unwrap();
        assert_eq!((tr.from, tr.to), (PairState::Resyncing, PairState::Solo));
        // And the stream-level failure path reports the same edge.
        l.begin_resync("peer_recovered");
        let tr = l.resync_failed("resync_ack_timeout").unwrap();
        assert_eq!((tr.from, tr.to), (PairState::Resyncing, PairState::Solo));
        assert_eq!(tr.cause, "resync_ack_timeout");
    }

    #[test]
    fn lifecycle_force_solo_is_idempotent() {
        let mut l = PairLifecycle::new();
        assert!(l.force_solo("a").is_some());
        assert!(l.force_solo("b").is_none());
        assert_eq!(l.transitions(), 1);
    }
}
