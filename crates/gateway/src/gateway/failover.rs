//! The replica choice: which node of a shard's pair serves it now, whether
//! it may, and the retry loop that moves the route. The route follows the
//! two nodes' own state — a `NodeDown` comes only from a halted node — so
//! nothing here counts errors or guesses. `health` is private: an op holds
//! its read half across the node call, a flip (and the failback barrier)
//! its write half. [`ShardBackend`] never emits — a flip returns its
//! [`RouteEvent`] and the loop beside it narrates.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fc_cluster::{Node, NodeDown, PairState};
use parking_lot::RwLock;

use super::stats::ShardInstruments;
use super::{Gateway, GatewayConfig};
use crate::proto::Reply;

/// How long a failback cutover waits for the primary's recovery snapshot
/// from its peer before it is refused.
const FAILBACK_TIMEOUT: Duration = Duration::from_secs(1);

/// Which node of the pair serves a shard's client traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Replica {
    Primary,
    Secondary,
}

/// One shard's route, behind [`ShardBackend`]'s `health` lock.
#[derive(Debug)]
struct ShardHealth {
    active: Replica,
    /// Set exactly while routed to the secondary: the earliest instant
    /// the failback cutover may run.
    failback_at: Option<Instant>,
}

/// One shard's pair as the gateway routes to it: the designated primary,
/// the pair's secondary (the failover target), and the route.
pub(crate) struct ShardBackend {
    pub(crate) primary: Arc<Node>,
    pub(crate) secondary: Arc<Node>,
    /// How long a failed-over route waits before each failback attempt;
    /// also the `retry_after_ms` hint in `Unavailable`.
    failback_period: Duration,
    health: RwLock<ShardHealth>,
    /// This shard's counters, created with the slot and never rebuilt.
    pub(super) ins: ShardInstruments,
}

/// A route change: what [`ShardBackend::flip`] is asked to do and hands
/// back for the caller to narrate as a `gateway` event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum RouteEvent {
    /// Away from a dead node, to the given replica.
    Failover(Replica),
    /// Back to the recovered primary, behind the cutover barrier.
    Failback,
}

impl ShardBackend {
    pub(super) fn new(cfg: &GatewayConfig, primary: Arc<Node>, secondary: Arc<Node>) -> Self {
        ShardBackend {
            primary,
            secondary,
            failback_period: cfg.failback_period,
            health: RwLock::new(ShardHealth {
                active: Replica::Primary,
                failback_at: None,
            }),
            ins: ShardInstruments::new(),
        }
    }

    /// The node the current route points at.
    fn active<'a>(&'a self, health: &ShardHealth) -> &'a Arc<Node> {
        match health.active {
            Replica::Primary => &self.primary,
            Replica::Secondary => &self.secondary,
        }
    }

    /// Run `f` against the active replica under the read half — no retry:
    /// the read-only callers' entry.
    pub(super) fn with_active<T>(&self, f: impl FnOnce(&Node) -> T) -> T {
        let health = self.health.read();
        f(self.active(&health))
    }

    /// True while the route points at the designated primary (1.0 on the
    /// `gateway.shard.{i}.health` gauge).
    pub(super) fn routed_to_primary(&self) -> bool {
        self.health.read().active == Replica::Primary
    }

    /// The `retry_after_ms` hint for an `Unavailable` on this shard: the
    /// failback period.
    fn retry_after_ms(&self) -> u32 {
        (self.failback_period.as_millis() as u32).max(1)
    }

    /// `Some(retry_after_ms)` when this shard provably cannot serve — both
    /// nodes halted — so a fan-out can skip it instead of burning the
    /// retry deadline on it.
    pub(super) fn provably_dead(&self) -> Option<u32> {
        (self.primary.is_halted() && self.secondary.is_halted()).then(|| self.retry_after_ms())
    }

    /// One attempt: `op` against the active replica under the read half.
    /// A `NodeDown` comes back as the route it was seen on.
    fn attempt<T>(&self, op: impl FnOnce(&Node) -> Result<T, NodeDown>) -> Result<T, Replica> {
        let health = self.health.read();
        op(self.active(&health)).map_err(|NodeDown| health.active)
    }

    /// The route flip, written once: move `event`'s counter, point the
    /// route where it says, arm the failback timer from `now` when that is
    /// the secondary (clear it otherwise), set the health gauge.
    fn flip(&self, h: &mut ShardHealth, event: RouteEvent, now: Instant) -> RouteEvent {
        let (to, counter) = match event {
            RouteEvent::Failover(to) => (to, &self.ins.failovers),
            RouteEvent::Failback => (Replica::Primary, &self.ins.failbacks),
        };
        counter.inc();
        h.active = to;
        let primary = to == Replica::Primary;
        h.failback_at = (!primary).then(|| now + self.failback_period);
        self.ins.health.set(if primary { 1.0 } else { 0.0 });
        event
    }

    /// Record a `NodeDown` seen on `route` at `now` and flip the route if
    /// the pair's state dictates it. The flag is true when the route no
    /// longer points where the failed op went: retry immediately, no
    /// backoff.
    fn on_down(&self, route: Replica, now: Instant) -> (bool, Option<RouteEvent>) {
        let mut h = self.health.write();
        let to = match route {
            // The primary is halted: the secondary takes the shard.
            Replica::Primary => Some(Replica::Secondary),
            // The secondary died under us. If the primary is back, reroute
            // immediately — this emergency path skips the recover/flush
            // cutover barrier (the double fault already cost the
            // secondary's un-destaged state).
            Replica::Secondary => (!self.primary.is_halted()).then_some(Replica::Primary),
        };
        let event = match to {
            Some(to) if h.active == route => Some(self.flip(&mut h, RouteEvent::Failover(to), now)),
            _ => None,
        };
        (h.active != route, event)
    }

    /// If the shard is failed over, `now` has reached its failback timer,
    /// the primary is up and both nodes are `Paired`, cut the route back
    /// to the primary: replay the secondary's replicated snapshot into the
    /// primary (`recover_from_peer`, waiting up to `timeout`), flush the
    /// secondary's dirty pages (so every write acked through it during and
    /// after the outage is readable via the shared durable backend), then
    /// flip. The whole cutover runs under the write half, barring shard
    /// ops until it completes; a refused one re-arms the timer.
    fn try_failback(&self, now: Instant, timeout: Duration) -> Option<RouteEvent> {
        let due = |h: &ShardHealth| h.failback_at.is_some_and(|at| now >= at);
        if self.primary.is_halted() || !due(&self.health.read()) {
            return None; // a halted primary leaves the timer armed
        }
        let mut h = self.health.write();
        if !due(&h) {
            return None; // lost the race: another session cut over or re-armed
        }
        let ready = !self.primary.is_halted()
            && self.primary.lifecycle_state() == PairState::Paired
            && self.secondary.lifecycle_state() == PairState::Paired;
        if !ready
            || self.primary.recover_from_peer(timeout).is_err()
            || self.secondary.try_flush_dirty().is_err()
        {
            h.failback_at = Some(now + self.failback_period);
            return None;
        }
        Some(self.flip(&mut h, RouteEvent::Failback, now))
    }
}

/// A shard op gave up at the retry deadline with no replica answering.
#[derive(Debug, Clone, Copy)]
pub(super) struct Unavail {
    /// Backoff hint for the client (the failback period).
    pub(super) retry_after_ms: u32,
}

impl Unavail {
    /// The one mapping to the wire: `Unavailable` for request `id`.
    pub(super) fn reply(self, id: u64) -> Reply {
        Reply::Unavailable {
            id,
            retry_after_ms: self.retry_after_ms,
        }
    }
}

impl Gateway {
    /// Jittered exponential backoff for attempt `n` of a shard-op retry.
    /// The jitter stream is a hashed global counter — deterministic per
    /// process, decorrelated across racing sessions, no RNG dependency.
    fn backoff(&self, attempt: u32) -> Duration {
        let base = self.cfg.retry_backoff.max(Duration::from_micros(100));
        let capped = base
            .saturating_mul(1 << attempt.min(5))
            .min(Duration::from_millis(100));
        let n = self.jitter.fetch_add(1, Ordering::Relaxed);
        let h = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let jitter_ns = h % (capped.as_nanos() as u64 / 2 + 1);
        capped + Duration::from_nanos(jitter_ns)
    }

    /// Narrate a route change on `shard`, if there was one.
    fn note_route(&self, shard: u16, event: Option<RouteEvent>) {
        let shard = u64::from(shard);
        match event {
            Some(RouteEvent::Failover(to)) => self.note("failover", |e| {
                let to = match to {
                    Replica::Primary => "primary",
                    Replica::Secondary => "secondary",
                };
                e.u64_field("shard", shard).str_field("to", to)
            }),
            Some(RouteEvent::Failback) => self.note("failback", |e| e.u64_field("shard", shard)),
            None => {}
        }
    }

    /// Give up on `shard`: count it, narrate it, and carry the hint.
    pub(super) fn give_up(&self, shard: u16, sb: &ShardBackend, retry_after_ms: u32) -> Unavail {
        sb.ins.unavailable.inc();
        self.note("unavailable", |e| e.u64_field("shard", u64::from(shard)));
        Unavail { retry_after_ms }
    }

    /// Run `op` against `shard`'s active replica, retrying with backoff
    /// and failing the route over/back as the pair's state dictates, until
    /// the retry deadline. A served op counts one `ops` and one latency
    /// sample (retries included) against the shard.
    pub(super) fn with_shard<T>(
        &self,
        shard: u16,
        sb: &ShardBackend,
        op: impl Fn(&Node) -> Result<T, NodeDown>,
    ) -> Result<T, Unavail> {
        let started = Instant::now();
        let deadline = started + self.cfg.retry_deadline;
        let mut attempt: u32 = 0;
        loop {
            self.note_route(shard, sb.try_failback(Instant::now(), FAILBACK_TIMEOUT));
            let route = match sb.attempt(&op) {
                Ok(v) => {
                    sb.ins.ops.inc();
                    sb.ins
                        .latency_ns
                        .record(started.elapsed().as_nanos() as u64);
                    return Ok(v);
                }
                Err(route) => route,
            };
            let now = Instant::now();
            let (rerouted, event) = sb.on_down(route, now);
            self.note_route(shard, event);
            if rerouted {
                continue; // a surviving replica has the route: no backoff
            }
            if now >= deadline {
                return Err(self.give_up(shard, sb, sb.retry_after_ms()));
            }
            sb.ins.retries.inc();
            std::thread::sleep(self.backoff(attempt));
            attempt += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ShardedGateway;
    use fc_ring::RingConfig;

    /// The test profile's failback period.
    const PERIOD: Duration = Duration::from_millis(50);

    /// A bare slot over a one-pair mem cluster, driven with
    /// `Node::fail()` / `restart()`. The `ShardedGateway` only owns the
    /// nodes: no session is ever opened on it.
    fn slot() -> (ShardedGateway, ShardBackend) {
        let cfg = GatewayConfig::test_profile();
        assert_eq!(cfg.failback_period, PERIOD);
        let sg = ShardedGateway::spawn_mem(cfg.clone(), RingConfig::default(), 1);
        let sb = ShardBackend::new(&cfg, sg.primary(0), sg.secondary(0));
        (sg, sb)
    }

    fn probe(sb: &ShardBackend) -> Result<u64, Replica> {
        sb.attempt(|node| node.try_flush_dirty())
    }

    fn failback_at(sb: &ShardBackend) -> Option<Instant> {
        sb.health.read().failback_at
    }

    /// Poll until `node` reaches `state` (the pair's heartbeats move it).
    fn await_state(node: &Node, state: PairState) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while node.lifecycle_state() != state {
            assert!(Instant::now() < deadline, "never reached {state:?}");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn one_primary_down_flips_to_the_secondary_exactly_once_and_asks_for_an_immediate_retry() {
        let (sg, sb) = slot();
        let now = Instant::now();
        sb.primary.fail();
        assert_eq!(probe(&sb), Err(Replica::Primary));
        let to_secondary = RouteEvent::Failover(Replica::Secondary);
        assert_eq!(
            sb.on_down(Replica::Primary, now),
            (true, Some(to_secondary))
        );
        assert_eq!(
            failback_at(&sb),
            Some(now + PERIOD),
            "the failback timer is armed"
        );
        // A racing session that saw the same dead primary is rerouted too,
        // but the flip is not repeated and the timer is not pushed out.
        let later = now + PERIOD / 2;
        assert_eq!(sb.on_down(Replica::Primary, later), (true, None));
        assert_eq!(failback_at(&sb), Some(now + PERIOD));
        assert!(!sb.routed_to_primary());
        assert_eq!(sb.ins.failovers.get(), 1);
        assert_eq!(sb.ins.health.get(), 0.0);
        assert_eq!(probe(&sb), Ok(0), "the secondary serves");
        assert!(sb.with_active(|node| !node.is_halted()));
        sg.shutdown();
    }

    #[test]
    fn a_down_on_the_secondary_with_the_primary_back_reroutes_without_the_failback_barrier() {
        let (sg, sb) = slot();
        let now = Instant::now();
        sb.primary.fail();
        sb.on_down(Replica::Primary, now);
        sb.secondary.fail();
        assert_eq!(probe(&sb), Err(Replica::Secondary));
        assert_eq!(
            sb.on_down(Replica::Secondary, now),
            (false, None),
            "nowhere to go while the primary is still down"
        );
        sb.primary.restart();
        let to_primary = RouteEvent::Failover(Replica::Primary);
        assert_eq!(
            sb.on_down(Replica::Secondary, now),
            (true, Some(to_primary))
        );
        assert!(sb.routed_to_primary());
        assert_eq!(probe(&sb), Ok(0));
        // An emergency reroute, not a failback: no recover/flush cutover
        // ran, and no failback timer is left behind.
        assert_eq!(sb.ins.failovers.get(), 2);
        assert_eq!(sb.ins.failbacks.get(), 0);
        assert_eq!(sb.ins.health.get(), 1.0);
        assert_eq!(failback_at(&sb), None);
        sb.secondary.restart();
        sg.shutdown();
    }

    #[test]
    fn provably_dead_exactly_while_both_nodes_are_halted() {
        let (sg, sb) = slot();
        let hint = Some(sb.retry_after_ms());
        assert_eq!(hint, Some(50), "the test profile's failback period");
        assert_eq!(sb.provably_dead(), None);
        sb.primary.fail();
        assert_eq!(sb.provably_dead(), None, "the secondary can take the shard");
        sb.secondary.fail();
        assert_eq!(
            sb.provably_dead(),
            hint,
            "no failure need be observed first"
        );
        sb.secondary.restart();
        assert_eq!(sb.provably_dead(), None, "the secondary is back");
        sb.secondary.fail();
        sb.primary.restart();
        assert_eq!(sb.provably_dead(), None, "the primary is back");
        sb.secondary.restart();
        sg.shutdown();
    }

    #[test]
    fn with_both_nodes_dead_the_route_parks_until_one_restarts() {
        let (sg, sb) = slot();
        let now = Instant::now();
        sb.primary.fail();
        sb.secondary.fail();
        let to_secondary = RouteEvent::Failover(Replica::Secondary);
        assert_eq!(
            sb.on_down(Replica::Primary, now),
            (true, Some(to_secondary))
        );
        assert_eq!(probe(&sb), Err(Replica::Secondary));
        assert_eq!(sb.on_down(Replica::Secondary, now), (false, None));
        assert_eq!(sb.ins.failovers.get(), 1);
        assert_eq!(sb.provably_dead(), Some(50));
        let due = now + PERIOD;
        assert_eq!(sb.try_failback(due, Duration::ZERO), None);
        assert_eq!(
            failback_at(&sb),
            Some(due),
            "a halted primary leaves the timer armed"
        );
        sb.secondary.restart();
        assert_eq!(probe(&sb), Ok(0), "the restarted secondary serves");
        assert_eq!(sb.provably_dead(), None);
        sb.primary.restart();
        sg.shutdown();
    }

    #[test]
    fn failback_waits_for_its_timer_and_a_paired_pair_and_a_refusal_rearms() {
        let (sg, sb) = slot();
        let t0 = Instant::now();
        sb.primary.fail();
        sb.on_down(Replica::Primary, t0);
        // The secondary sees the silence and walks Solo; halting it there
        // keeps the pair apart once the primary is back.
        await_state(&sb.secondary, PairState::Solo);
        sb.secondary.fail();
        sb.primary.restart();
        let due = t0 + PERIOD;
        assert_eq!(
            sb.try_failback(due - Duration::from_millis(1), FAILBACK_TIMEOUT),
            None,
            "the timer has not run out"
        );
        assert_eq!(
            failback_at(&sb),
            Some(due),
            "an early call leaves the timer alone"
        );
        assert_eq!(
            sb.try_failback(due, FAILBACK_TIMEOUT),
            None,
            "the pair is apart"
        );
        assert!(
            !sb.routed_to_primary(),
            "a refused cutover leaves the route"
        );
        assert_eq!(
            failback_at(&sb),
            Some(due + PERIOD),
            "and re-arms the timer"
        );

        sb.secondary.restart();
        await_state(&sb.primary, PairState::Paired);
        await_state(&sb.secondary, PairState::Paired);
        assert_eq!(sb.try_failback(due, FAILBACK_TIMEOUT), None, "re-armed");
        assert_eq!(
            sb.try_failback(due + PERIOD, FAILBACK_TIMEOUT),
            Some(RouteEvent::Failback)
        );
        assert!(sb.routed_to_primary());
        assert_eq!(failback_at(&sb), None);
        assert_eq!((sb.ins.failovers.get(), sb.ins.failbacks.get()), (1, 1));
        assert_eq!(sb.ins.health.get(), 1.0);
        assert_eq!(probe(&sb), Ok(0), "the primary serves again");
        sg.shutdown();
    }
}
