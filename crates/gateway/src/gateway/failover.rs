//! The replica choice: which node of a shard's pair serves it now, whether
//! it may, and the retry loop that moves the route. `health` is private
//! here: an op holds its read half across the node call, a flip (and the
//! failback barrier) its write half. [`ShardBackend`] never emits — a flip
//! returns its [`RouteEvent`] and the loop beside it narrates.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fc_cluster::{Node, NodeDown, PairState};
use parking_lot::RwLock;

use super::{Gateway, GatewayConfig};
use crate::health::{BreakerState, Replica, ShardHealth};
use crate::proto::Reply;
use crate::shard::ShardInstruments;

/// Consecutive `NodeDown` errors on a shard's primary before its circuit
/// breaker opens and the route fails over to the secondary.
const BREAKER_THRESHOLD: u32 = 3;

/// How long a failback probe waits for the primary's recovery snapshot
/// from its peer before re-opening the breaker.
const FAILBACK_TIMEOUT: Duration = Duration::from_secs(1);

/// One shard's pair as the gateway routes to it: the designated primary,
/// optionally the pair's secondary (failover target), and the health /
/// route state.
pub(crate) struct ShardBackend {
    pub(crate) primary: Arc<Node>,
    /// The pair's B-side, when the gateway is allowed to fail over to it.
    /// `None` — the peer lives behind another gateway — pins the route to
    /// the primary; a dead primary means the shard is just down.
    pub(crate) secondary: Option<Arc<Node>>,
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
    pub(super) fn new(
        cfg: &GatewayConfig,
        primary: Arc<Node>,
        secondary: Option<Arc<Node>>,
    ) -> Self {
        ShardBackend {
            primary,
            secondary,
            health: RwLock::new(ShardHealth::new(BREAKER_THRESHOLD, cfg.breaker_cooldown)),
            ins: ShardInstruments::new(),
        }
    }

    /// The node the current route points at. With no secondary the route
    /// can only be the primary.
    fn active<'a>(&'a self, health: &ShardHealth) -> &'a Arc<Node> {
        match health.active {
            Replica::Primary => &self.primary,
            Replica::Secondary => self.secondary.as_ref().unwrap_or(&self.primary),
        }
    }

    /// Run `f` against the active replica under the read half — no
    /// breaker accounting, no retry: the read-only callers' entry.
    pub(super) fn with_active<T>(&self, f: impl FnOnce(&Node) -> T) -> T {
        let health = self.health.read();
        f(self.active(&health))
    }

    /// True while the route points at the designated primary (1.0 on the
    /// `gateway.shard.{i}.health` gauge).
    pub(super) fn routed_to_primary(&self) -> bool {
        self.health.read().active == Replica::Primary
    }

    /// The `retry_after_ms` hint for an `Unavailable` on this shard.
    fn retry_after_ms(&self) -> u32 {
        self.health.read().breaker.retry_after_ms()
    }

    /// `Some(retry_after_ms)` when this shard provably cannot serve —
    /// breaker Open and every replica it has halted — so a fan-out can
    /// skip it instead of burning the retry deadline on it.
    pub(super) fn provably_dead(&self) -> Option<u32> {
        let h = self.health.read();
        let dead = h.breaker.state() == BreakerState::Open
            && self.primary.is_halted()
            && self.secondary.as_ref().is_none_or(|s| s.is_halted());
        dead.then(|| h.breaker.retry_after_ms())
    }

    /// One attempt: `op` against the active replica under the read half.
    /// A served op on the primary closes a breaker that needs it; a
    /// `NodeDown` comes back as the route it was seen on.
    fn attempt<T>(&self, op: impl FnOnce(&Node) -> Result<T, NodeDown>) -> Result<T, Replica> {
        let health = self.health.read();
        let route = health.active;
        let v = op(self.active(&health)).map_err(|NodeDown| route)?;
        let close = route == Replica::Primary && health.breaker.needs_success();
        drop(health);
        if close {
            self.health.write().breaker.on_success();
            self.ins.health.set(1.0);
        }
        Ok(v)
    }

    /// The route flip, written once: move `event`'s counter, point the
    /// route where it says, close the breaker when that is the primary,
    /// set the health gauge.
    fn flip(&self, h: &mut ShardHealth, event: RouteEvent) -> RouteEvent {
        let (to, counter) = match event {
            RouteEvent::Failover(to) => (to, &self.ins.failovers),
            RouteEvent::Failback => (Replica::Primary, &self.ins.failbacks),
        };
        counter.inc();
        h.active = to;
        let primary = to == Replica::Primary;
        if primary {
            h.breaker.on_success();
        }
        self.ins.health.set(if primary { 1.0 } else { 0.0 });
        event
    }

    /// Record a `NodeDown` seen on `route` at `now` and flip the route if
    /// health now dictates it. The flag is true when the route no longer
    /// points where the failed op went: retry immediately, no backoff.
    fn on_down(&self, route: Replica, now: Instant) -> (bool, Option<RouteEvent>) {
        let mut h = self.health.write();
        let to = match route {
            Replica::Primary => {
                h.breaker.on_error(now);
                (h.breaker.state() == BreakerState::Open && self.secondary.is_some())
                    .then_some(Replica::Secondary)
            }
            // The secondary died under us. If the primary is back, reroute
            // immediately — this emergency path skips the recover/flush
            // cutover barrier (the double fault already cost the
            // secondary's un-destaged state).
            Replica::Secondary => (!self.primary.is_halted()).then_some(Replica::Primary),
        };
        let event = match to {
            Some(to) if h.active == route => Some(self.flip(&mut h, RouteEvent::Failover(to))),
            _ => None,
        };
        (h.active != route, event)
    }

    /// If the shard is failed over, its failback probe is due, and the
    /// pair has re-formed, cut the route back to the primary: replay the
    /// secondary's replicated snapshot into the primary
    /// (`recover_from_peer`, waiting up to `timeout`), flush the
    /// secondary's dirty pages (so every write acked through it during and
    /// after the outage is readable via the shared durable backend), then
    /// flip. The whole cutover runs under the write half, barring shard
    /// ops until it completes.
    fn try_failback(&self, timeout: Duration) -> Option<RouteEvent> {
        let secondary = self.secondary.as_ref()?;
        {
            let h = self.health.read();
            if h.active != Replica::Secondary || !h.breaker.probe_due(Instant::now()) {
                return None;
            }
        }
        if self.primary.is_halted() {
            return None; // probe stays armed; re-checked on the next op
        }
        let mut h = self.health.write();
        if h.active != Replica::Secondary || !h.breaker.try_probe(Instant::now()) {
            return None; // lost the race; another session owns the probe
        }
        let ready = !self.primary.is_halted()
            && self.primary.lifecycle_state() == PairState::Paired
            && secondary.lifecycle_state() == PairState::Paired;
        if !ready
            || self.primary.recover_from_peer(timeout).is_err()
            || secondary.try_flush_dirty().is_err()
        {
            // Re-open and re-arm the probe timer.
            h.breaker.on_error(Instant::now());
            return None;
        }
        Some(self.flip(&mut h, RouteEvent::Failback))
    }
}

/// A shard op gave up at the retry deadline with no replica answering.
#[derive(Debug, Clone, Copy)]
pub(super) struct Unavail {
    /// Backoff hint for the client (the breaker cooldown).
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
    /// and failing the route over/back as health dictates, until the
    /// retry deadline. A served op counts one `ops` and one latency sample
    /// (retries included) against the shard.
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
            self.note_route(shard, sb.try_failback(FAILBACK_TIMEOUT));
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

    /// A bare slot over a one-pair mem cluster, driven with
    /// `Node::fail()` / `restart()`. The `ShardedGateway` only owns the
    /// nodes: no session is ever opened on it.
    fn slot(with_secondary: bool) -> (ShardedGateway, ShardBackend) {
        let cfg = GatewayConfig::test_profile();
        let sg = ShardedGateway::spawn_mem(cfg.clone(), RingConfig::default(), 1);
        let secondary = with_secondary.then(|| sg.secondary(0));
        let sb = ShardBackend::new(&cfg, sg.primary(0), secondary);
        (sg, sb)
    }

    /// Report `threshold` consecutive primary downs; returns the last answer.
    fn trip(sb: &ShardBackend, now: Instant) -> (bool, Option<RouteEvent>) {
        for _ in 1..BREAKER_THRESHOLD {
            assert_eq!(sb.on_down(Replica::Primary, now), (false, None));
        }
        sb.on_down(Replica::Primary, now)
    }

    fn probe(sb: &ShardBackend) -> Result<u64, Replica> {
        sb.attempt(|node| node.try_flush_dirty())
    }

    #[test]
    fn threshold_downs_flip_to_the_secondary_exactly_once_and_ask_for_an_immediate_retry() {
        let (sg, sb) = slot(true);
        let now = Instant::now();
        sb.primary.fail();
        assert_eq!(probe(&sb), Err(Replica::Primary));
        let to_secondary = RouteEvent::Failover(Replica::Secondary);
        assert_eq!(trip(&sb, now), (true, Some(to_secondary)));
        // A racing session that saw the same dead primary is rerouted too,
        // but the flip is not repeated.
        assert_eq!(sb.on_down(Replica::Primary, now), (true, None));
        assert!(!sb.routed_to_primary());
        assert_eq!(sb.ins.failovers.get(), 1);
        assert_eq!(sb.ins.health.get(), 0.0);
        assert_eq!(probe(&sb), Ok(0), "the secondary serves");
        assert!(sb.with_active(|node| !node.is_halted()));
        sg.shutdown();
    }

    #[test]
    fn a_down_on_the_secondary_with_the_primary_back_reroutes_without_the_failback_barrier() {
        let (sg, sb) = slot(true);
        let now = Instant::now();
        sb.primary.fail();
        trip(&sb, now);
        sg.secondary(0).fail();
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
        // ran, and the breaker is closed again without a probe.
        assert_eq!(sb.ins.failovers.get(), 2);
        assert_eq!(sb.ins.failbacks.get(), 0);
        assert_eq!(sb.ins.health.get(), 1.0);
        assert_eq!(sb.on_down(Replica::Primary, now), (false, None));
        sg.shutdown();
    }

    #[test]
    fn provably_dead_needs_an_open_breaker_and_every_replica_halted() {
        let (sg, sb) = slot(true);
        let now = Instant::now();
        let hint = Some(sb.retry_after_ms());
        assert_eq!(hint, Some(50), "the test profile's breaker cooldown");
        assert_eq!(sb.provably_dead(), None);
        sb.primary.fail();
        sg.secondary(0).fail();
        assert_eq!(sb.provably_dead(), None, "breaker still closed");
        trip(&sb, now);
        assert_eq!(sb.provably_dead(), hint);
        sg.secondary(0).restart();
        assert_eq!(sb.provably_dead(), None, "the active replica is back");
        sg.secondary(0).fail();
        sb.primary.restart();
        assert_eq!(sb.provably_dead(), None, "one down reroutes to the primary");
        sg.shutdown();
    }

    #[test]
    fn with_no_secondary_a_dead_node_never_flips() {
        let (sg, sb) = slot(false);
        let now = Instant::now();
        sb.primary.fail();
        assert_eq!(trip(&sb, now), (false, None));
        assert_eq!(sb.on_down(Replica::Primary, now), (false, None));
        assert!(sb.routed_to_primary());
        assert_eq!(sb.ins.failovers.get(), 0);
        assert_eq!(sb.provably_dead(), Some(50));
        assert_eq!(sb.try_failback(Duration::ZERO), None);
        sb.primary.restart();
        assert_eq!(probe(&sb), Ok(0), "and it serves again once restarted");
        assert_eq!(sb.provably_dead(), None);
        sg.shutdown();
    }
}
