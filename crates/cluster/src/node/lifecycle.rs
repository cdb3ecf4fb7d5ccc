//! The pair lifecycle — the "Monitor & Recovery" module of Figure 3 and
//! Section III.D: one state machine per node for where it stands with its
//! peer, fed by the peer's heartbeats, the pump's tick and the data plane's
//! verdicts, on the node's `Instant` clock.
//!
//! ```text
//! Paired → Suspect → Solo → Paired
//! ```
//!
//! Every input is a total function: one that is illegal in the current
//! state changes nothing, so racing sources (a tick against an ack timeout)
//! cannot wedge it. Each edge counts once in `lifecycle_transitions` and is
//! narrated as a `lifecycle` event.

use super::{NodeConfig, NodeObs};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Where a node stands relative to its cooperative partner: a loop, not a
/// latch — a node that loses its peer takes over the peer's pages, serves
/// solo, and re-enters the pair when the peer returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairState {
    /// Replication is live; acked writes are redundant on the peer.
    Paired,
    /// The peer's beat is overdue. Replication continues optimistically but
    /// the node is one timeout away from going solo.
    Suspect,
    /// The peer is gone (declared failed, link severed, or acks exhausted).
    /// Writes go through to the local backend, so every page the node
    /// holds is clean and rejoining moves no data.
    Solo,
    /// Never entered: rejoin goes from `Solo` straight to `Paired`.
    /// Declared for code that matches on it.
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

/// What the current silence has raised so far. Only a beat ends a silence,
/// so each level is raised once per silence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Silence {
    /// The last beat is recent enough.
    Beating,
    /// A beat is overdue: suspicion was raised.
    Overdue,
    /// The silence reached the failure timeout: the peer was declared
    /// failed, and stays so until it beats again.
    Failed,
}

/// An edge the node takes through `Inner::answer`: going solo has work to
/// do under `Inner` (`Inner::enter_solo` flushes and takes over), rejoining
/// has none.
#[derive(Debug, Clone, Copy)]
pub(super) enum Ask {
    /// Go solo, for this cause.
    Solo(&'static str),
    /// Rejoin the pair, for this cause.
    Rejoin(&'static str),
}

/// The node's pair lifecycle and the heartbeat watch that drives it.
pub(super) struct Lifecycle {
    state: PairState,
    silence: Silence,
    last_beat: Instant,
    /// The peer's beats leave one heartbeat apart and arrive that far apart
    /// give or take scheduling jitter, so it is suspected after a heartbeat
    /// and a half of silence, not one: its beat is then half a period
    /// overdue, not a wake-up late.
    suspect_after: Duration,
    fail_after: Duration,
    /// When a Solo node whose peer is still beating rejoins (`peer_alive`):
    /// a data-plane failure — ack timeouts, a dead link — ends no silence,
    /// so no beat announces the peer's return. Armed on every entry to
    /// Solo: it throttles rejoin, so a data plane that is still dead sends
    /// the node back Solo at most once per period.
    retry_at: Instant,
    obs: Arc<NodeObs>,
}

impl Lifecycle {
    /// A fresh pair starts `Paired`, its peer's silence counted from `now`.
    pub(super) fn new(cfg: &NodeConfig, obs: Arc<NodeObs>, now: Instant) -> Lifecycle {
        let suspect_after = (cfg.heartbeat * 3 / 2).min(cfg.failure_timeout);
        assert!(
            !suspect_after.is_zero(),
            "heartbeat interval must be positive"
        );
        Lifecycle {
            state: PairState::Paired,
            silence: Silence::Beating,
            last_beat: now,
            suspect_after,
            fail_after: cfg.failure_timeout,
            retry_at: now,
            obs,
        }
    }

    /// Current state.
    pub(super) fn state(&self) -> PairState {
        self.state
    }

    fn go(&mut self, to: PairState, cause: &'static str) -> bool {
        if self.state == to {
            return false;
        }
        let from = std::mem::replace(&mut self.state, to);
        self.obs.lifecycle_transitions.inc();
        self.obs.note("lifecycle", |e| {
            e.str_field("from", from.name())
                .str_field("to", to.name())
                .str_field("cause", cause)
        });
        true
    }

    /// A beat arrived at `now`. The first after a declared failure asks to
    /// rejoin (`peer_recovered`); one that finds the node `Suspect`
    /// clears the suspicion (`peer_healthy`). A beat alone never leaves
    /// Solo otherwise — the cause may have been a data-plane failure the
    /// heartbeat cannot see.
    pub(super) fn beat(&mut self, now: Instant) -> Option<Ask> {
        self.last_beat = self.last_beat.max(now);
        if std::mem::replace(&mut self.silence, Silence::Beating) == Silence::Failed {
            return Some(Ask::Rejoin("peer_recovered"));
        }
        if self.state == PairState::Suspect {
            self.go(PairState::Paired, "peer_healthy");
        }
        None
    }

    /// Judge the peer's silence at `now`: past `suspect_after` a `Paired`
    /// node turns `Suspect` (`peer_suspected`); at `fail_after` the peer is
    /// declared failed and the node asked to go solo (`peer_failed`). Else
    /// a Solo node whose peer beats asks to rejoin once the retry timer is
    /// due (`peer_alive`).
    pub(super) fn tick(&mut self, now: Instant) -> Option<Ask> {
        let silence = now.saturating_duration_since(self.last_beat);
        if silence >= self.fail_after {
            if self.silence == Silence::Failed {
                return None;
            }
            self.silence = Silence::Failed;
            return Some(Ask::Solo("peer_failed"));
        }
        if silence > self.suspect_after {
            if self.silence == Silence::Beating {
                self.silence = Silence::Overdue;
                if self.state == PairState::Paired {
                    self.go(PairState::Suspect, "peer_suspected");
                }
            }
            return None;
        }
        (self.state == PairState::Solo && now >= self.retry_at).then_some(Ask::Rejoin("peer_alive"))
    }

    /// Drop to `Solo` from any state, for `cause`, and arm the
    /// `peer_alive` retry timer. False if already Solo.
    pub(super) fn force_solo(&mut self, cause: &'static str, now: Instant) -> bool {
        if !self.go(PairState::Solo, cause) {
            return false;
        }
        self.retry_at = now + self.fail_after;
        true
    }

    /// The peer is back (`Solo → Paired`): a cut-over, not a copy — solo
    /// entry flushed every dirty page and solo writes write through, so
    /// the peer has nothing to catch up on. False unless Solo.
    pub(super) fn rejoin(&mut self, cause: &'static str) -> bool {
        self.state == PairState::Solo && self.go(PairState::Paired, cause)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_obs::{Obs, Value};

    /// One input to the machine, at a millisecond offset from its start.
    #[derive(Clone, Copy)]
    enum Step {
        Beat(u64),
        Tick(u64),
        /// A data-plane cause of going solo (ack timeout, disconnect).
        Cause(u64, &'static str),
        /// A rejoin asked for directly.
        Rejoin(&'static str),
    }
    use Step::*;

    /// Beats and ticks together, every `every` ms over `from..to`.
    fn beating(from: u64, to: u64, every: u64) -> Vec<Step> {
        (from..to)
            .step_by(every as usize)
            .flat_map(|t| [Beat(t), Tick(t)])
            .collect()
    }

    /// Feed `script` to a machine with a 100 ms heartbeat (suspicion after
    /// 150 ms of silence) and a 500 ms failure timeout, answering its asks
    /// as the node does; returns each edge as `from>to cause` and the final
    /// state.
    fn run(script: &[Step]) -> (Vec<String>, PairState) {
        let cfg = NodeConfig {
            heartbeat: Duration::from_millis(100),
            failure_timeout: Duration::from_millis(500),
            ..NodeConfig::test_profile(0)
        };
        let obs = Arc::new(NodeObs::default());
        let (stream, ring) = Obs::ring(256);
        obs.attach(&stream, 0);
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut l = Lifecycle::new(&cfg, obs.clone(), t0);
        for &step in script {
            let (ask, now) = match step {
                Beat(t) => (l.beat(at(t)), at(t)),
                Tick(t) => (l.tick(at(t)), at(t)),
                Cause(t, cause) => (Some(Ask::Solo(cause)), at(t)),
                Rejoin(cause) => (Some(Ask::Rejoin(cause)), t0),
            };
            match ask {
                Some(Ask::Solo(cause)) => l.force_solo(cause, now),
                Some(Ask::Rejoin(cause)) => l.rejoin(cause),
                None => false,
            };
        }
        let field = |e: &fc_obs::Event, k| e.get(k).and_then(Value::as_str).unwrap().to_string();
        let edges: Vec<String> = ring
            .events()
            .iter()
            .filter(|e| e.kind == "lifecycle")
            .map(|e| {
                format!(
                    "{}>{} {}",
                    field(e, "from"),
                    field(e, "to"),
                    field(e, "cause")
                )
            })
            .collect();
        assert_eq!(obs.lifecycle_transitions.get(), edges.len() as u64);
        (edges, l.state())
    }

    #[test]
    fn lifecycle_edge_table() {
        use PairState::*;
        let rows: Vec<(&str, Vec<Step>, &[&str], PairState)> = vec![
            (
                "beats on schedule take no edge",
                beating(0, 1000, 100),
                &[],
                Paired,
            ),
            (
                "a late beat clears the suspicion it raised",
                vec![Beat(0), Tick(250), Beat(260), Tick(300)],
                &[
                    "paired>suspect peer_suspected",
                    "suspect>paired peer_healthy",
                ],
                Paired,
            ),
            (
                "suspicion needs silence strictly past a heartbeat and a half",
                vec![Beat(0), Tick(150), Tick(151)],
                &["paired>suspect peer_suspected"],
                Suspect,
            ),
            (
                "silence one tick short of the timeout only suspects",
                vec![Beat(0), Tick(499)],
                &["paired>suspect peer_suspected"],
                Suspect,
            ),
            (
                "silence at the timeout fails the peer",
                vec![Beat(0), Tick(500)],
                &["paired>solo peer_failed"],
                Solo,
            ),
            (
                "failure fires once, and later ticks do not resurrect the peer",
                vec![Beat(0), Tick(600), Tick(601), Tick(700)],
                &["paired>solo peer_failed"],
                Solo,
            ),
            (
                "one long gap fails the peer without suspecting it first",
                vec![Beat(0), Tick(10_000)],
                &["paired>solo peer_failed"],
                Solo,
            ),
            (
                "the first beat after a failure rejoins",
                vec![Beat(0), Tick(600), Beat(650), Tick(700)],
                &["paired>solo peer_failed", "solo>paired peer_recovered"],
                Paired,
            ),
            (
                "a stale beat does not rewind the clock",
                vec![Beat(1000), Beat(400), Tick(1050)],
                &[],
                Paired,
            ),
            (
                "a double beat recovers once",
                vec![
                    Beat(300),
                    Beat(300),
                    Tick(400),
                    Tick(900),
                    Beat(900),
                    Beat(900),
                ],
                &["paired>solo peer_failed", "solo>paired peer_recovered"],
                Paired,
            ),
            (
                "a beat at time zero counts",
                vec![Beat(0), Tick(499), Tick(500), Beat(500)],
                &[
                    "paired>suspect peer_suspected",
                    "suspect>solo peer_failed",
                    "solo>paired peer_recovered",
                ],
                Paired,
            ),
            (
                "the full loop",
                vec![Tick(200), Tick(500), Beat(510), Rejoin("x")],
                &[
                    "paired>suspect peer_suspected",
                    "suspect>solo peer_failed",
                    "solo>paired peer_recovered",
                ],
                Paired,
            ),
            (
                "fail, recover, fail again, recover again",
                vec![
                    Beat(0),
                    Tick(600),
                    Beat(650),
                    Tick(900),
                    Tick(1200),
                    Beat(1210),
                    Tick(1211),
                ],
                &[
                    "paired>solo peer_failed",
                    "solo>paired peer_recovered",
                    "paired>suspect peer_suspected",
                    "suspect>solo peer_failed",
                    "solo>paired peer_recovered",
                ],
                Paired,
            ),
            (
                "a beat alone does not rescue a data-plane solo",
                vec![
                    Tick(200),
                    Beat(210),
                    Cause(220, "ack_timeout"),
                    Beat(230),
                    Tick(230),
                ],
                &[
                    "paired>suspect peer_suspected",
                    "suspect>paired peer_healthy",
                    "paired>solo ack_timeout",
                ],
                Solo,
            ),
            (
                "illegal inputs are inert",
                vec![
                    Beat(0),
                    Rejoin("x"),
                    Tick(200),
                    Rejoin("x"),
                    Cause(210, "disconnected"),
                    Tick(220),
                ],
                &["paired>suspect peer_suspected", "suspect>solo disconnected"],
                Solo,
            ),
            (
                "going solo twice is one edge",
                vec![Cause(0, "a"), Cause(1, "b")],
                &["paired>solo a"],
                Solo,
            ),
            (
                "the peer_alive timer rejoins a data-plane solo while beats flow",
                [vec![Cause(0, "ack_timeout")], beating(0, 600, 100)].concat(),
                &["paired>solo ack_timeout", "solo>paired peer_alive"],
                Paired,
            ),
            (
                "the peer_alive timer waits while the peer is overdue",
                vec![
                    Cause(0, "ack_timeout"),
                    Beat(300),
                    Tick(460),
                    Tick(500),
                    Beat(550),
                    Tick(560),
                ],
                &["paired>solo ack_timeout", "solo>paired peer_alive"],
                Paired,
            ),
            (
                "the peer_alive timer never fires for a failed peer",
                vec![Cause(0, "ack_timeout"), Tick(600), Tick(1200)],
                &["paired>solo ack_timeout"],
                Solo,
            ),
            (
                "a data plane still dead after a rejoin waits out the timer again",
                [
                    vec![Cause(0, "ack_timeout")],
                    beating(0, 600, 100),
                    vec![Cause(610, "ack_timeout")],
                    beating(610, 1100, 100),
                ]
                .concat(),
                &[
                    "paired>solo ack_timeout",
                    "solo>paired peer_alive",
                    "paired>solo ack_timeout",
                ],
                Solo,
            ),
            (
                "both ways back from solo land in paired, never resyncing",
                [
                    vec![Cause(0, "ack_timeout")],
                    beating(0, 600, 100),
                    vec![Tick(1200), Beat(1250), Tick(1250)],
                ]
                .concat(),
                &[
                    "paired>solo ack_timeout",
                    "solo>paired peer_alive",
                    "paired>solo peer_failed",
                    "solo>paired peer_recovered",
                ],
                Paired,
            ),
            (
                "after a rejoin a late beat clears suspicion as in any paired spell",
                vec![Tick(600), Beat(650), Tick(900), Beat(910), Tick(1100)],
                &[
                    "paired>solo peer_failed",
                    "solo>paired peer_recovered",
                    "paired>suspect peer_suspected",
                    "suspect>paired peer_healthy",
                    "paired>suspect peer_suspected",
                ],
                Suspect,
            ),
            (
                "after a rejoin a new silence suspects, then fails, the peer once each",
                vec![Tick(600), Beat(650), Tick(900), Tick(1000), Tick(1150)],
                &[
                    "paired>solo peer_failed",
                    "solo>paired peer_recovered",
                    "paired>suspect peer_suspected",
                    "suspect>solo peer_failed",
                ],
                Solo,
            ),
        ];
        for (name, script, edges, end) in rows {
            let (got, state) = run(&script);
            assert_eq!(got, edges, "{name}");
            assert_eq!(state, end, "{name}");
            assert_eq!(state.is_degraded(), end == Solo, "{name}");
            assert!(
                got.iter().all(|e| !e.contains(Resyncing.name())),
                "{name}: entered resyncing"
            );
        }
    }

    #[test]
    #[should_panic(expected = "heartbeat interval must be positive")]
    fn zero_heartbeat_panics() {
        let cfg = NodeConfig {
            heartbeat: Duration::ZERO,
            ..NodeConfig::test_profile(0)
        };
        Lifecycle::new(&cfg, Arc::default(), Instant::now());
    }
}
