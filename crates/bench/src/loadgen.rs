//! `fc-loadgen`: drive a gateway-fronted FlashCoop cluster from fc-trace
//! workloads and report tail latency, throughput, and shed rate.
//!
//! Deterministic by construction: each client derives its request stream
//! from `SyntheticSpec` with a per-client seed (`seed + client index`) and
//! owns a disjoint lpn window, so two runs with the same spec issue the
//! same requests — what varies between runs is only timing. Two modes:
//!
//! * **closed-loop** — each client issues, waits for the reply, issues the
//!   next: measures service latency with the client's own waiting
//!   throttling offered load.
//! * **open-loop** — each client fires requests at its trace's (scaled)
//!   arrival instants regardless of completions
//!   ([`fc_trace::ArrivalSchedule`]): the shape that actually saturates
//!   the admission gates and produces the hockey-stick p99.
//!
//! The loadgen counts its own `Busy` replies and cross-checks them against
//! the gateway's `gateway.shed_total` counter — the two are required to
//! agree exactly (asserted in `tests/gateway_e2e.rs`).

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use fc_cluster::ReplicationStats;
use fc_gateway::{
    spawn_mem_pair, AdmissionConfig, ClientError, ErrorCode, Gateway, GatewayClient, GatewayConfig,
    GatewayStats, Reply, ShardStats, ShardStatsSum, ShardedGateway,
};
use fc_obs::{Counter, Histogram};
use fc_ring::RingConfig;
use fc_trace::{Op, SyntheticSpec, Trace};

use crate::params::table1_preset;

/// Ring placement seed for loadgen-built clusters. Fixed (not derived from
/// the workload seed) so the shard layout is part of the tool's identity:
/// two runs of any spec agree on placement, and per-shard rows are
/// comparable across seeds.
pub const RING_SEED: u64 = 0x10AD_4E4E_F1A5_C009;

/// Which Table I workload each client replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Fin1,
    Fin2,
    Mix,
}

impl Workload {
    pub fn parse(s: &str) -> Result<Workload, String> {
        [Workload::Fin1, Workload::Fin2, Workload::Mix]
            .into_iter()
            .find(|w| w.name().eq_ignore_ascii_case(s))
            .ok_or_else(|| format!("unknown trace {:?} (fin1|fin2|mix)", s.to_ascii_lowercase()))
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fin1 => "fin1",
            Workload::Fin2 => "fin2",
            Workload::Mix => "mix",
        }
    }

    fn spec(self, pages: u64) -> SyntheticSpec {
        table1_preset(self.name(), pages).expect("every Workload is a Table I preset")
    }
}

/// Closed-loop (issue → wait → issue) or open-loop (fire at trace arrival
/// instants).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Closed,
    Open,
}

impl Mode {
    pub fn parse(s: &str) -> Result<Mode, String> {
        match s.to_ascii_lowercase().as_str() {
            "closed" => Ok(Mode::Closed),
            "open" => Ok(Mode::Open),
            other => Err(format!("unknown mode {other:?} (closed|open)")),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Mode::Closed => "closed",
            Mode::Open => "open",
        }
    }
}

/// Sessions over real TCP on localhost, or in-memory channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKind {
    Tcp,
    Mem,
}

impl TransportKind {
    pub fn parse(s: &str) -> Result<TransportKind, String> {
        match s.to_ascii_lowercase().as_str() {
            "tcp" => Ok(TransportKind::Tcp),
            "mem" => Ok(TransportKind::Mem),
            other => Err(format!("unknown transport {other:?} (tcp|mem)")),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            TransportKind::Tcp => "tcp",
            TransportKind::Mem => "mem",
        }
    }
}

/// Full loadgen run description.
#[derive(Debug, Clone)]
pub struct LoadgenSpec {
    pub clients: usize,
    pub workload: Workload,
    pub seed: u64,
    /// Requests per client.
    pub requests: usize,
    pub mode: Mode,
    pub transport: TransportKind,
    /// Logical-page window per client (clients own disjoint windows).
    pub pages_per_client: u64,
    /// Open-loop arrival-rate multiplier (>1 compresses the schedule).
    pub rate_factor: f64,
    /// Admission gates on the gateway under test.
    pub admission: AdmissionConfig,
    /// Payload bytes per page.
    pub page_bytes: usize,
    /// Cooperative pairs behind the gateway: a [`ShardedGateway`] whose ring
    /// is seeded with [`RING_SEED`]; the report has one row per shard slot.
    pub shards: u16,
    /// The run's scenario: timed steps, walked in order by one controller
    /// thread while the clients drive (empty: a plain run). [`Self::plan`]
    /// says which step lists are valid and what each does to the report.
    pub steps: Vec<Step>,
}

/// One timed step of a loadgen scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    /// Offset from the clients' start. A step fires no earlier than the
    /// step before it.
    pub at: Duration,
    pub action: Action,
}

impl Step {
    /// `action`, `ms` milliseconds after the clients start.
    pub fn at_ms(ms: u64, action: Action) -> Step {
        Step {
            at: Duration::from_millis(ms),
            action,
        }
    }
}

/// What a [`Step`] does to the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Crash this shard's primary: the gateway fails the shard over to
    /// its secondary (DESIGN §14).
    KillPrimary { shard: u16 },
    /// Restart the primary the last kill crashed; traffic then drives
    /// failback.
    Restart,
    /// Attach a fresh pair and live-migrate its share of occupied blocks
    /// onto it (DESIGN §15).
    AddPair,
    /// Live-remove the newest pair: the last one added, else the highest
    /// original shard.
    RemovePair,
}

/// What a valid spec's steps make of a run: the phases its acked requests
/// are bucketed into and the line that names it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    /// `(name, start offset)` per phase, ascending, the first at zero;
    /// empty without steps.
    pub phases: Vec<(&'static str, Duration)>,
    /// Each step's name in the spec line, in step order.
    pub steps: Vec<String>,
    pub spec_line: String,
}

impl LoadgenSpec {
    /// Validate the spec and plan its run. A step list is refused when a
    /// kill names a shard out of range, a restart follows no kill, a
    /// removal would retire the only pair or is not later than the add
    /// before it, or pair membership changes in a run that also kills a
    /// primary (a rebalance refuses degraded sources).
    pub fn plan(&self) -> Result<Plan, String> {
        if self.shards == 0 {
            return Err("shards must be >= 1".into());
        }
        let mut spec_line = format!(
            "trace={} clients={} seed={} requests={} mode={} transport={} shards={}",
            self.workload.name(),
            self.clients,
            self.seed,
            self.requests,
            self.mode.name(),
            self.transport.name(),
            self.shards,
        );
        let mut phases = Vec::new();
        let mut steps = Vec::new();
        let (mut faulted, mut scaled) = (false, false);
        let mut killed_at = None;
        let mut added_at = None;
        let mut pairs = self.shards;
        for step in &self.steps {
            let ms = step.at.as_millis();
            let (phase, text) = match step.action {
                Action::KillPrimary { shard } => {
                    if shard >= self.shards {
                        return Err(format!(
                            "victim shard {shard} out of range (shards = {})",
                            self.shards
                        ));
                    }
                    (faulted, killed_at) = (true, Some(step.at));
                    ("outage", format!("kill-primary(shard {shard})@{ms}ms"))
                }
                Action::Restart => {
                    let Some(kill) = killed_at.take() else {
                        return Err("--restart-after requires --kill-primary-at".into());
                    };
                    let after = step.at.saturating_sub(kill).as_millis();
                    ("post-restart", format!("restart+{after}ms"))
                }
                Action::AddPair => {
                    (scaled, added_at, pairs) = (true, Some(step.at), pairs + 1);
                    ("post-add", format!("add-pair@{ms}ms"))
                }
                Action::RemovePair => {
                    if pairs < 2 {
                        return Err("--remove-pair-at would retire the only pair".into());
                    }
                    (scaled, pairs) = (true, pairs - 1);
                    ("post-remove", format!("remove-pair@{ms}ms"))
                }
            };
            if faulted && scaled {
                return Err(
                    "--add-pair-at/--remove-pair-at cannot combine with --kill-primary-at \
                     (a rebalance refuses degraded sources)"
                        .into(),
                );
            }
            if step.action == Action::RemovePair && added_at.is_some_and(|add| step.at <= add) {
                return Err("--remove-pair-at must be later than --add-pair-at".into());
            }
            let last = phases.last().map_or(Duration::ZERO, |&(_, start)| start);
            if phases.is_empty() {
                phases.push((if faulted { "pre-kill" } else { "pre-scale" }, last));
            }
            phases.push((phase, step.at.max(last)));
            spec_line.push(' ');
            spec_line.push_str(&text);
            steps.push(text);
        }
        Ok(Plan {
            phases,
            steps,
            spec_line,
        })
    }
}

impl Default for LoadgenSpec {
    fn default() -> Self {
        LoadgenSpec {
            clients: 8,
            workload: Workload::Mix,
            seed: 42,
            requests: 2_000,
            mode: Mode::Closed,
            transport: TransportKind::Tcp,
            pages_per_client: 1 << 14,
            rate_factor: 1.0,
            admission: AdmissionConfig::default(),
            page_bytes: 512,
            shards: 1,
            steps: Vec::new(),
        }
    }
}

/// Aggregated outcome of a run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    pub spec_line: String,
    /// Requests issued by all clients.
    pub issued: u64,
    /// Requests acknowledged (non-Busy replies).
    pub acked: u64,
    /// `Busy` replies observed by clients.
    pub shed: u64,
    /// `Unavailable` replies observed by clients (shard had no live
    /// replica within the gateway's retry deadline; 0 without faults).
    pub unavailable: u64,
    /// Requests lost to disconnect/timeout (should be 0).
    pub errors: u64,
    /// From the clients' start until the last client finished: the
    /// traffic's span, not counting steps still due after it.
    pub wall: Duration,
    /// The steps that fired after the last client finished, by their
    /// spec-line names: they shaped no traffic.
    pub late_steps: Vec<String>,
    /// Client-observed request latency (issue → reply), nanoseconds.
    pub latency: Histogram,
    /// Gateway-side view at the end of the run.
    pub gateway: GatewayStats,
    /// FNV-1a digest over the cluster's final data state across every
    /// client window (routed reads) — two runs of the same
    /// spec must produce the same digest (the determinism contract of the
    /// in-memory variant).
    pub state_digest: u64,
    /// The gateway's per-shard counters, one entry per attached slot —
    /// a pair added mid-run has one, a retired one keeps its frozen
    /// counters. The report's shard rows come from here.
    pub shard_stats: Vec<ShardStats>,
    /// Per-phase breakdown of a run with steps (empty without): acked
    /// requests bucketed by the phase their reply arrived in —
    /// pre-kill/outage/post-restart around a kill and restart,
    /// pre-scale/post-add/post-remove around membership changes.
    pub phase_lines: Vec<PhaseLine>,
    /// Replication-pipeline view of the run, summed over every node in
    /// the cluster (primaries and secondaries alike).
    pub repl: ReplLine,
}

/// Cluster-wide replication summary for a run: the fault-tolerance
/// counters summed across nodes plus the batch-size distribution of every
/// first-send `WriteReplBatch` frame.
#[derive(Debug, Clone, Default)]
pub struct ReplLine {
    /// [`ReplicationStats`] summed over all nodes.
    pub stats: ReplicationStats,
    /// Pages-per-batch distribution merged across all senders.
    pub batch_hist: fc_obs::HistogramSummary,
}

/// One phase's client-observed share of a run.
#[derive(Debug, Clone)]
pub struct PhaseLine {
    pub name: &'static str,
    /// Offset from client start at which the phase begins.
    pub start: Duration,
    /// Acked requests whose reply arrived during this phase.
    pub acked: u64,
    /// Latency of those requests (issue → reply), nanoseconds.
    pub latency: Histogram,
}

impl LoadReport {
    /// Requests acknowledged per wall-clock second.
    pub fn throughput(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.acked as f64 / secs
        }
    }

    /// Fraction of issued requests shed by admission control.
    pub fn shed_rate(&self) -> f64 {
        if self.issued == 0 {
            0.0
        } else {
            self.shed as f64 / self.issued as f64
        }
    }

    /// The counter-sum identity: every per-shard `gateway.shard.*` counter
    /// must sum exactly to the aggregate of the same name.
    pub fn verify_shard_sums(&self) -> Result<(), String> {
        ShardStatsSum::of(&self.shard_stats)
            .matches(&self.gateway)
            .map_err(|(name, sum, total)| {
                format!("shard sum mismatch: Σ shard.{name} = {sum} != gateway.{name} = {total}")
            })
    }
}

/// Deterministic page payload: a recognisable header + client/lpn/seq tag,
/// so the e2e test can verify acked writes byte-for-byte.
pub fn payload(client: u64, lpn: u64, seq: u64, page_bytes: usize) -> Bytes {
    let mut v = Vec::with_capacity(page_bytes.max(24));
    v.extend_from_slice(&client.to_le_bytes());
    v.extend_from_slice(&lpn.to_le_bytes());
    v.extend_from_slice(&seq.to_le_bytes());
    let mut x = client
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(lpn)
        .wrapping_add(seq << 17)
        | 1;
    // Fill a whole xorshift word per step: payload generation runs once
    // per written page in every loadgen client, so the filler must not
    // rival the system under test for CPU.
    while v.len() < page_bytes.max(24) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        v.extend_from_slice(&x.to_le_bytes());
    }
    v.truncate(page_bytes.max(24));
    Bytes::from(v)
}

/// The payloads of request `seq`'s write of `pages` pages at `lpn`.
fn payloads(client: u64, lpn: u64, pages: u32, seq: usize, page_bytes: usize) -> Vec<Bytes> {
    (0..u64::from(pages))
        .map(|i| payload(client, lpn + i, seq as u64, page_bytes))
        .collect()
}

/// The per-client request stream: the trace, remapped into the client's
/// private lpn window.
pub fn client_trace(spec: &LoadgenSpec, client_idx: usize) -> Trace {
    spec.workload
        .spec(spec.pages_per_client)
        .with_requests(spec.requests)
        .generate(spec.seed + client_idx as u64)
}

fn lpn_window(spec: &LoadgenSpec, client_idx: usize) -> u64 {
    client_idx as u64 * spec.pages_per_client
}

/// Per-client tallies, merged into the [`LoadReport`].
#[derive(Debug, Default, Clone, Copy)]
struct ClientTally {
    issued: u64,
    acked: u64,
    shed: u64,
    unavailable: u64,
    errors: u64,
}

/// Client-observed recording shared across driver threads: every acked
/// request's latency, also credited to the plan phase its reply arrived
/// in, measured from the origin the step controller counts from.
struct Sinks {
    latency: Histogram,
    origin: Instant,
    /// The plan's `(name, start offset)` phases (none without steps).
    phases: Vec<(&'static str, Duration)>,
    acked: Vec<Counter>,
    phase_latency: Vec<Histogram>,
}

impl Sinks {
    fn new(origin: Instant, phases: Vec<(&'static str, Duration)>) -> Sinks {
        Sinks {
            latency: Histogram::new(),
            origin,
            acked: phases.iter().map(|_| Counter::new()).collect(),
            phase_latency: phases.iter().map(|_| Histogram::new()).collect(),
            phases,
        }
    }

    fn record(&self, ns: u64) {
        self.latency.record(ns);
        let elapsed = self.origin.elapsed();
        if let Some(i) = self.phases.iter().rposition(|&(_, s)| elapsed >= s) {
            self.acked[i].inc();
            self.phase_latency[i].record(ns);
        }
    }

    fn lines(&self) -> Vec<PhaseLine> {
        self.phases
            .iter()
            .zip(self.acked.iter().zip(&self.phase_latency))
            .map(|(&(name, start), (acked, latency))| PhaseLine {
                name,
                start,
                acked: acked.get(),
                latency: latency.clone(),
            })
            .collect()
    }
}

fn drive_closed(
    client: &mut GatewayClient,
    trace: &Trace,
    base: u64,
    page_bytes: usize,
    sinks: &Sinks,
) -> ClientTally {
    let mut t = ClientTally::default();
    let cid = client.client_id();
    for (seq, req) in trace.requests.iter().enumerate() {
        let started = Instant::now();
        let (lpn, pages) = (base + req.lpn, req.pages.max(1));
        t.issued += 1;
        let outcome = match req.op {
            Op::Write => client
                .write(lpn, payloads(cid, lpn, pages, seq, page_bytes))
                .map(|_| ()),
            Op::Read => client.read(lpn, pages).map(|_| ()),
            Op::Trim => client.trim(lpn, pages).map(|_| ()),
        };
        match outcome {
            Ok(()) => {
                t.acked += 1;
                sinks.record(started.elapsed().as_nanos() as u64);
            }
            Err(ClientError::Busy) => t.shed += 1,
            // A shard with no live replica degrades to a typed reply, not
            // a hang — count it and keep driving the surviving shards.
            Err(ClientError::Unavailable { .. }) => t.unavailable += 1,
            Err(_) => {
                t.errors += 1;
                break;
            }
        }
    }
    t
}

fn drive_open(
    client: &mut GatewayClient,
    trace: &Trace,
    base: u64,
    page_bytes: usize,
    rate_factor: f64,
    sinks: &Sinks,
) -> ClientTally {
    let mut t = ClientTally::default();
    let cid = client.client_id();
    let schedule = trace.arrival_schedule().scaled(rate_factor);
    let origin = Instant::now();
    // id → send instant, for latency once the (in-order) reply arrives.
    let mut inflight = VecDeque::new();

    for (seq, req) in trace.requests.iter().enumerate() {
        // Wait for this request's arrival instant, draining replies while
        // we wait instead of sleeping blind.
        if let Some(offset) = schedule.offset(seq) {
            let due = Duration::from_nanos(offset.as_nanos());
            loop {
                let elapsed = origin.elapsed();
                if elapsed >= due {
                    break;
                }
                let wait = (due - elapsed).min(Duration::from_micros(200));
                if !drain_replies(client, &mut inflight, &mut t, sinks, wait) {
                    return t;
                }
            }
        }
        if !drain_replies(client, &mut inflight, &mut t, sinks, Duration::ZERO) {
            return t;
        }
        let (lpn, pages) = (base + req.lpn, req.pages.max(1));
        t.issued += 1;
        let sent = Instant::now();
        let result = match req.op {
            Op::Write => client.send_write(lpn, payloads(cid, lpn, pages, seq, page_bytes)),
            Op::Read => client.send_read(lpn, pages),
            Op::Trim => client.send_trim(lpn, pages),
        };
        match result {
            Ok(id) => inflight.push_back((id, sent)),
            Err(_) => {
                t.errors += 1;
                return t;
            }
        }
    }
    // Collect the tail.
    while !inflight.is_empty() {
        if !drain_replies(client, &mut inflight, &mut t, sinks, Duration::from_secs(5)) {
            break;
        }
    }
    t
}

/// Drain replies for up to `budget`; `Duration::ZERO` empties the queue
/// without waiting. Returns false on a protocol/transport failure.
fn drain_replies(
    client: &GatewayClient,
    inflight: &mut VecDeque<(u64, Instant)>,
    t: &mut ClientTally,
    sinks: &Sinks,
    budget: Duration,
) -> bool {
    loop {
        let reply = match client.recv_reply(budget) {
            Ok(reply) => reply,
            Err(ClientError::TimedOut) => return true,
            Err(_) => {
                t.errors += 1;
                return false;
            }
        };
        let Some((_, sent)) = inflight.pop_front().filter(|&(id, _)| id == reply.id()) else {
            t.errors += 1;
            return false;
        };
        // Tallied as the closed loop tallies `ClientError`s: only `Busy`
        // is shed.
        match reply {
            Reply::Error {
                code: ErrorCode::Busy,
                ..
            } => t.shed += 1,
            Reply::Error { .. } => t.errors += 1,
            Reply::Unavailable { .. } => t.unavailable += 1,
            _ => {
                t.acked += 1;
                sinks.record(sent.elapsed().as_nanos() as u64);
            }
        }
        if budget != Duration::ZERO {
            return true;
        }
    }
}

/// Build a gateway-fronted cluster — `spec.shards` pairs behind a
/// consistent-hash ring — run the spec, and report.
pub fn run(spec: &LoadgenSpec) -> Result<LoadReport, String> {
    let plan = spec.plan()?;
    let gw_cfg = GatewayConfig {
        admission: spec.admission,
        ..GatewayConfig::default()
    };
    let pages_per_block = gw_cfg.pages_per_block;

    let ring_cfg = RingConfig {
        seed: RING_SEED,
        block_pages: pages_per_block,
        ..RingConfig::default()
    };
    let sg = ShardedGateway::spawn_mem(gw_cfg, ring_cfg, spec.shards);
    let gateway = Arc::clone(sg.gateway());

    let tcp_addr = match spec.transport {
        TransportKind::Tcp => Some(
            gateway
                .listen_tcp("127.0.0.1:0")
                .map_err(|e| format!("listen: {e}"))?,
        ),
        TransportKind::Mem => None,
    };

    let started = Instant::now();
    let sinks = Arc::new(Sinks::new(started, plan.phases));

    // Step controller: walk the spec's steps on the clients' clock.
    let controller = (!spec.steps.is_empty())
        .then(|| {
            let gateway = Arc::clone(&gateway);
            let (steps, shards) = (spec.steps.clone(), spec.shards);
            std::thread::Builder::new()
                .name("fc-loadgen-steps".into())
                .spawn(move || run_steps(&gateway, &steps, started, shards, pages_per_block))
        })
        .transpose()
        .map_err(|e| format!("spawn step controller: {e}"))?;

    let mut handles = Vec::new();
    for idx in 0..spec.clients {
        let trace = client_trace(spec, idx);
        let base = lpn_window(spec, idx);
        let mut client = match spec.transport {
            TransportKind::Tcp => {
                let addr = tcp_addr.expect("tcp addr");
                GatewayClient::connect_tcp(addr, idx as u64 + 1)
                    .map_err(|e| format!("connect: {e}"))?
            }
            TransportKind::Mem => gateway.connect_mem_as(idx as u64 + 1),
        };
        let sinks = Arc::clone(&sinks);
        let mode = spec.mode;
        let page_bytes = spec.page_bytes;
        let rate_factor = spec.rate_factor;
        handles.push(
            std::thread::Builder::new()
                .name(format!("fc-loadgen-{idx}"))
                .spawn(move || {
                    client.hello().map_err(|e| format!("hello: {e}"))?;
                    Ok::<ClientTally, String>(match mode {
                        Mode::Closed => drive_closed(&mut client, &trace, base, page_bytes, &sinks),
                        Mode::Open => {
                            drive_open(&mut client, &trace, base, page_bytes, rate_factor, &sinks)
                        }
                    })
                })
                .map_err(|e| format!("spawn: {e}"))?,
        );
    }

    let mut total = ClientTally::default();
    for h in handles {
        let tally = h.join().map_err(|_| "client thread panicked")??;
        total.issued += tally.issued;
        total.acked += tally.acked;
        total.shed += tally.shed;
        total.unavailable += tally.unavailable;
        total.errors += tally.errors;
    }
    let wall = started.elapsed();
    // The state below is snapshotted after every step has run.
    let fired = match controller {
        Some(controller) => controller
            .join()
            .map_err(|_| "step controller thread panicked")??,
        None => Vec::new(),
    };
    let late_steps = plan
        .steps
        .into_iter()
        .zip(fired)
        .filter_map(|(name, at)| (at >= wall).then_some(name))
        .collect();
    // A TCP session releases its final permit just *after* the last reply
    // is sent; wait for the session threads to drain so the snapshot sees
    // a quiesced gateway (residual in-flight 0). An in-memory session has
    // released it before its client returned.
    let drain_deadline = Instant::now() + Duration::from_secs(2);
    while gateway.stats().inflight != 0 && Instant::now() < drain_deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    let gateway_stats = gateway.stats();
    let shard_stats = gateway.shard_stats();
    let digest = state_digest(&gateway, spec.clients as u64 * spec.pages_per_client);

    // Cluster-wide replication summary, snapshotted while the nodes are
    // still alive (both sides of every pair — secondaries count dedup and
    // integrity rejections the senders never see).
    let mut repl = ReplLine::default();
    for shard in 0..sg.shards() {
        for node in [sg.primary(shard), sg.secondary(shard)] {
            repl.stats.absorb(&node.stats().repl);
            repl.batch_hist.merge(&node.repl_batch_histogram());
        }
    }

    sg.shutdown();

    Ok(LoadReport {
        spec_line: plan.spec_line,
        issued: total.issued,
        acked: total.acked,
        shed: total.shed,
        unavailable: total.unavailable,
        errors: total.errors,
        wall,
        late_steps,
        latency: sinks.latency.clone(),
        gateway: gateway_stats,
        state_digest: digest,
        shard_stats,
        phase_lines: sinks.lines(),
        repl,
    })
}

/// The step controller: sleep until each step's offset from `started`, in
/// order, and act on the cluster — crash or restart a primary, or change
/// pair membership through the gateway's epoch-fenced rebalance while the
/// clients keep driving. The spec's plan has validated `steps`. Returns
/// each step's offset from `started` when it fired.
fn run_steps(
    gateway: &Gateway,
    steps: &[Step],
    started: Instant,
    shards: u16,
    pages_per_block: u32,
) -> Result<Vec<Duration>, String> {
    // Live pair slots, oldest first: an add pushes, a removal pops.
    let mut live: Vec<u16> = (0..shards).collect();
    let mut next_slot = shards;
    let mut killed = None;
    let mut fired = Vec::with_capacity(steps.len());
    for step in steps {
        let due = started + step.at;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        fired.push(started.elapsed());
        match step.action {
            Action::KillPrimary { shard } => {
                let victim = Arc::clone(&gateway.shard_nodes()[usize::from(shard)]);
                victim.fail();
                killed = Some(victim);
            }
            Action::Restart => killed.take().expect("a restart follows a kill").restart(),
            Action::AddPair => {
                let (p, s) = spawn_mem_pair(next_slot, pages_per_block, |_| {});
                gateway
                    .add_pair(p, s)
                    .map_err(|e| format!("add-pair: {e}"))?;
                live.push(next_slot);
                next_slot += 1;
            }
            Action::RemovePair => {
                let newest = live.pop().expect("a removal leaves a pair");
                gateway
                    .remove_pair(newest)
                    .map_err(|e| format!("remove-pair {newest}: {e}"))?;
            }
        }
    }
    Ok(fired)
}

/// FNV-1a fold of every present page in `[0, total_pages)` — the
/// cluster's observable final state for determinism comparisons. Reads go
/// through the gateway's routing, so the digest covers every shard.
fn state_digest(gateway: &Gateway, total_pages: u64) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for lpn in 0..total_pages {
        if let Some(data) = gateway.read_page(lpn) {
            h ^= lpn.wrapping_add(1);
            h = h.wrapping_mul(PRIME);
            for &b in &data {
                h ^= u64::from(b);
                h = h.wrapping_mul(PRIME);
            }
        }
    }
    h
}

/// Render the human-readable report table.
pub fn report_text(r: &LoadReport) -> String {
    let us = |ns: u64| ns as f64 / 1_000.0;
    let mut out = String::new();
    out.push_str(&format!("fc-loadgen: {}\n", r.spec_line));
    out.push_str(&format!("  {:<12} {:>12}\n", "issued", r.issued));
    out.push_str(&format!("  {:<12} {:>12}\n", "acked", r.acked));
    out.push_str(&format!(
        "  {:<12} {:>12}   ({:.2}% of issued; gateway.shed_total={})\n",
        "shed",
        r.shed,
        100.0 * r.shed_rate(),
        r.gateway.shed_total
    ));
    if r.unavailable > 0 || !r.phase_lines.is_empty() {
        out.push_str(&format!(
            "  {:<12} {:>12}   (gateway.unavailable={})\n",
            "unavailable", r.unavailable, r.gateway.unavailable
        ));
    }
    out.push_str(&format!("  {:<12} {:>12}\n", "errors", r.errors));
    out.push_str(&format!(
        "  {:<12} {:>12.1} req/s over {:.3} s\n",
        "throughput",
        r.throughput(),
        r.wall.as_secs_f64()
    ));
    if !r.late_steps.is_empty() {
        out.push_str(&format!(
            "  steps after traffic: {} ({})\n",
            r.late_steps.len(),
            r.late_steps.join(", ")
        ));
    }
    out.push_str(&format!(
        "  {:<12} p50 {:>9.1} µs   p99 {:>9.1} µs   p999 {:>9.1} µs   max {:>9.1} µs\n",
        "latency",
        us(r.latency.p50()),
        us(r.latency.p99()),
        us(r.latency.p999()),
        us(r.latency.max()),
    ));
    let h = &r.repl.batch_hist;
    let mean = if h.count == 0 {
        0.0
    } else {
        h.sum as f64 / h.count as f64
    };
    out.push_str(&format!(
        "  {:<12} batches {}  pages {}  (pages/batch mean {:.1}  p50 {}  p99 {}  max {})  retries {}\n",
        "replication",
        r.repl.stats.batches_sent,
        r.repl.stats.batch_pages,
        mean,
        h.p50,
        h.p99,
        h.max,
        r.repl.stats.retries,
    ));
    out.push_str(&format!(
        "  {:<12} batches {}  runs {}  coalesced {}  peak-inflight {}  residual {}\n",
        "gateway",
        r.gateway.batches,
        r.gateway.runs,
        r.gateway.coalesced_pages,
        r.gateway.max_inflight_seen,
        r.gateway.inflight,
    ));
    if !r.phase_lines.is_empty() {
        out.push_str(&format!(
            "  {:<12} failovers {}  failbacks {}  retries {}  unavailable {}\n",
            "health",
            r.gateway.failovers,
            r.gateway.failbacks,
            r.gateway.retries,
            r.gateway.unavailable,
        ));
    }
    if r.gateway.rebalances_started > 0 {
        out.push_str(&format!(
            "  {:<12} started {}  completed {}  moved-blocks {}  moved-pages {}  batches {}\n",
            "rebalance",
            r.gateway.rebalances_started,
            r.gateway.rebalances_completed,
            r.gateway.rebalance_moved_blocks,
            r.gateway.rebalance_moved_pages,
            r.gateway.rebalance_batches,
        ));
    }
    for line in &r.phase_lines {
        out.push_str(&format!(
            "  phase {:<12} from {:>6} ms   acked {:>8}   p50 {:>9.1} µs   p99 {:>9.1} µs\n",
            line.name,
            line.start.as_millis(),
            line.acked,
            us(line.latency.p50()),
            us(line.latency.p99()),
        ));
    }
    for s in &r.shard_stats {
        let mean_ns = s.latency_sum_ns.checked_div(s.latency_samples).unwrap_or(0);
        out.push_str(&format!(
            "  shard {:<6} ops {:>8}   mean {:>9.1} µs   runs {:>8}   rd {:>8}   wr {:>8}\n",
            s.shard,
            s.ops,
            us(mean_ns),
            s.runs,
            s.read_pages,
            s.write_pages,
        ));
    }
    out.push_str(&format!(
        "  {:<12} {:#018x}\n",
        "state-digest", r.state_digest
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payloads_are_deterministic_and_tagged() {
        let a = payload(3, 77, 5, 128);
        let b = payload(3, 77, 5, 128);
        assert_eq!(a, b);
        assert_eq!(a.len(), 128);
        assert_ne!(a, payload(4, 77, 5, 128));
        assert_ne!(a, payload(3, 78, 5, 128));
        // Header tags survive.
        assert_eq!(&a[0..8], &3u64.to_le_bytes());
        assert_eq!(&a[8..16], &77u64.to_le_bytes());
    }

    #[test]
    fn client_traces_are_deterministic_and_distinct() {
        let spec = LoadgenSpec {
            requests: 50,
            ..LoadgenSpec::default()
        };
        let t0a = client_trace(&spec, 0);
        let t0b = client_trace(&spec, 0);
        assert_eq!(t0a.requests, t0b.requests, "same seed ⇒ same stream");
        let t1 = client_trace(&spec, 1);
        assert_ne!(t0a.requests, t1.requests, "per-client seeds differ");
    }

    #[test]
    fn closed_loop_mem_run_is_clean() {
        let spec = LoadgenSpec {
            clients: 3,
            requests: 60,
            transport: TransportKind::Mem,
            admission: AdmissionConfig::unlimited(),
            pages_per_client: 1 << 10,
            ..LoadgenSpec::default()
        };
        let report = run(&spec).expect("run");
        assert_eq!(report.issued, 180);
        assert_eq!(report.acked, 180, "unlimited admission sheds nothing");
        assert_eq!(report.shed, 0);
        assert_eq!(report.errors, 0);
        assert_eq!(report.latency.count(), 180);
        assert_eq!(report.gateway.shed_total, 0);
        let text = report_text(&report);
        assert!(text.contains("p999"));
        assert!(text.contains("throughput"));
    }

    #[test]
    fn open_loop_mem_run_collects_every_reply() {
        let spec = LoadgenSpec {
            clients: 2,
            requests: 40,
            mode: Mode::Open,
            transport: TransportKind::Mem,
            rate_factor: 1_000_000.0, // fire as fast as the schedule allows
            admission: AdmissionConfig::unlimited(),
            pages_per_client: 1 << 10,
            ..LoadgenSpec::default()
        };
        let report = run(&spec).expect("run");
        assert_eq!(report.issued, 80);
        assert_eq!(report.acked + report.shed, 80, "every request answered");
        assert_eq!(report.errors, 0);
    }

    #[test]
    fn loadgen_shed_count_matches_gateway_counter() {
        // Starved token buckets: most requests are shed, and the client-
        // side Busy tally must agree exactly with the gateway's counter.
        let spec = LoadgenSpec {
            clients: 2,
            requests: 50,
            transport: TransportKind::Mem,
            admission: AdmissionConfig {
                per_client_rate: 0.0,
                per_client_burst: 5.0,
                max_inflight: u32::MAX,
            },
            pages_per_client: 1 << 10,
            ..LoadgenSpec::default()
        };
        let report = run(&spec).expect("run");
        assert_eq!(report.errors, 0);
        assert_eq!(report.acked, 10, "exactly the two bursts are admitted");
        assert_eq!(report.shed, 90);
        assert_eq!(
            report.shed, report.gateway.shed_total,
            "client view and gateway counter agree exactly"
        );
        assert!(report.shed_rate() > 0.8);
    }

    #[test]
    fn sharded_closed_loop_is_deterministic_and_sums_match() {
        let spec = LoadgenSpec {
            clients: 4,
            requests: 80,
            transport: TransportKind::Mem,
            admission: AdmissionConfig::unlimited(),
            pages_per_client: 1 << 10,
            shards: 4,
            ..LoadgenSpec::default()
        };
        let a = run(&spec).expect("run a");
        let b = run(&spec).expect("run b");

        assert_eq!(a.errors, 0);
        assert_eq!(a.issued, 320);
        assert_eq!(a.acked, 320, "unlimited admission sheds nothing");
        assert_eq!(
            a.state_digest, b.state_digest,
            "mem closed-loop sharded runs are bit-deterministic"
        );

        // Per-shard gateway counters sum exactly to the aggregates.
        a.verify_shard_sums().expect("counter-sum identity");
        b.verify_shard_sums().expect("counter-sum identity");

        // One gateway row per shard, each submission timed once; with the
        // default vnode count the 4 shards all see traffic.
        assert_eq!(a.shard_stats.len(), 4);
        assert!(a.shard_stats.iter().all(|s| s.ops > 0));
        assert!(a.shard_stats.iter().all(|s| s.latency_samples == s.ops));

        let text = report_text(&a);
        assert_eq!(shard_rows(&text), 4);
        assert!(text.contains("shard 0"));
        assert!(text.contains("shard 3"));
        assert!(text.contains("shards=4"));
    }

    #[test]
    fn fault_schedule_fails_over_and_keeps_serving() {
        let spec = LoadgenSpec {
            clients: 4,
            requests: 1_500,
            transport: TransportKind::Mem,
            admission: AdmissionConfig::unlimited(),
            pages_per_client: 1 << 10,
            shards: 2,
            steps: vec![
                Step::at_ms(5, Action::KillPrimary { shard: 0 }),
                Step::at_ms(45, Action::Restart),
            ],
            ..LoadgenSpec::default()
        };
        let report = run(&spec).expect("run");
        assert_eq!(report.errors, 0, "no client saw a hang or disconnect");
        assert_eq!(report.issued, 6_000);
        assert_eq!(
            report.acked + report.shed + report.unavailable,
            report.issued,
            "every request got a typed answer"
        );
        assert!(
            report.gateway.failovers >= 1,
            "killing the primary mid-run forces a failover"
        );
        report.verify_shard_sums().expect("counter-sum identity");
        assert_eq!(report.phase_lines.len(), 3);
        assert_eq!(report.phase_lines[0].name, "pre-kill");
        assert_eq!(report.phase_lines[2].name, "post-restart");
        let acked_by_phase: u64 = report.phase_lines.iter().map(|p| p.acked).sum();
        assert_eq!(acked_by_phase, report.acked);
        let text = report_text(&report);
        assert!(text.contains("phase pre-kill"));
        assert!(text.contains("kill-primary(shard 0)@5ms"));
        assert!(text.contains("restart+40ms"));
        assert!(text.contains("failovers"));
    }

    /// A step due after the clients finished neither stretches `wall` nor
    /// passes unnoticed: the report names it.
    #[test]
    fn a_step_after_the_traffic_is_named_not_timed() {
        let spec = LoadgenSpec {
            clients: 2,
            requests: 20,
            transport: TransportKind::Mem,
            admission: AdmissionConfig::unlimited(),
            pages_per_client: 1 << 10,
            steps: vec![Step::at_ms(300, Action::KillPrimary { shard: 0 })],
            ..LoadgenSpec::default()
        };
        let report = run(&spec).expect("run");
        assert_eq!(report.acked, 40);
        assert!(
            report.wall < Duration::from_millis(300),
            "wall {:?} counts the controller's wait",
            report.wall
        );
        assert_eq!(report.late_steps, ["kill-primary(shard 0)@300ms"]);
        assert!(
            report_text(&report).contains("steps after traffic: 1 (kill-primary(shard 0)@300ms)")
        );
    }

    #[test]
    fn fault_schedule_validation() {
        let bad_victim = LoadgenSpec {
            shards: 2,
            steps: vec![Step::at_ms(1, Action::KillPrimary { shard: 5 })],
            ..LoadgenSpec::default()
        };
        assert!(run(&bad_victim).is_err());
        let orphan_restart = LoadgenSpec {
            shards: 2,
            steps: vec![Step::at_ms(1, Action::Restart)],
            ..LoadgenSpec::default()
        };
        assert!(run(&orphan_restart).is_err());
    }

    #[test]
    fn elastic_schedule_scales_live_and_stays_deterministic() {
        let spec = LoadgenSpec {
            clients: 4,
            requests: 1_500,
            transport: TransportKind::Mem,
            admission: AdmissionConfig::unlimited(),
            pages_per_client: 1 << 10,
            shards: 2,
            steps: vec![
                Step::at_ms(5, Action::AddPair),
                Step::at_ms(30, Action::RemovePair),
            ],
            ..LoadgenSpec::default()
        };
        let a = run(&spec).expect("run a");
        let b = run(&spec).expect("run b");

        assert_eq!(a.errors, 0, "no client saw a hang or disconnect");
        assert_eq!(a.issued, 6_000);
        assert_eq!(a.acked, 6_000, "rebalancing never rejects admitted ops");
        assert_eq!(a.gateway.rebalances_started, 2, "one add + one remove");
        assert_eq!(a.gateway.rebalances_completed, 2);
        // What migrated is timing-dependent, but the final data state is
        // not: acked payloads survive both membership changes bit-exactly.
        assert_eq!(
            a.state_digest, b.state_digest,
            "mem closed-loop elastic runs are bit-deterministic"
        );
        // The counter-sum identity holds across attach + retire (the
        // retired pair's slot keeps its frozen counters).
        a.verify_shard_sums().expect("counter-sum identity");
        b.verify_shard_sums().expect("counter-sum identity");
        assert_eq!(a.phase_lines.len(), 3);
        assert_eq!(a.phase_lines[0].name, "pre-scale");
        assert_eq!(a.phase_lines[1].name, "post-add");
        assert_eq!(a.phase_lines[2].name, "post-remove");
        let acked_by_phase: u64 = a.phase_lines.iter().map(|p| p.acked).sum();
        assert_eq!(acked_by_phase, a.acked);
        let text = report_text(&a);
        assert!(text.contains("add-pair@5ms"));
        assert!(text.contains("remove-pair@30ms"));
        assert!(text.contains("rebalance"));
        assert!(text.contains("phase post-add"));
    }

    #[test]
    fn elastic_schedule_validation() {
        let last_pair = LoadgenSpec {
            steps: vec![Step::at_ms(1, Action::RemovePair)],
            ..LoadgenSpec::default()
        };
        assert!(run(&last_pair).is_err(), "a removal never empties the ring");
        let with_fault = LoadgenSpec {
            shards: 2,
            steps: vec![
                Step::at_ms(1, Action::KillPrimary { shard: 0 }),
                Step::at_ms(1, Action::AddPair),
            ],
            ..LoadgenSpec::default()
        };
        assert!(run(&with_fault).is_err(), "schedules cannot combine");
        let backwards = LoadgenSpec {
            shards: 2,
            steps: vec![
                Step::at_ms(10, Action::AddPair),
                Step::at_ms(5, Action::RemovePair),
            ],
            ..LoadgenSpec::default()
        };
        assert!(run(&backwards).is_err(), "remove must follow add");
    }

    /// Every step list `fc-loadgen`'s flags produce: the phases (name,
    /// start in ms) and spec line it plans, and every list it refuses.
    #[test]
    fn plan_covers_every_flag_shape() {
        use Action::{AddPair as Add, RemovePair as Remove, Restart};
        let kill = |shard| Action::KillPrimary { shard };
        let spec = |shards, steps: &[(u64, Action)]| LoadgenSpec {
            shards,
            steps: steps.iter().map(|&(ms, a)| Step::at_ms(ms, a)).collect(),
            ..LoadgenSpec::default()
        };
        let accepted = [
            (spec(1, &[]), "", ""),
            (
                spec(1, &[(5, kill(0))]),
                "pre-kill@0 outage@5",
                " kill-primary(shard 0)@5ms",
            ),
            (
                spec(2, &[(5, kill(1)), (45, Restart)]),
                "pre-kill@0 outage@5 post-restart@45",
                " kill-primary(shard 1)@5ms restart+40ms",
            ),
            (
                spec(2, &[(5, kill(0)), (5, Restart)]),
                "pre-kill@0 outage@5 post-restart@5",
                " kill-primary(shard 0)@5ms restart+0ms",
            ),
            (
                spec(1, &[(5, Add)]),
                "pre-scale@0 post-add@5",
                " add-pair@5ms",
            ),
            (
                spec(2, &[(30, Remove)]),
                "pre-scale@0 post-remove@30",
                " remove-pair@30ms",
            ),
            (
                spec(1, &[(5, Add), (30, Remove)]),
                "pre-scale@0 post-add@5 post-remove@30",
                " add-pair@5ms remove-pair@30ms",
            ),
            (
                spec(4, &[(10, Add), (60, Remove)]),
                "pre-scale@0 post-add@10 post-remove@60",
                " add-pair@10ms remove-pair@60ms",
            ),
        ];
        for (s, phases, tail) in accepted {
            let plan = s.plan().expect(tail);
            let got: Vec<String> = plan
                .phases
                .iter()
                .map(|(name, start)| format!("{name}@{}", start.as_millis()))
                .collect();
            assert_eq!(got.join(" "), phases, "{tail}");
            assert_eq!(
                plan.spec_line,
                format!(
                    "trace=mix clients=8 seed=42 requests=2000 mode=closed transport=tcp shards={}{tail}",
                    s.shards
                )
            );
        }
        let rejected = [
            (spec(0, &[]), "shards must be >= 1"),
            (spec(2, &[(1, kill(2))]), "victim shard 2 out of range"),
            (spec(2, &[(1, Restart)]), "requires --kill-primary-at"),
            (
                spec(2, &[(1, kill(0)), (2, Restart), (3, Restart)]),
                "requires",
            ),
            (spec(1, &[(1, Remove)]), "would retire the only pair"),
            (spec(1, &[(1, Add), (2, Remove), (3, Remove)]), "only pair"),
            (spec(2, &[(1, kill(0)), (1, Add)]), "cannot combine"),
            (spec(2, &[(1, kill(0)), (2, Remove)]), "cannot combine"),
            (
                spec(2, &[(1, kill(0)), (2, Restart), (3, Add)]),
                "cannot combine",
            ),
            (spec(2, &[(10, Add), (10, Remove)]), "must be later"),
            (spec(2, &[(10, Add), (5, Remove)]), "must be later"),
        ];
        for (s, why) in rejected {
            let err = s.plan().expect_err(why);
            assert!(err.contains(why), "{why}: {err}");
            assert!(run(&s).is_err(), "{why}");
        }
    }

    /// The open loop tallies a reply as the closed loop tallies its
    /// `ClientError`: only `Busy` is shed, any other error code is an error.
    #[test]
    fn open_loop_counts_only_busy_as_shed() {
        let (client_half, gateway_half) = fc_gateway::mem_session();
        let mut client = GatewayClient::from_mem(client_half, 1);
        let sinks = Sinks::new(Instant::now(), Vec::new());
        let mut inflight = VecDeque::new();
        let mut t = ClientTally::default();
        for (code, want) in [(ErrorCode::BadRequest, (1, 0)), (ErrorCode::Busy, (1, 1))] {
            inflight.push_back((client.send_read(0, 1).unwrap(), Instant::now()));
            let req = gateway_half
                .recv_timeout(Duration::from_secs(1))
                .unwrap()
                .expect("the client's read");
            gateway_half
                .send(Reply::Error { id: req.id(), code })
                .unwrap();
            assert!(drain_replies(
                &client,
                &mut inflight,
                &mut t,
                &sinks,
                Duration::ZERO
            ));
            assert_eq!((t.errors, t.shed), want, "after {code:?}");
        }
        assert_eq!((t.acked, sinks.latency.count()), (0, 0));
    }

    /// A closed-loop mem run at loadgen's own profiles ends in a pinned
    /// final state, the same behind one pair as behind four: a change that
    /// moves where any acked page lands, or what it holds, moves the digest.
    #[test]
    fn mem_closed_loop_state_digest_is_pinned() {
        for shards in [1, 4] {
            let spec = LoadgenSpec {
                clients: 4,
                requests: 300,
                transport: TransportKind::Mem,
                admission: AdmissionConfig::unlimited(),
                pages_per_client: 1 << 10,
                shards,
                ..LoadgenSpec::default()
            };
            let report = run(&spec).expect("run");
            assert_eq!((report.shed, report.errors), (0, 0), "shards={shards}");
            assert_eq!(
                report.state_digest, 0x3403_2e11_ad11_e2f8,
                "shards={shards}: got {:#018x}",
                report.state_digest
            );
        }
    }

    #[test]
    fn single_pair_report_has_one_shard_row_equal_to_the_aggregate() {
        let spec = LoadgenSpec {
            clients: 2,
            requests: 30,
            transport: TransportKind::Mem,
            admission: AdmissionConfig::unlimited(),
            pages_per_client: 1 << 10,
            ..LoadgenSpec::default()
        };
        let report = run(&spec).expect("run");
        let g = &report.gateway;
        assert!(g.write_pages > 0 && g.read_pages > 0, "workload is mixed");
        // With one row, the eleven-counter sum identity says the row
        // equals the aggregate.
        assert_eq!(report.shard_stats.len(), 1);
        report.verify_shard_sums().expect("counter-sum identity");
        let text = report_text(&report);
        assert_eq!(shard_rows(&text), 1);
        assert!(text.contains("shard 0"));
    }

    /// A pair added mid-run is a shard slot of its own, so it gets a row.
    #[test]
    fn a_pair_added_mid_run_gets_its_own_shard_row() {
        let spec = LoadgenSpec {
            clients: 2,
            requests: 300,
            transport: TransportKind::Mem,
            admission: AdmissionConfig::unlimited(),
            pages_per_client: 1 << 10,
            shards: 2,
            steps: vec![Step::at_ms(5, Action::AddPair)],
            ..LoadgenSpec::default()
        };
        let report = run(&spec).expect("run");
        assert_eq!(report.gateway.rebalances_completed, 1);
        assert_eq!(report.shard_stats.len(), 3);
        report.verify_shard_sums().expect("counter-sum identity");
        let text = report_text(&report);
        assert_eq!(shard_rows(&text), 3, "{text}");
        assert!(text.contains("shard 2"));
    }

    fn shard_rows(text: &str) -> usize {
        text.lines().filter(|l| l.starts_with("  shard ")).count()
    }
}
