//! One repeat: fresh cluster → set-up → warm-up → closed phase → paced
//! phase → flush → read-back, and what it measured.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use fc_trace::{SyntheticSpec, Trace};

use crate::cluster::Cluster;
use crate::drive::{Client, Paced, Schedule, Tally};
use crate::layers::{Snapshot, SsdCounts};
use crate::oracle::Oracle;
use crate::probes::{BackendCounts, Span, SpanSink, TransportCounts};
use crate::workloads::{
    TraceKind, Workload, CLIENTS, CLOSED_SHARE, MAX_BACKLOG_SECONDS, MAX_LATE_SHARE,
    PAGES_PER_BLOCK, WARMUP_SHARE,
};

/// Client `idx`'s request list: the workload's trace personality over the
/// client's own window (addresses relative to the window's base).
pub fn client_trace(w: &Workload, seed: u64, idx: usize, requests: usize) -> Trace {
    let mut spec = match w.trace {
        TraceKind::Fin1 => SyntheticSpec::fin1(w.window_pages),
        TraceKind::Fin2 => SyntheticSpec::fin2(w.window_pages),
        TraceKind::Mix => SyntheticSpec::mix(w.window_pages),
    }
    .with_requests(requests);
    spec.pages_per_block = PAGES_PER_BLOCK;
    if let Some(mean) = w.mean_req_pages {
        spec.mean_req_pages = mean;
    }
    spec.generate(seed + idx as u64)
}

/// How long each part of a repeat lasts.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub warmup: Duration,
    pub closed: Duration,
    /// Zero skips the paced phase.
    pub paced: Duration,
}

impl Plan {
    /// Split `seconds` of measured time for one repeat.
    pub fn of(seconds: f64) -> Plan {
        let closed = seconds * CLOSED_SHARE;
        Plan {
            warmup: Duration::from_secs_f64(closed * WARMUP_SHARE),
            closed: Duration::from_secs_f64(closed),
            paced: Duration::from_secs_f64(seconds - closed),
        }
    }
}

/// User plus system CPU seconds of this process, all threads.
fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat");
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let rest = &stat[stat.rfind(')').expect("comm field") + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let mut ticks = || -> f64 {
        fields
            .next()
            .and_then(|f| f.parse().ok())
            .expect("cpu ticks")
    };
    // USER_HZ is 100 on every Linux ABI.
    (ticks() + ticks()) / 100.0
}

/// The paced phase of one repeat, both clients together.
#[derive(Debug, Clone, Default)]
pub struct PacedOut {
    pub write_ns: Vec<u64>,
    pub read_ns: Vec<u64>,
    pub late_share: f64,
    pub backlog_max: usize,
    /// The generator fell behind or the backlog did not level off: the
    /// latencies are not published.
    pub overloaded: bool,
}

fn merge_paced(parts: Vec<Paced>, per_client_rate: f64) -> PacedOut {
    let mut out = PacedOut::default();
    let (mut sent, mut late) = (0, 0);
    for p in parts {
        out.write_ns.extend(p.write_ns);
        out.read_ns.extend(p.read_ns);
        sent += p.sent;
        late += p.late;
        out.backlog_max = out.backlog_max.max(p.backlog_max);
        out.overloaded |= p.backlog_end as f64 > MAX_BACKLOG_SECONDS * per_client_rate;
    }
    out.write_ns.sort_unstable();
    out.read_ns.sort_unstable();
    out.late_share = late as f64 / sent.max(1) as f64;
    out.overloaded |= out.late_share > MAX_LATE_SHARE;
    out
}

/// Everything one repeat measured.
pub struct RepeatOut {
    pub setup_s: f64,
    pub trace_generate_s: f64,
    pub closed_wall_s: f64,
    pub closed_acked: u64,
    pub closed_cpu_s: f64,
    pub paced: Option<PacedOut>,
    /// All phases after set-up, both clients.
    pub tally: Tally,
    /// Pages acknowledged written in the paced phase, and the device
    /// counters at its start (buffers flushed, so the phase's flash writes
    /// are its own).
    pub paced_pages_written: u64,
    pub mid_ssd: Option<SsdCounts>,
    /// Pages of the final read-back, and how many did not match the oracle.
    pub verify_pages: u64,
    pub verify_bad_pages: u64,
    /// A broken end-of-repeat invariant, if any.
    pub invariant: Option<String>,
    /// Layer counters over the phases (set-up excluded).
    pub before: Snapshot,
    pub after: Snapshot,
    /// Traced repeats only.
    pub spans: Vec<Span>,
    pub transports: Vec<TransportCounts>,
    pub backends: Vec<BackendCounts>,
}

impl RepeatOut {
    /// Closed-phase throughput.
    pub fn req_per_s(&self) -> f64 {
        self.closed_acked as f64 / self.closed_wall_s
    }
}

/// Repeat number `repeat` of a run: a fresh cluster, `seed`'s request lists.
pub fn run_repeat(
    w: &Workload,
    seed: u64,
    repeat: u64,
    plan: Plan,
    traced: bool,
) -> Result<RepeatOut, String> {
    let t0 = Instant::now();
    let io = |e: std::io::Error| format!("{}: {e}", w.name);

    // -- set-up -------------------------------------------------------------
    let schedules: Vec<Schedule> = (0..CLIENTS)
        .map(|i| Schedule::split(w.paced_req_per_s, CLIENTS, i))
        .collect();
    let closed_budget =
        (w.closed_reqs_per_client_s as f64 * (plan.closed + plan.warmup).as_secs_f64()) as usize;
    let paced_counts: Vec<usize> = schedules
        .iter()
        .map(|s| s.count_in(plan.paced.as_secs_f64()))
        .collect();
    let t_gen = Instant::now();
    let traces: Vec<Trace> = (0..CLIENTS)
        .map(|i| client_trace(w, seed, i, closed_budget + paced_counts[i]))
        .collect();
    let trace_generate_s = t_gen.elapsed().as_secs_f64();

    let sink = traced.then(|| SpanSink::new(CLIENTS, w.window_pages));
    let cluster = Cluster::build(w, sink.clone()).map_err(io)?;
    let mut clients = Vec::new();
    for i in 0..CLIENTS as u32 {
        let gw = cluster.connect(i).map_err(io)?;
        let base = u64::from(i) * w.window_pages;
        let oracle = Oracle::new(i, base, w.window_pages, w.prefill);
        let mut c = Client::new(i, gw, oracle);
        c.hello().map_err(|e| format!("{}: hello: {e}", w.name))?;
        clients.push(c);
    }
    let setup_s = t0.elapsed().as_secs_f64();
    let before = Snapshot::take(&cluster);

    // -- phases -------------------------------------------------------------
    // The main thread stands at every barrier so it can read clocks while
    // the clients are parked between phases.
    let barrier = Barrier::new(CLIENTS + 1);
    let (closed_wall_s, closed_cpu_s, mid_ssd, done) = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .zip(&traces)
            .zip(&schedules)
            .zip(&paced_counts)
            .map(|(((mut c, trace), schedule), &paced_n)| {
                let (barrier, sink) = (&barrier, sink.as_deref());
                s.spawn(move || {
                    let (closed_reqs, paced_reqs) = trace.requests.split_at(closed_budget);
                    let mut reqs = closed_reqs.iter();
                    c.closed(&mut reqs, Instant::now() + plan.warmup, None);
                    barrier.wait();
                    barrier.wait();
                    let acked = c.closed(&mut reqs, Instant::now() + plan.closed, sink);
                    barrier.wait();
                    // The paced phase starts from clean buffers, so the
                    // flash writes counted over it are its own.
                    let flush_failed = c.idx == 0 && c.flush().is_err();
                    barrier.wait();
                    barrier.wait();
                    let written = c.tally.pages_written;
                    let paced = (paced_n > 0)
                        .then(|| c.paced(&paced_reqs[..paced_n], Instant::now(), *schedule));
                    let paced_pages = c.tally.pages_written - written;
                    (c, acked, paced, paced_pages, flush_failed)
                })
            })
            .collect();
        barrier.wait(); // warm-up over
        if let Some(sink) = &sink {
            sink.set_recording(true);
        }
        let (t, cpu) = (Instant::now(), process_cpu_s());
        barrier.wait(); // closed phase starts
        barrier.wait(); // closed phase over
        let (wall, cpu) = (t.elapsed().as_secs_f64(), process_cpu_s() - cpu);
        if let Some(sink) = &sink {
            sink.set_recording(false);
        }
        barrier.wait(); // buffers flushed
        let mid = SsdCounts::take(&cluster);
        barrier.wait(); // paced phase starts
        let done: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        (wall, cpu, mid, done)
    });

    let mut clients = Vec::new();
    let (mut closed_acked, mut paced_parts, mut paced_pages_written) = (0, Vec::new(), 0);
    let mut invariant = None;
    for (c, acked, paced, paced_pages, flush_failed) in done {
        closed_acked += acked;
        paced_parts.extend(paced);
        paced_pages_written += paced_pages;
        if flush_failed {
            invariant = Some("flush before the paced phase failed".to_string());
        }
        clients.push(c);
    }
    let paced = (!paced_parts.is_empty())
        .then(|| merge_paced(paced_parts, w.paced_req_per_s / CLIENTS as f64));

    // -- flush, count, read back ---------------------------------------------
    if let Err(e) = clients[0].flush() {
        invariant = Some(format!("final flush failed: {e}"));
    }
    let after = Snapshot::take(&cluster);
    let mut tally = Tally::default();
    for c in &clients {
        tally.absorb(&c.tally);
    }
    // One client after the other: two readers would spend the read-back
    // handing the node's locks to each other across CPUs.
    let (verify_pages, verify_bad_pages) = clients
        .iter_mut()
        .map(|c| c.verify(repeat))
        .fold((0, 0), |t, v| (t.0 + v.0, t.1 + v.1));
    invariant = invariant.or_else(|| cluster.check_invariants().err());

    let (spans, transports, backends) = match &cluster.probes {
        Some(p) => (
            p.sink.take(),
            p.transports.iter().map(|h| h.counts()).collect(),
            p.backends.iter().map(|h| h.counts()).collect(),
        ),
        None => Default::default(),
    };
    drop(clients);
    cluster.shutdown();

    Ok(RepeatOut {
        setup_s,
        trace_generate_s,
        closed_wall_s,
        closed_acked,
        closed_cpu_s,
        paced,
        tally,
        paced_pages_written,
        mid_ssd,
        verify_pages,
        verify_bad_pages,
        invariant,
        before,
        after,
        spans,
        transports,
        backends,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_splits_the_measured_time() {
        let p = Plan::of(8.0);
        assert_eq!(p.closed, Duration::from_secs(4));
        assert_eq!(p.paced, Duration::from_secs(4));
        assert_eq!(p.warmup, Duration::from_millis(400));
    }

    #[test]
    fn cpu_clock_reads_and_advances() {
        let before = process_cpu_s();
        let t = Instant::now();
        let mut x = 0u64;
        while t.elapsed() < Duration::from_millis(60) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(process_cpu_s() - before >= 0.03);
    }

    #[test]
    fn paced_phase_overload_is_flagged() {
        let ok = Paced {
            write_ns: vec![3, 1],
            read_ns: vec![2],
            sent: 100,
            late: 5,
            backlog_max: 9,
            backlog_end: 2,
        };
        let merged = merge_paced(vec![ok.clone(), ok.clone()], 1000.0);
        assert!(!merged.overloaded);
        assert_eq!(merged.write_ns, vec![1, 1, 3, 3]);
        assert_eq!((merged.late_share, merged.backlog_max), (0.05, 9));

        let late = Paced {
            late: 6,
            ..ok.clone()
        };
        assert!(merge_paced(vec![late, ok.clone()], 1000.0).overloaded);
        // 251 unanswered at 1000 req/s is more than a quarter second of work.
        let backed_up = Paced {
            backlog_end: 251,
            ..ok.clone()
        };
        assert!(merge_paced(vec![ok, backed_up], 1000.0).overloaded);
    }

    #[test]
    fn client_traces_are_seeded_and_stay_in_their_window() {
        let w = crate::workloads::by_name("shard4-mix-tcp").unwrap();
        let a = client_trace(w, 7, 0, 500);
        assert_eq!(a.requests, client_trace(w, 7, 0, 500).requests);
        assert_ne!(a.requests, client_trace(w, 7, 1, 500).requests);
        assert_ne!(a.requests, client_trace(w, 8, 0, 500).requests);
        assert!(a
            .requests
            .iter()
            .all(|r| r.pages >= 1 && r.lpn + u64::from(r.pages) <= w.window_pages));
    }
}
