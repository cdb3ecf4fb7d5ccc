//! Per-layer figures: counters the product already keeps, read before and
//! after the phases, plus what the probes and the span fold add.

use fc_cluster::NodeStats;
use fc_gateway::{GatewayStats, ShardStats};

use crate::cluster::Cluster;
use crate::metrics::Values;
use crate::probes::{BackendCounts, RunLengths, TransportCounts};
use crate::run::RepeatOut;
use crate::spans::Folded;
use crate::stats::{percentile, supported_percentile};

/// Device counters of all pairs together.
#[derive(Debug, Clone, Copy, Default)]
pub struct SsdCounts {
    pub block_erases: u64,
    pub flash_page_programs: u64,
    pub host_pages_written: u64,
    pub host_write_requests: u64,
}

impl SsdCounts {
    /// `None` on workloads without a simulated device.
    pub fn take(cluster: &Cluster) -> Option<SsdCounts> {
        (!cluster.ssds.is_empty()).then(|| {
            let mut c = SsdCounts::default();
            for ssd in &cluster.ssds {
                let s = ssd.stats();
                c.block_erases += s.block_erases;
                c.flash_page_programs += s.flash_page_programs;
                c.host_pages_written += s.host_pages_written;
                c.host_write_requests += s.host_write_requests;
            }
            c
        })
    }
}

/// Every product-kept counter the benchmark reads, at one instant.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    pub gw: GatewayStats,
    pub shards: Vec<ShardStats>,
    /// Summed over the primaries; the secondaries only host replicas.
    pub nodes: NodeStats,
    /// Replication batch sizes of the primaries: (bucket upper bound, count).
    pub repl_batches: Vec<(u64, u64)>,
    /// `None` on workloads without a simulated device.
    pub ssd: Option<SsdCounts>,
}

impl Snapshot {
    pub fn take(cluster: &Cluster) -> Snapshot {
        let (gw, shards) = cluster.sg.stats_with_shards();
        let mut nodes = NodeStats::default();
        let mut repl_batches: Vec<(u64, u64)> = Vec::new();
        for s in 0..cluster.sg.shards() {
            let primary = cluster.sg.primary(s);
            let n = primary.stats();
            nodes.writes += n.writes;
            nodes.reads += n.reads;
            nodes.read_hits += n.read_hits;
            nodes.replicated_pages += n.replicated_pages;
            nodes.write_through += n.write_through;
            nodes.flushed_pages += n.flushed_pages;
            nodes.dedup_hits += n.dedup_hits;
            nodes.repl.absorb(&n.repl);
            for (upper, count) in primary.repl_batch_histogram().buckets {
                match repl_batches.iter_mut().find(|(u, _)| *u == upper) {
                    Some((_, c)) => *c += count,
                    None => repl_batches.push((upper, count)),
                }
            }
        }
        repl_batches.sort_unstable();
        Snapshot {
            gw,
            shards,
            nodes,
            repl_batches,
            ssd: SsdCounts::take(cluster),
        }
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn us(ns: Option<u64>) -> f64 {
    ns.map_or(0.0, |v| v as f64 / 1e3)
}

/// Upper bound of the bucket holding the median of `after - before`.
fn bucket_median(before: &[(u64, u64)], after: &[(u64, u64)]) -> f64 {
    let delta: Vec<(u64, u64)> = after
        .iter()
        .map(|&(upper, n)| {
            let was = before.iter().find(|(u, _)| *u == upper).map_or(0, |b| b.1);
            (upper, n - was)
        })
        .collect();
    let total: u64 = delta.iter().map(|d| d.1).sum();
    let mut seen = 0;
    for (upper, n) in delta {
        seen += n;
        if n > 0 && 2 * seen >= total {
            return upper as f64;
        }
    }
    0.0
}

/// Flash cost of the paced phase — a fixed request list, so the figure
/// does not depend on how fast the closed phase ran — and the final flush,
/// per client page acknowledged written: (programs per page, erases per
/// 1000 pages). `None` without a device or without a paced phase.
pub fn flash_cost(r: &RepeatOut) -> Option<(f64, f64)> {
    let (b, a) = (r.mid_ssd?, r.after.ssd?);
    let pages = r.paced_pages_written;
    if pages == 0 {
        return None;
    }
    Some((
        ratio(a.flash_page_programs - b.flash_page_programs, pages),
        ratio(a.block_erases - b.block_erases, pages) * 1000.0,
    ))
}

/// Per-layer metrics of one traced repeat. `folded` is its span fold.
pub fn report(r: &RepeatOut, folded: &Folded, out: &mut Values) {
    let (b, a) = (&r.before, &r.after);

    // -- failures and the paced generator -----------------------------------
    out.put(
        "failed_share",
        ratio(
            r.tally.failed + r.verify_bad_pages,
            r.tally.issued + r.verify_pages,
        ),
    );
    let paced = r.paced.as_ref();
    out.put("paced.late_share", paced.map_or(0.0, |p| p.late_share));
    out.put(
        "paced.backlog_max",
        paced.map_or(0.0, |p| p.backlog_max as f64),
    );
    // The probes are passive in the paced phase, so its tail is the product's.
    let tail = |pick: fn(&crate::run::PacedOut) -> &Vec<u64>, p: f64| {
        us(paced.and_then(|paced| supported_percentile(pick(paced), p)))
    };
    out.put("write_p90_us", tail(|p| &p.write_ns, 0.90));
    out.put("write_p99_us", tail(|p| &p.write_ns, 0.99));
    out.put("read_p90_us", tail(|p| &p.read_ns, 0.90));
    out.put("read_p99_us", tail(|p| &p.read_ns, 0.99));
    out.put("trace.generate_s", r.trace_generate_s);
    let (programs, erases) = flash_cost(r).unwrap_or((0.0, 0.0));
    out.put("flash_programs_per_page", programs);
    out.put("erases_per_kpage", erases);

    // -- spans ----------------------------------------------------------------
    out.put(
        "client.link_us_p50",
        us(percentile(&folded.client_link_ns, 0.50)),
    );
    out.put(
        "client.link_us_p99",
        us(supported_percentile(&folded.client_link_ns, 0.99)),
    );
    out.put(
        "gateway.session_us_p50",
        us(percentile(&folded.session_ns, 0.50)),
    );
    out.put(
        "gateway.session_us_p99",
        us(supported_percentile(&folded.session_ns, 0.99)),
    );
    out.put(
        "gateway.session_self_us_p50",
        us(percentile(&folded.session_self_ns, 0.50)),
    );

    // -- gateway --------------------------------------------------------------
    let gw = |f: fn(&GatewayStats) -> u64| f(&a.gw) - f(&b.gw);
    out.put("gateway.batches", gw(|g| g.batches) as f64);
    out.put("gateway.runs", gw(|g| g.runs) as f64);
    out.put("gateway.coalesced_pages", gw(|g| g.coalesced_pages) as f64);
    out.put(
        "gateway.runs_per_write",
        ratio(gw(|g| g.runs), gw(|g| g.writes)),
    );
    out.put("gateway.retries", gw(|g| g.retries) as f64);
    out.put("gateway.shed_total", gw(|g| g.shed_total) as f64);
    out.put(
        "gateway.max_inflight_seen",
        f64::from(a.gw.max_inflight_seen),
    );

    // Per shard: (latency samples, latency sum, pages routed) over the phases.
    let shards: Vec<(u64, u64, u64)> = a
        .shards
        .iter()
        .zip(&b.shards)
        .map(|(a, b)| {
            (
                a.latency_samples - b.latency_samples,
                a.latency_sum_ns - b.latency_sum_ns,
                (a.write_pages + a.read_pages) - (b.write_pages + b.read_pages),
            )
        })
        .collect();
    let all = shards
        .iter()
        .fold((0, 0, 0), |t, s| (t.0 + s.0, t.1 + s.1, t.2 + s.2));
    out.put("gateway.shard.submit_us_mean", ratio(all.1, all.0) / 1e3);
    out.put(
        "gateway.shard.submit_us_max_shard",
        shards.iter().map(|s| ratio(s.1, s.0)).fold(0.0, f64::max) / 1e3,
    );
    let max_pages = shards.iter().map(|s| s.2).max().unwrap_or(0);
    out.put(
        "gateway.shard.pages_max_over_mean",
        ratio(max_pages * shards.len() as u64, all.2),
    );

    // -- nodes and replication -----------------------------------------------
    let nd = |f: fn(&NodeStats) -> u64| f(&a.nodes) - f(&b.nodes);
    out.put(
        "cluster.node.replicated_pages",
        nd(|n| n.replicated_pages) as f64,
    );
    out.put("cluster.node.write_through", nd(|n| n.write_through) as f64);
    out.put(
        "cluster.node.write_through_share",
        ratio(nd(|n| n.write_through), nd(|n| n.writes)),
    );
    out.put("cluster.node.flushed_pages", nd(|n| n.flushed_pages) as f64);
    out.put(
        "cluster.node.read_hit_share",
        ratio(nd(|n| n.read_hits), nd(|n| n.reads)),
    );
    out.put("cluster.node.dedup_hits", nd(|n| n.dedup_hits) as f64);
    out.put(
        "cluster.repl.batches_sent",
        nd(|n| n.repl.batches_sent) as f64,
    );
    out.put(
        "cluster.repl.pages_per_batch_mean",
        ratio(nd(|n| n.repl.batch_pages), nd(|n| n.repl.batches_sent)),
    );
    out.put(
        "cluster.repl.pages_per_batch_p50",
        bucket_median(&b.repl_batches, &a.repl_batches),
    );
    out.put("cluster.repl.retries", nd(|n| n.repl.retries) as f64);
    out.put(
        "cluster.repl.credit_stalls",
        nd(|n| n.repl.credit_stalls) as f64,
    );
    out.put(
        "cluster.repl.credit_rejections",
        nd(|n| n.repl.credit_rejections) as f64,
    );

    // -- transport probe (closed phase, all primaries) -----------------------
    let mut t = TransportCounts::default();
    for c in &r.transports {
        t.frames += c.frames;
        t.frame_pages += c.frame_pages;
        t.send_ns.extend(&c.send_ns);
        t.rtt_ns.extend(&c.rtt_ns);
        t.inflight_batches_max = t.inflight_batches_max.max(c.inflight_batches_max);
    }
    t.send_ns.sort_unstable();
    t.rtt_ns.sort_unstable();
    out.put("cluster.transport.frames", t.frames as f64);
    out.put(
        "cluster.transport.pages_per_frame_mean",
        ratio(t.frame_pages, t.frames),
    );
    out.put(
        "cluster.transport.send_us_p50",
        us(percentile(&t.send_ns, 0.50)),
    );
    out.put(
        "cluster.transport.send_us_p99",
        us(supported_percentile(&t.send_ns, 0.99)),
    );
    out.put(
        "cluster.transport.repl_rtt_us_p50",
        us(percentile(&t.rtt_ns, 0.50)),
    );
    out.put(
        "cluster.transport.repl_rtt_us_p99",
        us(supported_percentile(&t.rtt_ns, 0.99)),
    );
    out.put(
        "cluster.transport.inflight_batches_max",
        t.inflight_batches_max as f64,
    );

    // -- backend probe (closed phase, all pairs) ------------------------------
    let mut k = BackendCounts::default();
    let mut runs = RunLengths::default();
    for c in &r.backends {
        k.write_pages += c.write_pages;
        k.read_pages += c.read_pages;
        k.trim_pages += c.trim_pages;
        k.busy_ns += c.busy_ns;
        k.write_ns.extend(&c.write_ns);
        runs.runs += c.run_lengths.runs;
        runs.pages += c.run_lengths.pages;
        runs.one_page_runs += c.run_lengths.one_page_runs;
    }
    k.write_ns.sort_unstable();
    out.put("cluster.backend.write_pages", k.write_pages as f64);
    out.put("cluster.backend.read_pages", k.read_pages as f64);
    out.put("cluster.backend.trim_pages", k.trim_pages as f64);
    out.put(
        "cluster.backend.write_page_us_p50",
        us(percentile(&k.write_ns, 0.50)),
    );
    out.put(
        "cluster.backend.write_page_us_p99",
        us(supported_percentile(&k.write_ns, 0.99)),
    );
    out.put(
        "cluster.backend.busy_share",
        k.busy_ns as f64 / 1e9 / r.closed_wall_s,
    );
    out.put("cluster.backend.run_len_mean", ratio(runs.pages, runs.runs));
    out.put(
        "cluster.backend.one_page_run_share",
        ratio(runs.one_page_runs, runs.runs),
    );

    // -- device ----------------------------------------------------------------
    // Over the same span as the flash cost: the paced phase and final flush.
    let (sb, sa) = (r.mid_ssd.unwrap_or_default(), a.ssd.unwrap_or_default());
    let programs = sa.flash_page_programs - sb.flash_page_programs;
    let host_pages = sa.host_pages_written - sb.host_pages_written;
    out.put(
        "ssd.block_erases",
        (sa.block_erases - sb.block_erases) as f64,
    );
    out.put("ssd.flash_page_programs", programs as f64);
    out.put("ssd.host_pages_written", host_pages as f64);
    out.put("ssd.write_amp", ratio(programs, host_pages));
    out.put(
        "ssd.host_write_len_mean",
        ratio(host_pages, sa.host_write_requests - sb.host_write_requests),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_median_of_a_delta() {
        let before = [(1, 10), (3, 0)];
        // Over the phases: 2 one-page batches, 3 of 2-3 pages, 5 of 16-31.
        let after = [(1, 12), (3, 3), (31, 5)];
        assert_eq!(bucket_median(&before, &after), 3.0);
        assert_eq!(bucket_median(&after, &after), 0.0);
        assert_eq!(bucket_median(&[], &[(31, 4)]), 31.0);
    }

    #[test]
    fn ratios_of_nothing_are_zero() {
        assert_eq!(ratio(5, 0), 0.0);
        assert_eq!(ratio(1, 4), 0.25);
        assert_eq!(us(None), 0.0);
        assert_eq!(us(Some(1500)), 1.5);
    }
}
