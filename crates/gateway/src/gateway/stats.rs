//! The gateway's activity snapshot and the request-granular cells behind it.

use fc_obs::{Counter, Gauge, Histogram, Metric, Registry};

/// Point-in-time snapshot of gateway activity.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GatewayStats {
    pub sessions_started: u64,
    pub sessions_ended: u64,
    /// Post-handshake requests received (admitted + shed + bad).
    pub requests: u64,
    pub admitted: u64,
    pub shed_total: u64,
    pub shed_rate_limited: u64,
    pub shed_queue_full: u64,
    pub bad_requests: u64,
    pub writes: u64,
    pub write_pages: u64,
    pub reads: u64,
    pub read_pages: u64,
    pub read_hits: u64,
    pub trims: u64,
    /// Pages covered by trim requests (partitions exactly over shards).
    pub trim_pages: u64,
    pub flushes: u64,
    /// Dirty pages destaged by flush requests, summed over every node the
    /// flush fanned out to.
    pub flushed_pages: u64,
    /// Write submissions to the node (one per batch window).
    pub batches: u64,
    /// Contiguous runs those batches decomposed into.
    pub runs: u64,
    /// Pages merged away by last-writer-wins coalescing.
    pub coalesced_pages: u64,
    /// Route flips away from a dead node (primary→secondary, plus
    /// emergency secondary→primary reroutes under a double fault).
    pub failovers: u64,
    /// Routes restored to a recovered primary after the pair re-formed.
    pub failbacks: u64,
    /// Shard-op retries after a `NodeDown` (backoff path, not counting
    /// the immediate retry a route flip grants).
    pub retries: u64,
    /// Shard ops abandoned at the retry deadline with both replicas down
    /// (one `Unavailable` reply may cover several batched writes).
    pub unavailable: u64,
    /// Elastic-membership windows opened (`rebalance`; a resume opens none).
    pub rebalances_started: u64,
    /// Windows committed (ring cut over to the new epoch).
    pub rebalances_completed: u64,
    /// Blocks handed from their old owner to their new one.
    pub rebalance_moved_blocks: u64,
    /// Pages those blocks carried.
    pub rebalance_moved_pages: u64,
    /// Migration batches executed (each one fence hold on the route table).
    pub rebalance_batches: u64,
    /// Requests currently in service.
    pub inflight: u32,
    /// High-water mark of concurrent admitted requests.
    pub max_inflight_seen: u32,
}

impl GatewayStats {
    /// Fraction of post-handshake requests shed by admission control.
    pub fn shed_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.shed_total as f64 / self.requests as f64
        }
    }
}

/// Request-granular instruments — one cell each for the gateway's whole
/// life; `Gateway::attach_obs` publishes these same cells. The
/// page-granular and failover-path columns live only per shard
/// (`ShardInstruments`); their aggregates are the shard sum.
#[derive(Default)]
pub(super) struct Instruments {
    pub(super) sessions_started: Counter,
    pub(super) sessions_ended: Counter,
    pub(super) requests: Counter,
    pub(super) admitted: Counter,
    pub(super) shed_total: Counter,
    pub(super) shed_rate_limited: Counter,
    pub(super) shed_queue_full: Counter,
    pub(super) bad_requests: Counter,
    pub(super) writes: Counter,
    pub(super) reads: Counter,
    pub(super) trims: Counter,
    pub(super) flushes: Counter,
    pub(super) batches: Counter,
    pub(super) rebalances_started: Counter,
    pub(super) rebalances_completed: Counter,
    pub(super) rebalance_moved_blocks: Counter,
    pub(super) rebalance_moved_pages: Counter,
    pub(super) rebalance_batches: Counter,
    pub(super) inflight_gauge: Gauge,
    pub(super) latency_ns: Histogram,
    /// Moved-block count per committed rebalance window.
    pub(super) rebalance_hist: Histogram,
}

impl Instruments {
    pub(super) fn publish(&self, reg: &Registry) {
        for (name, c) in [
            ("gateway.sessions_started", &self.sessions_started),
            ("gateway.sessions_ended", &self.sessions_ended),
            ("gateway.requests", &self.requests),
            ("gateway.admitted", &self.admitted),
            ("gateway.shed_total", &self.shed_total),
            ("gateway.shed_rate_limited", &self.shed_rate_limited),
            ("gateway.shed_queue_full", &self.shed_queue_full),
            ("gateway.bad_requests", &self.bad_requests),
            ("gateway.writes", &self.writes),
            ("gateway.reads", &self.reads),
            ("gateway.trims", &self.trims),
            ("gateway.flushes", &self.flushes),
            ("gateway.batches", &self.batches),
            ("gateway.rebalance.started", &self.rebalances_started),
            ("gateway.rebalance.completed", &self.rebalances_completed),
            (
                "gateway.rebalance.moved_blocks",
                &self.rebalance_moved_blocks,
            ),
            ("gateway.rebalance.moved_pages", &self.rebalance_moved_pages),
            ("gateway.rebalance.batches", &self.rebalance_batches),
        ] {
            reg.adopt(name, Metric::Counter(c.clone()));
        }
        reg.adopt(
            "gateway.inflight",
            Metric::Gauge(self.inflight_gauge.clone()),
        );
        reg.adopt(
            "gateway.latency_ns",
            Metric::Histogram(self.latency_ns.clone()),
        );
        reg.adopt(
            "gateway.rebalance.run_moved_blocks",
            Metric::Histogram(self.rebalance_hist.clone()),
        );
    }
}
