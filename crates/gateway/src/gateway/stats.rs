//! The gateway's counter table: every counter the gateway keeps is one row
//! of `gateway_counters!`, and the cells, their registry names, the
//! snapshots and the counter-sum identity are all declared from it.
//!
//! ## Counter-sum identity
//!
//! Every page-granular and failover-path counter is kept once, in the
//! routing slot of the shard it moved for; the aggregate of the same
//! name in [`GatewayStats`] is *defined* as the column sum:
//!
//! ```text
//! GatewayStats.<name>  ==  Σ_i ShardStats[i].<name>
//! ```
//!
//! for every `summed` row — so [`ShardStatsSum::matches`] holds on every
//! [`Gateway::stats_with_shards`](super::Gateway::stats_with_shards)
//! snapshot by construction. Request-granular counters (`request` rows:
//! `requests`, `admitted`, `writes`, …) have no per-shard cell: one
//! request may straddle shards, so request counts do not partition.

use fc_obs::{Counter, Gauge, Histogram, Metric, Registry};

/// Declares the gateway's counters from its table. A `request` row is one
/// gateway-wide cell, published under its metric name, and a
/// [`GatewayStats`] field. A `shard` row is one cell per shard slot,
/// published as `gateway.shard.{i}.<leaf>`, and a [`ShardStats`] field; a
/// `summed` row is a `shard` row whose column sum is also a
/// [`GatewayStats`] and a [`ShardStatsSum`] field. Adding a counter is
/// one row; the gauges and histograms are spelled out in the macro body.
macro_rules! gateway_counters {
    (
        request { $($(#[doc = $r_doc:literal])* $r:ident: $r_name:literal,)* }
        shard { $($(#[doc = $o_doc:literal])* $o:ident: $o_leaf:literal,)* }
        summed { $($(#[doc = $s_doc:literal])* $s:ident: $s_leaf:literal,)* }
    ) => {
        /// Point-in-time snapshot of gateway activity.
        #[derive(Debug, Clone, Default, PartialEq)]
        pub struct GatewayStats {
            $($(#[doc = $r_doc])* pub $r: u64,)*
            $($(#[doc = $s_doc])* pub $s: u64,)*
            /// Requests currently in service.
            pub inflight: u32,
            /// High-water mark of concurrent admitted requests.
            pub max_inflight_seen: u32,
        }

        /// Request-granular instruments — one cell each for the gateway's
        /// whole life; `Gateway::attach_obs` publishes these same cells.
        #[derive(Default)]
        pub(super) struct Instruments {
            $(pub(super) $r: Counter,)*
            pub(super) inflight_gauge: Gauge,
            pub(super) latency_ns: Histogram,
            /// Moved-block count per committed rebalance window.
            pub(super) rebalance_hist: Histogram,
        }

        impl Instruments {
            pub(super) fn publish(&self, reg: &Registry) {
                $(reg.adopt($r_name, Metric::Counter(self.$r.clone()));)*
                let inflight = Metric::Gauge(self.inflight_gauge.clone());
                reg.adopt("gateway.inflight", inflight);
                let latency = Metric::Histogram(self.latency_ns.clone());
                reg.adopt("gateway.latency_ns", latency);
                let moved = Metric::Histogram(self.rebalance_hist.clone());
                reg.adopt("gateway.rebalance.run_moved_blocks", moved);
            }

            /// The aggregate snapshot around `shards`: request rows read
            /// from these cells, summed rows as the shards' column sums.
            pub(super) fn snapshot(
                &self,
                shards: &[ShardStats],
                inflight: u32,
                max_inflight_seen: u32,
            ) -> GatewayStats {
                let sum = ShardStatsSum::of(shards);
                GatewayStats {
                    $($r: self.$r.get(),)*
                    $($s: sum.$s,)*
                    inflight,
                    max_inflight_seen,
                }
            }

            /// What the published counters must read once the gateway is
            /// idle: each metric name with the snapshot field it fills.
            #[cfg(test)]
            pub(super) fn fields(g: &GatewayStats, shards: &[ShardStats]) -> Vec<(String, u64)> {
                let mut rows = vec![$(($r_name.to_string(), g.$r),)*];
                for sh in shards {
                    let name = |leaf: &str| format!("gateway.shard.{}.{leaf}", sh.shard);
                    $(rows.push((name($o_leaf), sh.$o));)*
                    $(rows.push((name($s_leaf), sh.$s));)*
                }
                rows
            }
        }

        /// Hot-path per-shard instruments, owned by the shard's routing
        /// slot for the gateway's whole life.
        #[derive(Default)]
        pub(super) struct ShardInstruments {
            $(pub(super) $o: Counter,)*
            $(pub(super) $s: Counter,)*
            /// 1.0 while routed to the designated primary, 0.0 while
            /// failed over.
            pub(super) health: Gauge,
            /// Per-submission service latency at this shard's node.
            pub(super) latency_ns: Histogram,
        }

        impl ShardInstruments {
            pub(super) fn new() -> ShardInstruments {
                let ins = ShardInstruments::default();
                ins.health.set(1.0);
                ins
            }

            /// Publish these cells under `gateway.shard.{shard}.*`.
            pub(super) fn publish(&self, reg: &Registry, shard: u16) {
                let name = |leaf: &str| format!("gateway.shard.{shard}.{leaf}");
                $(reg.adopt(&name($o_leaf), Metric::Counter(self.$o.clone()));)*
                $(reg.adopt(&name($s_leaf), Metric::Counter(self.$s.clone()));)*
                reg.adopt(&name("health"), Metric::Gauge(self.health.clone()));
                let latency = Metric::Histogram(self.latency_ns.clone());
                reg.adopt(&name("latency_ns"), latency);
            }

            pub(super) fn stats(&self, shard: u16) -> ShardStats {
                ShardStats {
                    shard,
                    $($o: self.$o.get(),)*
                    $($s: self.$s.get(),)*
                    healthy: self.health.get() >= 0.5,
                    latency_samples: self.latency_ns.count(),
                    latency_sum_ns: self.latency_ns.sum(),
                }
            }
        }

        /// Point-in-time snapshot of one shard's share of gateway traffic.
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        pub struct ShardStats {
            pub shard: u16,
            $($(#[doc = $o_doc])* pub $o: u64,)*
            $($(#[doc = $s_doc])* pub $s: u64,)*
            /// True while the route points at the designated primary (the
            /// `gateway.shard.{i}.health` gauge at 1.0).
            pub healthy: bool,
            /// Latency samples recorded at this shard (one per submission).
            pub latency_samples: u64,
            pub latency_sum_ns: u64,
        }

        /// Column-wise sum of [`ShardStats`] — the left-hand side of the
        /// counter-sum identity.
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        pub struct ShardStatsSum {
            $($(#[doc = $s_doc])* pub $s: u64,)*
        }

        impl ShardStatsSum {
            /// Fold per-shard snapshots into their column sums.
            pub fn of(shards: &[ShardStats]) -> ShardStatsSum {
                let mut sum = ShardStatsSum::default();
                for sh in shards {
                    $(sum.$s += sh.$s;)*
                }
                sum
            }

            /// The counter-sum identity: every column equals its aggregate
            /// gateway counter — including the failover-path counters,
            /// which always move for a specific shard. Returns the first
            /// mismatch as `Err((name, shard_sum, gateway_total))`.
            pub fn matches(&self, g: &GatewayStats) -> Result<(), (&'static str, u64, u64)> {
                $(if self.$s != g.$s {
                    return Err((stringify!($s), self.$s, g.$s));
                })*
                Ok(())
            }
        }
    };
}

gateway_counters! {
    request {
        /// Sessions opened (connections served, handshake or not).
        sessions_started: "gateway.sessions_started",
        /// Sessions closed.
        sessions_ended: "gateway.sessions_ended",
        /// Post-handshake requests received (admitted + shed + bad).
        requests: "gateway.requests",
        /// Requests admission control let through.
        admitted: "gateway.admitted",
        /// Requests shed with `Busy` (rate-limited + queue-full).
        shed_total: "gateway.shed_total",
        /// Shed because the client's token bucket was empty.
        shed_rate_limited: "gateway.shed_rate_limited",
        /// Shed because the global in-flight cap was reached.
        shed_queue_full: "gateway.shed_queue_full",
        /// Requests refused as malformed, I/O before Hello, or a bad
        /// version.
        bad_requests: "gateway.bad_requests",
        /// Write requests served.
        writes: "gateway.writes",
        /// Read requests served.
        reads: "gateway.reads",
        /// Trim requests served.
        trims: "gateway.trims",
        /// Flush requests served.
        flushes: "gateway.flushes",
        /// Write submissions to the node (one per batch window).
        batches: "gateway.batches",
        /// Elastic-membership windows opened (`rebalance`; a resume opens none).
        rebalances_started: "gateway.rebalance.started",
        /// Windows committed (ring cut over to the new epoch).
        rebalances_completed: "gateway.rebalance.completed",
        /// Blocks handed from their old owner to their new one.
        rebalance_moved_blocks: "gateway.rebalance.moved_blocks",
        /// Pages those blocks carried.
        rebalance_moved_pages: "gateway.rebalance.moved_pages",
        /// Migration batches executed (each one fence hold on the route table).
        rebalance_batches: "gateway.rebalance.batches",
    }
    shard {
        /// Node submissions routed to this shard (runs + read/trim
        /// segments + flush fan-outs).
        ops: "ops",
    }
    summed {
        /// Pages read.
        read_pages: "read_pages",
        /// Read pages that came back with data, from a node's buffer or its
        /// backend alike (a node's buffer hits are `cluster.node.read_hits`).
        read_found: "read_found",
        /// Pre-coalesce write pages.
        write_pages: "write_pages",
        /// Pages merged away by last-writer-wins coalescing.
        coalesced_pages: "coalesced_pages",
        /// Contiguous runs the write batches decomposed into.
        runs: "runs",
        /// Pages covered by trim requests (partitions exactly over shards).
        trim_pages: "trim_pages",
        /// Dirty pages destaged by flush requests, summed over every node
        /// the flush fanned out to.
        flushed_pages: "flushed_pages",
        /// Route flips away from a dead node (primary→secondary, plus
        /// emergency secondary→primary reroutes under a double fault).
        failovers: "failovers",
        /// Routes restored to a recovered primary after the pair re-formed.
        failbacks: "failbacks",
        /// Shard-op retries after a `NodeDown` (backoff path, not counting
        /// the immediate retry a route flip grants).
        retries: "retries",
        /// Shard ops abandoned at the retry deadline with both replicas
        /// down (one `Unavailable` reply may cover several batched writes).
        unavailable: "unavailable",
    }
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

#[cfg(test)]
mod tests {
    use super::Instruments;
    use crate::{
        AdmissionConfig, ClientError, ErrorCode, GatewayConfig, ShardStatsSum, ShardedGateway,
    };
    use bytes::Bytes;
    use fc_obs::Obs;
    use fc_ring::RingConfig;

    /// Every metric a two-pair gateway publishes, sorted.
    const NAMES: [&str; 49] = [
        "gateway.admitted",
        "gateway.bad_requests",
        "gateway.batches",
        "gateway.flushes",
        "gateway.inflight",
        "gateway.latency_ns",
        "gateway.reads",
        "gateway.rebalance.batches",
        "gateway.rebalance.completed",
        "gateway.rebalance.moved_blocks",
        "gateway.rebalance.moved_pages",
        "gateway.rebalance.run_moved_blocks",
        "gateway.rebalance.started",
        "gateway.requests",
        "gateway.sessions_ended",
        "gateway.sessions_started",
        "gateway.shard.0.coalesced_pages",
        "gateway.shard.0.failbacks",
        "gateway.shard.0.failovers",
        "gateway.shard.0.flushed_pages",
        "gateway.shard.0.health",
        "gateway.shard.0.latency_ns",
        "gateway.shard.0.ops",
        "gateway.shard.0.read_found",
        "gateway.shard.0.read_pages",
        "gateway.shard.0.retries",
        "gateway.shard.0.runs",
        "gateway.shard.0.trim_pages",
        "gateway.shard.0.unavailable",
        "gateway.shard.0.write_pages",
        "gateway.shard.1.coalesced_pages",
        "gateway.shard.1.failbacks",
        "gateway.shard.1.failovers",
        "gateway.shard.1.flushed_pages",
        "gateway.shard.1.health",
        "gateway.shard.1.latency_ns",
        "gateway.shard.1.ops",
        "gateway.shard.1.read_found",
        "gateway.shard.1.read_pages",
        "gateway.shard.1.retries",
        "gateway.shard.1.runs",
        "gateway.shard.1.trim_pages",
        "gateway.shard.1.unavailable",
        "gateway.shard.1.write_pages",
        "gateway.shed_queue_full",
        "gateway.shed_rate_limited",
        "gateway.shed_total",
        "gateway.trims",
        "gateway.writes",
    ];

    /// Requests the run below gets admitted; the client's next is shed.
    const BURST: u64 = 15;

    #[test]
    fn registry_equals_stats_after_a_mixed_run() {
        let mut cfg = GatewayConfig::test_profile();
        cfg.admission = AdmissionConfig {
            per_client_rate: 0.0, // no refill: exactly `BURST` requests pass
            per_client_burst: BURST as f64,
            max_inflight: u32::MAX,
        };
        let sg = ShardedGateway::spawn_mem(cfg, RingConfig::default(), 2);
        let gw = sg.gateway();
        let (early, _ring) = Obs::ring(4096);
        gw.attach_obs(&early);
        let page = |i: u64| Bytes::from(vec![i as u8; 64]);
        let mut c = sg.connect_mem();
        c.hello().unwrap();
        // Writes and reads over both shards, a trim, a flush and a
        // malformed read; then shard 0's primary dies and a write and a
        // read on it fail over; then the bucket is empty and a write is
        // shed.
        for lpn in (0..256).step_by(32) {
            c.write(lpn, (lpn..lpn + 32).map(page).collect()).unwrap();
        }
        for (lpn, n) in [(0, 32), (64, 32), (300, 8)] {
            c.read(lpn, n).unwrap();
        }
        assert_eq!(c.trim(32, 16).unwrap(), 16);
        assert!(c.flush().unwrap() > 0);
        let bad = ClientError::Rejected(ErrorCode::BadRequest);
        assert_eq!(c.read(0, 0).unwrap_err(), bad);
        let ring = gw.ring();
        let lpn = (0..).find(|&l| ring.shard_of_lpn(l) == 0).unwrap();
        sg.primary(0).fail();
        c.write(lpn, vec![page(lpn)]).unwrap();
        assert_eq!(c.read(lpn, 1).unwrap()[0], Some(page(lpn)));
        assert_eq!(c.write(0, vec![page(0)]).unwrap_err(), ClientError::Busy);
        drop(c);
        gw.shutdown(); // joins the session: every cell is final

        let (g, shards) = gw.stats_with_shards();
        ShardStatsSum::of(&shards).matches(&g).unwrap();
        assert_eq!(g.admitted, BURST);
        let moved = [
            g.sessions_ended,
            g.requests,
            g.shed_rate_limited,
            g.bad_requests,
            g.writes,
            g.reads,
            g.trims,
            g.flushes,
            g.batches,
            g.read_pages,
            g.read_found,
            g.write_pages,
            g.runs,
            g.trim_pages,
            g.flushed_pages,
            g.failovers,
        ];
        assert!(moved.iter().all(|&n| n > 0), "{g:?}");
        assert!(shards.iter().all(|s| s.ops > 0), "{shards:?}");
        // Attached after the traffic: the cells have counted since spawn.
        let (late, _ring) = Obs::ring(16);
        gw.attach_obs(&late);
        for obs in [&early, &late] {
            let snap = obs.registry().snapshot();
            let published: Vec<&str> = snap.values.iter().map(|(n, _)| n.as_str()).collect();
            assert_eq!(published, NAMES);
            let rows = Instruments::fields(&g, &shards);
            assert_eq!(rows.len(), 18 + 2 * 12);
            for (name, want) in rows {
                assert_eq!(snap.counter(&name), Some(want), "{name}");
            }
            assert_eq!(snap.gauge("gateway.shard.0.health"), Some(0.0));
            assert_eq!(snap.gauge("gateway.shard.1.health"), Some(1.0));
        }
        sg.shutdown();
    }
}
