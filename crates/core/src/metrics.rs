//! Experiment reports — one [`RunReport`] per (scheme, FTL, trace) cell of
//! the paper's evaluation matrix, carrying everything Figures 6–8 and
//! Table III read off a run.

use crate::config::Scheme;
use fc_simkit::SimDuration;
use fc_ssd::{FtlKind, FtlStats};
use serde::{Deserialize, Serialize};

/// Fault-tolerance counters for the replication path. Shared between the
/// threaded cluster node (`fc-cluster`) and any future simulated lossy
/// link: every counter is a symptom of the network misbehaving and the
/// protocol absorbing it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplicationStats {
    /// Replication sends re-attempted after an ack timeout.
    pub retries: u64,
    /// Pipelined `WriteReplBatch` frames handed to the transport for the
    /// first time (retransmissions count under `retries`).
    pub batches_sent: u64,
    /// Pages carried by those first-send batches; `batch_pages /
    /// batches_sent` is the mean replication batch size.
    pub batch_pages: u64,
    /// Received data-plane messages discarded as duplicates (same sequence
    /// number seen before — retransmissions or network duplication).
    pub dups_dropped: u64,
    /// Received data-plane messages that arrived behind a higher sequence
    /// number and were applied anyway (reordering absorbed).
    pub reorders_healed: u64,
    /// Dirty pages destaged to the backend because the peer was declared
    /// failed or unreachable (degraded-mode entries).
    pub partition_destages: u64,
    /// Peer-owned replica pages sequentially destaged to the local backend
    /// when taking over for a failed peer (the paper's takeover path).
    pub takeover_destages: u64,
    /// Catch-up batches streamed to a returning peer and acknowledged.
    pub resync_batches: u64,
    /// Pages carried by those acknowledged batches.
    pub resync_pages: u64,
    /// Resyncs that had to fall back to streaming the full resident buffer
    /// because the catch-up journal overflowed while solo.
    pub full_resyncs: u64,
    /// Payload-checksum failures detected on receive (wire corruption) or
    /// by a local scrub.
    pub corruptions_detected: u64,
    /// Corruptions healed — a NACKed send that was resent and acked, or a
    /// local page repaired from the peer replica.
    pub corruptions_repaired: u64,
    /// Local pages repaired from the peer replica by scrub runs.
    pub scrub_repairs: u64,
    /// Writes that went through locally because the peer advertised no
    /// remote-buffer credits (sender-side backpressure).
    pub credit_stalls: u64,
    /// Replication messages refused because the remote buffer was full
    /// (receiver-side backpressure).
    pub credit_rejections: u64,
    /// Pair-lifecycle state transitions taken.
    pub lifecycle_transitions: u64,
}

impl ReplicationStats {
    /// True when the link behaved perfectly: nothing retried, deduplicated,
    /// reordered, or destaged. The batch throughput counters are excluded —
    /// they grow on a healthy pipelined link.
    pub fn is_clean(&self) -> bool {
        ReplicationStats {
            batches_sent: 0,
            batch_pages: 0,
            ..*self
        } == ReplicationStats::default()
    }

    /// Sum the counters of `other` into `self` (merging per-node reports).
    pub fn absorb(&mut self, other: &ReplicationStats) {
        self.retries += other.retries;
        self.batches_sent += other.batches_sent;
        self.batch_pages += other.batch_pages;
        self.dups_dropped += other.dups_dropped;
        self.reorders_healed += other.reorders_healed;
        self.partition_destages += other.partition_destages;
        self.takeover_destages += other.takeover_destages;
        self.resync_batches += other.resync_batches;
        self.resync_pages += other.resync_pages;
        self.full_resyncs += other.full_resyncs;
        self.corruptions_detected += other.corruptions_detected;
        self.corruptions_repaired += other.corruptions_repaired;
        self.scrub_repairs += other.scrub_repairs;
        self.credit_stalls += other.credit_stalls;
        self.credit_rejections += other.credit_rejections;
        self.lifecycle_transitions += other.lifecycle_transitions;
    }
}

/// Results of one trace replay.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunReport {
    /// Scheme under test.
    pub scheme: Scheme,
    /// FTL of the device.
    pub ftl: FtlKind,
    /// Workload name.
    pub trace: String,
    /// Requests replayed.
    pub requests: usize,
    /// Mean response time over all requests (Figure 6's metric).
    pub avg_response: SimDuration,
    /// 99th-percentile response time.
    pub p99_response: SimDuration,
    /// Mean write response time.
    pub avg_write_response: SimDuration,
    /// Mean read response time.
    pub avg_read_response: SimDuration,
    /// Buffer hit ratio (Table III's metric; 0 for Baseline).
    pub hit_ratio: f64,
    /// Block erases during the measured replay (Figure 7's metric).
    pub erases: u64,
    /// Flash page programs per host page written.
    pub write_amplification: f64,
    /// Mean length of writes reaching the SSD, in pages.
    pub mean_write_pages: f64,
    /// Fraction of SSD writes that were a single page (Figure 8 commentary).
    pub frac_single_page: f64,
    /// Fraction of SSD writes longer than 8 pages.
    pub frac_gt8_pages: f64,
    /// Write-length CDF points (Figure 8's curves).
    pub write_length_cdf: Vec<(u64, f64)>,
    /// FTL merge/GC counters.
    pub ftl_stats: FtlStats,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PolicyKind;

    fn report() -> RunReport {
        RunReport {
            scheme: Scheme::FlashCoop(PolicyKind::Lar),
            ftl: FtlKind::Bast,
            trace: "Fin1".into(),
            requests: 1000,
            avg_response: SimDuration::from_micros(630),
            p99_response: SimDuration::from_millis(5),
            avg_write_response: SimDuration::from_micros(100),
            avg_read_response: SimDuration::from_micros(900),
            hit_ratio: 0.78,
            erases: 8700,
            write_amplification: 1.4,
            mean_write_pages: 12.0,
            frac_single_page: 0.03,
            frac_gt8_pages: 0.35,
            write_length_cdf: vec![(1, 0.03), (64, 1.0)],
            ftl_stats: FtlStats::default(),
        }
    }

    #[test]
    fn replication_stats_merge_and_cleanliness() {
        let mut a = ReplicationStats::default();
        assert!(a.is_clean());
        let b = ReplicationStats {
            retries: 2,
            batches_sent: 15,
            batch_pages: 16,
            dups_dropped: 1,
            reorders_healed: 3,
            partition_destages: 4,
            takeover_destages: 5,
            resync_batches: 6,
            resync_pages: 7,
            full_resyncs: 8,
            corruptions_detected: 9,
            corruptions_repaired: 10,
            scrub_repairs: 11,
            credit_stalls: 12,
            credit_rejections: 13,
            lifecycle_transitions: 14,
        };
        a.absorb(&b);
        a.absorb(&b);
        assert!(!a.is_clean());
        assert_eq!(a.retries, 4);
        assert_eq!(a.batches_sent, 30);
        assert_eq!(a.batch_pages, 32);
        assert_eq!(a.dups_dropped, 2);
        assert_eq!(a.reorders_healed, 6);
        assert_eq!(a.partition_destages, 8);
        assert_eq!(a.takeover_destages, 10);
        assert_eq!(a.resync_batches, 12);
        assert_eq!(a.resync_pages, 14);
        assert_eq!(a.full_resyncs, 16);
        assert_eq!(a.corruptions_detected, 18);
        assert_eq!(a.corruptions_repaired, 20);
        assert_eq!(a.scrub_repairs, 22);
        assert_eq!(a.credit_stalls, 24);
        assert_eq!(a.credit_rejections, 26);
        assert_eq!(a.lifecycle_transitions, 28);
    }

    #[test]
    fn report_is_serialisable() {
        // Verify the derives compile by requiring the traits via a bound
        // (serde_json is deliberately not a dependency).
        fn assert_serde<T: serde::Serialize + for<'de> serde::Deserialize<'de>>(_: &T) {}
        assert_serde(&report());
    }
}
