//! Experiment reports — one [`RunReport`] per (scheme, FTL, trace) cell of
//! the paper's evaluation matrix, carrying everything Figures 6–8 and
//! Table III read off a run.

use crate::config::Scheme;
use fc_simkit::SimDuration;
use fc_ssd::{FtlKind, FtlStats};
use serde::{Deserialize, Serialize};

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
    fn report_is_serialisable() {
        // Verify the derives compile by requiring the traits via a bound
        // (serde_json is deliberately not a dependency).
        fn assert_serde<T: serde::Serialize + for<'de> serde::Deserialize<'de>>(_: &T) {}
        assert_serde(&report());
    }
}
