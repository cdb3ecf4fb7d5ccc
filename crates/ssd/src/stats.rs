//! Device-level statistics.
//!
//! [`SsdStats`] aggregates everything the paper's evaluation reads off the
//! device: block erases (Figure 7), the write-length distribution presented
//! to the flash (Figure 8), service latencies, and write amplification
//! (internal fragmentation / GC pressure, Section II.C).

use crate::cost::CostBreakdown;
use fc_simkit::stats::{LatencyStats, SizeHistogram};
use fc_simkit::SimDuration;
use serde::{Deserialize, Serialize};

/// Counters and distributions observed at the device interface.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SsdStats {
    /// Host-issued write requests.
    pub host_write_requests: u64,
    /// Host-issued read requests.
    pub host_read_requests: u64,
    /// Pages the host asked to write.
    pub host_pages_written: u64,
    /// Pages the host asked to read.
    pub host_pages_read: u64,
    /// Pages actually programmed into flash (host + GC/merge copies).
    pub flash_page_programs: u64,
    /// Pages read from cells (host + GC/merge copies).
    pub flash_page_reads: u64,
    /// Blocks erased.
    pub block_erases: u64,
    /// Service time of write requests.
    pub write_service: LatencyStats,
    /// Service time of read requests.
    pub read_service: LatencyStats,
    /// Length distribution of host write requests reaching the device —
    /// the Figure 8 measurement point.
    pub write_lengths: SizeHistogram,
    /// TRIM commands received.
    pub trims: u64,
    /// Pages invalidated by TRIM.
    pub trimmed_pages: u64,
}

impl SsdStats {
    /// Fresh, zeroed statistics.
    pub fn new() -> Self {
        SsdStats {
            write_lengths: SizeHistogram::new(),
            ..SsdStats::default()
        }
    }

    /// Record a completed host write.
    pub fn record_write(&mut self, pages: u32, cost: &CostBreakdown, service: SimDuration) {
        self.host_write_requests += 1;
        self.host_pages_written += pages as u64;
        self.flash_page_programs += cost.total_programs();
        self.flash_page_reads += cost.total_reads();
        self.block_erases += cost.total_erases();
        self.write_service.push(service);
        self.write_lengths.record(pages as u64);
    }

    /// Record a completed host read.
    pub fn record_read(&mut self, pages: u32, cost: &CostBreakdown, service: SimDuration) {
        self.host_read_requests += 1;
        self.host_pages_read += pages as u64;
        self.flash_page_programs += cost.total_programs();
        self.flash_page_reads += cost.total_reads();
        self.block_erases += cost.total_erases();
        self.read_service.push(service);
    }

    /// Flash pages programmed per host page written (>= 1 once GC runs;
    /// 0 when nothing has been written).
    pub fn write_amplification(&self) -> f64 {
        if self.host_pages_written == 0 {
            return 0.0;
        }
        self.flash_page_programs as f64 / self.host_pages_written as f64
    }

    /// Mean write request size in pages.
    pub fn mean_write_pages(&self) -> f64 {
        self.write_lengths.mean_pages()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost_with(programs: u64, reads: u64, erases: u64) -> CostBreakdown {
        let mut c = CostBreakdown::new(1);
        for _ in 0..programs {
            c.program_on(0);
        }
        for _ in 0..reads {
            c.read_on(0);
        }
        for _ in 0..erases {
            c.erase_on(0);
        }
        c
    }

    #[test]
    fn write_recording_accumulates_everything() {
        let mut s = SsdStats::new();
        s.record_write(4, &cost_with(6, 2, 1), SimDuration::from_micros(900));
        s.record_write(1, &cost_with(1, 0, 0), SimDuration::from_micros(300));
        assert_eq!(s.host_write_requests, 2);
        assert_eq!(s.host_pages_written, 5);
        assert_eq!(s.flash_page_programs, 7);
        assert_eq!(s.flash_page_reads, 2);
        assert_eq!(s.block_erases, 1);
        assert_eq!(s.write_service.count(), 2);
        assert_eq!(s.write_lengths.writes(), 2);
        assert!((s.write_amplification() - 7.0 / 5.0).abs() < 1e-12);
        assert!((s.mean_write_pages() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn read_recording_does_not_touch_write_lengths() {
        let mut s = SsdStats::new();
        s.record_read(8, &cost_with(0, 8, 0), SimDuration::from_micros(1000));
        assert_eq!(s.host_read_requests, 1);
        assert_eq!(s.host_pages_read, 8);
        assert_eq!(s.write_lengths.writes(), 0);
        assert_eq!(s.read_service.count(), 1);
    }

    #[test]
    fn write_amplification_zero_when_empty() {
        let s = SsdStats::new();
        assert_eq!(s.write_amplification(), 0.0);
    }
}
