//! Network link model.
//!
//! FlashCoop replicates every buffered write to the partner server over a
//! "high speed data center network (i.e. 10 Gbit Ethernet)". For the
//! trace-replay experiments we only need the *cost* of that hop:
//!
//! `transfer_time(bytes) = propagation latency + bytes / bandwidth`
//!
//! which for a 4 KB page on 10 GbE is ≈ 10 µs + 3.3 µs ≈ 13 µs — an order of
//! magnitude cheaper than a 200 µs flash program, which is the entire premise
//! of remote buffering (Section III.A "Design Rationale", reason 2).

use crate::time::SimDuration;
use serde::{Deserialize, Serialize};

/// A point-to-point link characterised by one-way latency and bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkModel {
    /// One-way propagation + protocol latency.
    pub latency: SimDuration,
    /// Usable bandwidth in bytes per second.
    pub bandwidth_bytes_per_sec: u64,
}

impl LinkModel {
    /// A 10 Gbit Ethernet profile: ~10 µs one-way latency, ~1.1 GiB/s usable
    /// bandwidth (10 Gbit/s less framing overhead).
    pub fn ten_gbe() -> Self {
        LinkModel {
            latency: SimDuration::from_micros(10),
            bandwidth_bytes_per_sec: 1_150_000_000,
        }
    }

    /// A 1 Gbit Ethernet profile for sensitivity studies.
    pub fn one_gbe() -> Self {
        LinkModel {
            latency: SimDuration::from_micros(50),
            bandwidth_bytes_per_sec: 110_000_000,
        }
    }

    /// Serialisation (bandwidth) component of a transfer.
    pub fn serialization_time(&self, bytes: u64) -> SimDuration {
        if self.bandwidth_bytes_per_sec == 0 {
            return SimDuration::MAX;
        }
        if self.bandwidth_bytes_per_sec == u64::MAX {
            return SimDuration::ZERO;
        }
        // ceil(bytes * 1e9 / bw) without overflow for realistic sizes.
        let ns = (bytes as u128 * 1_000_000_000u128).div_ceil(self.bandwidth_bytes_per_sec as u128);
        SimDuration::from_nanos(ns.min(u64::MAX as u128) as u64)
    }

    /// One-way transfer time for `bytes`.
    pub fn transfer_time(&self, bytes: u64) -> SimDuration {
        self.latency + self.serialization_time(bytes)
    }
}

impl Default for LinkModel {
    fn default() -> Self {
        LinkModel::ten_gbe()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ten_gbe_page_transfer_is_cheap_relative_to_flash_program() {
        let link = LinkModel::ten_gbe();
        // Data out, then a tiny ack back: one round trip per replicated page.
        let page = link.transfer_time(4096) + link.latency;
        let program = SimDuration::from_micros(200);
        assert!(
            page < program / 4,
            "replication ({page}) should be far cheaper than a program ({program})"
        );
    }

    #[test]
    fn serialization_scales_linearly() {
        let link = LinkModel {
            latency: SimDuration::ZERO,
            bandwidth_bytes_per_sec: 1_000_000_000, // 1 GB/s
        };
        assert_eq!(
            link.serialization_time(1_000_000),
            SimDuration::from_micros(1_000)
        );
        assert_eq!(link.transfer_time(2_000_000), SimDuration::from_millis(2));
    }

    #[test]
    fn zero_bytes_costs_only_latency() {
        let link = LinkModel::ten_gbe();
        assert_eq!(link.transfer_time(0), link.latency);
    }

    #[test]
    fn zero_bandwidth_saturates() {
        let link = LinkModel {
            latency: SimDuration::from_micros(1),
            bandwidth_bytes_per_sec: 0,
        };
        assert_eq!(link.serialization_time(1), SimDuration::MAX);
        assert_eq!(link.transfer_time(1), SimDuration::MAX);
    }

    #[test]
    fn serialization_rounds_up() {
        let link = LinkModel {
            latency: SimDuration::ZERO,
            bandwidth_bytes_per_sec: 3,
        };
        // 1 byte at 3 B/s = 333,333,333.3 ns, must round up.
        assert_eq!(
            link.serialization_time(1),
            SimDuration::from_nanos(333_333_334)
        );
    }

    #[test]
    fn one_gbe_slower_than_ten_gbe() {
        let b = 64 * 1024;
        assert!(LinkModel::one_gbe().transfer_time(b) > LinkModel::ten_gbe().transfer_time(b));
    }
}
