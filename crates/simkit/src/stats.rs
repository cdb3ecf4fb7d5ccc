//! Streaming statistics used by the metric collectors.
//!
//! * [`Welford`] — numerically stable streaming mean/variance.
//! * [`LatencyStats`] — mean + exact percentiles over retained samples of
//!   [`SimDuration`]s (experiments retain every response time; runs are small
//!   enough that exact percentiles beat sketches for reproducibility).
//! * [`SizeHistogram`] — the write-length histogram behind the paper's
//!   Figure 8 CDFs, bucketed at the exact page counts the paper plots
//!   (1, 2, 4, 8, 16, 32, 64).

use crate::time::SimDuration;
use serde::{Deserialize, Serialize};

/// Welford's online algorithm for mean and variance.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Empty accumulator.
    pub fn new() -> Self {
        Welford::default()
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Mean of the observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 with fewer than 2 observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Merge another accumulator into this one (Chan et al. parallel update).
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n as f64;
        let m2 = self.m2 + other.m2 + delta * delta * (self.n as f64 * other.n as f64) / n as f64;
        self.n = n;
        self.mean = mean;
        self.m2 = m2;
    }
}

/// Response-time accumulator: streaming mean plus retained samples for exact
/// percentiles.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct LatencyStats {
    agg: Welford,
    samples_ns: Vec<u64>,
    sorted: bool,
}

impl LatencyStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        LatencyStats::default()
    }

    /// Record one latency sample.
    pub fn push(&mut self, d: SimDuration) {
        self.agg.push(d.as_nanos() as f64);
        self.samples_ns.push(d.as_nanos());
        self.sorted = false;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.agg.count()
    }

    /// Mean latency.
    pub fn mean(&self) -> SimDuration {
        SimDuration::from_nanos(self.agg.mean().round() as u64)
    }

    /// Standard deviation of the latencies.
    pub fn stddev(&self) -> SimDuration {
        SimDuration::from_nanos(self.agg.stddev().round() as u64)
    }

    /// Exact percentile `p` in `[0, 100]` using nearest-rank; zero when empty.
    pub fn percentile(&mut self, p: f64) -> SimDuration {
        if self.samples_ns.is_empty() {
            return SimDuration::ZERO;
        }
        if !self.sorted {
            self.samples_ns.sort_unstable();
            self.sorted = true;
        }
        let p = p.clamp(0.0, 100.0);
        let rank = ((p / 100.0) * self.samples_ns.len() as f64).ceil() as usize;
        let idx = rank.saturating_sub(1).min(self.samples_ns.len() - 1);
        SimDuration::from_nanos(self.samples_ns[idx])
    }

    /// Largest sample seen.
    pub fn max(&self) -> SimDuration {
        SimDuration::from_nanos(self.samples_ns.iter().copied().max().unwrap_or(0))
    }

    /// Merge samples from another accumulator.
    pub fn merge(&mut self, other: &LatencyStats) {
        self.agg.merge(&other.agg);
        self.samples_ns.extend_from_slice(&other.samples_ns);
        self.sorted = false;
    }
}

/// Histogram of write lengths in pages, matching Figure 8's x-axis buckets.
///
/// `record(k)` files a k-page write; [`SizeHistogram::cdf`] yields the
/// cumulative fraction of *writes* at or below each bucket edge, which is what
/// the paper plots ("percentage of written pages whose sizes are less than a
/// certain value").
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SizeHistogram {
    /// counts[i] = number of writes with length in (edges[i-1], edges[i]].
    counts: Vec<u64>,
    total_writes: u64,
    total_pages: u64,
}

/// Bucket edges in pages, as plotted by the paper.
pub const SIZE_EDGES: [u64; 7] = [1, 2, 4, 8, 16, 32, 64];

impl SizeHistogram {
    /// Empty histogram.
    pub fn new() -> Self {
        SizeHistogram {
            counts: vec![0; SIZE_EDGES.len() + 1],
            total_writes: 0,
            total_pages: 0,
        }
    }

    /// Record one write of `pages` pages (zero-length writes are ignored).
    pub fn record(&mut self, pages: u64) {
        if pages == 0 {
            return;
        }
        if self.counts.is_empty() {
            self.counts = vec![0; SIZE_EDGES.len() + 1];
        }
        let idx = SIZE_EDGES
            .iter()
            .position(|&e| pages <= e)
            .unwrap_or(SIZE_EDGES.len());
        self.counts[idx] += 1;
        self.total_writes += 1;
        self.total_pages += pages;
    }

    /// Total number of writes recorded.
    pub fn writes(&self) -> u64 {
        self.total_writes
    }

    /// Total number of pages written.
    pub fn pages(&self) -> u64 {
        self.total_pages
    }

    /// Mean write length in pages.
    pub fn mean_pages(&self) -> f64 {
        if self.total_writes == 0 {
            0.0
        } else {
            self.total_pages as f64 / self.total_writes as f64
        }
    }

    /// Fraction of writes that were exactly one page (Figure 8 commentary).
    pub fn frac_single_page(&self) -> f64 {
        if self.total_writes == 0 {
            return 0.0;
        }
        self.counts.first().copied().unwrap_or(0) as f64 / self.total_writes as f64
    }

    /// Fraction of writes strictly larger than `pages`.
    pub fn frac_larger_than(&self, pages: u64) -> f64 {
        if self.total_writes == 0 {
            return 0.0;
        }
        let below: u64 = SIZE_EDGES
            .iter()
            .enumerate()
            .filter(|(_, &e)| e <= pages)
            .map(|(i, _)| self.counts[i])
            .sum();
        (self.total_writes - below) as f64 / self.total_writes as f64
    }

    /// CDF points `(bucket_edge_pages, cumulative_fraction_of_writes)`;
    /// the final point uses `u64::MAX` as an "anything larger" edge.
    pub fn cdf(&self) -> Vec<(u64, f64)> {
        let mut out = Vec::with_capacity(self.counts.len());
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            let edge = SIZE_EDGES.get(i).copied().unwrap_or(u64::MAX);
            let frac = if self.total_writes == 0 {
                0.0
            } else {
                cum as f64 / self.total_writes as f64
            };
            out.push((edge, frac));
        }
        out
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &SizeHistogram) {
        if self.counts.is_empty() {
            self.counts = vec![0; SIZE_EDGES.len() + 1];
        }
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total_writes += other.total_writes;
        self.total_pages += other.total_pages;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_naive_mean_and_variance() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        assert_eq!(w.count(), 8);
        assert!((w.mean() - 5.0).abs() < 1e-12);
        assert!((w.variance() - 4.0).abs() < 1e-12);
        assert!((w.stddev() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn welford_empty_and_singleton() {
        let mut w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance(), 0.0);
        w.push(3.0);
        assert_eq!(w.mean(), 3.0);
        assert_eq!(w.variance(), 0.0);
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let mut all = Welford::new();
        let mut a = Welford::new();
        let mut b = Welford::new();
        for i in 0..100 {
            let x = (i as f64).sin() * 10.0;
            all.push(x);
            if i % 2 == 0 {
                a.push(x)
            } else {
                b.push(x)
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.variance() - all.variance()).abs() < 1e-9);
    }

    #[test]
    fn latency_percentiles_are_exact() {
        let mut l = LatencyStats::new();
        for i in 1..=100u64 {
            l.push(SimDuration::from_nanos(i));
        }
        assert_eq!(l.percentile(50.0), SimDuration::from_nanos(50));
        assert_eq!(l.percentile(99.0), SimDuration::from_nanos(99));
        assert_eq!(l.percentile(100.0), SimDuration::from_nanos(100));
        assert_eq!(l.percentile(0.0), SimDuration::from_nanos(1));
        assert_eq!(l.max(), SimDuration::from_nanos(100));
        assert_eq!(l.mean(), SimDuration::from_nanos(51)); // 50.5 rounded
    }

    #[test]
    fn latency_empty_is_zero() {
        let mut l = LatencyStats::new();
        assert_eq!(l.percentile(50.0), SimDuration::ZERO);
        assert_eq!(l.mean(), SimDuration::ZERO);
        assert_eq!(l.count(), 0);
    }

    #[test]
    fn latency_merge_combines_samples() {
        let mut a = LatencyStats::new();
        let mut b = LatencyStats::new();
        a.push(SimDuration::from_nanos(10));
        b.push(SimDuration::from_nanos(30));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.mean(), SimDuration::from_nanos(20));
        assert_eq!(a.percentile(100.0), SimDuration::from_nanos(30));
    }

    #[test]
    fn histogram_buckets_match_paper_edges() {
        let mut h = SizeHistogram::new();
        for &k in &[1u64, 1, 2, 3, 4, 8, 9, 64, 65, 200] {
            h.record(k);
        }
        assert_eq!(h.writes(), 10);
        assert_eq!(h.pages(), 1 + 1 + 2 + 3 + 4 + 8 + 9 + 64 + 65 + 200);
        // 2 single-page writes out of 10.
        assert!((h.frac_single_page() - 0.2).abs() < 1e-12);
        // Writes > 8 pages: 9, 64, 65, 200 → 0.4.
        assert!((h.frac_larger_than(8) - 0.4).abs() < 1e-12);
        let cdf = h.cdf();
        assert_eq!(cdf.len(), SIZE_EDGES.len() + 1);
        assert_eq!(cdf[0], (1, 0.2));
        let last = cdf.last().unwrap();
        assert_eq!(last.0, u64::MAX);
        assert!((last.1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_ignores_zero_length_writes() {
        let mut h = SizeHistogram::new();
        h.record(0);
        assert_eq!(h.writes(), 0);
        assert_eq!(h.frac_single_page(), 0.0);
        assert_eq!(h.frac_larger_than(4), 0.0);
    }

    #[test]
    fn histogram_merge_adds_counts() {
        let mut a = SizeHistogram::new();
        let mut b = SizeHistogram::new();
        a.record(1);
        b.record(16);
        b.record(1);
        a.merge(&b);
        assert_eq!(a.writes(), 3);
        assert!((a.frac_single_page() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn cdf_is_monotone() {
        let mut h = SizeHistogram::new();
        for k in 1..=70u64 {
            h.record(k);
        }
        let cdf = h.cdf();
        for w in cdf.windows(2) {
            assert!(w[1].1 >= w[0].1);
        }
    }
}
