//! Lock-cheap metric primitives.
//!
//! All three metric kinds are cloneable handles over shared atomic cells:
//! recording on the hot path is a handful of relaxed atomic operations and
//! never takes a lock. Reading (snapshots) is racy-by-design — each cell is
//! read atomically but the set of cells is not read at one instant, which is
//! the standard trade for lock-free recording.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Monotonically increasing event count.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrite the count — for seeding a registry counter with an
    /// already-accumulated total, not for hot-path use.
    pub fn store(&self, v: u64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// Last-value-wins instantaneous measurement, stored as `f64` bits.
#[derive(Clone, Debug)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
}

impl Default for Gauge {
    fn default() -> Self {
        Self {
            bits: Arc::new(AtomicU64::new(0f64.to_bits())),
        }
    }
}

impl Gauge {
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Set from an integer (convenience for depth/size gauges).
    #[inline]
    pub fn set_u64(&self, v: u64) {
        self.set(v as f64);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Number of histogram buckets: bucket `i` (for `i > 0`) holds values whose
/// bit length is `i`, i.e. the range `[2^(i-1), 2^i - 1]`; bucket 0 holds
/// exactly zero. Bucket 64 therefore ends at `u64::MAX`.
pub const HISTOGRAM_BUCKETS: usize = 65;

struct HistogramCells {
    counts: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

/// Log2-bucketed histogram for latency/size distributions.
///
/// Recording is two relaxed `fetch_add`s plus a `fetch_max`; quantiles are
/// resolved at read time by a cumulative walk over the 65 buckets and report
/// the *upper bound* of the bucket holding the nearest-rank sample, so a
/// reported p99 is an overestimate by at most 2x (one bucket's width).
#[derive(Clone)]
pub struct Histogram {
    cells: Arc<HistogramCells>,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            cells: Arc::new(HistogramCells {
                counts: std::array::from_fn(|_| AtomicU64::new(0)),
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
                max: AtomicU64::new(0),
            }),
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .field("max", &self.max())
            .finish()
    }
}

/// Bucket index for a value: 0 for 0, otherwise the bit length of `v`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive upper bound of bucket `i`.
pub fn bucket_upper(i: usize) -> u64 {
    match i {
        0 => 0,
        64.. => u64::MAX,
        _ => (1u64 << i) - 1,
    }
}

/// Inclusive lower bound of bucket `i`.
pub fn bucket_lower(i: usize) -> u64 {
    match i {
        0 => 0,
        1 => 1,
        _ => 1u64 << (i - 1),
    }
}

impl Histogram {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        let c = &self.cells;
        c.counts[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        c.count.fetch_add(1, Ordering::Relaxed);
        // Wrapping on overflow: the sum of 2^64 nanoseconds is ~584 years of
        // recorded latency, acceptable for a mean estimate.
        c.sum.fetch_add(v, Ordering::Relaxed);
        c.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.cells.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded values (wrapping).
    pub fn sum(&self) -> u64 {
        self.cells.sum.load(Ordering::Relaxed)
    }

    /// Largest recorded value (exact, not bucketed).
    pub fn max(&self) -> u64 {
        self.cells.max.load(Ordering::Relaxed)
    }

    /// Mean of recorded values, 0.0 when empty.
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Nearest-rank percentile (`p` in `[0, 100]`), reported as the upper
    /// bound of the bucket containing that rank, or the exact [`max`] when
    /// that is lower. Returns 0 when empty.
    ///
    /// [`max`]: Histogram::max
    pub fn percentile(&self, p: f64) -> u64 {
        let counts: Vec<u64> = self
            .cells
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let buckets = counts
            .iter()
            .enumerate()
            .map(|(i, &n)| (bucket_upper(i), n));
        nearest_rank(buckets, p, self.max())
    }

    /// Median (bucket upper bound, at most the max).
    pub fn p50(&self) -> u64 {
        self.percentile(50.0)
    }

    /// 99th percentile (bucket upper bound, at most the max).
    pub fn p99(&self) -> u64 {
        self.percentile(99.0)
    }

    /// 99.9th percentile (bucket upper bound, at most the max).
    pub fn p999(&self) -> u64 {
        self.percentile(99.9)
    }

    /// Non-empty buckets as `(inclusive upper bound, count)`, ascending.
    pub fn buckets(&self) -> Vec<(u64, u64)> {
        self.cells
            .counts
            .iter()
            .enumerate()
            .filter_map(|(i, c)| {
                let n = c.load(Ordering::Relaxed);
                (n > 0).then_some((bucket_upper(i), n))
            })
            .collect()
    }

    /// Immutable summary used by registry snapshots.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count(),
            sum: self.sum(),
            max: self.max(),
            p50: self.p50(),
            p99: self.p99(),
            p999: self.p999(),
            buckets: self.buckets(),
        }
    }
}

/// The nearest-rank rule over `(inclusive upper bound, count)` buckets in
/// ascending order: the upper bound of the bucket holding rank
/// `ceil(p% of the total)`, clamped to the exact `max` (no sample lies
/// above it), 0 when every bucket is empty.
fn nearest_rank(buckets: impl Iterator<Item = (u64, u64)> + Clone, p: f64, max: u64) -> u64 {
    let total: u64 = buckets.clone().map(|(_, n)| n).sum();
    if total == 0 {
        return 0;
    }
    let rank = ((p / 100.0) * total as f64).ceil().max(1.0) as u64;
    let mut cum = 0u64;
    let mut upper = 0;
    for (u, n) in buckets {
        cum += n;
        upper = u;
        if cum >= rank {
            break;
        }
    }
    upper.min(max)
}

/// Point-in-time view of a [`Histogram`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSummary {
    pub count: u64,
    pub sum: u64,
    pub max: u64,
    pub p50: u64,
    pub p99: u64,
    pub p999: u64,
    /// Non-empty buckets as `(inclusive upper bound, count)`, ascending.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSummary {
    /// Fold `other` in, as if one histogram had recorded both: counts,
    /// sums and buckets add, max takes the larger, and the percentiles
    /// come from the merged buckets by [`Histogram::percentile`]'s rule
    /// (every summary has the same bucket layout, so bounds merge exactly).
    pub fn merge(&mut self, other: &HistogramSummary) {
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
        for &(upper, n) in &other.buckets {
            match self.buckets.binary_search_by_key(&upper, |&(u, _)| u) {
                Ok(i) => self.buckets[i].1 += n,
                Err(i) => self.buckets.insert(i, (upper, n)),
            }
        }
        let pct = |p| nearest_rank(self.buckets.iter().copied(), p, self.max);
        (self.p50, self.p99, self.p999) = (pct(50.0), pct(99.0), pct(99.9));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let c2 = c.clone();
        c2.inc();
        assert_eq!(c.get(), 6, "clones share the cell");
        c.store(42);
        assert_eq!(c2.get(), 42);

        let g = Gauge::new();
        assert_eq!(g.get(), 0.0);
        g.set(1.25);
        assert_eq!(g.get(), 1.25);
        g.set_u64(7);
        assert_eq!(g.get(), 7.0);
    }

    #[test]
    fn bucket_boundaries_at_powers_of_two() {
        // Zero gets its own bucket.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_upper(0), 0);
        // Each edge value 2^k starts a new bucket; 2^k - 1 ends the previous.
        for k in 1..64 {
            let edge = 1u64 << k;
            assert_eq!(bucket_index(edge), k as usize + 1, "2^{k}");
            assert_eq!(bucket_index(edge - 1), k as usize, "2^{k} - 1");
            assert_eq!(bucket_upper(k as usize), edge - 1);
            assert_eq!(bucket_lower(k as usize + 1), edge);
        }
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper(64), u64::MAX);
        assert_eq!(bucket_lower(64), 1u64 << 63);
    }

    #[test]
    fn merged_summaries_equal_one_histogram_of_both_streams() {
        // Seeded streams of skewed values (an xorshift, shifted so every
        // magnitude shows up), merged in both orders and into nothing.
        let stream = |mut x: u64, n: usize| -> Vec<u64> {
            (0..n)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x >> (x % 64)
                })
                .collect()
        };
        for (seed_a, seed_b, n_a, n_b) in [(1, 2, 500, 300), (3, 4, 1, 2000), (5, 6, 0, 7)] {
            let (a, b) = (stream(seed_a, n_a), stream(seed_b, n_b));
            let (ha, hb, both) = (Histogram::new(), Histogram::new(), Histogram::new());
            for &v in &a {
                ha.record(v);
                both.record(v);
            }
            for &v in &b {
                hb.record(v);
                both.record(v);
            }
            let mut ab = ha.summary();
            ab.merge(&hb.summary());
            assert_eq!(ab, both.summary(), "A then B, seeds {seed_a}/{seed_b}");
            let mut ba = hb.summary();
            ba.merge(&ha.summary());
            assert_eq!(ba, both.summary(), "B then A, seeds {seed_a}/{seed_b}");
            let mut empty = HistogramSummary::default();
            empty.merge(&ha.summary());
            assert_eq!(empty, ha.summary());
        }
    }

    #[test]
    fn histogram_records_extremes() {
        let h = Histogram::new();
        h.record(0);
        h.record(1);
        h.record(u64::MAX);
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), u64::MAX);
        let buckets = h.buckets();
        assert_eq!(buckets, vec![(0, 1), (1, 1), (u64::MAX, 1)]);
        // Nearest-rank p100 lands in the top bucket.
        assert_eq!(h.percentile(100.0), u64::MAX);
        // p1 of three samples is rank 1 → the zero bucket.
        assert_eq!(h.percentile(1.0), 0);
    }

    #[test]
    fn histogram_percentiles_nearest_rank() {
        let h = Histogram::new();
        // 99 samples in bucket [2,3], one in [1024,2047].
        for _ in 0..99 {
            h.record(3);
        }
        h.record(1500);
        assert_eq!(h.count(), 100);
        assert_eq!(h.p50(), 3);
        // rank ceil(0.99*100)=99 → still the low bucket.
        assert_eq!(h.p99(), 3);
        // rank ceil(0.999*100)=100 → the outlier's bucket [1024, 2047],
        // clamped to the exact max: no percentile exceeds it.
        assert_eq!(h.p999(), 1500);
        assert_eq!(h.max(), 1500);
        assert_eq!(h.sum(), 99 * 3 + 1500);
    }

    /// One 14.6 ms sample sits in the bucket [2^23, 2^24): its upper bound
    /// (16.8 ms) is no sample's value, so every percentile, single or
    /// merged, reports the exact max.
    #[test]
    fn a_percentile_never_exceeds_the_max() {
        let h = Histogram::new();
        h.record(14_611_300);
        assert_eq!(h.max(), 14_611_300);
        assert_eq!(h.p50(), h.max());
        assert_eq!(h.p999(), h.max());
        let mut merged = HistogramSummary::default();
        merged.merge(&h.summary());
        assert_eq!((merged.p50, merged.p999), (h.max(), h.max()));
    }

    #[test]
    fn count_sum_mean_agree_with_percentile_view() {
        // The loadgen reports mean latency straight from sum()/count()
        // instead of keeping a parallel tally; pin the accessors to the
        // bucket walk percentile() performs.
        let h = Histogram::new();
        let samples: Vec<u64> = (0..1000u64).map(|i| i * i % 7919).collect();
        for &s in &samples {
            h.record(s);
        }
        // count() equals the number of recorded samples and the sum of all
        // bucket counts (the population percentile() walks).
        assert_eq!(h.count(), samples.len() as u64);
        let bucket_total: u64 = h.buckets().iter().map(|&(_, n)| n).sum();
        assert_eq!(h.count(), bucket_total);
        // sum()/mean() match the exact tallies.
        let exact_sum: u64 = samples.iter().sum();
        assert_eq!(h.sum(), exact_sum);
        let exact_mean = exact_sum as f64 / samples.len() as f64;
        assert!((h.mean() - exact_mean).abs() < 1e-9);
        // The mean is consistent with the bucketed distribution: it lies
        // within [p0 lower bound, p100 upper bound], and p100's bucket
        // contains max().
        assert!(h.mean() >= 0.0 && h.mean() <= h.percentile(100.0) as f64);
        let max = samples.iter().copied().max().unwrap();
        assert_eq!(h.max(), max);
        assert!(h.percentile(100.0) >= max);
        assert!(h.percentile(100.0) < max.saturating_mul(2).max(2));
        // percentile() is monotone in p, so mean-vs-median sanity holds in
        // bucket terms: p50 <= 2 * mean upper bound for this spread.
        assert!(h.p50() <= h.percentile(100.0));
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p999(), 0);
        assert!(h.buckets().is_empty());
    }
}
