//! Exact order statistics over raw samples (no histogram buckets).

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` of the samples at or below it. `None` on an empty slice.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// [`percentile`], reported only when at least [`MIN_BEYOND`] samples lie
/// beyond it — with fewer, the figure is one of a handful of outliers, not
/// a property of the distribution.
pub fn supported_percentile(sorted: &[u64], p: f64) -> Option<u64> {
    let rank = (p * sorted.len() as f64).ceil() as usize;
    if sorted.len().saturating_sub(rank) < MIN_BEYOND {
        return None;
    }
    percentile(sorted, p)
}

/// Median of unordered values (mean of the two middle ones when even).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (exclusive method), so `compare` and the driver agree on
/// what a spread is. A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return Some((v[0], v[0]));
    }
    let at = |i: usize| {
        // Position i*(n+1)/4 in 1-based ranks; like Python, the rank is
        // clamped but the interpolation weight is not.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 0.50), Some(50));
        assert_eq!(percentile(&s, 0.99), Some(99));
        assert_eq!(percentile(&s, 1.0), Some(100));
        assert_eq!(percentile(&s, 0.0), Some(1));
        assert_eq!(percentile(&[7], 0.99), Some(7));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // p99 of 1000 samples has exactly 10 beyond it; of 999, only 9.
        let s: Vec<u64> = (1..=1000).collect();
        assert_eq!(supported_percentile(&s, 0.99), Some(990));
        assert_eq!(supported_percentile(&s[..999], 0.99), None);
        // A median needs 20 samples.
        assert_eq!(supported_percentile(&s[..20], 0.50), Some(10));
        assert_eq!(supported_percentile(&s[..19], 0.50), None);
        assert_eq!(supported_percentile(&[], 0.50), None);
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), Some((1.5, 4.5)));
        // statistics.quantiles([1,2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[9.0]), Some((9.0, 9.0)));
    }
}
