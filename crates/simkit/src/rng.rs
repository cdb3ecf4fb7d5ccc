//! Seeded, deterministic randomness.
//!
//! Every stochastic component in the reproduction (trace synthesis, device
//! preconditioning, failure injection) draws from a [`DetRng`] constructed
//! from an explicit seed, so experiment runs are bit-for-bit reproducible.
//!
//! The Zipf sampler implements the classic Gray et al. "quick zipf"
//! incremental method used by database benchmark generators: O(1) per sample
//! after O(1) setup, with the exact skew parameter θ the FlashCoop workload
//! model needs for the "many popular sectors are updated frequently"
//! behaviour described in the paper's introduction.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A deterministic RNG with the sampling helpers the simulators need.
#[derive(Debug, Clone)]
pub struct DetRng {
    inner: SmallRng,
}

impl DetRng {
    /// Construct from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        DetRng {
            inner: SmallRng::seed_from_u64(seed),
        }
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Uniform integer in `[0, n)`. `n` must be nonzero.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        self.inner.gen_range(0..n)
    }

    /// Uniform integer in `[lo, hi]` inclusive.
    pub fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi);
        self.inner.gen_range(lo..=hi)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        self.inner.gen::<f64>() < p
    }

    /// Exponential variate with the given mean (inter-arrival synthesis).
    pub fn exp(&mut self, mean: f64) -> f64 {
        if mean <= 0.0 {
            return 0.0;
        }
        // Inverse-CDF; (1 - u) avoids ln(0).
        let u: f64 = self.inner.gen();
        -mean * (1.0 - u).ln()
    }

    /// Geometric-like run length with the given mean, at least 1.
    pub fn run_length(&mut self, mean: f64) -> u64 {
        (self.exp(mean.max(1.0) - 1.0).round() as u64).saturating_add(1)
    }

    /// Raw access for APIs that take `impl Rng`.
    pub fn raw(&mut self) -> &mut SmallRng {
        &mut self.inner
    }
}

/// Incremental Zipf(θ) sampler over `{0, 1, …, n-1}` (rank 0 is hottest).
///
/// θ = 0 degenerates to uniform; θ → 1 concentrates mass on low ranks. The
/// implementation follows Gray et al., "Quickly Generating Billion-Record
/// Synthetic Databases" (SIGMOD '94).
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    alpha: f64,
    zeta_n: f64,
    eta: f64,
    theta: f64,
}

impl Zipf {
    /// Build a sampler over `n` items with skew `theta` in `[0, 1)`.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "Zipf over an empty domain");
        let theta = theta.clamp(0.0, 0.999_999);
        let zeta_n = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zeta_n);
        let _ = zeta2;
        Zipf {
            n,
            alpha,
            zeta_n,
            eta,
            theta,
        }
    }

    /// Domain size.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Skew parameter.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Draw a rank in `[0, n)`; rank 0 is the most popular item.
    pub fn sample(&self, rng: &mut DetRng) -> u64 {
        let u = rng.unit();
        let uz = u * self.zeta_n;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5_f64.powf(self.theta) {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        // Exact for small n, Euler–Maclaurin style approximation for large n;
        // the generator only needs a few-percent-accurate normaliser.
        const EXACT_LIMIT: u64 = 10_000;
        if n <= EXACT_LIMIT {
            (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
        } else {
            let head: f64 = (1..=EXACT_LIMIT)
                .map(|i| 1.0 / (i as f64).powf(theta))
                .sum();
            // ∫_{EXACT_LIMIT}^{n} x^{-θ} dx
            let a = EXACT_LIMIT as f64;
            let b = n as f64;
            let tail = if (theta - 1.0).abs() < 1e-12 {
                (b / a).ln()
            } else {
                (b.powf(1.0 - theta) - a.powf(1.0 - theta)) / (1.0 - theta)
            };
            head + tail
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.below(1_000_000), b.below(1_000_000));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let va: Vec<u64> = (0..16).map(|_| a.below(u64::MAX)).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.below(u64::MAX)).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn unit_in_range_and_chance_respects_extremes() {
        let mut r = DetRng::new(9);
        for _ in 0..1000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(r.chance(2.0)); // clamped
        assert!(!r.chance(-1.0)); // clamped
    }

    #[test]
    fn exp_has_roughly_the_requested_mean() {
        let mut r = DetRng::new(11);
        let n = 50_000;
        let mean = 133.5;
        let total: f64 = (0..n).map(|_| r.exp(mean)).sum();
        let observed = total / n as f64;
        assert!(
            (observed - mean).abs() / mean < 0.05,
            "observed {observed} vs {mean}"
        );
        assert_eq!(r.exp(0.0), 0.0);
        assert_eq!(r.exp(-5.0), 0.0);
    }

    #[test]
    fn run_length_is_at_least_one() {
        let mut r = DetRng::new(13);
        for _ in 0..1000 {
            assert!(r.run_length(4.0) >= 1);
        }
    }

    #[test]
    fn zipf_uniform_when_theta_zero() {
        let z = Zipf::new(1000, 0.0);
        let mut r = DetRng::new(17);
        let mut lows = 0;
        let n = 20_000;
        for _ in 0..n {
            if z.sample(&mut r) < 500 {
                lows += 1;
            }
        }
        let frac = lows as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.03, "frac {frac}");
    }

    #[test]
    fn zipf_skews_toward_low_ranks() {
        let z = Zipf::new(10_000, 0.9);
        let mut r = DetRng::new(19);
        let n = 20_000;
        let mut top_decile = 0;
        for _ in 0..n {
            if z.sample(&mut r) < 1000 {
                top_decile += 1;
            }
        }
        let frac = top_decile as f64 / n as f64;
        assert!(frac > 0.6, "top 10% of ranks got {frac} of accesses");
    }

    #[test]
    fn zipf_samples_stay_in_domain() {
        for &n in &[1u64, 2, 3, 100, 1_000_000] {
            let z = Zipf::new(n, 0.8);
            let mut r = DetRng::new(23);
            for _ in 0..500 {
                assert!(z.sample(&mut r) < n);
            }
        }
    }

    #[test]
    fn zeta_approximation_close_to_exact() {
        // Compare the piecewise approximation against brute force at a size
        // just over the exact cutoff.
        let n = 20_000u64;
        let theta = 0.75;
        let exact: f64 = (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum();
        let approx = Zipf::new(n, theta).zeta_n;
        assert!(
            ((exact - approx) / exact).abs() < 0.01,
            "exact {exact} approx {approx}"
        );
    }
}
