//! Figure 9 — dynamic memory allocation: θ vs local arrival rate.
//!
//! The paper runs Fin1 (write-intensive) or Fin2 (read-intensive) on the
//! *remote* server, sweeps the *local* server's arrival rate from 0.1 to
//! 0.5 requests/ms, and plots the local server's remote-buffer ratio θ with
//! α = 0.4, β = 0.2, γ = 0.4. Expected shape: θ decreases with local load
//! and is much higher when the peer is write-intensive.

use crate::params::ExperimentParams;
use fc_simkit::SimDuration;
use fc_ssd::FtlKind;
use fc_trace::SyntheticSpec;
use flashcoop::{CoopPair, FlashCoopConfig, PolicyKind};

/// One x-axis point.
#[derive(Debug, Clone, Copy)]
pub struct Fig9Point {
    /// Local access arrival rate, requests per millisecond.
    pub rate: f64,
    /// Mean θ of the local server with Fin1 on the remote server.
    pub theta_fin1: f64,
    /// Mean θ of the local server with Fin2 on the remote server.
    pub theta_fin2: f64,
}

/// The paper's x-axis.
pub const RATES: [f64; 5] = [0.1, 0.2, 0.3, 0.4, 0.5];

/// Mean θ of server 0 (the "local" server) for a given local rate and
/// remote workload.
fn mean_theta(
    params: &ExperimentParams,
    rate_per_ms: f64,
    remote: &SyntheticSpec,
    seed: u64,
) -> f64 {
    let mut cfg0 = base_cfg(params);
    let cfg1 = base_cfg(params);
    cfg0.alloc.period = SimDuration::from_secs(2);

    // Local workload: the Mix pattern at the requested arrival rate.
    let mut local = SyntheticSpec::mix(params.address_pages);
    local.mean_interarrival = SimDuration::from_secs_f64(1e-3 / rate_per_ms);
    local.requests = params.requests.min(20_000);
    let local_trace = local.generate(seed);

    // Remote workload: accelerate the Table I arrival process so the remote
    // server is active for the whole local run.
    let local_secs = local_trace.duration().as_secs_f64().max(1.0);
    let mut remote = remote.clone();
    remote.mean_interarrival = SimDuration::from_millis(10);
    remote.requests = ((local_secs / 0.010) as usize).clamp(500, params.requests);
    let remote_trace = remote.generate(seed + 1);

    let mut pair = CoopPair::new(cfg0, cfg1);
    pair.replay([&local_trace, &remote_trace]);
    let log = pair.theta_log(0);
    if log.is_empty() {
        return pair.theta_now(0);
    }
    log.iter().map(|s| s.theta).sum::<f64>() / log.len() as f64
}

fn base_cfg(params: &ExperimentParams) -> FlashCoopConfig {
    let mut cfg = FlashCoopConfig::evaluation(FtlKind::PageLevel, PolicyKind::Lar);
    cfg.buffer_pages = params.buffer_pages;
    // Realistic per-request CPU cost so the local-usage term b responds to
    // the arrival-rate sweep (storage-stack overhead on 2010-era servers).
    cfg.cpu_per_request = SimDuration::from_millis(2);
    cfg
}

/// Run the Figure 9 sweep.
pub fn run(params: &ExperimentParams) -> Vec<Fig9Point> {
    sweep(params, &RATES)
}

/// The sweep over the given local arrival rates.
fn sweep(params: &ExperimentParams, rates: &[f64]) -> Vec<Fig9Point> {
    let specs = params.traces();
    rates
        .iter()
        .map(|&rate| Fig9Point {
            rate,
            theta_fin1: mean_theta(params, rate, &specs[0], params.seed),
            theta_fin2: mean_theta(params, rate, &specs[1], params.seed),
        })
        .collect()
}

/// Format the sweep as the Figure 9 table.
pub fn table(points: &[Fig9Point]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:>12} {:>22} {:>22}\n",
        "Rate(req/ms)", "theta%, Fin1 remote", "theta%, Fin2 remote"
    ));
    for p in points {
        out.push_str(&format!(
            "{:>12.1} {:>22.1} {:>22.1}\n",
            p.rate,
            p.theta_fin1 * 100.0,
            p.theta_fin2 * 100.0
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theta_orders_by_peer_write_intensity() {
        let mut p = ExperimentParams::quick();
        p.requests = 2_000;
        let specs = p.traces();
        let t_fin1 = mean_theta(&p, 0.3, &specs[0], 7);
        let t_fin2 = mean_theta(&p, 0.3, &specs[1], 7);
        assert!(
            t_fin1 > t_fin2,
            "write-heavy peer must earn more: {t_fin1:.3} vs {t_fin2:.3}"
        );
    }

    /// Pins θ's values, not only its ordering: a reduced sweep whose table
    /// must not move while the allocation loop is refactored or ported.
    #[test]
    fn reduced_sweep_matches_golden_table() {
        let mut p = ExperimentParams::quick();
        p.requests = 2_000;
        let golden = "\
Rate(req/ms)    theta%, Fin1 remote    theta%, Fin2 remote
         0.1                   56.9                    6.6
         0.3                   47.7                    4.4
         0.5                   36.0                    3.2
";
        assert_eq!(table(&sweep(&p, &[0.1, 0.3, 0.5])), golden);
    }

    #[test]
    fn table_formats() {
        let pts = vec![Fig9Point {
            rate: 0.1,
            theta_fin1: 0.3,
            theta_fin2: 0.05,
        }];
        let t = table(&pts);
        assert!(t.contains("0.1"));
        assert!(t.contains("30.0"));
    }
}
