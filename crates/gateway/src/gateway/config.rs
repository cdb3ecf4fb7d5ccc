//! Gateway knobs.

use std::time::Duration;

use crate::admission::AdmissionConfig;

/// Gateway knobs.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Admission gates (token buckets + global in-flight cap).
    pub admission: AdmissionConfig,
    /// Block size (pages) used for run alignment — match the node's
    /// `pages_per_block` so runs map onto destage units.
    pub pages_per_block: u32,
    /// Largest page count accepted in one request; larger ⇒ `BadRequest`.
    pub max_req_pages: u32,
    /// How long a shard stays failed over before each failback attempt;
    /// doubles as the `retry_after_ms` hint in `Unavailable` replies.
    pub failback_period: Duration,
    /// Total in-gateway retry budget for one shard op before giving up
    /// with `Unavailable` — the bound on how long a request can stall on
    /// a dead shard.
    pub retry_deadline: Duration,
    /// Base retry backoff (exponential with jitter, capped at 100 ms).
    pub retry_backoff: Duration,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            admission: AdmissionConfig::default(),
            pages_per_block: 4,
            max_req_pages: 1024,
            failback_period: Duration::from_millis(200),
            retry_deadline: Duration::from_secs(2),
            retry_backoff: Duration::from_millis(5),
        }
    }
}

impl GatewayConfig {
    /// Deterministic test profile: unlimited admission (no shedding), tiny
    /// blocks to exercise run splitting, and a short failback period so
    /// chaos tests observe failback within a node test-profile outage.
    pub fn test_profile() -> Self {
        GatewayConfig {
            admission: AdmissionConfig::unlimited(),
            failback_period: Duration::from_millis(50),
            retry_deadline: Duration::from_secs(1),
            retry_backoff: Duration::from_millis(2),
            ..GatewayConfig::default()
        }
    }
}
