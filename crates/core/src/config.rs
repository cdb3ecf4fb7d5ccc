//! FlashCoop configuration.
//!
//! Every tunable of the system in one serialisable struct, with the defaults
//! used by the paper's evaluation runs.

use fc_simkit::{LinkModel, SimDuration};
use fc_ssd::{FtlKind, SsdConfig};
use serde::{Deserialize, Serialize};

/// Which replacement policy drives the cooperative buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PolicyKind {
    /// Locality-Aware Replacement — the paper's contribution (Section III.B).
    Lar,
    /// Least Recently Used (page-granular comparison policy).
    Lru,
    /// Least Frequently Used (page-granular comparison policy).
    Lfu,
}

impl PolicyKind {
    /// All policies in the order the paper's figures present them.
    pub const ALL: [PolicyKind; 3] = [PolicyKind::Lar, PolicyKind::Lru, PolicyKind::Lfu];

    /// Display name matching the figure legends.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Lar => "LAR",
            PolicyKind::Lru => "LRU",
            PolicyKind::Lfu => "LFU",
        }
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A complete evaluation scheme: the paper compares FlashCoop under three
/// replacement policies against a bufferless Baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Scheme {
    /// Synchronous writes straight to the SSD, no cooperative buffer.
    Baseline,
    /// FlashCoop with the given replacement policy.
    FlashCoop(PolicyKind),
}

impl Scheme {
    /// All four schemes in figure order.
    pub const ALL: [Scheme; 4] = [
        Scheme::FlashCoop(PolicyKind::Lar),
        Scheme::FlashCoop(PolicyKind::Lru),
        Scheme::FlashCoop(PolicyKind::Lfu),
        Scheme::Baseline,
    ];

    /// Legend label.
    pub fn name(self) -> String {
        match self {
            Scheme::Baseline => "Baseline".to_string(),
            Scheme::FlashCoop(p) => format!("FlashCoop w. {p}"),
        }
    }
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

/// Dynamic memory allocation parameters (Equation 1, Section III.C).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AllocParams {
    /// Weight of memory utilisation in the resource-usage term `b`.
    pub alpha: f64,
    /// Weight of CPU utilisation.
    pub beta: f64,
    /// Weight of network utilisation.
    pub gamma: f64,
    /// Re-evaluation period for θ.
    pub period: SimDuration,
}

impl Default for AllocParams {
    fn default() -> Self {
        // The paper's Figure 9 setting: α = 0.4, β = 0.2, γ = 0.4.
        AllocParams {
            alpha: 0.4,
            beta: 0.2,
            gamma: 0.4,
            period: SimDuration::from_secs(10),
        }
    }
}

/// Full system configuration for one cooperative server.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FlashCoopConfig {
    /// Buffer capacity in pages (local buffer portion).
    pub buffer_pages: usize,
    /// Replacement policy.
    pub policy: PolicyKind,
    /// SSD beneath the buffer.
    pub ssd: SsdConfig,
    /// Replication link to the cooperative peer.
    pub link: LinkModel,
    /// DRAM access cost per page (buffer hit service time).
    pub dram_page_access: SimDuration,
    /// CPU cost of handling one request (storage stack + FS overhead);
    /// feeds the `p` term of the allocation monitor.
    pub cpu_per_request: SimDuration,
    /// Group small tail flushes into block-sized writes (Section III.B.3).
    pub clustering: bool,
    /// LAR second-level sort: break popularity ties toward the most dirty
    /// pages (Section III.B.2). Off = the popularity-only ablation.
    pub lar_dirty_tiebreak: bool,
    /// Proactive background-cleaning watermark (dirty fraction of the
    /// buffer). None = flush only on replacement, as the paper measures.
    pub dirty_watermark: Option<f64>,
    /// Replicate buffered writes to the peer (off = local write-back only,
    /// used by the replication ablation; recovery guarantees are void).
    pub replication: bool,
    /// Dynamic memory allocation parameters.
    pub alloc: AllocParams,
}

impl FlashCoopConfig {
    /// The paper's evaluation configuration with a given FTL and policy.
    pub fn evaluation(ftl: FtlKind, policy: PolicyKind) -> Self {
        FlashCoopConfig {
            buffer_pages: 4096,
            policy,
            ssd: SsdConfig::evaluation(ftl),
            link: LinkModel::ten_gbe(),
            dram_page_access: SimDuration::from_micros(2),
            cpu_per_request: SimDuration::from_micros(500),
            clustering: true,
            lar_dirty_tiebreak: true,
            dirty_watermark: None,
            replication: true,
            alloc: AllocParams::default(),
        }
    }

    /// A tiny configuration for unit tests.
    pub fn tiny(ftl: FtlKind, policy: PolicyKind) -> Self {
        FlashCoopConfig {
            buffer_pages: 16,
            policy,
            ssd: SsdConfig::tiny(ftl),
            link: LinkModel::ten_gbe(),
            dram_page_access: SimDuration::from_micros(2),
            cpu_per_request: SimDuration::from_micros(500),
            clustering: true,
            lar_dirty_tiebreak: true,
            dirty_watermark: None,
            replication: true,
            alloc: AllocParams::default(),
        }
    }

    /// Pages per logical block of the underlying SSD (the block granularity
    /// LAR manages; "System can obtain block size of underline SSD").
    pub fn pages_per_block(&self) -> u32 {
        self.ssd.geometry.pages_per_block
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_names_match_figures() {
        assert_eq!(Scheme::Baseline.name(), "Baseline");
        assert_eq!(
            Scheme::FlashCoop(PolicyKind::Lar).name(),
            "FlashCoop w. LAR"
        );
        assert_eq!(Scheme::ALL.len(), 4);
        assert_eq!(PolicyKind::ALL.len(), 3);
    }

    #[test]
    fn alloc_defaults_match_figure9() {
        let a = AllocParams::default();
        assert_eq!(a.alpha, 0.4);
        assert_eq!(a.beta, 0.2);
        assert_eq!(a.gamma, 0.4);
        assert!((a.alpha + a.beta + a.gamma - 1.0).abs() < 1e-12);
    }

    #[test]
    fn evaluation_config_is_consistent() {
        let c = FlashCoopConfig::evaluation(FtlKind::Bast, PolicyKind::Lar);
        assert_eq!(c.pages_per_block(), 64);
        assert!(c.buffer_pages > 0);
        assert!(c.replication && c.clustering);
    }
}
