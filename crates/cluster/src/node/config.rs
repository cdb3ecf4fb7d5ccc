//! Node tunables: [`NodeConfig`], its builder, and the replication
//! [`RetryPolicy`].

#[cfg(doc)]
use crate::{Message, Node};
use flashcoop::PolicyKind;
use std::time::Duration;

/// Bounded retry-with-backoff for the replication path (Section III.D's
/// "high speed data center network" is fast but not lossless; a dropped
/// batch or ack should be retried before the writer gives up and degrades
/// to write-through).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total send attempts, including the first (must be >= 1).
    pub attempts: u32,
    /// Delay before the first retry.
    pub base_backoff: Duration,
    /// Backoff growth factor per further retry (>= 1.0).
    pub multiplier: f64,
    /// Ceiling on any single backoff.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 4,
            base_backoff: Duration::from_millis(2),
            multiplier: 2.0,
            max_backoff: Duration::from_millis(100),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries: one attempt, then give up.
    pub fn no_retries() -> Self {
        RetryPolicy {
            attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// Backoff before retry number `retry` (0-based: the delay between the
    /// first attempt's timeout and the second attempt). Exponential in
    /// `multiplier`, capped at `max_backoff`.
    pub fn backoff_for(&self, retry: u32) -> Duration {
        let base = self.base_backoff.as_nanos() as f64;
        let factor = self.multiplier.max(1.0).powi(retry.min(63) as i32);
        let ns = (base * factor).min(self.max_backoff.as_nanos() as f64);
        Duration::from_nanos(ns as u64)
    }
}

/// Node tunables.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Node id (appears in heartbeats).
    pub id: u8,
    /// Buffer replacement policy.
    pub policy: PolicyKind,
    /// Local buffer capacity in pages.
    pub buffer_pages: usize,
    /// Pages per logical block (LAR granularity).
    pub pages_per_block: u32,
    /// Heartbeat period.
    pub heartbeat: Duration,
    /// Silence after which the peer is declared failed.
    pub failure_timeout: Duration,
    /// How long the oldest unacknowledged replication batch waits for its
    /// cumulative ack before the pump retransmits it (and, with retries
    /// exhausted, abandons the window: its writers write through and the
    /// node goes solo).
    pub ack_timeout: Duration,
    /// Bounded retry-with-backoff for replication batches. A lossy network
    /// drops the occasional batch or ack; retransmitting under the same seq
    /// (the receiver dedups and re-acks its frontier) keeps the batch's
    /// pages on the replicated path instead of falling back to
    /// write-through on the first loss.
    pub retry: RetryPolicy,
    /// Pages this node will host for its peer (the credit pool it
    /// advertises in acks and heartbeats).
    pub remote_capacity: usize,
    /// Per-client exactly-once window: how many recent tagged write runs
    /// ([`Node::try_write_run`]) are remembered per client so a gateway
    /// retry of an already-applied run returns the cached outcome instead
    /// of applying twice.
    pub dedup_window: usize,
    /// Maximum pages carried by one [`Message::WriteReplBatch`] frame. The
    /// sender cuts whatever is queued (up to this many pages) into each
    /// batch, so lightly loaded nodes still see one-page batches while a
    /// gateway write run amortises the wire to O(runs) frames.
    pub repl_batch_pages: usize,
    /// Maximum unacknowledged batches in flight before the replication
    /// sender stops cutting new ones (the pipeline window).
    pub repl_window: usize,
}

impl Default for NodeConfig {
    /// Production-shaped defaults (the paper's block geometry; relaxed
    /// timers). Tests usually start from [`NodeConfig::test_profile`].
    fn default() -> Self {
        NodeConfig {
            id: 0,
            policy: PolicyKind::Lar,
            buffer_pages: 4096,
            pages_per_block: 64,
            heartbeat: Duration::from_millis(100),
            failure_timeout: Duration::from_millis(500),
            ack_timeout: Duration::from_millis(500),
            retry: RetryPolicy::default(),
            remote_capacity: 8192,
            dedup_window: 1024,
            repl_batch_pages: 32,
            repl_window: 32,
        }
    }
}

impl NodeConfig {
    /// Fast timings for tests and demos.
    pub fn test_profile(id: u8) -> Self {
        NodeConfig {
            id,
            buffer_pages: 64,
            pages_per_block: 4,
            heartbeat: Duration::from_millis(25),
            failure_timeout: Duration::from_millis(200),
            remote_capacity: 512,
            dedup_window: 64,
            repl_batch_pages: 16,
            ..NodeConfig::default()
        }
    }

    /// Start a builder from the defaults:
    ///
    /// ```
    /// use fc_cluster::NodeConfig;
    ///
    /// let cfg = NodeConfig::builder()
    ///     .id(1)
    ///     .buffer_pages(128)
    ///     .remote_capacity(32)
    ///     .repl_batch_pages(8)
    ///     .build();
    /// assert_eq!(cfg.id, 1);
    /// assert_eq!(cfg.remote_capacity, 32);
    /// assert_eq!(cfg.repl_batch_pages, 8);
    /// ```
    pub fn builder() -> NodeConfigBuilder {
        NodeConfigBuilder {
            cfg: NodeConfig::default(),
        }
    }
}

/// Builder for [`NodeConfig`].
#[derive(Debug, Clone)]
pub struct NodeConfigBuilder {
    cfg: NodeConfig,
}

impl NodeConfigBuilder {
    /// Node id (appears in heartbeats).
    pub fn id(mut self, id: u8) -> Self {
        self.cfg.id = id;
        self
    }

    /// Local buffer capacity in pages.
    pub fn buffer_pages(mut self, pages: usize) -> Self {
        self.cfg.buffer_pages = pages;
        self
    }

    /// Pages per logical block.
    pub fn pages_per_block(mut self, ppb: u32) -> Self {
        self.cfg.pages_per_block = ppb;
        self
    }

    /// Pages this node will host for its peer.
    pub fn remote_capacity(mut self, pages: usize) -> Self {
        self.cfg.remote_capacity = pages;
        self
    }

    /// Maximum pages per pipelined replication batch frame.
    pub fn repl_batch_pages(mut self, pages: usize) -> Self {
        self.cfg.repl_batch_pages = pages.max(1);
        self
    }

    /// Finish the configuration.
    pub fn build(self) -> NodeConfig {
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_backoff_grows_and_caps() {
        let p = RetryPolicy {
            attempts: 5,
            base_backoff: Duration::from_millis(2),
            multiplier: 2.0,
            max_backoff: Duration::from_millis(10),
        };
        assert_eq!(p.backoff_for(0), Duration::from_millis(2));
        assert_eq!(p.backoff_for(1), Duration::from_millis(4));
        assert_eq!(p.backoff_for(2), Duration::from_millis(8));
        // Capped from 16 ms down to the ceiling.
        assert_eq!(p.backoff_for(3), Duration::from_millis(10));
        assert_eq!(p.backoff_for(60), Duration::from_millis(10));
    }

    #[test]
    fn no_retries_policy_is_single_attempt() {
        let p = RetryPolicy::no_retries();
        assert_eq!(p.attempts, 1);
        assert_eq!(p.backoff_for(0), RetryPolicy::default().base_backoff);
    }

    #[test]
    fn sub_unit_multiplier_never_shrinks_backoff() {
        let p = RetryPolicy {
            multiplier: 0.5,
            ..RetryPolicy::default()
        };
        assert_eq!(p.backoff_for(3), p.base_backoff);
    }
}
