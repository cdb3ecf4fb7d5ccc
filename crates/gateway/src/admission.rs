//! Admission control: per-client token buckets plus a global in-flight cap.
//!
//! The gateway sheds load *explicitly* — a refused request gets an
//! [`ErrorCode::Busy`](crate::proto::ErrorCode::Busy) reply immediately
//! instead of queueing without bound. Two independent gates:
//!
//! * **Per-client rate** — a token bucket per client id smooths each
//!   client's offered rate to `per_client_rate` with bursts up to
//!   `per_client_burst`. One client hammering the gateway cannot starve
//!   the others. With an infinite rate every request passes this gate, so
//!   no bucket is kept or locked; otherwise at most 4,096 are,
//!   and a new client displaces the one whose last take is oldest.
//! * **Global queue depth** — at most `max_inflight` admitted requests may
//!   be in service at once, across all sessions. This bounds the work
//!   queued on the node (and therefore tail latency) no matter how many
//!   clients connect.
//!
//! Time is passed *into* the bucket (`now_nanos`) rather than read from a
//! clock inside it, so unit tests drive it deterministically.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// Admission knobs. [`AdmissionConfig::unlimited`] disables both gates —
/// used by tests that need deterministic no-shed behaviour.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionConfig {
    /// Steady-state tokens (requests) per second granted to each client.
    /// `f64::INFINITY` disables rate limiting.
    pub per_client_rate: f64,
    /// Bucket capacity: how large a burst a client may send after idling.
    pub per_client_burst: f64,
    /// Global cap on concurrently admitted requests. `u32::MAX` disables
    /// the gate.
    pub max_inflight: u32,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            per_client_rate: 10_000.0,
            per_client_burst: 256.0,
            max_inflight: 64,
        }
    }
}

impl AdmissionConfig {
    /// No rate limit, no queue-depth cap — every request admitted.
    pub fn unlimited() -> Self {
        AdmissionConfig {
            per_client_rate: f64::INFINITY,
            per_client_burst: f64::INFINITY,
            max_inflight: u32::MAX,
        }
    }
}

/// Which gate refused the request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The client's token bucket was empty.
    RateLimited,
    /// The global in-flight cap was reached.
    QueueFull,
}

impl ShedReason {
    /// Static label used in obs events.
    pub fn name(self) -> &'static str {
        match self {
            ShedReason::RateLimited => "rate_limited",
            ShedReason::QueueFull => "queue_full",
        }
    }
}

/// Deterministic token bucket: refill is computed from the caller-supplied
/// monotonic timestamp, never from a wall clock.
#[derive(Debug)]
pub struct TokenBucket {
    capacity: f64,
    rate_per_sec: f64,
    tokens: f64,
    last_nanos: u64,
}

impl TokenBucket {
    /// A bucket that starts full.
    pub fn new(capacity: f64, rate_per_sec: f64) -> Self {
        TokenBucket {
            capacity,
            rate_per_sec,
            tokens: capacity,
            last_nanos: 0,
        }
    }

    /// Take one token at time `now_nanos`; false when the bucket is empty.
    /// Timestamps may repeat but must not go backwards (a regression is
    /// treated as zero elapsed time).
    pub fn try_take(&mut self, now_nanos: u64) -> bool {
        if self.rate_per_sec.is_infinite() {
            return true;
        }
        let elapsed = now_nanos.saturating_sub(self.last_nanos);
        self.last_nanos = self.last_nanos.max(now_nanos);
        self.tokens = (self.tokens + elapsed as f64 * self.rate_per_sec / 1e9).min(self.capacity);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Return one token (admission succeeded at this gate but a later gate
    /// refused the request — the client should not be double-charged).
    pub fn refund(&mut self) {
        self.tokens = (self.tokens + 1.0).min(self.capacity);
    }

    /// Tokens currently available (for tests and introspection).
    pub fn available(&self) -> f64 {
        self.tokens
    }
}

/// RAII lease on one slot of the global in-flight budget; dropping it
/// releases the slot.
#[derive(Debug)]
pub struct Permit {
    inflight: Arc<AtomicU32>,
}

impl Drop for Permit {
    fn drop(&mut self) {
        self.inflight.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Token buckets an [`Admission`] keeps at most: at the cap, a new client
/// displaces the bucket whose last take is oldest (that client starts
/// over with a full bucket), so a long-lived gateway does not keep one
/// for every client id it was ever sent.
const MAX_BUCKETS: usize = 4096;

/// Shared admission state for one gateway.
pub struct Admission {
    cfg: AdmissionConfig,
    buckets: Mutex<HashMap<u64, TokenBucket>>,
    inflight: Arc<AtomicU32>,
    max_seen: AtomicU32,
}

impl Admission {
    pub fn new(cfg: AdmissionConfig) -> Self {
        Admission {
            cfg,
            buckets: Mutex::new(HashMap::new()),
            inflight: Arc::new(AtomicU32::new(0)),
            max_seen: AtomicU32::new(0),
        }
    }

    /// Try to admit one request from `client` at time `now_nanos`. On
    /// success the returned [`Permit`] must be held for the duration of
    /// service; on failure the caller replies `Busy`.
    pub fn try_admit(&self, client: u64, now_nanos: u64) -> Result<Permit, ShedReason> {
        // An infinite rate admits every request at this gate: no bucket.
        let limited = !self.cfg.per_client_rate.is_infinite();
        if limited && !self.take_token(client, now_nanos) {
            return Err(ShedReason::RateLimited);
        }
        loop {
            let cur = self.inflight.load(Ordering::Acquire);
            if cur >= self.cfg.max_inflight {
                // Refund the rate token: this request was within its
                // client's budget — the *global* gate refused it.
                if limited {
                    if let Some(b) = self.buckets.lock().get_mut(&client) {
                        b.refund();
                    }
                }
                return Err(ShedReason::QueueFull);
            }
            if self
                .inflight
                .compare_exchange_weak(cur, cur + 1, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                self.max_seen.fetch_max(cur + 1, Ordering::AcqRel);
                return Ok(Permit {
                    inflight: self.inflight.clone(),
                });
            }
        }
    }

    /// Take one of `client`'s tokens, creating its bucket on first use —
    /// displacing the stalest one at `MAX_BUCKETS`.
    fn take_token(&self, client: u64, now_nanos: u64) -> bool {
        let mut buckets = self.buckets.lock();
        if buckets.len() >= MAX_BUCKETS && !buckets.contains_key(&client) {
            // Ties (same last take) go to the lowest id, so the pick repeats.
            let stalest = buckets.iter().min_by_key(|&(&id, b)| (b.last_nanos, id));
            if let Some(id) = stalest.map(|(&id, _)| id) {
                buckets.remove(&id);
            }
        }
        buckets
            .entry(client)
            .or_insert_with(|| {
                TokenBucket::new(self.cfg.per_client_burst, self.cfg.per_client_rate)
            })
            .try_take(now_nanos)
    }

    /// Requests currently admitted and in service.
    pub fn inflight(&self) -> u32 {
        self.inflight.load(Ordering::Acquire)
    }

    /// High-water mark of concurrent admitted requests since start — the
    /// saturation test asserts this never exceeds `max_inflight`.
    pub fn max_inflight_seen(&self) -> u32 {
        self.max_seen.load(Ordering::Acquire)
    }

    pub fn config(&self) -> &AdmissionConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEC: u64 = 1_000_000_000;

    #[test]
    fn bucket_starts_full_and_empties() {
        let mut b = TokenBucket::new(3.0, 1.0);
        assert!(b.try_take(0));
        assert!(b.try_take(0));
        assert!(b.try_take(0));
        assert!(!b.try_take(0), "burst exhausted");
    }

    #[test]
    fn bucket_refills_at_rate() {
        let mut b = TokenBucket::new(2.0, 2.0); // 2 tokens/s
        assert!(b.try_take(0));
        assert!(b.try_take(0));
        assert!(!b.try_take(0));
        // 0.5 s later: one token back.
        assert!(b.try_take(SEC / 2));
        assert!(!b.try_take(SEC / 2));
        // A long idle caps at capacity, not beyond.
        assert!(b.try_take(100 * SEC));
        assert!(b.try_take(100 * SEC));
        assert!(!b.try_take(100 * SEC));
    }

    #[test]
    fn bucket_tolerates_time_regression() {
        let mut b = TokenBucket::new(1.0, 1.0);
        assert!(b.try_take(5 * SEC));
        // Clock goes backwards: no refill, and no panic.
        assert!(!b.try_take(4 * SEC));
        // Forward again from the high-water mark.
        assert!(b.try_take(6 * SEC));
    }

    #[test]
    fn infinite_rate_never_sheds() {
        let mut b = TokenBucket::new(f64::INFINITY, f64::INFINITY);
        for _ in 0..10_000 {
            assert!(b.try_take(0));
        }
    }

    #[test]
    fn per_client_buckets_are_independent() {
        let adm = Admission::new(AdmissionConfig {
            per_client_rate: 1.0,
            per_client_burst: 1.0,
            max_inflight: u32::MAX,
        });
        let p1 = adm.try_admit(1, 0);
        assert!(p1.is_ok(), "client 1's burst token");
        assert_eq!(adm.try_admit(1, 0).unwrap_err(), ShedReason::RateLimited);
        // Client 2 still has its own token.
        assert!(adm.try_admit(2, 0).is_ok());
    }

    #[test]
    fn global_cap_sheds_queue_full_and_permits_release() {
        let adm = Admission::new(AdmissionConfig {
            per_client_rate: f64::INFINITY,
            per_client_burst: f64::INFINITY,
            max_inflight: 2,
        });
        let a = adm.try_admit(1, 0).unwrap();
        let b = adm.try_admit(2, 0).unwrap();
        assert_eq!(adm.inflight(), 2);
        assert_eq!(adm.try_admit(3, 0).unwrap_err(), ShedReason::QueueFull);
        drop(a);
        assert_eq!(adm.inflight(), 1);
        let c = adm.try_admit(3, 0).unwrap();
        drop(b);
        drop(c);
        assert_eq!(adm.inflight(), 0);
        assert_eq!(adm.max_inflight_seen(), 2, "cap was never exceeded");
    }

    #[test]
    fn unlimited_admission_keeps_no_bucket() {
        let adm = Admission::new(AdmissionConfig::unlimited());
        for client in 0..10_000 {
            assert!(adm.try_admit(client, 0).is_ok());
        }
        assert_eq!(adm.buckets.lock().len(), 0);
    }

    #[test]
    fn limited_admission_caps_its_buckets_and_displaces_the_stalest() {
        let adm = Admission::new(AdmissionConfig {
            per_client_rate: 1.0,
            per_client_burst: 1.0,
            max_inflight: u32::MAX,
        });
        for client in 0..5_000u64 {
            assert!(adm.try_admit(client, client * SEC).is_ok());
        }
        let buckets = adm.buckets.lock();
        assert_eq!(buckets.len(), MAX_BUCKETS);
        // The clients heard from longest ago were the ones displaced.
        assert!((0..5_000 - MAX_BUCKETS as u64).all(|c| !buckets.contains_key(&c)));
        assert!((5_000 - MAX_BUCKETS as u64..5_000).all(|c| buckets.contains_key(&c)));
    }

    #[test]
    fn queue_full_refunds_the_rate_token() {
        let adm = Admission::new(AdmissionConfig {
            per_client_rate: 0.0, // no refill: the burst is all there is
            per_client_burst: 1.0,
            max_inflight: 1,
        });
        let hold = adm.try_admit(1, 0).unwrap();
        // Client 2 passes its rate gate but hits the global cap; its one
        // burst token must come back.
        assert_eq!(adm.try_admit(2, 0).unwrap_err(), ShedReason::QueueFull);
        drop(hold);
        assert!(
            adm.try_admit(2, 0).is_ok(),
            "refunded token admits the retry"
        );
    }
}
