//! Calibrated synthetic workload generation.
//!
//! The paper evaluates on two SPC financial traces (Fin1 write-dominant,
//! Fin2 read-dominant) and one synthetic mixed trace (Table I). The real
//! traces are not redistributable, so [`SyntheticSpec`] generates equivalents
//! calibrated to the Table I marginals:
//!
//! | Workload | Avg req (KB) | Write % | Seq % | Interarrival (ms) |
//! |---|---|---|---|---|
//! | Fin1 | 4.38 | 91 | 2.0  | 133.50 |
//! | Fin2 | 4.84 | 10 | 0.20 | 64.53  |
//! | Mix  | 3.16 | 50 | 50   | 199.91 |
//!
//! plus the two structural properties the paper's design arguments rest on:
//!
//! * **block-level temporal locality** — "there are many popular sectors
//!   which are updated frequently" (Section I): random targets are drawn
//!   Zipf-skewed over *logical blocks*, then offset within the block, so hot
//!   blocks see repeated page accesses — the locality LAR's popularity
//!   counter exploits;
//! * **interleaved sequential streams** — Figure 2's pattern, where several
//!   tasks' sequential writes interleave at the device: with
//!   `interleave_streams > 1`, sequential continuations round-robin across
//!   independent streams.
//!
//! Request sizes are whole pages (the device's unit), so a 4.38 KB average
//! quantises to ≈ 1.1 pages of 4 KB; trace statistics report both.

use crate::record::{IoRequest, Op, Trace};
use fc_simkit::rng::Zipf;
use fc_simkit::{DetRng, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Specification of a synthetic workload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SyntheticSpec {
    /// Workload name ("Fin1", "Fin2", "Mix", …).
    pub name: String,
    /// Number of requests to generate.
    pub requests: usize,
    /// Logical address space to cover, in pages.
    pub address_pages: u64,
    /// Fraction of requests that are writes.
    pub write_frac: f64,
    /// Target fraction of requests that continue the previous request
    /// (Table I's "Seq. %"). With one stream this is matched directly.
    pub seq_frac: f64,
    /// Mean request size in pages (>= 1).
    pub mean_req_pages: f64,
    /// Mean exponential interarrival time.
    pub mean_interarrival: SimDuration,
    /// Zipf skew over logical blocks for the random component (0 = uniform).
    pub zipf_theta: f64,
    /// Pages per logical block (locality granularity; match the SSD).
    pub pages_per_block: u32,
    /// Number of concurrent sequential streams (> 1 interleaves, Figure 2).
    pub interleave_streams: usize,
    /// Hot-set drift: the Zipf rank→block mapping shifts this many times
    /// over the trace (1 = static hot set). Real OLTP popularity migrates,
    /// which is what separates recency- from frequency-based replacement.
    pub drift_epochs: usize,
}

impl SyntheticSpec {
    /// Fin1-like: write-dominant OLTP with strong temporal locality.
    pub fn fin1(address_pages: u64) -> Self {
        SyntheticSpec {
            name: "Fin1".into(),
            requests: 50_000,
            address_pages,
            write_frac: 0.91,
            seq_frac: 0.02,
            mean_req_pages: 4.38 / 4.0,
            mean_interarrival: SimDuration::from_micros(133_500),
            zipf_theta: 0.95,
            pages_per_block: 64,
            interleave_streams: 1,
            drift_epochs: 1,
        }
    }

    /// Fin2-like: read-dominant OLTP.
    pub fn fin2(address_pages: u64) -> Self {
        SyntheticSpec {
            name: "Fin2".into(),
            requests: 50_000,
            address_pages,
            write_frac: 0.10,
            seq_frac: 0.002,
            mean_req_pages: 4.84 / 4.0,
            mean_interarrival: SimDuration::from_micros(64_530),
            zipf_theta: 0.95,
            pages_per_block: 64,
            interleave_streams: 1,
            drift_epochs: 1,
        }
    }

    /// Mix: half reads, half sequential, moderate locality — the paper's
    /// synthetic workload for studying replacement behaviour.
    pub fn mix(address_pages: u64) -> Self {
        SyntheticSpec {
            name: "Mix".into(),
            requests: 50_000,
            address_pages,
            write_frac: 0.50,
            seq_frac: 0.50,
            mean_req_pages: 1.0,
            mean_interarrival: SimDuration::from_micros(199_910),
            zipf_theta: 0.6,
            pages_per_block: 64,
            interleave_streams: 1,
            drift_epochs: 1,
        }
    }

    /// All three Table I workloads for an address space.
    pub fn table1(address_pages: u64) -> [SyntheticSpec; 3] {
        [
            SyntheticSpec::fin1(address_pages),
            SyntheticSpec::fin2(address_pages),
            SyntheticSpec::mix(address_pages),
        ]
    }

    /// Builder: override the request count.
    pub fn with_requests(mut self, n: usize) -> Self {
        self.requests = n;
        self
    }

    /// Builder: override the interleaving degree (Figure 2 experiments).
    pub fn with_streams(mut self, n: usize) -> Self {
        self.interleave_streams = n.max(1);
        self
    }

    /// Generate the trace, deterministically in (spec, seed).
    pub fn generate(&self, seed: u64) -> Trace {
        assert!(self.address_pages >= self.pages_per_block as u64 * 2);
        let mut rng = DetRng::new(seed);
        let blocks = self.address_pages / self.pages_per_block as u64;
        let zipf = Zipf::new(blocks, self.zipf_theta.clamp(0.0, 0.999));
        let streams = self.interleave_streams.max(1);
        // Per-stream cursor for sequential continuations.
        let mut cursors: Vec<Option<u64>> = vec![None; streams];
        let mut next_stream = 0usize;
        let mut trace = Trace::new(self.name.clone());
        let mut now = SimTime::ZERO;
        let mut prev_end: Option<u64> = None;

        for _ in 0..self.requests {
            now += SimDuration::from_secs_f64(rng.exp(self.mean_interarrival.as_secs_f64()));
            let mean_pages = self.mean_req_pages.max(1.0);
            let pages = if mean_pages <= 2.0 {
                // Bernoulli second page hits the fractional mean exactly
                // (e.g. 1.095 pages = the paper's 4.38 KB at 4 KB pages).
                1 + u64::from(rng.chance(mean_pages - 1.0))
            } else {
                rng.run_length(mean_pages)
            }
            .min(self.pages_per_block as u64) as u32;
            let op = if rng.chance(self.write_frac) {
                Op::Write
            } else {
                Op::Read
            };

            let epoch = if self.drift_epochs > 1 {
                (trace.len() * self.drift_epochs / self.requests.max(1)) as u64
            } else {
                0
            };
            let sequential = prev_end.is_some() && rng.chance(self.seq_frac);
            let (lpn, used_stream) = if sequential {
                if streams == 1 {
                    (prev_end.expect("prev_end present"), None)
                } else {
                    // Round-robin across streams; each continues from its own
                    // cursor (the Figure 2 interleaving pattern).
                    let s = next_stream % streams;
                    next_stream += 1;
                    let cur =
                        cursors[s].unwrap_or_else(|| self.random_lpn_at(&zipf, &mut rng, epoch));
                    (cur, Some(s))
                }
            } else {
                (self.random_lpn_at(&zipf, &mut rng, epoch), None)
            };

            // Clamp into the address space.
            let lpn = lpn.min(self.address_pages - pages as u64);
            let end = lpn + pages as u64;
            if let Some(s) = used_stream {
                // Advance the stream; restart it elsewhere when it nears the
                // end of the address space.
                cursors[s] = Some(
                    if end + self.pages_per_block as u64 * 2 < self.address_pages {
                        end
                    } else {
                        self.random_lpn_at(&zipf, &mut rng, epoch)
                    },
                );
            }
            prev_end = Some(end % self.address_pages);
            trace.push(IoRequest {
                at: now,
                lpn,
                pages,
                op,
            });
        }
        trace
    }

    /// Draw a Zipf-hot block, scatter it over the address space with a
    /// multiplicative hash (so hot blocks are not all clustered at address
    /// zero), then a uniform offset inside the block. The drift epoch shifts
    /// which physical blocks are hot.
    fn random_lpn_at(&self, zipf: &Zipf, rng: &mut DetRng, epoch: u64) -> u64 {
        let blocks = self.address_pages / self.pages_per_block as u64;
        let rank = zipf.sample(rng);
        // The hottest ~2% of ranks are structurally hot (database roots,
        // logs) and never move; the warm mid-tail migrates between epochs.
        let head = (blocks / 50).max(8);
        let drifted = if rank < head {
            rank
        } else {
            rank.wrapping_add(epoch.wrapping_mul(0x0000_DEAD_BEEF_CAFE))
        };
        let block = drifted.wrapping_mul(0x9E37_79B9_7F4A_7C15) % blocks;
        let offset = rng.below(self.pages_per_block as u64);
        block * self.pages_per_block as u64 + offset
    }
}

/// Parameters for a short-lived-file workload (Section III.A: "Short lived
/// files which can be buffered in memory are often never really written to
/// SSD. The files are removed and purged from the buffer before they are
/// pushed to SSD. Such short lived files appear to be relatively common in
/// Unix systems").
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShortLivedSpec {
    /// Number of create/delete file cycles.
    pub files: usize,
    /// File size in pages.
    pub file_pages: u32,
    /// Mean time between the file's write and its deletion.
    pub lifetime: SimDuration,
    /// Mean time between file creations.
    pub mean_interarrival: SimDuration,
    /// Address space in pages.
    pub address_pages: u64,
    /// Fraction of long-lived background writes interleaved between files.
    pub background_frac: f64,
}

impl Default for ShortLivedSpec {
    fn default() -> Self {
        ShortLivedSpec {
            files: 2_000,
            file_pages: 8,
            lifetime: SimDuration::from_millis(200),
            mean_interarrival: SimDuration::from_millis(50),
            address_pages: 64 * 1024,
            background_frac: 0.2,
        }
    }
}

impl ShortLivedSpec {
    /// Generate a trace of write→(delay)→trim cycles, with optional
    /// long-lived background writes. Deletions are interleaved at their due
    /// times, so files live in the buffer for roughly `lifetime`.
    pub fn generate(&self, seed: u64) -> Trace {
        let mut rng = DetRng::new(seed);
        let mut trace = Trace::new("ShortLived");
        let mut now = SimTime::ZERO;
        // Pending deletions as (due, lpn, pages), kept sorted by due time.
        let mut pending: std::collections::BinaryHeap<std::cmp::Reverse<(SimTime, u64, u32)>> =
            std::collections::BinaryHeap::new();
        let slots = (self.address_pages / self.file_pages as u64).max(1);
        for _ in 0..self.files {
            now += SimDuration::from_secs_f64(rng.exp(self.mean_interarrival.as_secs_f64()));
            // Flush deletions that came due.
            while let Some(&std::cmp::Reverse((due, lpn, pages))) = pending.peek() {
                if due > now {
                    break;
                }
                pending.pop();
                trace.push(IoRequest {
                    at: due,
                    lpn,
                    pages,
                    op: Op::Trim,
                });
            }
            if rng.chance(self.background_frac) {
                // Long-lived background write (never deleted).
                let lpn = rng.below(self.address_pages - self.file_pages as u64);
                trace.push(IoRequest {
                    at: now,
                    lpn,
                    pages: 1,
                    op: Op::Write,
                });
                continue;
            }
            let slot = rng.below(slots);
            let lpn = slot * self.file_pages as u64;
            trace.push(IoRequest {
                at: now,
                lpn,
                pages: self.file_pages,
                op: Op::Write,
            });
            let due = now + SimDuration::from_secs_f64(rng.exp(self.lifetime.as_secs_f64()));
            pending.push(std::cmp::Reverse((due, lpn, self.file_pages)));
        }
        // Remaining deletions.
        let mut rest: Vec<_> = pending.into_iter().map(|r| r.0).collect();
        rest.sort_unstable();
        for (due, lpn, pages) in rest {
            trace.push(IoRequest {
                at: due.max(now),
                lpn,
                pages,
                op: Op::Trim,
            });
        }
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::TraceStats;

    const SPACE: u64 = 1 << 16; // 64 Ki pages = 256 MiB

    #[test]
    fn deterministic_in_seed() {
        let spec = SyntheticSpec::fin1(SPACE).with_requests(500);
        let a = spec.generate(7);
        let b = spec.generate(7);
        assert_eq!(a.requests, b.requests);
        let c = spec.generate(8);
        assert_ne!(a.requests, c.requests);
    }

    #[test]
    fn zero_request_trace_is_valid() {
        for spec in SyntheticSpec::table1(SPACE) {
            let t = spec.with_requests(0).generate(1);
            assert!(t.is_empty());
            assert_eq!(t.duration(), fc_simkit::SimDuration::ZERO);
            let s = TraceStats::from_trace(&t);
            assert_eq!(s.requests, 0);
            // Every Table-I column is a defined number, never NaN.
            for v in [
                s.avg_req_kb,
                s.avg_req_pages,
                s.write_pct,
                s.seq_pct,
                s.avg_interarrival_ms,
                s.trim_pct,
            ] {
                assert!(v.is_finite(), "{}: non-finite stat {v}", s.name);
                assert_eq!(v, 0.0, "{}: empty trace must report 0.0", s.name);
            }
            assert_eq!(s.unique_pages, 0);
            assert_eq!(s.footprint_pages, 0);
        }
    }

    #[test]
    fn single_request_trace_is_valid() {
        for spec in SyntheticSpec::table1(SPACE) {
            let t = spec.with_requests(1).generate(2);
            assert_eq!(t.len(), 1);
            let s = TraceStats::from_trace(&t);
            assert_eq!(s.requests, 1);
            // One request has no interarrival gap: the stat is a defined
            // 0.0, not NaN (0/0) and not negative.
            assert!(s.avg_interarrival_ms.is_finite());
            assert_eq!(s.avg_interarrival_ms, 0.0);
            assert!(s.avg_req_pages >= 1.0);
            assert!(s.avg_req_kb.is_finite());
            // write_pct is exactly 0 or 100 for a single request.
            assert!(s.write_pct == 0.0 || s.write_pct == 100.0);
            assert_eq!(s.seq_pct, 0.0, "a lone request cannot be sequential");
            assert!(s.unique_pages >= 1);
            assert!(s.footprint_pages <= SPACE);
        }
    }

    #[test]
    fn fin1_matches_table1_marginals() {
        let t = SyntheticSpec::fin1(SPACE).with_requests(20_000).generate(1);
        let s = TraceStats::from_trace(&t);
        assert!((s.write_pct - 91.0).abs() < 2.0, "write% {}", s.write_pct);
        assert!(s.seq_pct < 5.0, "seq% {}", s.seq_pct);
        assert!(
            (s.avg_interarrival_ms - 133.5).abs() < 7.0,
            "interarrival {}",
            s.avg_interarrival_ms
        );
        assert!(
            s.avg_req_kb >= 4.0 && s.avg_req_kb < 6.5,
            "req kb {}",
            s.avg_req_kb
        );
    }

    #[test]
    fn fin2_is_read_dominant() {
        let t = SyntheticSpec::fin2(SPACE).with_requests(20_000).generate(2);
        let s = TraceStats::from_trace(&t);
        assert!((s.write_pct - 10.0).abs() < 2.0);
        assert!(s.seq_pct < 1.5);
        assert!((s.avg_interarrival_ms - 64.53).abs() < 4.0);
    }

    #[test]
    fn mix_is_half_sequential() {
        let t = SyntheticSpec::mix(SPACE).with_requests(20_000).generate(3);
        let s = TraceStats::from_trace(&t);
        assert!((s.write_pct - 50.0).abs() < 2.5);
        assert!((s.seq_pct - 50.0).abs() < 4.0, "seq% {}", s.seq_pct);
    }

    #[test]
    fn requests_stay_in_address_space() {
        for spec in SyntheticSpec::table1(SPACE) {
            let t = spec.with_requests(5_000).generate(4);
            for r in &t.requests {
                assert!(r.end_lpn() <= SPACE);
                assert!(r.pages >= 1);
            }
        }
    }

    #[test]
    fn zipf_concentrates_write_traffic() {
        let t = SyntheticSpec::fin1(SPACE).with_requests(20_000).generate(5);
        // Count accesses per block; the hottest decile should dominate.
        let mut counts = std::collections::HashMap::new();
        for r in &t.requests {
            *counts.entry(r.lpn / 64).or_insert(0u64) += 1;
        }
        let mut freqs: Vec<u64> = counts.values().copied().collect();
        freqs.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = freqs.iter().sum();
        let top10: u64 = freqs.iter().take(freqs.len() / 10 + 1).sum();
        assert!(
            top10 as f64 / total as f64 > 0.5,
            "top decile carries {:.2}",
            top10 as f64 / total as f64
        );
    }

    #[test]
    fn interleaved_streams_break_global_contiguity() {
        let base = SyntheticSpec::mix(SPACE).with_requests(10_000);
        let single = base.clone().generate(6);
        let multi = base.with_streams(4).generate(6);
        let s1 = TraceStats::from_trace(&single);
        let s4 = TraceStats::from_trace(&multi);
        assert!(
            s4.seq_pct < s1.seq_pct,
            "interleaving should reduce measured seq% ({} vs {})",
            s4.seq_pct,
            s1.seq_pct
        );
    }

    #[test]
    fn drift_moves_the_hot_tail_but_not_the_head() {
        let mut static_spec = SyntheticSpec::fin1(SPACE).with_requests(8_000);
        static_spec.drift_epochs = 1;
        let mut drifting = static_spec.clone();
        drifting.drift_epochs = 4;

        // Hot-block sets of the first and last quarter of each trace.
        let hot_set = |t: &crate::record::Trace, range: std::ops::Range<usize>| {
            let mut counts = std::collections::HashMap::new();
            for r in &t.requests[range] {
                *counts.entry(r.lpn / 64).or_insert(0u64) += 1;
            }
            let mut v: Vec<(u64, u64)> = counts.into_iter().map(|(b, c)| (c, b)).collect();
            v.sort_unstable_by(|a, b| b.cmp(a));
            v.into_iter()
                .take(50)
                .map(|(_, b)| b)
                .collect::<std::collections::HashSet<_>>()
        };
        let overlap = |t: &crate::record::Trace| {
            let n = t.requests.len();
            let early = hot_set(t, 0..n / 4);
            let late = hot_set(t, 3 * n / 4..n);
            early.intersection(&late).count()
        };
        let t_static = static_spec.generate(3);
        let t_drift = drifting.generate(3);
        assert!(
            overlap(&t_drift) < overlap(&t_static),
            "drift should churn the hot set: {} vs {}",
            overlap(&t_drift),
            overlap(&t_static)
        );
        // But some structurally-hot head blocks persist even under drift.
        assert!(overlap(&t_drift) > 0, "the stable head must survive drift");
    }

    #[test]
    fn presets_are_static_by_default() {
        for spec in SyntheticSpec::table1(SPACE) {
            assert_eq!(spec.drift_epochs, 1, "{}", spec.name);
        }
    }

    #[test]
    fn short_lived_spec_emits_matching_trims() {
        let spec = ShortLivedSpec {
            files: 500,
            ..ShortLivedSpec::default()
        };
        let t = spec.generate(5);
        let stats = crate::stats::TraceStats::from_trace(&t);
        assert!(stats.trim_pct > 20.0, "trim% {}", stats.trim_pct);
        // Every trim targets a previously written range.
        let mut written = std::collections::HashSet::new();
        for r in &t.requests {
            match r.op {
                Op::Write => {
                    written.insert(r.lpn);
                }
                Op::Trim => assert!(written.contains(&r.lpn), "trim of unwritten {r:?}"),
                Op::Read => {}
            }
        }
        // Timestamps monotone.
        for w in t.requests.windows(2) {
            assert!(w[1].at >= w[0].at);
        }
    }

    #[test]
    fn timestamps_are_monotone() {
        let t = SyntheticSpec::mix(SPACE).with_requests(5_000).generate(10);
        for w in t.requests.windows(2) {
            assert!(w[1].at >= w[0].at);
        }
    }
}
