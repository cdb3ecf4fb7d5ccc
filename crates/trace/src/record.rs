//! I/O trace records.
//!
//! Requests are page-granular (the device's access unit, Table II: 4 KB) and
//! timestamped in simulated time. A [`Trace`] is an ordered request sequence
//! plus a name for reporting.

use fc_simkit::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Request direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Op {
    /// Data read.
    Read,
    /// Data write.
    Write,
    /// Discard (TRIM): the pages no longer hold live data — e.g. a
    /// short-lived file was deleted (Section III.A).
    Trim,
}

/// One I/O request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IoRequest {
    /// Arrival time.
    pub at: SimTime,
    /// First logical page touched.
    pub lpn: u64,
    /// Number of pages (>= 1).
    pub pages: u32,
    /// Read or write.
    pub op: Op,
}

impl IoRequest {
    /// First page *after* the request.
    pub fn end_lpn(&self) -> u64 {
        self.lpn + self.pages as u64
    }

    /// True if this request starts exactly where `prev` ended (the
    /// sequentiality criterion used for Table I's "Seq. %").
    pub fn follows(&self, prev: &IoRequest) -> bool {
        self.lpn == prev.end_lpn()
    }

    /// Request size in bytes, for a given page size.
    pub fn bytes(&self, page_bytes: u32) -> u64 {
        self.pages as u64 * page_bytes as u64
    }
}

/// A named, time-ordered request sequence.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Trace {
    /// Display name ("Fin1", "Fin2", "Mix", or a file name).
    pub name: String,
    /// Requests in non-decreasing arrival order.
    pub requests: Vec<IoRequest>,
}

impl Trace {
    /// Create an empty trace.
    pub fn new(name: impl Into<String>) -> Self {
        Trace {
            name: name.into(),
            requests: Vec::new(),
        }
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// True when the trace has no requests.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Span from the first to the last arrival.
    pub fn duration(&self) -> SimDuration {
        match (self.requests.first(), self.requests.last()) {
            (Some(f), Some(l)) => l.at.saturating_since(f.at),
            _ => SimDuration::ZERO,
        }
    }

    /// Largest page address touched plus one (minimum device size needed).
    pub fn address_span(&self) -> u64 {
        self.requests.iter().map(|r| r.end_lpn()).max().unwrap_or(0)
    }

    /// Append a request, keeping arrival order (clamps a regressing
    /// timestamp to the previous one — real traces contain small
    /// out-of-order artefacts).
    pub fn push(&mut self, mut req: IoRequest) {
        if let Some(last) = self.requests.last() {
            if req.at < last.at {
                req.at = last.at;
            }
        }
        self.requests.push(req);
    }

    /// Merge several traces into one, interleaved by arrival time (stable
    /// for equal timestamps) — multi-tenant streams sharing one device, the
    /// Figure 2 situation.
    pub fn merge(traces: &[&Trace], name: impl Into<String>) -> Trace {
        let mut out = Trace::new(name);
        let mut cursors = vec![0usize; traces.len()];
        loop {
            let mut best: Option<(usize, SimTime)> = None;
            for (i, t) in traces.iter().enumerate() {
                if let Some(r) = t.requests.get(cursors[i]) {
                    if best.map(|(_, at)| r.at < at).unwrap_or(true) {
                        best = Some((i, r.at));
                    }
                }
            }
            let Some((i, _)) = best else { break };
            out.push(traces[i].requests[cursors[i]]);
            cursors[i] += 1;
        }
        out
    }

    /// Keep only the requests with index in `range` (e.g. the warm half of a
    /// trace), preserving timestamps.
    pub fn slice(&self, range: std::ops::Range<usize>) -> Trace {
        let end = range.end.min(self.requests.len());
        let start = range.start.min(end);
        Trace {
            name: format!("{}[{}..{}]", self.name, start, end),
            requests: self.requests[start..end].to_vec(),
        }
    }

    /// Restrict every request to the given address space by wrapping page
    /// addresses modulo `pages` (used to replay a large-footprint trace on a
    /// scaled-down simulated device; preserves locality structure).
    pub fn wrap_addresses(&mut self, pages: u64) {
        assert!(pages > 0);
        for r in &mut self.requests {
            let max_pages = pages.min(u32::MAX as u64) as u32;
            r.pages = r.pages.min(max_pages).max(1);
            r.lpn %= pages;
            if r.end_lpn() > pages {
                r.lpn = pages - r.pages as u64;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(at_us: u64, lpn: u64, pages: u32, op: Op) -> IoRequest {
        IoRequest {
            at: SimTime::from_micros(at_us),
            lpn,
            pages,
            op,
        }
    }

    #[test]
    fn follows_detects_contiguity() {
        let a = req(0, 10, 4, Op::Write);
        let b = req(1, 14, 2, Op::Write);
        let c = req(2, 17, 1, Op::Write);
        assert!(b.follows(&a));
        assert!(!c.follows(&b));
        assert_eq!(a.bytes(4096), 16384);
    }

    #[test]
    fn push_keeps_time_monotone() {
        let mut t = Trace::new("t");
        t.push(req(100, 0, 1, Op::Read));
        t.push(req(50, 1, 1, Op::Read)); // regressing timestamp clamps
        assert_eq!(t.requests[1].at, SimTime::from_micros(100));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn duration_and_span() {
        let mut t = Trace::new("t");
        assert_eq!(t.duration(), SimDuration::ZERO);
        t.push(req(10, 5, 3, Op::Write));
        t.push(req(40, 100, 2, Op::Read));
        assert_eq!(t.duration(), SimDuration::from_micros(30));
        assert_eq!(t.address_span(), 102);
    }

    #[test]
    fn merge_interleaves_by_time() {
        let mut a = Trace::new("a");
        a.push(req(0, 0, 1, Op::Write));
        a.push(req(20, 1, 1, Op::Write));
        let mut b = Trace::new("b");
        b.push(req(10, 100, 1, Op::Read));
        b.push(req(30, 101, 1, Op::Read));
        let m = Trace::merge(&[&a, &b], "ab");
        let lpns: Vec<u64> = m.requests.iter().map(|r| r.lpn).collect();
        assert_eq!(lpns, vec![0, 100, 1, 101]);
        for w in m.requests.windows(2) {
            assert!(w[1].at >= w[0].at);
        }
    }

    #[test]
    fn merge_is_stable_for_equal_timestamps() {
        let mut a = Trace::new("a");
        a.push(req(5, 1, 1, Op::Write));
        let mut b = Trace::new("b");
        b.push(req(5, 2, 1, Op::Write));
        let m = Trace::merge(&[&a, &b], "ab");
        // Earlier-listed trace wins ties.
        assert_eq!(m.requests[0].lpn, 1);
        assert_eq!(m.requests[1].lpn, 2);
    }

    #[test]
    fn slice_clamps_and_names() {
        let mut t = Trace::new("t");
        for i in 0..10 {
            t.push(req(i, i, 1, Op::Write));
        }
        let s = t.slice(3..7);
        assert_eq!(s.len(), 4);
        assert_eq!(s.requests[0].lpn, 3);
        assert_eq!(t.slice(8..100).len(), 2);
        assert_eq!(t.slice(20..30).len(), 0);
    }

    #[test]
    fn wrap_addresses_fits_device() {
        let mut t = Trace::new("t");
        t.push(req(0, 1000, 4, Op::Write));
        t.push(req(1, 62, 8, Op::Write)); // end 70 > 64: shifted back
        t.wrap_addresses(64);
        for r in &t.requests {
            assert!(r.end_lpn() <= 64, "{r:?}");
            assert!(r.pages >= 1);
        }
        assert_eq!(t.requests[0].lpn, 1000 % 64);
    }
}
