//! Open-loop arrival schedules.
//!
//! A trace replayed *closed-loop* (issue → wait → issue) measures service
//! time but hides queueing: the client's own waiting throttles the offered
//! load. An *open-loop* driver instead fires each request at its recorded
//! arrival instant regardless of completions — the shape that actually
//! saturates a server and produces the classic hockey-stick p99 curve.
//!
//! [`ArrivalSchedule`] is the export a load generator needs for that: the
//! per-request offsets from the trace's first arrival, in issue order, with
//! the rate knob ([`ArrivalSchedule::scaled`]) applied up front so the
//! driver's inner loop is just "sleep until offset, send".

use crate::record::Trace;
use fc_simkit::SimDuration;

/// Per-request arrival offsets from the first request of a trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ArrivalSchedule {
    offsets: Vec<SimDuration>,
}

impl ArrivalSchedule {
    /// Offsets of every request from the trace's first arrival. The first
    /// entry is always zero; offsets are non-decreasing (a [`Trace`] keeps
    /// arrival order).
    pub fn from_trace(trace: &Trace) -> Self {
        let origin = match trace.requests.first() {
            Some(r) => r.at,
            None => return ArrivalSchedule::default(),
        };
        ArrivalSchedule {
            offsets: trace
                .requests
                .iter()
                .map(|r| r.at.saturating_since(origin))
                .collect(),
        }
    }

    /// Number of scheduled arrivals.
    pub fn len(&self) -> usize {
        self.offsets.len()
    }

    /// True when the schedule has no arrivals.
    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }

    /// Offset of request `i` from the schedule origin.
    pub fn offset(&self, i: usize) -> Option<SimDuration> {
        self.offsets.get(i).copied()
    }

    /// All offsets, in issue order.
    pub fn offsets(&self) -> &[SimDuration] {
        &self.offsets
    }

    /// Offset of the last arrival (the schedule's span). Zero when empty or
    /// single-request.
    pub fn span(&self) -> SimDuration {
        self.offsets.last().copied().unwrap_or(SimDuration::ZERO)
    }

    /// Compress (factor > 1) or stretch (factor < 1) the schedule: a factor
    /// of 10 offers ten times the arrival rate.
    pub fn scaled(&self, factor: f64) -> Self {
        let f = factor.max(1e-9);
        ArrivalSchedule {
            offsets: self
                .offsets
                .iter()
                .map(|d| SimDuration::from_secs_f64(d.as_secs_f64() / f))
                .collect(),
        }
    }
}

impl Trace {
    /// Export this trace's open-loop arrival schedule (offsets from the
    /// first request, in issue order). See [`ArrivalSchedule`].
    pub fn arrival_schedule(&self) -> ArrivalSchedule {
        ArrivalSchedule::from_trace(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{IoRequest, Op};
    use fc_simkit::SimTime;

    fn req(at_ms: u64, lpn: u64) -> IoRequest {
        IoRequest {
            at: SimTime::from_millis(at_ms),
            lpn,
            pages: 1,
            op: Op::Write,
        }
    }

    #[test]
    fn offsets_are_relative_to_first_arrival() {
        let mut t = Trace::new("t");
        t.push(req(100, 0));
        t.push(req(130, 1));
        t.push(req(190, 2));
        let s = t.arrival_schedule();
        assert_eq!(s.len(), 3);
        assert_eq!(s.offset(0), Some(SimDuration::ZERO));
        assert_eq!(s.offset(1), Some(SimDuration::from_millis(30)));
        assert_eq!(s.offset(2), Some(SimDuration::from_millis(90)));
        assert_eq!(s.span(), SimDuration::from_millis(90));
    }

    #[test]
    fn empty_and_single_request_schedules_are_well_defined() {
        let empty = Trace::new("e").arrival_schedule();
        assert!(empty.is_empty());
        assert_eq!(empty.span(), SimDuration::ZERO);
        assert_eq!(empty.offset(0), None);

        let mut one = Trace::new("one");
        one.push(req(500, 7));
        let s = one.arrival_schedule();
        assert_eq!(s.len(), 1);
        assert_eq!(s.offset(0), Some(SimDuration::ZERO));
        assert_eq!(s.span(), SimDuration::ZERO);
    }

    #[test]
    fn scaling_compresses_offsets() {
        let mut t = Trace::new("t");
        t.push(req(0, 0));
        t.push(req(1000, 1));
        let fast = t.arrival_schedule().scaled(10.0);
        assert_eq!(fast.offset(1), Some(SimDuration::from_millis(100)));
        let slow = t.arrival_schedule().scaled(0.5);
        assert_eq!(slow.offset(1), Some(SimDuration::from_millis(2000)));
    }

    #[test]
    fn schedule_offsets_are_monotone_for_synthetic_traces() {
        let t = crate::SyntheticSpec::mix(1 << 14)
            .with_requests(500)
            .generate(11);
        let s = t.arrival_schedule();
        assert_eq!(s.len(), 500);
        for w in s.offsets().windows(2) {
            assert!(w[1] >= w[0]);
        }
    }
}
