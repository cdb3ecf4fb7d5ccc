//! One client thread: issue requests through a `GatewayClient`, settle the
//! replies against the oracle, in a closed loop or on a schedule.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use bytes::Bytes;
use fc_gateway::{ClientError, GatewayClient, Reply};
use fc_trace::{IoRequest, Op};

use crate::oracle::{payload, Oracle};
use crate::probes::{Span, SpanSink, CLIENT_REQUEST};
use crate::workloads::{LATE_NS, PAGES_PER_BLOCK};

/// How long a client waits for one reply before giving the request up.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sent {
    Write { lpn: u64, pages: u32, seq: u64 },
    Read { lpn: u64 },
    Trim { lpn: u64, pages: u32 },
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub issued: u64,
    pub acked: u64,
    /// Refused (`Busy`, `Unavailable`), errored, timed out, or answered
    /// with pages that do not match the oracle.
    pub failed: u64,
    pub pages_written: u64,
}

impl Tally {
    pub fn absorb(&mut self, other: &Tally) {
        self.issued += other.issued;
        self.acked += other.acked;
        self.failed += other.failed;
        self.pages_written += other.pages_written;
    }
}

pub struct Client {
    pub idx: u32,
    gw: GatewayClient,
    pub oracle: Oracle,
    /// Tag of the next write's payload; 0 is the prefill's.
    next_seq: u64,
    /// Sent, not yet answered; the gateway replies in issue order.
    pending: VecDeque<(u64, Sent)>,
    pub tally: Tally,
}

/// Did the settled request succeed, and was it a write?
struct Settled {
    ok: bool,
    write: bool,
}

impl Client {
    pub fn new(idx: u32, gw: GatewayClient, oracle: Oracle) -> Client {
        Client {
            idx,
            gw,
            oracle,
            next_seq: 1,
            pending: VecDeque::new(),
            tally: Tally::default(),
        }
    }

    pub fn hello(&mut self) -> Result<(), ClientError> {
        self.gw.hello().map(|_| ())
    }

    /// Durability barrier through the front door.
    pub fn flush(&mut self) -> Result<u64, ClientError> {
        self.gw.flush()
    }

    /// Send one trace request, its address moved into this client's window.
    fn send(&mut self, r: &IoRequest) -> Result<u64, ClientError> {
        let lpn = self.oracle.base() + r.lpn;
        self.tally.issued += 1;
        let (id, sent) = match r.op {
            Op::Write => {
                let seq = self.next_seq;
                self.next_seq += 1;
                let pages: Vec<Bytes> = (0..u64::from(r.pages))
                    .map(|i| payload(self.idx, lpn + i, seq))
                    .collect();
                let pages_n = r.pages;
                (
                    self.gw.send_write(lpn, pages)?,
                    Sent::Write {
                        lpn,
                        pages: pages_n,
                        seq,
                    },
                )
            }
            Op::Read => (self.gw.send_read(lpn, r.pages)?, Sent::Read { lpn }),
            Op::Trim => (
                self.gw.send_trim(lpn, r.pages)?,
                Sent::Trim {
                    lpn,
                    pages: r.pages,
                },
            ),
        };
        self.pending.push_back((id, sent));
        Ok(id)
    }

    /// Wait for the oldest pending request's reply and settle it.
    fn settle(&mut self, timeout: Duration) -> Result<Settled, ClientError> {
        let reply = self.gw.recv_reply(timeout)?;
        let (id, sent) = self.pending.pop_front().expect("a reply needs a request");
        let write = matches!(sent, Sent::Write { .. });
        let ok = reply.id() == id
            && match (sent, reply) {
                (Sent::Write { lpn, pages, seq }, Reply::WriteOk { pages: n, .. })
                    if n == pages =>
                {
                    self.oracle.wrote(lpn, pages, seq);
                    self.tally.pages_written += u64::from(pages);
                    true
                }
                (Sent::Read { lpn }, Reply::ReadOk { pages, .. }) => {
                    self.oracle.mismatches(lpn, &pages) == 0
                }
                (Sent::Trim { lpn, pages }, Reply::TrimOk { .. }) => {
                    self.oracle.trimmed(lpn, pages);
                    true
                }
                _ => false,
            };
        if ok {
            self.tally.acked += 1;
        } else {
            self.tally.failed += 1;
        }
        Ok(Settled { ok, write })
    }

    /// A dead link fails everything still pending.
    fn abandon(&mut self) {
        self.tally.failed += self.pending.len() as u64;
        self.pending.clear();
    }

    /// Closed loop: issue, wait, issue — until `until` or the end of
    /// `reqs`. Returns the requests acknowledged. With a recording `sink`,
    /// each request is a `client.request` span, send → reply.
    pub fn closed<'a>(
        &mut self,
        reqs: &mut impl Iterator<Item = &'a IoRequest>,
        until: Instant,
        sink: Option<&SpanSink>,
    ) -> u64 {
        let mut acked = 0;
        while Instant::now() < until {
            let Some(r) = reqs.next() else { break };
            let start_ns = sink.map(SpanSink::now_ns);
            let settled = self
                .send(r)
                .and_then(|id| Ok((id, self.settle(REPLY_TIMEOUT)?)));
            match settled {
                Ok((id, s)) => {
                    acked += u64::from(s.ok);
                    if let (Some(sink), Some(start_ns)) = (sink, start_ns) {
                        sink.push(Span {
                            name: CLIENT_REQUEST,
                            start_ns,
                            end_ns: sink.now_ns(),
                            req: Some((self.idx, id)),
                        });
                    }
                }
                Err(_) => {
                    self.abandon();
                    break;
                }
            }
        }
        acked
    }

    /// Open loop: request `i` is due at `schedule.due_ns(i)` after `start`
    /// and is sent then, answered or not; its latency runs from the
    /// instant it was due.
    pub fn paced(&mut self, reqs: &[IoRequest], start: Instant, schedule: Schedule) -> Paced {
        let mut out = Paced::default();
        let mut dues: VecDeque<u64> = VecDeque::new();
        let mut next = 0;
        let now_ns = || start.elapsed().as_nanos() as u64;
        while next < reqs.len() || !self.pending.is_empty() {
            let mut now = now_ns();
            while next < reqs.len() && schedule.due_ns(next) <= now {
                let due = schedule.due_ns(next);
                if self.send(&reqs[next]).is_err() {
                    self.abandon();
                    return out;
                }
                dues.push_back(due);
                out.sent(now, due, self.pending.len());
                next += 1;
                now = now_ns();
            }
            let wait = if next < reqs.len() {
                Duration::from_nanos(schedule.due_ns(next).saturating_sub(now))
            } else {
                REPLY_TIMEOUT
            };
            if self.pending.is_empty() {
                std::thread::sleep(wait);
                continue;
            }
            match self.settle(wait) {
                Ok(s) => {
                    let due = dues.pop_front().expect("one due time per pending request");
                    if s.ok {
                        out.answered(now_ns().saturating_sub(due), s.write);
                    }
                }
                Err(ClientError::TimedOut) if next < reqs.len() => {}
                Err(_) => {
                    self.abandon();
                    return out;
                }
            }
        }
        out
    }

    /// Read repeat `repeat`'s share of the window back through the gateway
    /// (see [`Oracle::read_back_runs`]). Returns the pages read and how
    /// many of them do not match the oracle; an unreadable page does not.
    pub fn verify(&mut self, repeat: u64) -> (u64, u64) {
        let (mut pages, mut bad) = (0, 0);
        for (lpn, n) in self.oracle.read_back_runs(PAGES_PER_BLOCK, repeat) {
            pages += u64::from(n);
            bad += match self.gw.read(lpn, n) {
                Ok(got) if got.len() == n as usize => self.oracle.mismatches(lpn, &got),
                _ => u64::from(n),
            };
        }
        (pages, bad)
    }
}

/// Evenly spaced due times: request `i` is due `offset + i * period` after
/// the phase starts. The two clients run half a period apart.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub period_ns: u64,
    pub offset_ns: u64,
}

impl Schedule {
    /// Client `idx` of `clients` sharing `req_per_s` evenly.
    pub fn split(req_per_s: f64, clients: usize, idx: usize) -> Schedule {
        let period_ns = (clients as f64 * 1e9 / req_per_s) as u64;
        Schedule {
            period_ns,
            offset_ns: period_ns * idx as u64 / clients as u64,
        }
    }

    pub fn due_ns(&self, i: usize) -> u64 {
        self.offset_ns + self.period_ns * i as u64
    }

    /// Requests due within `seconds`.
    pub fn count_in(&self, seconds: f64) -> usize {
        ((seconds * 1e9) as u64)
            .saturating_sub(self.offset_ns)
            .div_ceil(self.period_ns) as usize
    }
}

/// One client's paced phase.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Paced {
    pub write_ns: Vec<u64>,
    pub read_ns: Vec<u64>,
    pub sent: u64,
    /// Sent more than [`LATE_NS`] after they were due.
    pub late: u64,
    /// Most requests unanswered at once.
    pub backlog_max: usize,
    /// Requests unanswered when the last one was sent.
    pub backlog_end: usize,
}

impl Paced {
    fn sent(&mut self, now_ns: u64, due_ns: u64, backlog: usize) {
        self.sent += 1;
        self.late += u64::from(now_ns.saturating_sub(due_ns) > LATE_NS);
        self.backlog_max = self.backlog_max.max(backlog);
        self.backlog_end = backlog;
    }

    fn answered(&mut self, since_due_ns: u64, write: bool) {
        if write {
            self.write_ns.push(since_due_ns);
        } else {
            self.read_ns.push(since_due_ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_splits_the_rate_and_staggers_the_clients() {
        // 2000 req/s over 2 clients: each sends every 1 ms, half a period apart.
        let a = Schedule::split(2000.0, 2, 0);
        let b = Schedule::split(2000.0, 2, 1);
        assert_eq!((a.period_ns, a.offset_ns), (1_000_000, 0));
        assert_eq!((b.period_ns, b.offset_ns), (1_000_000, 500_000));
        assert_eq!(a.due_ns(0), 0);
        assert_eq!(a.due_ns(3), 3_000_000);
        assert_eq!(b.due_ns(3), 3_500_000);
        // Due times inside [0, 4 ms): 0,1,2,3 and 0.5,1.5,2.5,3.5.
        assert_eq!(a.count_in(0.004), 4);
        assert_eq!(b.count_in(0.004), 4);
        assert_eq!(b.count_in(0.0036), 4);
        assert_eq!(b.count_in(0.0035), 3);
        assert_eq!(a.due_ns(a.count_in(0.004) - 1), 3_000_000);
    }

    #[test]
    fn lateness_and_backlog_accounting() {
        let mut p = Paced::default();
        p.sent(1_000, 1_000, 1); // on time
        p.sent(2_000_000, 1_000_000, 2); // exactly 1 ms after due: not late
        p.sent(3_000_001, 2_000_000, 5); // a nanosecond more: late
        p.sent(3_500_000, 3_000_000, 3);
        assert_eq!((p.sent, p.late), (4, 1));
        assert_eq!((p.backlog_max, p.backlog_end), (5, 3));
        // Latency counts from the due time, so a late send is not forgiven.
        p.answered(1_500_000, true);
        p.answered(200_000, false);
        assert_eq!(p.write_ns, vec![1_500_000]);
        assert_eq!(p.read_ns, vec![200_000]);
    }

    #[test]
    fn tallies_add_up() {
        let mut t = Tally {
            issued: 3,
            acked: 2,
            failed: 1,
            pages_written: 9,
        };
        t.absorb(&Tally {
            issued: 1,
            acked: 1,
            failed: 0,
            pages_written: 4,
        });
        assert_eq!(
            (t.issued, t.acked, t.failed, t.pages_written),
            (4, 3, 1, 13)
        );
    }
}
