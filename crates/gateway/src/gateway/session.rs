//! One client session: the Hello exchange, the gate every request passes
//! (validation + admission), the batch window, in-order replies — all
//! reached from one step ([`SessionStep::run`]), which whoever drives the
//! session calls: the client of an in-memory link as it waits for a reply,
//! or a TCP session's own thread in a loop.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use fc_cluster::PEER_NS;
use fc_obs::Counter;

use super::failover::Unavail;
use super::Gateway;
use crate::admission::{Permit, ShedReason};
use crate::batch::WriteSpan;
use crate::conn::{LinkClosed, SessionLink};
use crate::proto::{ErrorCode, Reply, Request, PROTO_VERSION};

/// How long a session thread's step waits for a request (also the
/// shutdown latency bound of a threaded session).
pub(super) const SESSION_POLL: Duration = Duration::from_millis(25);

/// Max additional pipelined writes drained into one batch window.
const BATCH_WINDOW: usize = 32;

/// One session from its start to its end. Built when the session is
/// served, it counts the end when dropped.
pub(super) struct SessionStep {
    gw: Arc<Gateway>,
    /// The client's id, once its Hello was accepted.
    client: Option<u64>,
    /// A non-write the batch window drained out, served next so replies
    /// keep receive order.
    carried: Option<Request>,
}

impl SessionStep {
    pub(super) fn start(gw: Arc<Gateway>) -> SessionStep {
        gw.ins.sessions_started.inc();
        gw.note("session_start", |e| e);
        SessionStep {
            gw,
            client: None,
            carried: None,
        }
    }

    /// Serve every request that reaches `link` within `wait` of the one
    /// before: the Hello exchange until it succeeds, then
    /// [`Session::handle`]. False once the session is over — the gateway
    /// shut down, the client hung up, or its version was refused.
    pub(super) fn run(&mut self, link: &dyn SessionLink, wait: Duration) -> bool {
        while !self.gw.shutdown.load(Ordering::SeqCst) {
            let req = match self.carried.take() {
                Some(r) => r,
                None => match link.recv_timeout(wait) {
                    Ok(Some(r)) => r,
                    Ok(None) => return true,
                    Err(_) => return false,
                },
            };
            let served = match self.client {
                None => self.greet(link, req),
                Some(client) => {
                    let session = Session {
                        gw: &self.gw,
                        link,
                        client,
                    };
                    session.handle(req).map(|next| self.carried = next).is_ok()
                }
            };
            if !served {
                return false;
            }
        }
        false
    }

    /// The handshake state: the first request must be a Hello at
    /// [`PROTO_VERSION`]; I/O before it is refused and the session keeps
    /// waiting for it. False when the session is over.
    fn greet(&mut self, link: &dyn SessionLink, req: Request) -> bool {
        let gw = &self.gw;
        let reply = match req {
            Request::Hello { version, client } if version == PROTO_VERSION => {
                self.client = Some(client);
                let max_inflight = gw.admission.config().max_inflight;
                Reply::HelloOk {
                    version,
                    max_inflight,
                }
            }
            Request::Hello { .. } => {
                gw.ins.bad_requests.inc();
                gw.note("bad_request", |e| e.str_field("why", "version"));
                let _ = link.send(Reply::Error {
                    id: 0,
                    code: ErrorCode::BadVersion,
                });
                return false;
            }
            other => {
                gw.ins.bad_requests.inc();
                Reply::Error {
                    id: other.id(),
                    code: ErrorCode::BadRequest,
                }
            }
        };
        link.send(reply).is_ok()
    }
}

impl Drop for SessionStep {
    fn drop(&mut self) {
        self.gw.ins.sessions_ended.inc();
        match self.client {
            Some(client) => self
                .gw
                .note("session_end", |e| e.u64_field("client", client)),
            None => self.gw.note("session_end", |e| e),
        }
    }
}

/// `[lpn, lpn + pages)` is a span a client may name: 1 to `max_req_pages`
/// pages, no wrap past `u64::MAX`, and wholly below the nodes' [`PEER_NS`]
/// namespace — a page up there would be trimmed by the next recovery Purge
/// and skipped by migration.
fn valid_span(gw: &Gateway, lpn: u64, pages: u64) -> bool {
    (1..=u64::from(gw.cfg.max_req_pages)).contains(&pages)
        && lpn.checked_add(pages).is_some_and(|end| end <= PEER_NS)
}

/// Publish the in-flight count after a permit was taken or released.
fn gauge_inflight(gw: &Gateway) {
    let inflight = gw.admission.inflight();
    gw.ins.inflight_gauge.set_u64(u64::from(inflight));
}

/// The one way in for a request: count it, refuse an in`valid` one
/// (`BadRequest`), and pass the rest through admission (`Busy` when shed).
/// `Err` is the reply the request gets instead of service.
fn gate(gw: &Gateway, client: u64, id: u64, valid: bool) -> Result<Permit, Reply> {
    let ins = &gw.ins;
    ins.requests.inc();
    if !valid {
        ins.bad_requests.inc();
        let code = ErrorCode::BadRequest;
        return Err(Reply::Error { id, code });
    }
    match gw.admission.try_admit(client, gw.now_nanos()) {
        Ok(permit) => {
            ins.admitted.inc();
            gauge_inflight(gw);
            Ok(permit)
        }
        Err(reason) => {
            ins.shed_total.inc();
            match reason {
                ShedReason::RateLimited => ins.shed_rate_limited.inc(),
                ShedReason::QueueFull => ins.shed_queue_full.inc(),
            }
            gw.note("shed", |e| {
                e.u64_field("client", client)
                    .str_field("reason", reason.name())
            });
            let code = ErrorCode::Busy;
            Err(Reply::Error { id, code })
        }
    }
}

/// One established session: who is asking, over what.
struct Session<'a> {
    gw: &'a Gateway,
    link: &'a dyn SessionLink,
    client: u64,
}

impl Session<'_> {
    /// Process one request (and, for writes, a drained batch of pipelined
    /// writes behind it). Returns a non-write request drained out of the
    /// batch window, which the caller must process next — preserving reply
    /// order.
    fn handle(&self, req: Request) -> Result<Option<Request>, LinkClosed> {
        let gw = self.gw;
        let client = self.client;
        match req {
            Request::Hello { .. } => {
                // Duplicate handshake: harmless, re-ack.
                self.link.send(Reply::HelloOk {
                    version: PROTO_VERSION,
                    max_inflight: gw.admission.config().max_inflight,
                })?;
            }
            Request::Write { id, lpn, pages } => return self.write_batch(id, lpn, pages),
            Request::Read { id, lpn, pages } => self.serve(
                id,
                valid_span(gw, lpn, u64::from(pages)),
                &gw.ins.reads,
                || gw.do_read(client, lpn, pages),
                |pages| Reply::ReadOk { id, pages },
            )?,
            Request::Trim { id, lpn, pages } => self.serve(
                id,
                valid_span(gw, lpn, u64::from(pages)),
                &gw.ins.trims,
                || gw.do_trim(client, lpn, pages),
                |()| Reply::TrimOk { id, pages },
            )?,
            Request::Flush { id } => self.serve(
                id,
                true,
                &gw.ins.flushes,
                || gw.do_flush(),
                |flushed| {
                    gw.note("flush", |e| {
                        e.u64_field("client", client).u64_field("pages", flushed)
                    });
                    Reply::FlushOk { id, flushed }
                },
            )?,
        }
        Ok(None)
    }

    /// One non-write request end to end: through the [`gate`], run `op`
    /// under the permit, count it in `served`, and answer with `ok`'s reply
    /// or the one `Unavailable` mapping.
    fn serve<T>(
        &self,
        id: u64,
        valid: bool,
        served: &Counter,
        op: impl FnOnce() -> Result<T, Unavail>,
        ok: impl FnOnce(T) -> Reply,
    ) -> Result<(), LinkClosed> {
        let gw = self.gw;
        let permit = match gate(gw, self.client, id, valid) {
            Ok(permit) => permit,
            Err(refusal) => return self.link.send(refusal),
        };
        let started = Instant::now();
        let result = op();
        served.inc();
        gw.ins
            .latency_ns
            .record(started.elapsed().as_nanos() as u64);
        drop(permit);
        gauge_inflight(gw);
        self.link.send(match result {
            Ok(v) => ok(v),
            Err(u) => u.reply(id),
        })
    }

    /// Validate + admit the head write, drain up to `BATCH_WINDOW`
    /// pipelined writes behind it (each individually validated and
    /// admitted), coalesce the admitted ones into runs, submit, then reply
    /// to every batched write in receive order. If submission aborts on an
    /// all-replicas-down shard, every admitted write in the batch is
    /// answered `Unavailable` — a conservative blanket (some runs may have
    /// applied) made safe by the dedup tags: the client's resend of an
    /// already-applied run is a no-op.
    fn write_batch(
        &self,
        id: u64,
        lpn: u64,
        pages: Vec<Bytes>,
    ) -> Result<Option<Request>, LinkClosed> {
        let gw = self.gw;
        let ins = &gw.ins;
        let started = Instant::now();
        let mut window = WriteWindow::default();
        let mut carried: Option<Request> = None;

        window.consider(gw, self.client, id, lpn, pages);

        // Batch window: drain writes the client already pipelined. A
        // non-write is carried out to the caller so replies stay in receive
        // order.
        while window.admitted <= BATCH_WINDOW {
            match self.link.recv_timeout(Duration::ZERO) {
                Ok(Some(Request::Write { id, lpn, pages })) => {
                    window.consider(gw, self.client, id, lpn, pages);
                }
                Ok(Some(other)) => {
                    carried = Some(other);
                    break;
                }
                Ok(None) => break,
                Err(_) => break, // reply to what we already took first
            }
        }

        let submitted = gw.submit_writes(self.client, window.flat, &window.spans);

        if window.admitted > 0 {
            ins.writes.add(window.admitted as u64);
            ins.batches.inc();
            ins.latency_ns.record(started.elapsed().as_nanos() as u64);
        }

        for w in &window.batch {
            self.link.send(match w {
                Err(refusal) => refusal.clone(),
                Ok((id, pages, _permit)) => match submitted {
                    Err(u) => u.reply(*id),
                    Ok(replicated) => Reply::WriteOk {
                        id: *id,
                        pages: *pages,
                        replicated,
                    },
                },
            })?;
        }
        drop(window.batch); // releases every admitted permit
        gauge_inflight(gw);
        Ok(carried)
    }
}

/// The writes of one batch window and what their admitted pages flatten to.
#[derive(Default)]
struct WriteWindow {
    /// Every write received, in receive order — the order replies are sent
    /// in after submission, which clients correlate ids by: an admitted
    /// one's `(id, pages, permit)`, or the refusal the [`gate`] gave it.
    batch: Vec<Result<(u64, u32, Permit), Reply>>,
    flat: Vec<(u64, Bytes)>,
    /// One span per admitted write, in receive order — the source of each
    /// run's dedup tag and pre-coalesce page count
    /// ([`crate::batch::run_origin`]).
    spans: Vec<WriteSpan>,
    admitted: usize,
}

impl WriteWindow {
    /// Validate and admit one write; an admitted one's pages join `flat`.
    fn consider(&mut self, gw: &Gateway, client: u64, id: u64, lpn: u64, pages: Vec<Bytes>) {
        let verdict = gate(gw, client, id, valid_span(gw, lpn, pages.len() as u64));
        let n = pages.len() as u32; // <= max_req_pages once the gate passed it
        if verdict.is_ok() {
            self.spans.push(WriteSpan {
                id,
                lpn,
                pages: u64::from(n),
            });
            self.flat.extend((lpn..).zip(pages));
            self.admitted += 1;
        }
        self.batch.push(verdict.map(|permit| (id, n, permit)));
    }
}

#[cfg(test)]
mod tests {
    use crate::{GatewayClient, GatewayConfig, ShardedGateway};
    use fc_ring::RingConfig;
    use std::time::{Duration, Instant};

    fn gateway() -> ShardedGateway {
        ShardedGateway::spawn_mem(GatewayConfig::test_profile(), RingConfig::default(), 1)
    }

    #[test]
    fn ended_sessions_are_reaped_when_the_next_one_is_served() {
        // Only a TCP session has a thread to reap.
        let sg = gateway();
        let gw = sg.gateway();
        let addr = gw.listen_tcp("127.0.0.1:0").unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        for id in 0..50 {
            let mut client = GatewayClient::connect_tcp(addr, id).unwrap();
            client.hello().unwrap();
            drop(client); // hang up
        }
        while gw.stats().sessions_ended < 50 {
            assert!(Instant::now() < deadline, "sessions never ended");
            std::thread::sleep(Duration::from_millis(1));
        }
        // Serving one more reaps them: the list holds the new session plus
        // at most a straggler whose thread had counted its end but not yet
        // returned when `serve` looked (retried, so one slow thread is not
        // a failure).
        let held = loop {
            let mut live = GatewayClient::connect_tcp(addr, 99).unwrap();
            live.hello().unwrap(); // served, so `serve` has looked
            let held = gw.sessions.lock().len();
            if held <= 2 || Instant::now() >= deadline {
                break held;
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        assert!(held <= 2, "{held} session handles held for 1 live session");
        sg.shutdown();
    }

    #[test]
    fn in_memory_sessions_end_with_their_client_and_leave_no_handle() {
        let sg = gateway();
        let gw = sg.gateway();
        for _ in 0..50 {
            let mut client = gw.connect_mem();
            client.hello().unwrap();
            drop(client); // runs the step a last time and ends the session
        }
        let stats = gw.stats();
        assert_eq!((stats.sessions_started, stats.sessions_ended), (50, 50));
        assert_eq!(gw.sessions.lock().len(), 0, "no thread, no handle");
        sg.shutdown();
    }
}
