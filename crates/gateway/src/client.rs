//! Synchronous gateway client.
//!
//! One [`GatewayClient`] is one session: a Hello handshake, then
//! request/reply I/O. The blocking helpers ([`GatewayClient::write`],
//! [`GatewayClient::read`], …) issue one request and wait for its reply;
//! the pipelined half ([`GatewayClient::send_write`] /
//! [`GatewayClient::recv_reply`]) lets a load generator keep many requests
//! in flight — the gateway replies in receive order per session, so ids
//! come back in issue order.

use std::time::{Duration, Instant};

use bytes::Bytes;
use fc_cluster::{Link, LinkClosed};

use crate::proto::{ErrorCode, Reply, Request, PROTO_VERSION};

/// Client-side failure modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// The gateway shed this request (admission control). Retry later.
    Busy,
    /// Every replica of a shard this request touched is down (proto v2);
    /// retry after the hinted delay — resends are exactly-once at the
    /// nodes.
    Unavailable { retry_after_ms: u32 },
    /// The gateway refused the request outright.
    Rejected(ErrorCode),
    /// No reply within the client's timeout.
    TimedOut,
    /// Transport gone: gateway shut down or socket error.
    Disconnected,
    /// The gateway answered with a reply that doesn't match the request.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Busy => write!(f, "shed by admission control"),
            ClientError::Unavailable { retry_after_ms } => {
                write!(f, "shard unavailable, retry after {retry_after_ms} ms")
            }
            ClientError::Rejected(c) => write!(f, "rejected: {}", c.name()),
            ClientError::TimedOut => write!(f, "timed out waiting for reply"),
            ClientError::Disconnected => write!(f, "gateway disconnected"),
            ClientError::Protocol(m) => write!(f, "protocol violation: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// Outcome of an acknowledged write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteAck {
    /// Pages made durable.
    pub pages: u32,
    /// True when every page was replicated to the peer's remote buffer.
    pub replicated: bool,
}

/// A reply of the wrong kind for its request.
fn unexpected(want: &str, got: &Reply) -> ClientError {
    ClientError::Protocol(format!("expected {want}, got id {}", got.id()))
}

/// One client session against a gateway. Over TCP, replies are read off
/// the socket by the thread that waits for them.
pub struct GatewayClient {
    link: Link<Request, Reply>,
    client_id: u64,
    next_id: u64,
    timeout: Duration,
}

impl GatewayClient {
    /// Wrap the client half of an in-memory session (see
    /// [`Gateway::connect_mem`](crate::Gateway::connect_mem)).
    pub fn from_mem(link: Link<Request, Reply>, client_id: u64) -> GatewayClient {
        GatewayClient::over(link, client_id)
    }

    /// Connect over TCP to a gateway started with
    /// [`Gateway::listen_tcp`](crate::Gateway::listen_tcp).
    pub fn connect_tcp(
        addr: std::net::SocketAddr,
        client_id: u64,
    ) -> std::io::Result<GatewayClient> {
        Ok(GatewayClient::over(Link::connect(addr)?, client_id))
    }

    fn over(link: Link<Request, Reply>, client_id: u64) -> GatewayClient {
        GatewayClient {
            link,
            client_id,
            next_id: 1,
            timeout: Duration::from_secs(10),
        }
    }

    /// Reply-wait budget for the blocking helpers (default 10 s).
    pub fn set_timeout(&mut self, timeout: Duration) {
        self.timeout = timeout;
    }

    /// The id this session presents to the gateway.
    pub fn client_id(&self) -> u64 {
        self.client_id
    }

    fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    fn send(&self, req: Request) -> Result<(), ClientError> {
        self.link
            .send(req)
            .map_err(|LinkClosed| ClientError::Disconnected)
    }

    /// Receive the next reply, waiting up to `timeout`.
    pub fn recv_reply(&self, timeout: Duration) -> Result<Reply, ClientError> {
        match self.link.recv_timeout(timeout) {
            Ok(Some(reply)) => Ok(reply),
            Ok(None) => Err(ClientError::TimedOut),
            Err(LinkClosed) => Err(ClientError::Disconnected),
        }
    }

    /// Wait for the reply to request `id`, skipping stale replies. Ids are
    /// issued monotonically, so a lower id is a late answer to an earlier
    /// attempt the client already gave up on (timeout, retry) — dropped
    /// rather than surfaced as a protocol violation.
    fn recv_matching(&self, id: u64, deadline: Instant) -> Result<Reply, ClientError> {
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            let reply = self.recv_reply(remaining)?;
            if reply.id() < id {
                continue;
            }
            if reply.id() != id {
                return Err(ClientError::Protocol(format!(
                    "reply id {} for request id {id}",
                    reply.id()
                )));
            }
            if let Reply::Error { code, .. } = reply {
                return Err(match code {
                    ErrorCode::Busy => ClientError::Busy,
                    other => ClientError::Rejected(other),
                });
            }
            if let Reply::Unavailable { retry_after_ms, .. } = reply {
                return Err(ClientError::Unavailable { retry_after_ms });
            }
            return Ok(reply);
        }
    }

    fn call(&mut self, req: Request) -> Result<Reply, ClientError> {
        let id = req.id();
        self.send(req)?;
        self.recv_matching(id, Instant::now() + self.timeout)
    }

    /// Open the session: version handshake. Must be the first call.
    pub fn hello(&mut self) -> Result<u32, ClientError> {
        self.send(Request::Hello {
            version: PROTO_VERSION,
            client: self.client_id,
        })?;
        match self.recv_reply(self.timeout)? {
            Reply::HelloOk { max_inflight, .. } => Ok(max_inflight),
            Reply::Error { code, .. } => Err(ClientError::Rejected(code)),
            other => Err(unexpected("HelloOk", &other)),
        }
    }

    /// Write consecutive pages starting at `lpn`; blocks until durable.
    pub fn write(&mut self, lpn: u64, pages: Vec<Bytes>) -> Result<WriteAck, ClientError> {
        let id = self.fresh_id();
        match self.call(Request::Write { id, lpn, pages })? {
            Reply::WriteOk {
                pages, replicated, ..
            } => Ok(WriteAck { pages, replicated }),
            other => Err(unexpected("WriteOk", &other)),
        }
    }

    /// Read `pages` consecutive pages starting at `lpn`.
    pub fn read(&mut self, lpn: u64, pages: u32) -> Result<Vec<Option<Bytes>>, ClientError> {
        let id = self.fresh_id();
        match self.call(Request::Read { id, lpn, pages })? {
            Reply::ReadOk { pages, .. } => Ok(pages),
            other => Err(unexpected("ReadOk", &other)),
        }
    }

    /// Trim `pages` consecutive pages starting at `lpn`.
    pub fn trim(&mut self, lpn: u64, pages: u32) -> Result<u32, ClientError> {
        let id = self.fresh_id();
        match self.call(Request::Trim { id, lpn, pages })? {
            Reply::TrimOk { pages, .. } => Ok(pages),
            other => Err(unexpected("TrimOk", &other)),
        }
    }

    /// Durability barrier; returns the number of pages destaged.
    pub fn flush(&mut self) -> Result<u64, ClientError> {
        let id = self.fresh_id();
        match self.call(Request::Flush { id })? {
            Reply::FlushOk { flushed, .. } => Ok(flushed),
            other => Err(unexpected("FlushOk", &other)),
        }
    }

    // -- retrying helpers --------------------------------------------------

    /// Issue `req` and wait for its reply, retrying until `deadline`:
    /// `Busy` backs off briefly, `Unavailable` honors the gateway's
    /// `retry_after_ms` hint, and a reply timeout resends immediately.
    /// The request keeps its id across attempts, so a late reply to an
    /// earlier attempt answers the retry, and resent writes hit the
    /// node-side dedup window instead of double-applying.
    pub fn send_with_retry(
        &mut self,
        req: Request,
        deadline: Instant,
    ) -> Result<Reply, ClientError> {
        let id = req.id();
        let mut backoff = Duration::from_millis(1);
        loop {
            let now = Instant::now();
            if now >= deadline {
                return Err(ClientError::TimedOut);
            }
            // The one copy a request costs: it may be sent again.
            self.send(req.clone())?;
            let wait = now + self.timeout.min(deadline - now);
            let pause = match self.recv_matching(id, wait) {
                Ok(reply) => return Ok(reply),
                Err(ClientError::TimedOut) => Duration::ZERO,
                Err(ClientError::Busy) => {
                    let p = backoff;
                    backoff = (backoff * 2).min(Duration::from_millis(50));
                    p
                }
                Err(ClientError::Unavailable { retry_after_ms }) => {
                    Duration::from_millis(u64::from(retry_after_ms))
                }
                Err(other) => return Err(other),
            };
            let remaining = deadline.saturating_duration_since(Instant::now());
            if !pause.is_zero() {
                std::thread::sleep(pause.min(remaining));
            }
        }
    }

    /// [`GatewayClient::write`] with [`GatewayClient::send_with_retry`]
    /// semantics: blocks until acked or `deadline`.
    pub fn write_with_retry(
        &mut self,
        lpn: u64,
        pages: Vec<Bytes>,
        deadline: Instant,
    ) -> Result<WriteAck, ClientError> {
        let id = self.fresh_id();
        match self.send_with_retry(Request::Write { id, lpn, pages }, deadline)? {
            Reply::WriteOk {
                pages, replicated, ..
            } => Ok(WriteAck { pages, replicated }),
            other => Err(unexpected("WriteOk", &other)),
        }
    }

    /// [`GatewayClient::read`] with [`GatewayClient::send_with_retry`]
    /// semantics: blocks until served or `deadline`.
    pub fn read_with_retry(
        &mut self,
        lpn: u64,
        pages: u32,
        deadline: Instant,
    ) -> Result<Vec<Option<Bytes>>, ClientError> {
        let id = self.fresh_id();
        match self.send_with_retry(Request::Read { id, lpn, pages }, deadline)? {
            Reply::ReadOk { pages, .. } => Ok(pages),
            other => Err(unexpected("ReadOk", &other)),
        }
    }

    // -- pipelined half ----------------------------------------------------

    /// Fire-and-forget write: send without waiting. Returns the request id;
    /// collect the reply later with [`GatewayClient::recv_reply`].
    pub fn send_write(&mut self, lpn: u64, pages: Vec<Bytes>) -> Result<u64, ClientError> {
        let id = self.fresh_id();
        self.send(Request::Write { id, lpn, pages })?;
        Ok(id)
    }

    /// Fire-and-forget read.
    pub fn send_read(&mut self, lpn: u64, pages: u32) -> Result<u64, ClientError> {
        let id = self.fresh_id();
        self.send(Request::Read { id, lpn, pages })?;
        Ok(id)
    }

    /// Fire-and-forget trim.
    pub fn send_trim(&mut self, lpn: u64, pages: u32) -> Result<u64, ClientError> {
        let id = self.fresh_id();
        self.send(Request::Trim { id, lpn, pages })?;
        Ok(id)
    }
}
