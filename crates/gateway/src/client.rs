//! Synchronous gateway client.
//!
//! One [`GatewayClient`] is one session: a Hello handshake, then
//! request/reply I/O. The blocking helpers ([`GatewayClient::write`],
//! [`GatewayClient::read`], …) issue one request and wait for its reply;
//! the pipelined half ([`GatewayClient::send_write`] /
//! [`GatewayClient::recv_reply`]) lets a load generator keep many requests
//! in flight — the gateway replies in receive order per session, so ids
//! come back in issue order.

use std::net::TcpStream;
use std::time::{Duration, Instant};

use bytes::{Bytes, BytesMut};
use fc_cluster::FramedLink;

use crate::conn::MemClientConn;
use crate::proto::{decode_reply, encode_request, ErrorCode, Reply, Request, PROTO_VERSION};

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

enum Conn {
    Mem(MemClientConn),
    /// Replies are read off the socket by the thread that waits for them.
    Tcp(FramedLink),
}

/// One client session against a gateway.
pub struct GatewayClient {
    conn: Conn,
    client_id: u64,
    next_id: u64,
    timeout: Duration,
}

impl GatewayClient {
    /// Wrap the client half of an in-memory session (see
    /// [`Gateway::connect_mem`](crate::Gateway::connect_mem)).
    pub fn from_mem(conn: MemClientConn, client_id: u64) -> GatewayClient {
        GatewayClient {
            conn: Conn::Mem(conn),
            client_id,
            next_id: 1,
            timeout: Duration::from_secs(10),
        }
    }

    /// Connect over TCP to a gateway started with
    /// [`Gateway::listen_tcp`](crate::Gateway::listen_tcp).
    pub fn connect_tcp(
        addr: std::net::SocketAddr,
        client_id: u64,
    ) -> std::io::Result<GatewayClient> {
        Ok(GatewayClient {
            conn: Conn::Tcp(FramedLink::new(TcpStream::connect(addr)?)?),
            client_id,
            next_id: 1,
            timeout: Duration::from_secs(10),
        })
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

    fn send(&self, req: &Request) -> Result<(), ClientError> {
        match &self.conn {
            Conn::Mem(m) => {
                m.tx.send(req.clone())
                    .map_err(|_| ClientError::Disconnected)
            }
            Conn::Tcp(link) => {
                let mut buf = BytesMut::new();
                encode_request(req, &mut buf);
                link.send(&buf).map_err(|_| ClientError::Disconnected)
            }
        }
    }

    /// Receive the next reply, waiting up to `timeout`.
    pub fn recv_reply(&self, timeout: Duration) -> Result<Reply, ClientError> {
        let reply = match &self.conn {
            Conn::Mem(m) => m.recv_timeout(timeout).map_err(drop),
            Conn::Tcp(link) => link.recv(timeout, decode_reply).map_err(drop),
        };
        match reply {
            Ok(Some(reply)) => Ok(reply),
            Ok(None) => Err(ClientError::TimedOut),
            Err(()) => Err(ClientError::Disconnected),
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
        self.send(&req)?;
        self.recv_matching(id, Instant::now() + self.timeout)
    }

    /// Open the session: version handshake. Must be the first call.
    pub fn hello(&mut self) -> Result<u32, ClientError> {
        self.send(&Request::Hello {
            version: PROTO_VERSION,
            client: self.client_id,
        })?;
        match self.recv_reply(self.timeout)? {
            Reply::HelloOk { max_inflight, .. } => Ok(max_inflight),
            Reply::Error { code, .. } => Err(ClientError::Rejected(code)),
            other => Err(ClientError::Protocol(format!(
                "expected HelloOk, got id {}",
                other.id()
            ))),
        }
    }

    /// Write consecutive pages starting at `lpn`; blocks until durable.
    pub fn write(&mut self, lpn: u64, pages: Vec<Bytes>) -> Result<WriteAck, ClientError> {
        let id = self.fresh_id();
        match self.call(Request::Write { id, lpn, pages })? {
            Reply::WriteOk {
                pages, replicated, ..
            } => Ok(WriteAck { pages, replicated }),
            other => Err(ClientError::Protocol(format!(
                "expected WriteOk, got id {}",
                other.id()
            ))),
        }
    }

    /// Read `pages` consecutive pages starting at `lpn`.
    pub fn read(&mut self, lpn: u64, pages: u32) -> Result<Vec<Option<Bytes>>, ClientError> {
        let id = self.fresh_id();
        match self.call(Request::Read { id, lpn, pages })? {
            Reply::ReadOk { pages, .. } => Ok(pages),
            other => Err(ClientError::Protocol(format!(
                "expected ReadOk, got id {}",
                other.id()
            ))),
        }
    }

    /// Trim `pages` consecutive pages starting at `lpn`.
    pub fn trim(&mut self, lpn: u64, pages: u32) -> Result<u32, ClientError> {
        let id = self.fresh_id();
        match self.call(Request::Trim { id, lpn, pages })? {
            Reply::TrimOk { pages, .. } => Ok(pages),
            other => Err(ClientError::Protocol(format!(
                "expected TrimOk, got id {}",
                other.id()
            ))),
        }
    }

    /// Durability barrier; returns the number of pages destaged.
    pub fn flush(&mut self) -> Result<u64, ClientError> {
        let id = self.fresh_id();
        match self.call(Request::Flush { id })? {
            Reply::FlushOk { flushed, .. } => Ok(flushed),
            other => Err(ClientError::Protocol(format!(
                "expected FlushOk, got id {}",
                other.id()
            ))),
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
            self.send(&req)?;
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
            other => Err(ClientError::Protocol(format!(
                "expected WriteOk, got id {}",
                other.id()
            ))),
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
            other => Err(ClientError::Protocol(format!(
                "expected ReadOk, got id {}",
                other.id()
            ))),
        }
    }

    // -- pipelined half ----------------------------------------------------

    /// Fire-and-forget write: send without waiting. Returns the request id;
    /// collect the reply later with [`GatewayClient::recv_reply`].
    pub fn send_write(&mut self, lpn: u64, pages: Vec<Bytes>) -> Result<u64, ClientError> {
        let id = self.fresh_id();
        self.send(&Request::Write { id, lpn, pages })?;
        Ok(id)
    }

    /// Fire-and-forget read.
    pub fn send_read(&mut self, lpn: u64, pages: u32) -> Result<u64, ClientError> {
        let id = self.fresh_id();
        self.send(&Request::Read { id, lpn, pages })?;
        Ok(id)
    }

    /// Fire-and-forget trim.
    pub fn send_trim(&mut self, lpn: u64, pages: u32) -> Result<u64, ClientError> {
        let id = self.fresh_id();
        self.send(&Request::Trim { id, lpn, pages })?;
        Ok(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::encode_reply;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};

    /// A TCP `GatewayClient` and the raw socket playing its gateway.
    fn client_with_raw_gateway() -> (GatewayClient, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = GatewayClient::connect_tcp(listener.local_addr().unwrap(), 1).unwrap();
        let (raw, _) = listener.accept().unwrap();
        raw.set_nodelay(true).unwrap();
        (client, raw)
    }

    fn ack(id: u64) -> Reply {
        Reply::WriteOk {
            id,
            pages: 4,
            replicated: true,
        }
    }

    fn frame(reply: &Reply) -> Vec<u8> {
        let mut buf = BytesMut::new();
        encode_reply(reply, &mut buf);
        buf.to_vec()
    }

    #[test]
    fn tcp_reply_split_across_writes_times_out_then_completes() {
        let (client, mut raw) = client_with_raw_gateway();
        let mut bytes = frame(&ack(1));
        bytes.extend(frame(&ack(2)));
        let (head, tail) = bytes.split_at(5);
        raw.write_all(head).unwrap();
        assert_eq!(
            client.recv_reply(Duration::from_millis(30)),
            Err(ClientError::TimedOut)
        );
        raw.write_all(tail).unwrap();
        assert_eq!(client.recv_reply(Duration::from_secs(1)), Ok(ack(1)));
        // The second reply rode in with the first one's tail.
        assert_eq!(client.recv_reply(Duration::ZERO), Ok(ack(2)));
        assert_eq!(
            client.recv_reply(Duration::ZERO),
            Err(ClientError::TimedOut)
        );
    }

    #[test]
    fn tcp_gateway_hangup_and_corrupt_replies_disconnect_for_good() {
        let (mut client, raw) = client_with_raw_gateway();
        drop(raw);
        assert_eq!(
            client.recv_reply(Duration::from_secs(1)),
            Err(ClientError::Disconnected)
        );
        assert_eq!(
            client.recv_reply(Duration::ZERO),
            Err(ClientError::Disconnected)
        );
        assert_eq!(client.send_read(0, 1), Err(ClientError::Disconnected));

        let (client, mut raw) = client_with_raw_gateway();
        let mut bytes = frame(&ack(3));
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        bytes.extend(frame(&ack(4)));
        raw.write_all(&bytes).unwrap();
        assert_eq!(
            client.recv_reply(Duration::from_secs(1)),
            Err(ClientError::Disconnected)
        );
        assert_eq!(
            client.recv_reply(Duration::from_secs(1)),
            Err(ClientError::Disconnected)
        );
    }
}
