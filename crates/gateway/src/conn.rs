//! Session transports: how one client's requests reach the gateway.
//!
//! Mirrors `fc_cluster::transport`: a [`SessionLink`] is the gateway-side
//! view of one client connection, with an in-memory typed-channel
//! implementation for deterministic tests and a TCP implementation that
//! runs the real framed protocol from [`crate::proto`] on the session's own
//! thread (no reader thread; see [`fc_cluster::FramedLink`]).
//!
//! The in-memory pair passes typed [`Request`]/[`Reply`] values without
//! re-framing (the encode/decode path is exercised by the TCP link and the
//! proto unit tests); that keeps the deterministic e2e variant free of
//! socket-scheduling noise.

use std::net::TcpStream;
use std::time::Duration;

use bytes::BytesMut;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use fc_cluster::FramedLink;

use crate::proto::{decode_request, encode_reply, Reply, Request};

/// The link died: peer hung up, socket error, or protocol corruption.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkClosed;

impl std::fmt::Display for LinkClosed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "session link closed")
    }
}

impl std::error::Error for LinkClosed {}

/// Gateway-side handle for one client session.
pub trait SessionLink: Send {
    /// Send one reply to the client.
    fn send(&self, reply: Reply) -> Result<(), LinkClosed>;
    /// Receive the next request. `Ok(None)` on timeout with the link still
    /// up; `Err` once the client is gone.
    fn recv_timeout(&self, timeout: Duration) -> Result<Option<Request>, LinkClosed>;
}

// ---------------------------------------------------------------------------
// In-memory link
// ---------------------------------------------------------------------------

/// Client half of an in-memory session: send requests, receive replies.
pub struct MemClientConn {
    pub(crate) tx: Sender<Request>,
    pub(crate) rx: Receiver<Reply>,
}

impl MemClientConn {
    /// Send one raw request (tests and custom clients; [`crate::GatewayClient`]
    /// wraps this with the blocking API).
    pub fn send(&self, req: Request) -> Result<(), LinkClosed> {
        self.tx.send(req).map_err(|_| LinkClosed)
    }

    /// Receive the next raw reply. `Ok(None)` on timeout.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Option<Reply>, LinkClosed> {
        match self.rx.recv_timeout(timeout) {
            Ok(reply) => Ok(Some(reply)),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(LinkClosed),
        }
    }
}

/// Gateway half of an in-memory session.
pub struct MemSessionLink {
    tx: Sender<Reply>,
    rx: Receiver<Request>,
}

/// Build a connected in-memory session: `(client half, gateway half)`.
pub fn mem_session() -> (MemClientConn, MemSessionLink) {
    let (req_tx, req_rx) = unbounded();
    let (reply_tx, reply_rx) = unbounded();
    (
        MemClientConn {
            tx: req_tx,
            rx: reply_rx,
        },
        MemSessionLink {
            tx: reply_tx,
            rx: req_rx,
        },
    )
}

impl SessionLink for MemSessionLink {
    fn send(&self, reply: Reply) -> Result<(), LinkClosed> {
        self.tx.send(reply).map_err(|_| LinkClosed)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Option<Request>, LinkClosed> {
        match self.rx.recv_timeout(timeout) {
            Ok(req) => Ok(Some(req)),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(LinkClosed),
        }
    }
}

// ---------------------------------------------------------------------------
// TCP link
// ---------------------------------------------------------------------------

/// Gateway-side TCP session: the request/reply codec over a
/// [`FramedLink`]. The session thread reads its own socket — a zero-timeout
/// receive (the batch-window drain) returns requests already buffered, then
/// polls the socket once — and writes replies inline.
pub struct TcpSessionLink {
    link: FramedLink,
}

impl TcpSessionLink {
    /// Wrap an accepted client socket.
    pub fn new(stream: TcpStream) -> std::io::Result<TcpSessionLink> {
        Ok(TcpSessionLink {
            link: FramedLink::new(stream)?,
        })
    }
}

impl SessionLink for TcpSessionLink {
    fn send(&self, reply: Reply) -> Result<(), LinkClosed> {
        let mut buf = BytesMut::new();
        encode_reply(&reply, &mut buf);
        self.link.send(&buf).map_err(|_| LinkClosed)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Option<Request>, LinkClosed> {
        self.link
            .recv(timeout, decode_request)
            .map_err(|_| LinkClosed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{encode_request, ErrorCode};
    use bytes::Bytes;
    use std::io::Write;
    use std::net::TcpListener;

    /// A `TcpSessionLink` and the raw client socket at its far end.
    fn session_with_raw_client() -> (TcpSessionLink, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let raw = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        raw.set_nodelay(true).unwrap();
        let (stream, _) = listener.accept().unwrap();
        (TcpSessionLink::new(stream).unwrap(), raw)
    }

    fn write_req(id: u64) -> Request {
        Request::Write {
            id,
            lpn: 8 * id,
            pages: vec![Bytes::from(vec![id as u8; 64])],
        }
    }

    fn frame(req: &Request) -> Vec<u8> {
        let mut buf = BytesMut::new();
        encode_request(req, &mut buf);
        buf.to_vec()
    }

    #[test]
    fn tcp_batch_window_drain_takes_pipelined_writes_from_the_buffer() {
        let (link, mut raw) = session_with_raw_client();
        let bytes: Vec<u8> = (1..=3).flat_map(|id| frame(&write_req(id))).collect();
        raw.write_all(&bytes).unwrap();
        // What `write_batch` does: one blocking receive for the head, then
        // zero-timeout receives until the window is dry.
        assert_eq!(
            link.recv_timeout(Duration::from_secs(1)),
            Ok(Some(write_req(1)))
        );
        assert_eq!(link.recv_timeout(Duration::ZERO), Ok(Some(write_req(2))));
        assert_eq!(link.recv_timeout(Duration::ZERO), Ok(Some(write_req(3))));
        assert_eq!(link.recv_timeout(Duration::ZERO), Ok(None));
    }

    #[test]
    fn tcp_request_split_across_writes_survives_a_timeout_in_between() {
        let (link, mut raw) = session_with_raw_client();
        let bytes = frame(&write_req(5));
        let (head, tail) = bytes.split_at(bytes.len() / 2);
        raw.write_all(head).unwrap();
        assert_eq!(link.recv_timeout(Duration::from_millis(30)), Ok(None));
        raw.write_all(tail).unwrap();
        assert_eq!(
            link.recv_timeout(Duration::from_secs(1)),
            Ok(Some(write_req(5)))
        );
        assert_eq!(link.recv_timeout(Duration::ZERO), Ok(None));
    }

    #[test]
    fn tcp_client_hangup_and_corrupt_requests_close_the_link_for_good() {
        let (link, raw) = session_with_raw_client();
        drop(raw);
        assert_eq!(link.recv_timeout(Duration::from_secs(1)), Err(LinkClosed));
        assert_eq!(link.recv_timeout(Duration::ZERO), Err(LinkClosed));
        assert_eq!(
            link.send(Reply::FlushOk { id: 1, flushed: 0 }),
            Err(LinkClosed)
        );

        let (link, mut raw) = session_with_raw_client();
        let mut bytes = frame(&write_req(6));
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        bytes.extend(frame(&write_req(7)));
        raw.write_all(&bytes).unwrap();
        assert_eq!(link.recv_timeout(Duration::from_secs(1)), Err(LinkClosed));
        assert_eq!(link.recv_timeout(Duration::from_secs(1)), Err(LinkClosed));
    }

    #[test]
    fn mem_session_passes_typed_values() {
        let (client, server) = mem_session();
        client
            .tx
            .send(Request::Flush { id: 1 })
            .expect("send request");
        let got = server
            .recv_timeout(Duration::from_millis(100))
            .unwrap()
            .unwrap();
        assert_eq!(got, Request::Flush { id: 1 });
        server
            .send(Reply::Error {
                id: 1,
                code: ErrorCode::Busy,
            })
            .unwrap();
        let reply = client.rx.recv_timeout(Duration::from_millis(100)).unwrap();
        assert_eq!(reply.id(), 1);
    }

    #[test]
    fn mem_session_timeout_is_not_closure() {
        let (client, server) = mem_session();
        assert_eq!(server.recv_timeout(Duration::from_millis(5)).unwrap(), None);
        drop(client);
        assert_eq!(
            server.recv_timeout(Duration::from_millis(5)),
            Err(LinkClosed)
        );
    }
}
