//! Session links: how one client's requests reach the gateway.
//!
//! A session runs over the cluster's one link type, [`Link`]: the gateway
//! holds a `Link<Reply, Request>`, the client ([`crate::GatewayClient`]) a
//! `Link<Request, Reply>`. In memory ([`mem_session`]) they pass typed
//! values without re-framing, which keeps the deterministic e2e variant
//! free of socket-scheduling noise, and the session has no thread: the
//! gateway offers its step ([`SessionLink::offer_step`]), and the client's
//! wait for a reply runs it first — every request already queued is
//! served, batch-window drain included, on the client's thread — so a
//! reply wait lasts as long as the request's service, like a function
//! call. Over TCP ([`TcpSessionLink`]) each value is framed by
//! [`crate::proto`], the offer is refused, and a session thread loops the
//! step, reading its own socket — a zero-timeout receive (the
//! batch-window drain) returns requests already buffered, then polls the
//! socket once — and writing replies inline.

use std::time::Duration;

pub use fc_cluster::LinkClosed;
use fc_cluster::{mem_link, Link};

use crate::proto::{Reply, Request};

/// Gateway-side handle for one client session.
pub trait SessionLink: Send {
    /// Send one reply to the client.
    fn send(&self, reply: Reply) -> Result<(), LinkClosed>;
    /// Receive the next request. `Ok(None)` on timeout with the link still
    /// up; `Err` once the client is gone.
    fn recv_timeout(&self, timeout: Duration) -> Result<Option<Request>, LinkClosed>;
    /// Hand the session's serving to the client's end: `step(&self, wait)`
    /// serves the requests that arrive within `wait` and returns false
    /// once the session is over. Refused by default — the link and step
    /// come back, and the gateway loops the step on a session thread. An
    /// in-memory link takes it ([`Link::offer_step`]).
    fn offer_step<F>(self, step: F) -> Result<(), (Self, F)>
    where
        Self: Sized,
        F: FnMut(&Self, Duration) -> bool + Send + 'static,
    {
        Err((self, step))
    }
}

impl SessionLink for Link<Reply, Request> {
    fn send(&self, reply: Reply) -> Result<(), LinkClosed> {
        Link::send(self, reply)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Option<Request>, LinkClosed> {
        Link::recv_timeout(self, timeout)
    }

    fn offer_step<F>(self, step: F) -> Result<(), (Self, F)>
    where
        F: FnMut(&Self, Duration) -> bool + Send + 'static,
    {
        Link::offer_step(self, step)
    }
}

/// The gateway's half of a TCP client session ([`Link::new`] wraps an
/// accepted socket).
pub type TcpSessionLink = Link<Reply, Request>;

/// Build a connected in-memory session: `(client half, gateway half)`.
pub fn mem_session() -> (Link<Request, Reply>, Link<Reply, Request>) {
    mem_link()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::{Bytes, BytesMut};
    use fc_cluster::{resync_entry, Frame, Message};
    use std::fmt::Debug;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::time::Instant;

    use crate::proto::ErrorCode;

    const SHORT: Duration = Duration::from_millis(200);

    /// A TCP link and the raw socket at its far end, so a case decides
    /// exactly which bytes arrive when.
    fn with_raw_far_end<S: Frame, R: Frame>() -> (Link<S, R>, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let raw = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        raw.set_nodelay(true).unwrap();
        (Link::accept(&listener).unwrap(), raw)
    }

    fn frame(msg: &impl Frame) -> Vec<u8> {
        let mut buf = BytesMut::new();
        msg.encode(&mut buf);
        buf.to_vec()
    }

    /// The framed-TCP cases, for a link that receives `sample(1)`,
    /// `sample(2)`, … and can send `out()`.
    fn framed_tcp_cases<S: Frame, R: Frame + PartialEq + Debug>(
        sample: impl Fn(u64) -> R,
        out: impl Fn() -> S,
    ) {
        // A frame split across two writes survives a timeout in between:
        // the half already read is kept, and the frame comes out once.
        let (link, mut raw) = with_raw_far_end::<S, R>();
        let bytes = frame(&sample(1));
        let (head, tail) = bytes.split_at(bytes.len() / 2);
        raw.write_all(head).unwrap();
        assert_eq!(link.recv_timeout(Duration::from_millis(30)), Ok(None));
        raw.write_all(tail).unwrap();
        assert_eq!(link.recv_timeout(SHORT), Ok(Some(sample(1))));
        assert_eq!(link.recv_timeout(Duration::ZERO), Ok(None));

        // Frames sharing a segment come out one per call, the later ones
        // at zero timeout (a session's batch-window drain) — even after
        // the far end hung up behind them; then the hang-up shows.
        let (link, mut raw) = with_raw_far_end::<S, R>();
        let bytes: Vec<u8> = (1..=3).flat_map(|i| frame(&sample(i))).collect();
        raw.write_all(&bytes).unwrap();
        assert_eq!(link.recv_timeout(SHORT), Ok(Some(sample(1))));
        drop(raw);
        assert_eq!(link.recv_timeout(Duration::ZERO), Ok(Some(sample(2))));
        assert_eq!(link.recv_timeout(Duration::ZERO), Ok(Some(sample(3))));
        assert_eq!(link.recv_timeout(Duration::ZERO), Err(LinkClosed));

        // A zero-timeout receive on an idle link returns at once.
        let (link, _raw) = with_raw_far_end::<S, R>();
        let started = Instant::now();
        for _ in 0..100 {
            assert_eq!(link.recv_timeout(Duration::ZERO), Ok(None));
        }
        assert!(started.elapsed() < SHORT, "{:?}", started.elapsed());
        assert!(link.is_connected());

        // Hang-up is sticky, for sends too.
        let (link, raw) = with_raw_far_end::<S, R>();
        drop(raw);
        assert_eq!(link.recv_timeout(SHORT), Err(LinkClosed));
        assert_eq!(link.recv_timeout(Duration::ZERO), Err(LinkClosed));
        assert_eq!(link.send(out()), Err(LinkClosed));
        assert!(!link.is_connected());

        // So is a corrupt frame: the intact one behind it is not served.
        let (link, mut raw) = with_raw_far_end::<S, R>();
        let mut bytes = frame(&sample(1));
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF; // body no longer matches the frame CRC
        bytes.extend(frame(&sample(2)));
        raw.write_all(&bytes).unwrap();
        assert_eq!(link.recv_timeout(SHORT), Err(LinkClosed));
        assert_eq!(link.recv_timeout(SHORT), Err(LinkClosed));
    }

    #[test]
    fn framed_tcp_peer_link() {
        framed_tcp_cases::<Message, Message>(
            |seq| Message::WriteReplBatch {
                epoch: 1,
                seq,
                entries: vec![resync_entry(seq, 1, Bytes::from(vec![seq as u8; 600]))],
            },
            || Message::Purge,
        );
    }

    #[test]
    fn framed_tcp_session_link() {
        framed_tcp_cases::<Reply, Request>(
            |id| Request::Write {
                id,
                lpn: 8 * id,
                pages: vec![Bytes::from(vec![id as u8; 64])],
            },
            || Reply::FlushOk { id: 1, flushed: 0 },
        );
    }

    #[test]
    fn framed_tcp_client_link() {
        framed_tcp_cases::<Request, Reply>(
            |id| Reply::WriteOk {
                id,
                pages: 4,
                replicated: true,
            },
            || Request::Flush { id: 1 },
        );
    }

    #[test]
    fn mem_session_passes_typed_values_both_ways() {
        let (client, server) = mem_session();
        client.send(Request::Flush { id: 1 }).unwrap();
        assert_eq!(
            SessionLink::recv_timeout(&server, SHORT),
            Ok(Some(Request::Flush { id: 1 }))
        );
        let busy = Reply::Error {
            id: 1,
            code: ErrorCode::Busy,
        };
        SessionLink::send(&server, busy.clone()).unwrap();
        assert_eq!(client.recv_timeout(SHORT), Ok(Some(busy)));
    }
}
