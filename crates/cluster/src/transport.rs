//! Peer transports.
//!
//! The node talks to its cooperative partner through the [`Transport`]
//! trait. Two implementations:
//!
//! * [`mem_pair`] — crossbeam channels, for tests and single-process demos;
//!   supports deliberate severing (network-partition injection).
//! * [`TcpTransport`] — real sockets via `std::net`, one reader thread per
//!   connection; this is the "high speed data center network" path.

use crate::wire::{decode, encode, Message};
use bytes::BytesMut;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Transport failures. A disconnected transport stays disconnected; a timed
/// out operation may be retried.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The peer is unreachable (socket closed, channel dropped, or severed).
    Disconnected,
    /// The operation did not complete in time (the link may still be up —
    /// e.g. a reply lost to a lossy network). Retryable.
    Timeout,
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Disconnected => f.write_str("peer transport disconnected"),
            TransportError::Timeout => f.write_str("peer transport operation timed out"),
        }
    }
}

impl std::error::Error for TransportError {}

/// A bidirectional, message-oriented link to the peer.
pub trait Transport: Send {
    /// Send one message.
    fn send(&self, msg: Message) -> Result<(), TransportError>;

    /// Receive the next message, waiting up to `timeout`. `Ok(None)` on
    /// timeout.
    fn recv_timeout(&self, timeout: Duration) -> Result<Option<Message>, TransportError>;

    /// True if the link is known dead.
    fn is_connected(&self) -> bool;
}

/// Sharing a transport: a node can own one handle while the caller keeps
/// another for inspection (e.g. reading a `FaultTransport`'s decision trace
/// while the node runs).
impl<T: Transport + Send + Sync + ?Sized> Transport for Arc<T> {
    fn send(&self, msg: Message) -> Result<(), TransportError> {
        (**self).send(msg)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Option<Message>, TransportError> {
        (**self).recv_timeout(timeout)
    }

    fn is_connected(&self) -> bool {
        (**self).is_connected()
    }
}

// ---------------------------------------------------------------------------
// In-memory transport
// ---------------------------------------------------------------------------

/// One endpoint of an in-memory duplex link.
pub struct MemTransport {
    tx: Sender<Message>,
    rx: Receiver<Message>,
    severed: Arc<AtomicBool>,
}

impl MemTransport {
    /// Cut the link (both directions); used to inject network partitions.
    pub fn sever(&self) {
        self.severed.store(true, Ordering::SeqCst);
    }
}

/// Create a connected pair of in-memory endpoints. Severing either endpoint
/// kills the link for both.
pub fn mem_pair() -> (MemTransport, MemTransport) {
    let (a_tx, b_rx) = unbounded();
    let (b_tx, a_rx) = unbounded();
    let severed = Arc::new(AtomicBool::new(false));
    (
        MemTransport {
            tx: a_tx,
            rx: a_rx,
            severed: severed.clone(),
        },
        MemTransport {
            tx: b_tx,
            rx: b_rx,
            severed,
        },
    )
}

impl Transport for MemTransport {
    fn send(&self, msg: Message) -> Result<(), TransportError> {
        if self.severed.load(Ordering::SeqCst) {
            return Err(TransportError::Disconnected);
        }
        self.tx.send(msg).map_err(|_| TransportError::Disconnected)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Option<Message>, TransportError> {
        if self.severed.load(Ordering::SeqCst) {
            return Err(TransportError::Disconnected);
        }
        match self.rx.recv_timeout(timeout) {
            Ok(m) => {
                // A message already in flight when the link was severed is
                // dropped, like packets in a real partition.
                if self.severed.load(Ordering::SeqCst) {
                    Err(TransportError::Disconnected)
                } else {
                    Ok(Some(m))
                }
            }
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(TransportError::Disconnected),
        }
    }

    fn is_connected(&self) -> bool {
        !self.severed.load(Ordering::SeqCst)
    }
}

// ---------------------------------------------------------------------------
// TCP transport
// ---------------------------------------------------------------------------

/// A TCP link: writes go straight to the socket; a reader thread decodes
/// frames into a channel.
pub struct TcpTransport {
    stream: Mutex<TcpStream>,
    rx: Receiver<Message>,
    dead: Arc<AtomicBool>,
}

impl TcpTransport {
    /// Wrap an established stream, spawning the reader thread.
    pub fn new(stream: TcpStream) -> std::io::Result<Self> {
        stream.set_nodelay(true)?;
        let reader = stream.try_clone()?;
        let (tx, rx) = unbounded();
        let dead = Arc::new(AtomicBool::new(false));
        let dead2 = dead.clone();
        std::thread::Builder::new()
            .name("fc-cluster-rx".into())
            .spawn(move || read_loop(reader, tx, dead2))
            .expect("spawn reader thread");
        Ok(TcpTransport {
            stream: Mutex::new(stream),
            rx,
            dead,
        })
    }

    /// Connect to a listening peer.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        TcpTransport::new(TcpStream::connect(addr)?)
    }

    /// Accept one peer connection on `listener`.
    pub fn accept(listener: &TcpListener) -> std::io::Result<Self> {
        let (stream, _) = listener.accept()?;
        TcpTransport::new(stream)
    }
}

fn read_loop(mut stream: TcpStream, tx: Sender<Message>, dead: Arc<AtomicBool>) {
    let mut buf = BytesMut::with_capacity(64 * 1024);
    let mut chunk = [0u8; 16 * 1024];
    loop {
        match decode(&mut buf) {
            Ok(Some(msg)) => {
                if tx.send(msg).is_err() {
                    break;
                }
                continue;
            }
            Ok(None) => {}
            Err(_) => break, // protocol corruption: drop the link
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => break,
        }
    }
    dead.store(true, Ordering::SeqCst);
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        // Shut the connection down so the reader thread (which holds a
        // cloned handle) unblocks and the peer observes EOF.
        let _ = self.stream.lock().shutdown(std::net::Shutdown::Both);
        self.dead.store(true, Ordering::SeqCst);
    }
}

impl Transport for TcpTransport {
    fn send(&self, msg: Message) -> Result<(), TransportError> {
        if self.dead.load(Ordering::SeqCst) {
            return Err(TransportError::Disconnected);
        }
        let mut buf = BytesMut::new();
        encode(&msg, &mut buf);
        let mut stream = self.stream.lock();
        stream.write_all(&buf).map_err(|_| {
            self.dead.store(true, Ordering::SeqCst);
            TransportError::Disconnected
        })
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Option<Message>, TransportError> {
        match self.rx.recv_timeout(timeout) {
            Ok(m) => Ok(Some(m)),
            Err(RecvTimeoutError::Timeout) => {
                if self.dead.load(Ordering::SeqCst) {
                    Err(TransportError::Disconnected)
                } else {
                    Ok(None)
                }
            }
            Err(RecvTimeoutError::Disconnected) => Err(TransportError::Disconnected),
        }
    }

    fn is_connected(&self) -> bool {
        !self.dead.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::resync_entry;
    use bytes::Bytes;

    const SHORT: Duration = Duration::from_millis(200);

    #[test]
    fn mem_pair_delivers_both_directions() {
        let (a, b) = mem_pair();
        a.send(Message::RctFetch).unwrap();
        assert_eq!(b.recv_timeout(SHORT).unwrap(), Some(Message::RctFetch));
        b.send(Message::PurgeAck).unwrap();
        assert_eq!(a.recv_timeout(SHORT).unwrap(), Some(Message::PurgeAck));
    }

    #[test]
    fn mem_recv_times_out_quietly() {
        let (a, _b) = mem_pair();
        assert_eq!(a.recv_timeout(Duration::from_millis(10)).unwrap(), None);
    }

    #[test]
    fn severed_mem_link_errors_for_both_ends() {
        let (a, b) = mem_pair();
        a.sever();
        assert_eq!(a.send(Message::Purge), Err(TransportError::Disconnected));
        assert_eq!(b.send(Message::Purge), Err(TransportError::Disconnected));
        assert!(!a.is_connected());
        assert!(!b.is_connected());
        assert_eq!(b.recv_timeout(SHORT), Err(TransportError::Disconnected));
    }

    #[test]
    fn dropped_endpoint_disconnects_peer() {
        let (a, b) = mem_pair();
        drop(a);
        assert_eq!(b.send(Message::Purge), Err(TransportError::Disconnected));
    }

    #[test]
    fn tcp_round_trip_on_loopback() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || TcpTransport::connect(addr).unwrap());
        let server = TcpTransport::accept(&listener).unwrap();
        let client = client.join().unwrap();

        let msg = Message::WriteReplBatch {
            epoch: 1,
            seq: 1,
            entries: vec![resync_entry(99, 5, Bytes::from_static(b"hello-flash"))],
        };
        client.send(msg.clone()).unwrap();
        let got = server.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(got, Some(msg));
        let ack = Message::ReplAckBatch {
            epoch: 1,
            up_to: 1,
            credits: 7,
        };
        server.send(ack.clone()).unwrap();
        assert_eq!(
            client.recv_timeout(Duration::from_secs(2)).unwrap(),
            Some(ack)
        );
    }

    #[test]
    fn tcp_peer_close_is_detected() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || TcpTransport::connect(addr).unwrap());
        let server = TcpTransport::accept(&listener).unwrap();
        let client = client.join().unwrap();
        drop(server);
        // Eventually the reader thread notices EOF and recv errors out.
        let mut disconnected = false;
        for _ in 0..50 {
            match client.recv_timeout(Duration::from_millis(50)) {
                Err(TransportError::Disconnected) => {
                    disconnected = true;
                    break;
                }
                Err(TransportError::Timeout) | Ok(None) => continue,
                Ok(Some(m)) => panic!("unexpected message {m:?}"),
            }
        }
        assert!(disconnected, "EOF not detected");
    }

    #[test]
    fn tcp_handles_large_batched_frames() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || TcpTransport::connect(addr).unwrap());
        let server = TcpTransport::accept(&listener).unwrap();
        let client = client.join().unwrap();

        let page = Bytes::from(vec![0xAB; 4096]);
        for seq in 0..64u64 {
            client
                .send(Message::WriteReplBatch {
                    epoch: 1,
                    seq,
                    entries: vec![resync_entry(seq, 1, page.clone())],
                })
                .unwrap();
        }
        for seq in 0..64u64 {
            let m = server
                .recv_timeout(Duration::from_secs(2))
                .unwrap()
                .unwrap();
            match m {
                Message::WriteReplBatch {
                    seq: s, entries, ..
                } => {
                    assert_eq!(s, seq);
                    assert_eq!(entries[0].3.len(), 4096);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }
}
