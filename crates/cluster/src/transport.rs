//! Peer transports.
//!
//! The node talks to its cooperative partner through the [`Transport`]
//! trait. Two implementations:
//!
//! * [`mem_pair`] — crossbeam channels, for tests and single-process demos;
//!   supports deliberate severing (network-partition injection).
//! * [`TcpTransport`] — real sockets via `std::net`; this is the "high speed
//!   data center network" path. It has no thread: whoever wants the next
//!   message reads the socket ([`FramedLink`], shared with the gateway's
//!   TCP links).

use crate::wire::{decode, encode, Message};
use bytes::BytesMut;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use std::io::{ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

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
// Framed TCP link
// ---------------------------------------------------------------------------

/// A framed TCP link went down: peer hung up, socket error, or a frame that
/// does not decode. Sticky — every later call reports it again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkDead;

/// One end of a framed TCP connection with no thread of its own: frames are
/// written inline, and [`FramedLink::recv`] decodes from a per-link buffer
/// and reads the socket on the calling thread. [`TcpTransport`] and the
/// gateway's TCP session and client links are thin codecs over it.
pub struct FramedLink {
    stream: TcpStream,
    /// Held while a frame is written, so concurrent senders never
    /// interleave bytes.
    write: Mutex<()>,
    read: Mutex<ReadHalf>,
    dead: AtomicBool,
}

struct ReadHalf {
    /// Received bytes not yet decoded; a partial frame waits here across
    /// calls. The socket is read straight into its spare room.
    buf: BytesMut,
}

/// Room offered to each socket read.
const READ_CHUNK: usize = 64 * 1024;

impl FramedLink {
    /// Wrap an established stream.
    pub fn new(stream: TcpStream) -> std::io::Result<FramedLink> {
        stream.set_nodelay(true)?;
        Ok(FramedLink {
            stream,
            write: Mutex::new(()),
            read: Mutex::new(ReadHalf {
                buf: BytesMut::with_capacity(READ_CHUNK),
            }),
            dead: AtomicBool::new(false),
        })
    }

    /// True once the link is known dead.
    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::SeqCst)
    }

    fn kill(&self) -> LinkDead {
        self.dead.store(true, Ordering::SeqCst);
        LinkDead
    }

    /// Write one encoded frame.
    pub fn send(&self, frame: &[u8]) -> Result<(), LinkDead> {
        if self.is_dead() {
            return Err(LinkDead);
        }
        let _writing = self.write.lock();
        (&self.stream).write_all(frame).map_err(|_| self.kill())
    }

    /// The next frame, waiting up to `timeout` for its last byte.
    ///
    /// Frames already buffered are decoded without touching the socket.
    /// `Ok(None)` on timeout; a frame cut short by it stays buffered and
    /// the next call finishes it. A zero timeout takes what the socket
    /// already holds and returns at once. EOF, a socket error or a `decode`
    /// error kills the link.
    pub fn recv<T, E>(
        &self,
        timeout: Duration,
        decode: impl Fn(&mut BytesMut) -> Result<Option<T>, E>,
    ) -> Result<Option<T>, LinkDead> {
        let mut guard = self.read.lock();
        let rd = &mut *guard;
        let deadline = Instant::now().checked_add(timeout);
        let mut wait = timeout;
        loop {
            match decode(&mut rd.buf) {
                Ok(Some(frame)) => return Ok(Some(frame)),
                Ok(None) => {}
                Err(_) => {
                    // Framing is lost: nothing behind the damage is served.
                    rd.buf = BytesMut::new();
                    return Err(self.kill());
                }
            }
            if self.is_dead() {
                return Err(LinkDead);
            }
            match self.wait_readable(wait) {
                // Readable (or at EOF, or in error): the read cannot block.
                Ok(true) => match rd.buf.read_from(&mut &self.stream, READ_CHUNK) {
                    Ok(0) => return Err(self.kill()),
                    Ok(_) => {}
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => return Err(self.kill()),
                },
                Ok(false) => return Ok(None),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return Err(self.kill()),
            }
            if let Some(deadline) = deadline {
                wait = deadline.saturating_duration_since(Instant::now());
            }
        }
    }

    /// Wait up to `wait` for the socket to have something to read: bytes,
    /// EOF or an error. Not a socket read timeout: `SO_RCVTIMEO` counts in
    /// scheduler ticks (a 200 µs timeout measured 8 ms on a 250 Hz
    /// kernel), which makes a paced client that waits half a millisecond
    /// for a reply send its next request late; `ppoll` takes nanoseconds.
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    fn wait_readable(&self, wait: Duration) -> std::io::Result<bool> {
        use std::os::fd::AsRawFd;
        use std::os::raw::{c_int, c_long, c_short, c_ulong, c_void};

        #[repr(C)]
        struct PollFd {
            fd: c_int,
            events: c_short,
            revents: c_short,
        }
        #[repr(C)]
        struct Timespec {
            tv_sec: c_long,
            tv_nsec: c_long,
        }
        const POLLIN: c_short = 0x001;
        extern "C" {
            fn ppoll(
                fds: *mut PollFd,
                nfds: c_ulong,
                timeout: *const Timespec,
                sigmask: *const c_void,
            ) -> c_int;
        }

        let mut fd = PollFd {
            fd: self.stream.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        };
        let timeout = Timespec {
            tv_sec: c_long::try_from(wait.as_secs()).unwrap_or(c_long::MAX),
            tv_nsec: c_long::from(wait.subsec_nanos()),
        };
        // SAFETY: `fd` and `timeout` are live locals laid out as 64-bit
        // Linux's `struct pollfd` and `struct timespec`, `nfds` is the one
        // entry `fds` points at, and a null `sigmask` leaves the signal
        // mask alone; the call writes only `fd.revents`.
        let ready = unsafe { ppoll(&mut fd, 1, &timeout, std::ptr::null()) };
        if ready < 0 {
            Err(std::io::Error::last_os_error())
        } else {
            Ok(ready > 0)
        }
    }

    /// Portable stand-in for the `ppoll` wait: a timed `peek`, as precise
    /// as the platform's socket read timeout.
    #[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
    fn wait_readable(&self, wait: Duration) -> std::io::Result<bool> {
        let mut probe = [0u8; 1];
        let peeked = if wait.is_zero() {
            // Writers share the socket's non-blocking flag; keep them out
            // while it is flipped.
            let _no_writer = self.write.lock();
            self.stream.set_nonblocking(true)?;
            let peeked = self.stream.peek(&mut probe);
            self.stream.set_nonblocking(false)?;
            peeked
        } else {
            self.stream.set_read_timeout(Some(wait))?;
            self.stream.peek(&mut probe)
        };
        match peeked {
            Ok(_) => Ok(true),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => Ok(false),
            Err(e) => Err(e),
        }
    }
}

impl Drop for FramedLink {
    fn drop(&mut self) {
        // The peer observes EOF.
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }
}

// ---------------------------------------------------------------------------
// TCP transport
// ---------------------------------------------------------------------------

/// A TCP link to the peer: the wire codec over a [`FramedLink`]. Senders
/// write to the socket themselves and the node's pump reads it; there is no
/// reader thread.
pub struct TcpTransport {
    link: FramedLink,
}

impl TcpTransport {
    /// Wrap an established stream.
    pub fn new(stream: TcpStream) -> std::io::Result<Self> {
        Ok(TcpTransport {
            link: FramedLink::new(stream)?,
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

impl Transport for TcpTransport {
    fn send(&self, msg: Message) -> Result<(), TransportError> {
        let mut buf = BytesMut::new();
        encode(&msg, &mut buf);
        self.link
            .send(&buf)
            .map_err(|LinkDead| TransportError::Disconnected)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Option<Message>, TransportError> {
        self.link
            .recv(timeout, decode)
            .map_err(|LinkDead| TransportError::Disconnected)
    }

    fn is_connected(&self) -> bool {
        !self.link.is_dead()
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
        // Eventually a read hits EOF and recv errors out.
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

    /// A `TcpTransport` and the raw socket at its far end, so a test can
    /// decide exactly which bytes arrive when.
    fn tcp_with_raw_peer() -> (TcpTransport, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let raw = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        raw.set_nodelay(true).unwrap();
        (TcpTransport::accept(&listener).unwrap(), raw)
    }

    fn frame(msg: &Message) -> Vec<u8> {
        let mut buf = BytesMut::new();
        encode(msg, &mut buf);
        buf.to_vec()
    }

    fn batch(seq: u64) -> Message {
        Message::WriteReplBatch {
            epoch: 1,
            seq,
            entries: vec![resync_entry(seq, 1, Bytes::from(vec![seq as u8; 600]))],
        }
    }

    #[test]
    fn tcp_frame_split_across_writes_survives_a_timeout_in_between() {
        let (link, mut raw) = tcp_with_raw_peer();
        let bytes = frame(&batch(7));
        let (head, tail) = bytes.split_at(bytes.len() / 2);
        raw.write_all(head).unwrap();
        // The timeout lands mid-frame: nothing to hand out yet, and the
        // half already read must not be lost.
        assert_eq!(link.recv_timeout(Duration::from_millis(30)), Ok(None));
        raw.write_all(tail).unwrap();
        assert_eq!(link.recv_timeout(SHORT), Ok(Some(batch(7))));
        // Exactly once.
        assert_eq!(link.recv_timeout(Duration::ZERO), Ok(None));
    }

    #[test]
    fn tcp_frames_sharing_a_segment_come_out_one_per_call_from_the_buffer() {
        let (link, mut raw) = tcp_with_raw_peer();
        let mut bytes = frame(&batch(1));
        bytes.extend(frame(&batch(2)));
        raw.write_all(&bytes).unwrap();
        assert_eq!(link.recv_timeout(SHORT), Ok(Some(batch(1))));
        // The peer hangs up. The second frame was buffered by the first
        // call's read, so it comes out without the socket — which would
        // now report EOF — being touched.
        drop(raw);
        assert_eq!(link.recv_timeout(Duration::ZERO), Ok(Some(batch(2))));
        assert_eq!(
            link.recv_timeout(Duration::ZERO),
            Err(TransportError::Disconnected)
        );
    }

    #[test]
    fn tcp_zero_timeout_on_an_idle_link_returns_at_once() {
        let (link, _raw) = tcp_with_raw_peer();
        let started = Instant::now();
        for _ in 0..100 {
            assert_eq!(link.recv_timeout(Duration::ZERO), Ok(None));
        }
        assert!(started.elapsed() < SHORT, "{:?}", started.elapsed());
        assert!(link.is_connected());
    }

    #[test]
    fn tcp_peer_close_and_corrupt_frames_disconnect_for_good() {
        let (link, raw) = tcp_with_raw_peer();
        drop(raw);
        assert_eq!(link.recv_timeout(SHORT), Err(TransportError::Disconnected));
        assert_eq!(link.recv_timeout(SHORT), Err(TransportError::Disconnected));
        assert_eq!(link.send(Message::Purge), Err(TransportError::Disconnected));
        assert!(!link.is_connected());

        let (link, mut raw) = tcp_with_raw_peer();
        let mut bytes = frame(&batch(3));
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF; // body no longer matches the frame CRC
        bytes.extend(frame(&batch(4)));
        raw.write_all(&bytes).unwrap();
        assert_eq!(link.recv_timeout(SHORT), Err(TransportError::Disconnected));
        // Sticky: the intact frame behind the damaged one is not served.
        assert_eq!(link.recv_timeout(SHORT), Err(TransportError::Disconnected));
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
