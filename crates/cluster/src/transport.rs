//! The one link: how a node reaches its peer and a client its gateway.
//!
//! A [`Link<S, R>`](Link) sends `S` and receives `R` (`R = S` for the peer
//! protocol). It has two arms:
//!
//! * in memory ([`mem_link`], [`mem_pair`]) — typed values moved through a
//!   crossbeam pair, never re-framed, for tests and single-process demos;
//!   severable ([`Link::sever`]: network-partition injection). An end may
//!   hand its own serving to the far end ([`Link::offer_step`]): the far
//!   end's receive runs it before it waits, so an in-process server needs
//!   no thread and a request costs no wake-up to reach it;
//! * TCP ([`Link::connect`], [`Link::accept`], [`Link::new`]) — each value
//!   framed by its [`Frame`] codec over one socket; this is the "high speed
//!   data center network" path. It has no thread: senders write the socket
//!   themselves, and whoever wants the next value reads it.
//!
//! The node talks to its cooperative partner through the [`Transport`]
//! trait, implemented once, for `Link<Message>` ([`TcpTransport`] names it).
//! The gateway's sessions use `Link<Reply, Request>` and its clients
//! `Link<Request, Reply>`; an in-memory session offers its step to its
//! client, a TCP one is refused and keeps a thread.

use crate::wire::{Frame, Message};
use bytes::BytesMut;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use std::io::{ErrorKind, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
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

/// The link went down: the far end hung up or was dropped, the socket
/// failed, a frame did not decode, or the link was severed. Sticky — every
/// later call reports it again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkClosed;

impl std::fmt::Display for LinkClosed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("link closed")
    }
}

impl std::error::Error for LinkClosed {}

/// One end of a duplex link that sends `S` and receives `R`.
pub struct Link<S, R = S>(Arm<S, R>);

enum Arm<S, R> {
    /// Values moved through a channel pair; `shared` is shared by both
    /// ends, and `end` (0 or 1) names this one.
    Mem {
        tx: Sender<S>,
        rx: Receiver<R>,
        shared: Arc<MemShared>,
        end: usize,
    },
    /// Values framed by their codec over one socket.
    Tcp(FramedLink),
}

/// An offered end's serving, bound to that end: false once it is over.
type Step = Box<dyn FnMut() -> bool + Send>;

/// What both ends of an in-memory link share.
struct MemShared {
    severed: AtomicBool,
    /// `steps[e]` is the step end `e` offered ([`Link::offer_step`]); the
    /// other end runs it.
    steps: [Mutex<Option<Step>>; 2],
}

impl MemShared {
    /// Run the step the far end of `end` offered, if any; drop it (and
    /// with it the far end, which closes the link) once it says it is
    /// over, or when `last`.
    fn run_far_step(&self, end: usize, last: bool) {
        let mut slot = self.steps[1 - end].lock();
        if let Some(step) = slot.as_mut() {
            if !step() || last {
                *slot = None;
            }
        }
    }
}

/// A connected in-memory pair. Severing either end kills the link for
/// both; dropping one closes it for the other.
pub fn mem_link<S, R>() -> (Link<S, R>, Link<R, S>) {
    let (s_tx, s_rx) = unbounded();
    let (r_tx, r_rx) = unbounded();
    let shared = Arc::new(MemShared {
        severed: AtomicBool::new(false),
        steps: [Mutex::new(None), Mutex::new(None)],
    });
    (
        Link(Arm::Mem {
            tx: s_tx,
            rx: r_rx,
            shared: shared.clone(),
            end: 0,
        }),
        Link(Arm::Mem {
            tx: r_tx,
            rx: s_rx,
            shared,
            end: 1,
        }),
    )
}

/// A connected in-memory pair of peer links.
pub fn mem_pair() -> (Link<Message>, Link<Message>) {
    mem_link()
}

/// A TCP link to the peer: senders write the socket themselves and the
/// link's slot holder reads it (DESIGN §16).
pub type TcpTransport = Link<Message>;

impl<S: Frame, R: Frame> Link<S, R> {
    /// Wrap an established stream.
    pub fn new(stream: TcpStream) -> std::io::Result<Self> {
        Ok(Link(Arm::Tcp(FramedLink::new(stream)?)))
    }

    /// Connect to a listening far end.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        Link::new(TcpStream::connect(addr)?)
    }

    /// Accept one connection on `listener`.
    pub fn accept(listener: &TcpListener) -> std::io::Result<Self> {
        let (stream, _) = listener.accept()?;
        Link::new(stream)
    }

    /// Send one value: the in-memory arm moves it into the channel, the TCP
    /// arm encodes it and writes the frame on the calling thread.
    pub fn send(&self, msg: S) -> Result<(), LinkClosed> {
        match &self.0 {
            Arm::Mem { tx, shared, .. } => {
                if shared.severed.load(Ordering::SeqCst) {
                    return Err(LinkClosed);
                }
                tx.send(msg).map_err(|_| LinkClosed)
            }
            Arm::Tcp(link) => {
                let mut buf = BytesMut::new();
                msg.encode(&mut buf);
                link.send(&buf)
            }
        }
    }

    /// The next value, waiting up to `timeout`; `Ok(None)` on timeout.
    ///
    /// In memory, a step the far end offered runs first, on this thread:
    /// what it sends back is then already here. The wait is `timeout`
    /// from the call, or none once the step has run past it.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Option<R>, LinkClosed> {
        match &self.0 {
            Arm::Mem {
                rx, shared, end, ..
            } => {
                let severed = &shared.severed;
                if severed.load(Ordering::SeqCst) {
                    return Err(LinkClosed);
                }
                let started = Instant::now();
                shared.run_far_step(*end, false);
                match rx.recv_timeout(timeout.saturating_sub(started.elapsed())) {
                    // A message already in flight when the link was severed
                    // is dropped, like packets in a real partition.
                    Ok(_) if severed.load(Ordering::SeqCst) => Err(LinkClosed),
                    Ok(msg) => Ok(Some(msg)),
                    Err(RecvTimeoutError::Timeout) => Ok(None),
                    Err(RecvTimeoutError::Disconnected) => Err(LinkClosed),
                }
            }
            Arm::Tcp(link) => link.recv(timeout),
        }
    }

    /// False once the link is known dead.
    pub fn is_connected(&self) -> bool {
        match &self.0 {
            Arm::Mem { shared, .. } => !shared.severed.load(Ordering::SeqCst),
            Arm::Tcp(link) => !link.dead.load(Ordering::SeqCst),
        }
    }

    /// Cut the link, both directions: a network partition. A TCP end also
    /// shuts its socket down, so the far end reads EOF.
    pub fn sever(&self) {
        match &self.0 {
            Arm::Mem { shared, .. } => shared.severed.store(true, Ordering::SeqCst),
            Arm::Tcp(link) => {
                link.kill();
                let _ = link.stream.shutdown(Shutdown::Both);
            }
        }
    }
}

impl<S: Send + 'static, R: Send + 'static> Link<S, R> {
    /// Hand this end's serving to the far end. `step(&end, wait)` serves
    /// what reaches this end within `wait` and returns false once it is
    /// over. In memory the offer is taken: the far end's
    /// [`Link::recv_timeout`] runs the step with a zero wait before it
    /// waits, and dropping the far end runs it a last time; the step, and
    /// this end with it, is dropped when it returns false or after that
    /// last run, which closes the link. Over TCP the far end is another
    /// process: the offer is refused, and the end and its step come back
    /// for the caller to drive.
    pub fn offer_step<F>(self, mut step: F) -> Result<(), (Self, F)>
    where
        F: FnMut(&Self, Duration) -> bool + Send + 'static,
    {
        let (shared, end) = match &self.0 {
            Arm::Mem { shared, end, .. } => (shared.clone(), *end),
            Arm::Tcp(_) => return Err((self, step)),
        };
        *shared.steps[end].lock() = Some(Box::new(move || step(&self, Duration::ZERO)));
        Ok(())
    }
}

impl<S, R> Drop for Link<S, R> {
    fn drop(&mut self) {
        if let Arm::Mem { shared, end, .. } = &self.0 {
            // Serve what this end sent last, then release the far end.
            shared.run_far_step(*end, true);
        }
    }
}

impl Transport for Link<Message> {
    fn send(&self, msg: Message) -> Result<(), TransportError> {
        Link::send(self, msg).map_err(|LinkClosed| TransportError::Disconnected)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Option<Message>, TransportError> {
        Link::recv_timeout(self, timeout).map_err(|LinkClosed| TransportError::Disconnected)
    }

    fn is_connected(&self) -> bool {
        Link::is_connected(self)
    }
}

// ---------------------------------------------------------------------------
// The TCP arm
// ---------------------------------------------------------------------------

/// One end of a framed TCP connection with no thread of its own: frames are
/// written inline, and [`FramedLink::recv`] decodes from a per-link buffer
/// and reads the socket on the calling thread.
struct FramedLink {
    stream: TcpStream,
    /// Held while a frame is written, so concurrent senders never
    /// interleave bytes.
    write: Mutex<()>,
    /// Received bytes not yet decoded; a partial frame waits here across
    /// calls. The socket is read straight into its spare room.
    read: Mutex<BytesMut>,
    dead: AtomicBool,
}

/// Room offered to each socket read.
const READ_CHUNK: usize = 64 * 1024;

impl FramedLink {
    fn new(stream: TcpStream) -> std::io::Result<FramedLink> {
        stream.set_nodelay(true)?;
        Ok(FramedLink {
            stream,
            write: Mutex::new(()),
            read: Mutex::new(BytesMut::with_capacity(READ_CHUNK)),
            dead: AtomicBool::new(false),
        })
    }

    fn kill(&self) -> LinkClosed {
        self.dead.store(true, Ordering::SeqCst);
        LinkClosed
    }

    /// Write one encoded frame.
    fn send(&self, frame: &[u8]) -> Result<(), LinkClosed> {
        if self.dead.load(Ordering::SeqCst) {
            return Err(LinkClosed);
        }
        let _writing = self.write.lock();
        (&self.stream).write_all(frame).map_err(|_| self.kill())
    }

    /// The next frame, waiting up to `timeout` for its last byte.
    ///
    /// Frames already buffered are decoded without touching the socket.
    /// `Ok(None)` on timeout; a frame cut short by it stays buffered and
    /// the next call finishes it. A zero timeout takes what the socket
    /// already holds and returns at once. EOF, a socket error or a frame
    /// that does not decode kills the link.
    fn recv<T: Frame>(&self, timeout: Duration) -> Result<Option<T>, LinkClosed> {
        let mut buf = self.read.lock();
        let deadline = Instant::now().checked_add(timeout);
        let mut wait = timeout;
        loop {
            match T::decode(&mut buf) {
                Ok(Some(frame)) => return Ok(Some(frame)),
                Ok(None) => {}
                Err(_) => {
                    // Framing is lost: nothing behind the damage is served.
                    *buf = BytesMut::new();
                    return Err(self.kill());
                }
            }
            if self.dead.load(Ordering::SeqCst) {
                return Err(LinkClosed);
            }
            match self.wait_readable(wait) {
                // Readable (or at EOF, or in error): the read cannot block.
                Ok(true) => match buf.read_from(&mut &self.stream, READ_CHUNK) {
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
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::resync_entry;
    use bytes::Bytes;
    use std::sync::atomic::AtomicUsize;

    const SHORT: Duration = Duration::from_millis(200);

    #[test]
    fn mem_pair_delivers_both_directions() {
        let (a, b) = mem_pair();
        a.send(Message::Purge).unwrap();
        assert_eq!(b.recv_timeout(SHORT).unwrap(), Some(Message::Purge));
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
        assert_eq!(a.send(Message::Purge), Err(LinkClosed));
        assert_eq!(b.send(Message::Purge), Err(LinkClosed));
        assert!(!a.is_connected());
        assert!(!b.is_connected());
        assert_eq!(b.recv_timeout(SHORT), Err(LinkClosed));
        // Through the peer trait, the same verdict.
        assert_eq!(
            Transport::recv_timeout(&b, SHORT),
            Err(TransportError::Disconnected)
        );
    }

    #[test]
    fn dropped_endpoint_disconnects_peer() {
        let (a, b) = mem_pair();
        drop(a);
        assert_eq!(b.send(Message::Purge), Err(LinkClosed));
        assert_eq!(b.recv_timeout(SHORT), Err(LinkClosed));
    }

    #[test]
    fn an_offered_step_runs_in_the_far_ends_wait_and_drop() {
        let (server, client) = mem_pair();
        let runs = Arc::new(AtomicUsize::new(0));
        let counted = runs.clone();
        let offered = server.offer_step(move |end, wait| {
            counted.fetch_add(1, Ordering::SeqCst);
            while let Ok(Some(Message::Purge)) = end.recv_timeout(wait) {
                end.send(Message::PurgeAck).unwrap();
            }
            true
        });
        assert!(offered.is_ok(), "an in-memory end takes the step");
        client.send(Message::Purge).unwrap();
        client.send(Message::Purge).unwrap();
        // No thread serves the server end: the client's wait does, once.
        assert_eq!(client.recv_timeout(SHORT), Ok(Some(Message::PurgeAck)));
        assert_eq!(client.recv_timeout(SHORT), Ok(Some(Message::PurgeAck)));
        assert_eq!(runs.load(Ordering::SeqCst), 2);
        client.send(Message::Purge).unwrap();
        drop(client); // a last run, then the step is dropped
        assert_eq!(runs.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn a_step_that_is_over_closes_the_link() {
        let (server, client) = mem_pair();
        assert!(server.offer_step(|_, _| false).is_ok());
        let started = Instant::now();
        assert_eq!(client.recv_timeout(SHORT), Err(LinkClosed));
        assert!(started.elapsed() < SHORT, "the close is seen at once");
        assert_eq!(client.send(Message::Purge), Err(LinkClosed));
    }

    #[test]
    fn tcp_refuses_an_offered_step() {
        let (client, server) = tcp_pair();
        let Err((server, _step)) = server.offer_step(|_, _| true) else {
            panic!("the far end of a TCP link is another process");
        };
        // The end comes back working.
        client.send(Message::Purge).unwrap();
        assert_eq!(server.recv_timeout(SHORT), Ok(Some(Message::Purge)));
    }

    /// Two connected TCP peer links on loopback.
    fn tcp_pair() -> (TcpTransport, TcpTransport) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || TcpTransport::connect(addr).unwrap());
        let server = TcpTransport::accept(&listener).unwrap();
        (client.join().unwrap(), server)
    }

    #[test]
    fn tcp_round_trip_on_loopback() {
        let (client, server) = tcp_pair();
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
    fn severed_tcp_link_closes_both_ends() {
        let (client, server) = tcp_pair();
        client.sever();
        assert!(!client.is_connected());
        assert_eq!(client.send(Message::Purge), Err(LinkClosed));
        assert_eq!(server.recv_timeout(SHORT), Err(LinkClosed));
    }

    #[test]
    fn tcp_handles_large_batched_frames() {
        let (client, server) = tcp_pair();
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
