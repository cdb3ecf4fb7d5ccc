//! Probes at the three public trait seams — `SessionLink`, `Transport`,
//! `StorageBackend` — and the span sink they record into.
//!
//! A probe owns the real implementation and forwards every call; while the
//! sink is recording it also timestamps the call. Nothing in the product
//! knows it is being watched.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use fc_cluster::{Message, StorageBackend, Transport, TransportError};
use fc_gateway::{LinkClosed, Reply, Request, SessionLink};

pub const CLIENT_REQUEST: &str = "client.request";
pub const GATEWAY_SESSION: &str = "gateway.session";
pub const REPL_RTT: &str = "cluster.transport.repl_rtt";
pub const BACKEND_WRITE: &str = "cluster.backend.write_page";
pub const BACKEND_READ: &str = "cluster.backend.read_page";

/// The request a span belongs to: (client index, request id).
pub type ReqKey = (u32, u64);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// `None` for work no client request was waiting on.
    pub req: Option<ReqKey>,
}

/// Name of the span that causes spans called `name`.
pub fn parent_of(name: &str) -> Option<&'static str> {
    match name {
        GATEWAY_SESSION => Some(CLIENT_REQUEST),
        REPL_RTT | BACKEND_WRITE | BACKEND_READ => Some(GATEWAY_SESSION),
        _ => None,
    }
}

thread_local! {
    /// The request the current thread is serving: set by the session probe
    /// between receiving a request and sending its reply. Destage and
    /// backend reads run on the session thread, so the backend probe reads
    /// its cause from here.
    static SERVING: Cell<Option<ReqKey>> = const { Cell::new(None) };
}

/// Where probes put spans: kept in memory, written out when the run ends.
pub struct SpanSink {
    epoch: Instant,
    recording: AtomicBool,
    spans: Mutex<Vec<Span>>,
    /// The request each client has in flight — in the closed phase there
    /// is exactly one — for probes that see an lpn but run on a thread of
    /// their own (the replication pipe).
    in_flight: Vec<AtomicU64>,
    window_pages: u64,
}

impl SpanSink {
    pub fn new(clients: usize, window_pages: u64) -> Arc<SpanSink> {
        Arc::new(SpanSink {
            epoch: Instant::now(),
            recording: AtomicBool::new(false),
            spans: Mutex::new(Vec::new()),
            in_flight: (0..clients).map(|_| AtomicU64::new(0)).collect(),
            window_pages,
        })
    }

    pub fn set_recording(&self, on: bool) {
        self.recording.store(on, Ordering::SeqCst);
    }

    pub fn recording(&self) -> bool {
        self.recording.load(Ordering::Relaxed)
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn push(&self, span: Span) {
        self.spans.lock().expect("span sink").push(span);
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span sink"))
    }

    /// Clients own disjoint lpn windows, so an lpn names its client and,
    /// with one request per client in flight, its request.
    fn req_of_lpn(&self, lpn: u64) -> Option<ReqKey> {
        let client = (lpn / self.window_pages) as usize;
        let id = self.in_flight.get(client)?.load(Ordering::Relaxed);
        (id != 0).then_some((client as u32, id))
    }
}

// ---------------------------------------------------------------------------
// SessionLink
// ---------------------------------------------------------------------------

/// `gateway.session`: request id received → reply with that id sent.
pub struct ProbeSession<L> {
    inner: L,
    sink: Arc<SpanSink>,
    client: u32,
    /// Start time per request id awaiting its reply. Only the session
    /// thread touches it; `SessionLink` needs `Send`, not `Sync`.
    open: RefCell<HashMap<u64, u64>>,
}

impl<L: SessionLink> ProbeSession<L> {
    pub fn new(inner: L, sink: Arc<SpanSink>, client: u32) -> Self {
        ProbeSession {
            inner,
            sink,
            client,
            open: RefCell::new(HashMap::new()),
        }
    }
}

impl<L: SessionLink> SessionLink for ProbeSession<L> {
    fn send(&self, reply: Reply) -> Result<(), LinkClosed> {
        let id = reply.id();
        let started = self.open.borrow_mut().remove(&id);
        let sent = self.inner.send(reply);
        if let Some(start_ns) = started {
            self.sink.push(Span {
                name: GATEWAY_SESSION,
                start_ns,
                end_ns: self.sink.now_ns(),
                req: Some((self.client, id)),
            });
            self.sink.in_flight[self.client as usize].store(0, Ordering::Relaxed);
            SERVING.with(|s| s.set(None));
        }
        sent
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Option<Request>, LinkClosed> {
        let got = self.inner.recv_timeout(timeout)?;
        if let Some(req) = &got {
            let id = req.id();
            if id != 0 && self.sink.recording() {
                self.open.borrow_mut().insert(id, self.sink.now_ns());
                self.sink.in_flight[self.client as usize].store(id, Ordering::Relaxed);
                SERVING.with(|s| s.set(Some((self.client, id))));
            }
        }
        Ok(got)
    }
}

// ---------------------------------------------------------------------------
// Transport
// ---------------------------------------------------------------------------

/// What the transport probe counted while the sink was recording.
#[derive(Debug, Clone, Default)]
pub struct TransportCounts {
    pub frames: u64,
    pub frame_pages: u64,
    pub send_ns: Vec<u64>,
    pub rtt_ns: Vec<u64>,
    pub inflight_batches_max: u64,
}

#[derive(Default)]
struct TransportState {
    /// Unacknowledged `WriteReplBatch` frames: seq → (send time, requests
    /// with pages in the frame).
    pending: BTreeMap<u64, (u64, Vec<ReqKey>)>,
    counts: TransportCounts,
}

/// On a primary's node link: `send(WriteReplBatch{seq})` →
/// `recv(ReplAckBatch{up_to >= seq})` is one `repl_rtt` span per request
/// with pages in the frame; the time inside `send` itself (encode plus
/// socket write on TCP) is sampled separately.
pub struct ProbeTransport<T> {
    inner: T,
    sink: Arc<SpanSink>,
    state: Arc<Mutex<TransportState>>,
}

/// Reads a [`ProbeTransport`]'s counters after the node has taken it.
#[derive(Clone)]
pub struct TransportHandle(Arc<Mutex<TransportState>>);

impl TransportHandle {
    pub fn counts(&self) -> TransportCounts {
        self.0.lock().expect("transport probe").counts.clone()
    }
}

impl<T: Transport> ProbeTransport<T> {
    pub fn new(inner: T, sink: Arc<SpanSink>) -> (Self, TransportHandle) {
        let state = Arc::new(Mutex::new(TransportState::default()));
        let handle = TransportHandle(state.clone());
        (ProbeTransport { inner, sink, state }, handle)
    }
}

/// Requests (at most one per client) that own a page of `lpns`.
fn owners(sink: &SpanSink, lpns: impl Iterator<Item = u64>) -> Vec<ReqKey> {
    let mut reqs: Vec<ReqKey> = Vec::new();
    for lpn in lpns {
        if let Some(r) = sink.req_of_lpn(lpn) {
            if !reqs.contains(&r) {
                reqs.push(r);
            }
        }
    }
    reqs
}

/// Resolve every pending frame with `seq <= up_to` at time `now_ns`:
/// cumulative acks answer all earlier frames at once.
fn resolve_acked(state: &mut TransportState, up_to: u64, now_ns: u64, sink: &SpanSink) {
    while let Some(entry) = state.pending.first_entry() {
        if *entry.key() > up_to {
            break;
        }
        let (start_ns, reqs) = entry.remove();
        state.counts.rtt_ns.push(now_ns.saturating_sub(start_ns));
        for req in reqs {
            sink.push(Span {
                name: REPL_RTT,
                start_ns,
                end_ns: now_ns,
                req: Some(req),
            });
        }
    }
}

impl<T: Transport> Transport for ProbeTransport<T> {
    fn send(&self, msg: Message) -> Result<(), TransportError> {
        let batch = match &msg {
            Message::WriteReplBatch { seq, entries, .. } if self.sink.recording() => {
                let reqs = owners(&self.sink, entries.iter().map(|e| e.0));
                Some((*seq, entries.len() as u64, reqs))
            }
            _ => None,
        };
        let Some((seq, pages, reqs)) = batch else {
            return self.inner.send(msg);
        };
        let start_ns = self.sink.now_ns();
        {
            // Registered before the send: the ack can arrive, on the pump
            // thread, before `send` returns here.
            let mut st = self.state.lock().expect("transport probe");
            st.pending.entry(seq).or_insert((start_ns, reqs));
            let depth = st.pending.len() as u64;
            st.counts.inflight_batches_max = st.counts.inflight_batches_max.max(depth);
        }
        let sent = self.inner.send(msg);
        let end_ns = self.sink.now_ns();
        let mut st = self.state.lock().expect("transport probe");
        st.counts.frames += 1;
        st.counts.frame_pages += pages;
        st.counts.send_ns.push(end_ns - start_ns);
        sent
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Option<Message>, TransportError> {
        let got = self.inner.recv_timeout(timeout)?;
        if let Some(Message::ReplAckBatch { up_to, .. }) = &got {
            let mut st = self.state.lock().expect("transport probe");
            if !st.pending.is_empty() {
                resolve_acked(&mut st, *up_to, self.sink.now_ns(), &self.sink);
            }
        }
        Ok(got)
    }

    fn is_connected(&self) -> bool {
        self.inner.is_connected()
    }
}

// ---------------------------------------------------------------------------
// StorageBackend
// ---------------------------------------------------------------------------

/// Lengths of the consecutive-lpn runs in a stream of page writes — the
/// paper's write length (Fig. 8), seen at the backend seam.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunLengths {
    pub runs: u64,
    pub pages: u64,
    pub one_page_runs: u64,
    /// The run still growing: (next expected lpn, length so far).
    open: Option<(u64, u64)>,
}

impl RunLengths {
    pub fn write(&mut self, lpn: u64) {
        match &mut self.open {
            Some((next, len)) if *next == lpn => {
                *next += 1;
                *len += 1;
            }
            _ => {
                self.close();
                self.open = Some((lpn + 1, 1));
            }
        }
    }

    /// End the run in progress (the stream is over, or paused).
    pub fn close(&mut self) {
        if let Some((_, len)) = self.open.take() {
            self.runs += 1;
            self.pages += len;
            self.one_page_runs += u64::from(len == 1);
        }
    }
}

/// What the backend probe counted while the sink was recording.
#[derive(Debug, Clone, Default)]
pub struct BackendCounts {
    pub write_pages: u64,
    pub read_pages: u64,
    pub trim_pages: u64,
    pub write_ns: Vec<u64>,
    /// Time inside any backend call.
    pub busy_ns: u64,
    pub run_lengths: RunLengths,
}

/// Wraps a pair's backend. Reads go through `&self`, hence the mutex
/// around the counters; the node already serialises backend calls, so it
/// is never contended.
pub struct ProbeBackend<B> {
    inner: B,
    sink: Arc<SpanSink>,
    counts: Arc<Mutex<BackendCounts>>,
}

/// Reads a [`ProbeBackend`]'s counters after the nodes have taken it.
#[derive(Clone)]
pub struct BackendHandle(Arc<Mutex<BackendCounts>>);

impl BackendHandle {
    pub fn counts(&self) -> BackendCounts {
        let mut c = self.0.lock().expect("backend probe").clone();
        c.run_lengths.close();
        c
    }
}

impl<B: StorageBackend> ProbeBackend<B> {
    pub fn new(inner: B, sink: Arc<SpanSink>) -> (Self, BackendHandle) {
        let counts = Arc::new(Mutex::new(BackendCounts::default()));
        let handle = BackendHandle(counts.clone());
        (
            ProbeBackend {
                inner,
                sink,
                counts,
            },
            handle,
        )
    }

    fn finish(
        &self,
        name: Option<&'static str>,
        start_ns: u64,
        f: impl FnOnce(&mut BackendCounts, u64),
    ) {
        let end_ns = self.sink.now_ns();
        let mut c = self.counts.lock().expect("backend probe");
        c.busy_ns += end_ns - start_ns;
        f(&mut c, end_ns - start_ns);
        drop(c);
        if let Some(name) = name {
            self.sink.push(Span {
                name,
                start_ns,
                end_ns,
                req: SERVING.with(Cell::get),
            });
        }
    }
}

impl<B: StorageBackend> StorageBackend for ProbeBackend<B> {
    fn write_page(&mut self, lpn: u64, version: u64, data: &[u8]) {
        if !self.sink.recording() {
            return self.inner.write_page(lpn, version, data);
        }
        let start_ns = self.sink.now_ns();
        self.inner.write_page(lpn, version, data);
        self.finish(Some(BACKEND_WRITE), start_ns, |c, ns| {
            c.write_pages += 1;
            c.write_ns.push(ns);
            c.run_lengths.write(lpn);
        });
    }

    fn read_page(&self, lpn: u64) -> Option<(u64, Vec<u8>)> {
        if !self.sink.recording() {
            return self.inner.read_page(lpn);
        }
        let start_ns = self.sink.now_ns();
        let page = self.inner.read_page(lpn);
        self.finish(Some(BACKEND_READ), start_ns, |c, _| c.read_pages += 1);
        page
    }

    fn trim_page(&mut self, lpn: u64) {
        if !self.sink.recording() {
            return self.inner.trim_page(lpn);
        }
        let start_ns = self.sink.now_ns();
        self.inner.trim_page(lpn);
        self.finish(None, start_ns, |c, _| c.trim_pages += 1);
    }

    fn pages(&self) -> usize {
        self.inner.pages()
    }

    fn version_of(&self, lpn: u64) -> Option<u64> {
        self.inner.version_of(lpn)
    }

    fn lpns(&self) -> Vec<u64> {
        self.inner.lpns()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use fc_cluster::{mem_pair, resync_entry, MemBackend};
    use fc_gateway::mem_session;

    const SHORT: Duration = Duration::from_millis(200);

    fn batch(seq: u64, lpns: &[u64]) -> Message {
        Message::WriteReplBatch {
            epoch: 1,
            seq,
            entries: lpns
                .iter()
                .map(|&l| resync_entry(l, 1, Bytes::from_static(b"p")))
                .collect(),
        }
    }

    #[test]
    fn session_probe_pairs_request_id_with_reply_id() {
        let sink = SpanSink::new(2, 100);
        sink.set_recording(true);
        let (client, server) = mem_session();
        let probe = ProbeSession::new(server, sink.clone(), 1);

        client.send(Request::Flush { id: 7 }).unwrap();
        client.send(Request::Flush { id: 8 }).unwrap();
        assert_eq!(probe.recv_timeout(SHORT).unwrap().unwrap().id(), 7);
        assert_eq!(sink.req_of_lpn(150), Some((1, 7)));
        assert_eq!(probe.recv_timeout(SHORT).unwrap().unwrap().id(), 8);
        // Replies may be sent in any order; each closes its own span.
        probe.send(Reply::FlushOk { id: 8, flushed: 0 }).unwrap();
        probe.send(Reply::FlushOk { id: 7, flushed: 0 }).unwrap();
        // A reply nobody asked for (the handshake's) opens nothing.
        probe
            .send(Reply::HelloOk {
                version: 2,
                max_inflight: 1,
            })
            .unwrap();

        let spans = sink.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].req, Some((1, 8)));
        assert_eq!(spans[1].req, Some((1, 7)));
        assert!(spans.iter().all(|s| s.name == GATEWAY_SESSION));
        assert!(spans[1].start_ns <= spans[0].start_ns && spans[0].end_ns <= spans[1].end_ns);
        assert_eq!(sink.req_of_lpn(150), None);
    }

    #[test]
    fn session_probe_is_silent_when_not_recording() {
        let sink = SpanSink::new(1, 100);
        let (client, server) = mem_session();
        let probe = ProbeSession::new(server, sink.clone(), 0);
        client.send(Request::Flush { id: 1 }).unwrap();
        probe.recv_timeout(SHORT).unwrap().unwrap();
        probe.send(Reply::FlushOk { id: 1, flushed: 0 }).unwrap();
        assert!(sink.take().is_empty());
    }

    #[test]
    fn transport_probe_pairs_batch_seq_with_cumulative_ack() {
        let sink = SpanSink::new(2, 100);
        sink.set_recording(true);
        sink.in_flight[0].store(11, Ordering::Relaxed);
        sink.in_flight[1].store(22, Ordering::Relaxed);
        let (a, b) = mem_pair();
        let (probe, handle) = ProbeTransport::new(a, sink.clone());

        probe.send(batch(1, &[5, 6])).unwrap(); // client 0 only
        probe.send(batch(2, &[7, 150])).unwrap(); // both clients
        probe.send(batch(3, &[151])).unwrap(); // client 1 only
        probe
            .send(Message::Heartbeat {
                from: 0,
                at_millis: 0,
                credits: 0,
            })
            .unwrap(); // not a batch: forwarded, not counted
        for _ in 0..4 {
            b.recv_timeout(SHORT).unwrap().unwrap();
        }

        // One cumulative ack answers frames 1 and 2; frame 3 stays pending.
        b.send(Message::ReplAckBatch {
            epoch: 1,
            up_to: 2,
            credits: 9,
        })
        .unwrap();
        probe.recv_timeout(SHORT).unwrap().unwrap();
        let spans = sink.take();
        let reqs: Vec<_> = spans.iter().map(|s| s.req.unwrap()).collect();
        assert_eq!(reqs, vec![(0, 11), (0, 11), (1, 22)]);
        assert!(spans.iter().all(|s| s.name == REPL_RTT));
        assert_eq!(handle.counts().rtt_ns.len(), 2);

        // A repeated ack resolves nothing twice; the next one closes 3.
        for up_to in [2, 3] {
            b.send(Message::ReplAckBatch {
                epoch: 1,
                up_to,
                credits: 9,
            })
            .unwrap();
            probe.recv_timeout(SHORT).unwrap().unwrap();
        }
        assert_eq!(sink.take().len(), 1);
        let c = handle.counts();
        assert_eq!((c.frames, c.frame_pages), (3, 5));
        assert_eq!(c.rtt_ns.len(), 3);
        assert_eq!(c.send_ns.len(), 3);
        assert_eq!(c.inflight_batches_max, 3);
    }

    #[test]
    fn run_lengths_count_consecutive_lpns() {
        let mut r = RunLengths::default();
        for lpn in [10, 11, 12, 20, 30, 31, 31, 32] {
            r.write(lpn);
        }
        r.close();
        // 10-12 | 20 | 30-31 | 31-32 (a rewrite starts a new run)
        assert_eq!((r.runs, r.pages, r.one_page_runs), (4, 8, 1));
        r.close();
        assert_eq!(r.runs, 4, "closing twice counts nothing twice");
    }

    #[test]
    fn backend_probe_counts_and_attributes_to_the_serving_request() {
        let sink = SpanSink::new(1, 100);
        let (mut probe, handle) = ProbeBackend::new(MemBackend::new(), sink.clone());
        probe.write_page(1, 1, b"quiet"); // not recording: forwarded only
        sink.set_recording(true);
        SERVING.with(|s| s.set(Some((0, 5))));
        probe.write_page(2, 1, b"a");
        probe.write_page(3, 1, b"b");
        assert_eq!(probe.read_page(1).unwrap().1, b"quiet".to_vec());
        SERVING.with(|s| s.set(None));
        probe.write_page(9, 1, b"c"); // nobody waiting: span without a request
        probe.trim_page(9);

        let c = handle.counts();
        assert_eq!((c.write_pages, c.read_pages, c.trim_pages), (3, 1, 1));
        assert_eq!(c.write_ns.len(), 3);
        assert_eq!((c.run_lengths.runs, c.run_lengths.pages), (2, 3));
        let spans = sink.take();
        assert_eq!(spans.len(), 4, "trims are counted, not spanned");
        assert_eq!(spans[0].req, Some((0, 5)));
        assert_eq!(spans[2].name, BACKEND_READ);
        assert_eq!(spans[3].req, None);
        assert_eq!(probe.pages(), 3);
    }
}
