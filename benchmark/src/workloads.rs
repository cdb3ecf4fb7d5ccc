//! The one table of knobs. Everything that shapes a workload is a constant
//! here; the command line chooses a workload, a seed and a run length, and
//! nothing else.

/// Bytes per page on the wire and in the buffers.
pub const PAGE_BYTES: usize = 512;
/// Pages per logical block: LAR granularity, ring block, destage unit.
pub const PAGES_PER_BLOCK: u32 = 64;
/// Largest replication frame (`NodeConfig::repl_batch_pages`).
pub const REPL_BATCH_PAGES: usize = 32;
/// Client threads. The box has two cores; more clients only measure the
/// scheduler.
pub const CLIENTS: usize = 2;
/// Fresh-cluster repeats per run; a reported figure is their median. Where
/// a cluster's threads land on the two CPUs is drawn once per cluster and
/// moves its CPU per request by up to a factor of two, so a run needs
/// several draws more than it needs long phases.
pub const REPEATS: usize = 6;
/// Share of a repeat's measured time spent in the closed phase; the paced
/// phase gets the rest.
pub const CLOSED_SHARE: f64 = 0.5;
/// Untimed warm-up, as a share of the closed phase's length.
pub const WARMUP_SHARE: f64 = 0.1;
/// A paced request sent later than this after it was due counts as late.
pub const LATE_NS: u64 = 1_000_000;
/// A paced phase with more than this share of late sends is overloaded.
pub const MAX_LATE_SHARE: f64 = 0.05;
/// ... as is one that ends with more than this many seconds of its own
/// rate still unanswered (the backlog did not level off).
pub const MAX_BACKLOG_SECONDS: f64 = 0.25;
/// Ring placement seed: fixed, so shard layout is part of the benchmark.
pub const RING_SEED: u64 = 0x10AD_4E4E_F1A5_C009;
/// Calls per function in the direct-call pass.
pub const DIRECT_CALLS: usize = 10_240;
/// Direct calls are timed in batches of this many (one clock read per
/// call would cost more than the cheap functions do).
pub const DIRECT_BATCH: usize = 64;

/// Which Table-I personality the clients replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    Fin1,
    Fin2,
    Mix,
}

/// In-memory channel or loopback TCP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Link {
    Mem,
    Tcp,
}

/// What the nodes destage to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// `MemBackend`: a map, no device model.
    Mem,
    /// `SimSsdBackend` over `SsdConfig::evaluation(FtlKind::Bast)`.
    SimSsd,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`.
    pub why: &'static str,
    pub trace: TraceKind,
    /// Mean request size in pages; `None` keeps the trace's own.
    pub mean_req_pages: Option<f64>,
    /// Private lpn window per client, in pages.
    pub window_pages: u64,
    pub pairs: u16,
    pub client_link: Link,
    pub node_link: Link,
    pub backend: BackendKind,
    /// Write every page of the client windows to the backend
    /// (`StorageBackend::write_page`) during set-up: reads have something
    /// to find, and a device's garbage collection is live from the first
    /// timed request.
    pub prefill: bool,
    pub buffer_pages: usize,
    pub remote_capacity: usize,
    /// Open-loop rate of the paced phase, both clients together: about a
    /// third of what the closed phase reaches at the seed commit on the
    /// reference box, low enough that latency follows the request's path
    /// and not the queue in front of it.
    pub paced_req_per_s: f64,
    /// Requests generated per client per closed-phase second: about four
    /// times the seed commit's speed, so the list never cycles.
    pub closed_reqs_per_client_s: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "repl-wr",
        why: "Fin1 32-page writes into a working set far below the buffer: every page replicates, none destages",
        trace: TraceKind::Fin1,
        mean_req_pages: Some(32.0),
        window_pages: 256,
        pairs: 1,
        client_link: Link::Mem,
        node_link: Link::Mem,
        backend: BackendKind::Mem,
        prefill: false,
        buffer_pages: 8192,
        remote_capacity: 16384,
        paced_req_per_s: 2000.0,
        closed_reqs_per_client_s: 16_000,
    },
    Workload {
        name: "destage-wr",
        why: "Fin1 1-page writes over 64x the buffer onto a prefilled simulated SSD: LAR eviction, destage and the FTL dominate",
        trace: TraceKind::Fin1,
        mean_req_pages: None,
        window_pages: 57_344,
        pairs: 1,
        client_link: Link::Mem,
        node_link: Link::Mem,
        backend: BackendKind::SimSsd,
        prefill: true,
        buffer_pages: 2048,
        remote_capacity: 4096,
        paced_req_per_s: 4000.0,
        closed_reqs_per_client_s: 24_000,
    },
    Workload {
        name: "read-tcp",
        why: "Fin2 reads over TCP client sessions with a third of them buffer hits: client codec and read path, replication idle",
        trace: TraceKind::Fin2,
        mean_req_pages: None,
        window_pages: 65_536,
        pairs: 1,
        client_link: Link::Tcp,
        node_link: Link::Mem,
        backend: BackendKind::Mem,
        prefill: true,
        buffer_pages: 2048,
        remote_capacity: 4096,
        paced_req_per_s: 4000.0,
        closed_reqs_per_client_s: 40_000,
    },
    Workload {
        name: "shard4-mix-tcp",
        why: "Mix 8-page requests over 4 pairs, TCP clients and TCP node links, simulated SSDs: ring split, fan-out, wire codec",
        trace: TraceKind::Mix,
        mean_req_pages: Some(8.0),
        window_pages: 16_384,
        pairs: 4,
        client_link: Link::Tcp,
        node_link: Link::Tcp,
        backend: BackendKind::SimSsd,
        prefill: false,
        buffer_pages: 2048,
        remote_capacity: 4096,
        paced_req_per_s: 2000.0,
        closed_reqs_per_client_s: 12_000,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
