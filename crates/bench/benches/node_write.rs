//! Hot-path microbench: `Node::write` (single page) and `Node::write_run`
//! (32-page run) over an in-memory pair, and the same run over a loopback
//! `TcpTransport` pair — the writer sends its own frames and the pump reads
//! its own socket there, so this keeps the direct-socket path compiling.
//! Two more cases run behind a *full* 2048-page buffer, over a window 64x
//! its size, so every operation evicts under LAR: `evicting_write_1_page`
//! (destage + Discard per write) and `evicting_read_miss` (backend fetch,
//! fill, clean drop).
//!
//! Compile-checked in CI via `cargo bench --no-run`; run locally with
//! `cargo bench --bench node_write` to compare before touching the write
//! path.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, Criterion};
use fc_cluster::{
    mem_pair, shared_backend, MemBackend, Node, NodeConfig, StorageBackend, TcpTransport, Transport,
};

const RUN_PAGES: usize = 32;
const PAGE_BYTES: usize = 512;
/// Rotate writes through this many lpns — inside the buffer and credit
/// pools below, so the steady state replicates every page instead of
/// degrading to write-through.
const LPN_WINDOW: u64 = 2048;

/// Buffer size of the evicting cases, and their lpn window (64x).
const EVICTING_BUFFER: usize = 2048;
const EVICTING_WINDOW: u64 = 64 * EVICTING_BUFFER as u64;
/// Step between consecutive lpns of the evicting cases: coprime with the
/// window (every lpn comes up once per lap) and wider than a logical block
/// (victim blocks hold a page or two, as on the benchmark's `destage-wr`).
const EVICTING_STEP: u64 = 7919;

fn pair_over(
    ta: impl Transport + Sync + 'static,
    tb: impl Transport + Sync + 'static,
    buffer_pages: usize,
    backend: MemBackend,
) -> (Node, Node) {
    let cfg = |id: u8| {
        let mut c = NodeConfig::test_profile(id);
        c.buffer_pages = buffer_pages;
        c.remote_capacity = 16384;
        c.repl_batch_pages = RUN_PAGES;
        c
    };
    let backend = shared_backend(backend);
    let a = Node::spawn(cfg(0), ta, backend.clone());
    let b = Node::spawn(cfg(1), tb, backend);
    (a, b)
}

fn pair() -> (Node, Node) {
    let (ta, tb) = mem_pair();
    pair_over(ta, tb, 8192, MemBackend::default())
}

fn tcp_pair() -> (Node, Node) {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let ta = TcpTransport::connect(listener.local_addr().expect("local addr")).expect("connect");
    let tb = TcpTransport::accept(&listener).expect("accept");
    pair_over(ta, tb, 8192, MemBackend::default())
}

/// A pair whose first node sits behind a small buffer over `backend`.
fn evicting_pair(backend: MemBackend) -> (Node, Node) {
    let (ta, tb) = mem_pair();
    pair_over(ta, tb, EVICTING_BUFFER, backend)
}

fn page(i: u64) -> Bytes {
    let mut v = vec![0u8; PAGE_BYTES];
    v[..8].copy_from_slice(&i.to_le_bytes());
    Bytes::from(v)
}

fn bench_single_page(c: &mut Criterion) {
    let mut g = c.benchmark_group("node_write");
    g.sample_size(400);
    let (a, _b) = pair();
    let data = page(7);
    let mut lpn = 0u64;
    g.bench_function("single_page", |bench| {
        bench.iter(|| {
            lpn = (lpn + 1) % LPN_WINDOW;
            a.write(lpn, &data)
        })
    });
    g.finish();
}

fn bench_write_run(c: &mut Criterion) {
    let mut g = c.benchmark_group("node_write");
    g.sample_size(100);
    let pages: Vec<Bytes> = (0..RUN_PAGES as u64).map(page).collect();
    for (name, (a, _b)) in [("run_32_pages", pair()), ("run_32_pages_tcp", tcp_pair())] {
        let mut base = 0u64;
        g.bench_function(name, |bench| {
            bench.iter(|| {
                base = (base + RUN_PAGES as u64) % LPN_WINDOW;
                a.write_run(0, base, &pages)
            })
        });
    }
    g.finish();
}

fn bench_evicting(c: &mut Criterion) {
    let mut g = c.benchmark_group("node_write");
    g.sample_size(400);
    let data = page(7);
    let mut lpn = 0u64;
    let mut step = move || {
        lpn = (lpn + EVICTING_STEP) % EVICTING_WINDOW;
        lpn
    };
    {
        let (a, _b) = evicting_pair(MemBackend::default());
        // Fill the buffer first, so every measured write evicts.
        for _ in 0..EVICTING_BUFFER {
            a.write(step(), &data);
        }
        g.bench_function("evicting_write_1_page", |bench| {
            bench.iter(|| a.write(step(), &data))
        });
    }
    {
        let mut prefilled = MemBackend::default();
        for lpn in 0..EVICTING_WINDOW {
            prefilled.write_page(lpn, 1, &data);
        }
        let (a, _b) = evicting_pair(prefilled);
        for _ in 0..EVICTING_BUFFER {
            a.read(step());
        }
        g.bench_function("evicting_read_miss", |bench| bench.iter(|| a.read(step())));
    }
    g.finish();
}

criterion_group!(benches, bench_single_page, bench_write_run, bench_evicting);
criterion_main!(benches);
