//! Hot-path microbench: `Node::write` (single page) and `Node::write_run`
//! (32-page run) over an in-memory pair.
//!
//! Compile-checked in CI via `cargo bench --no-run`; run locally with
//! `cargo bench --bench node_write` to compare before touching the write
//! path.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, Criterion};
use fc_cluster::{mem_pair, shared_backend, MemBackend, Node, NodeConfig};

const RUN_PAGES: usize = 32;
const PAGE_BYTES: usize = 512;
/// Rotate writes through this many lpns — inside the buffer and credit
/// pools below, so the steady state replicates every page instead of
/// degrading to write-through.
const LPN_WINDOW: u64 = 2048;

fn pair() -> (Node, Node) {
    let cfg = |id: u8| {
        let mut c = NodeConfig::test_profile(id);
        c.buffer_pages = 8192;
        c.remote_capacity = 16384;
        c.repl_batch_pages = RUN_PAGES;
        c
    };
    let (ta, tb) = mem_pair();
    let backend = shared_backend(MemBackend::default());
    let a = Node::spawn(cfg(0), ta, backend.clone());
    let b = Node::spawn(cfg(1), tb, backend);
    (a, b)
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
    let (a, _b) = pair();
    let pages: Vec<Bytes> = (0..RUN_PAGES as u64).map(page).collect();
    let mut base = 0u64;
    g.bench_function("run_32_pages", |bench| {
        bench.iter(|| {
            base = (base + RUN_PAGES as u64) % LPN_WINDOW;
            a.write_run(0, base, &pages)
        })
    });
    g.finish();
}

criterion_group!(benches, bench_single_page, bench_write_run);
criterion_main!(benches);
