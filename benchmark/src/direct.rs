//! The direct-call pass: median time per call of single public functions,
//! one thread, seeded inputs, no cluster around them (except the node
//! calls, which need a bare mem pair).

use std::hint::black_box;
use std::time::Instant;

use bytes::{Bytes, BytesMut};
use fc_cluster::{
    crc32, mem_pair, resync_entry, shared_backend, MemBackend, Message, Node, NodeConfig,
};
use fc_gateway::proto::{decode_reply, decode_request, encode_reply, encode_request};
use fc_gateway::{coalesce, coalesce_sharded, Admission, AdmissionConfig, Reply, Request};
use fc_ring::{Ring, RingConfig};
use fc_trace::{IoRequest, Op};
use flashcoop::{BufferManager, PolicyKind};

use crate::metrics::Values;
use crate::oracle::payload;
use crate::run::client_trace;
use crate::stats::median;
use crate::workloads::{
    by_name, DIRECT_BATCH, DIRECT_CALLS, PAGES_PER_BLOCK, REPL_BATCH_PAGES, RING_SEED,
};

/// Median nanoseconds per call of `f` over [`DIRECT_CALLS`] calls, timed
/// in batches of [`DIRECT_BATCH`].
fn ns_per_call(mut f: impl FnMut(usize)) -> f64 {
    let per_batch: Vec<f64> = (0..DIRECT_CALLS / DIRECT_BATCH)
        .map(|b| {
            let t = Instant::now();
            for i in 0..DIRECT_BATCH {
                f(b * DIRECT_BATCH + i);
            }
            t.elapsed().as_nanos() as f64 / DIRECT_BATCH as f64
        })
        .collect();
    median(&per_batch).expect("at least one batch")
}

fn ring(pairs: u16) -> Ring {
    Ring::with_pairs(
        RingConfig {
            seed: RING_SEED,
            block_pages: PAGES_PER_BLOCK,
            ..RingConfig::default()
        },
        pairs,
    )
}

/// 32 consecutive pages starting at `lpn`.
fn pages32(lpn: u64, seq: u64) -> Vec<Bytes> {
    (0..32).map(|i| payload(0, lpn + i, seq)).collect()
}

pub fn run(seed: u64, out: &mut Values) {
    // An lpn stream for the cheap lookups: a multiplicative walk.
    let lpn_at = |i: usize| (seed ^ i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;

    // -- gateway.proto ------------------------------------------------------
    let write32 = Request::Write {
        id: 1,
        lpn: 64,
        pages: pages32(64, seed),
    };
    let readok32 = Reply::ReadOk {
        id: 1,
        pages: pages32(64, seed).into_iter().map(Some).collect(),
    };
    // A fresh buffer per encode, as the TCP links do it.
    let mut buf = BytesMut::new();
    out.put(
        "gateway.proto.encode_write32_ns",
        ns_per_call(|_| {
            buf = BytesMut::new();
            encode_request(black_box(&write32), &mut buf);
        }),
    );
    let frame = buf.clone();
    out.put(
        "gateway.proto.decode_write32_ns",
        ns_per_call(|_| {
            let mut b = frame.clone();
            black_box(decode_request(&mut b).expect("decodes"));
        }),
    );
    out.put(
        "gateway.proto.encode_readok32_ns",
        ns_per_call(|_| {
            buf = BytesMut::new();
            encode_reply(black_box(&readok32), &mut buf);
        }),
    );
    let frame = buf.clone();
    out.put(
        "gateway.proto.decode_readok32_ns",
        ns_per_call(|_| {
            let mut b = frame.clone();
            black_box(decode_reply(&mut b).expect("decodes"));
        }),
    );

    // -- gateway.batch: one 32-page write that straddles a block boundary ---
    let ring4 = ring(4);
    let ring1 = ring(1);
    let straddling: Vec<(u64, Bytes)> = pages32(48, seed)
        .into_iter()
        .enumerate()
        .map(|(i, p)| (48 + i as u64, p))
        .collect();
    out.put(
        "gateway.batch.coalesce_sharded_ns",
        ns_per_call(|_| {
            black_box(coalesce_sharded(straddling.clone(), PAGES_PER_BLOCK, |l| {
                ring4.shard_of_lpn(l)
            }));
        }),
    );
    out.put(
        "gateway.batch.coalesce_ns",
        ns_per_call(|_| {
            black_box(coalesce(straddling.clone(), PAGES_PER_BLOCK));
        }),
    );

    // -- gateway.admission, ring --------------------------------------------
    let admission = Admission::new(AdmissionConfig::unlimited());
    out.put(
        "gateway.admission.try_admit_ns",
        ns_per_call(|i| {
            black_box(
                admission
                    .try_admit((i % 2) as u64, i as u64)
                    .expect("unlimited"),
            );
        }),
    );
    out.put(
        "ring.shard_of_lpn_1pair_ns",
        ns_per_call(|i| {
            black_box(ring1.shard_of_lpn(black_box(lpn_at(i))));
        }),
    );
    out.put(
        "ring.shard_of_lpn_4pair_ns",
        ns_per_call(|i| {
            black_box(ring4.shard_of_lpn(black_box(lpn_at(i))));
        }),
    );

    // -- cluster.wire -------------------------------------------------------
    let batch32 = Message::WriteReplBatch {
        epoch: 1,
        seq: 1,
        entries: pages32(64, seed)
            .into_iter()
            .enumerate()
            .map(|(i, p)| resync_entry(64 + i as u64, 1, p))
            .collect(),
    };
    out.put(
        "cluster.wire.encode_batch32_ns",
        ns_per_call(|_| {
            buf = BytesMut::new();
            fc_cluster::encode(black_box(&batch32), &mut buf);
        }),
    );
    let frame = buf.clone();
    out.put(
        "cluster.wire.decode_batch32_ns",
        ns_per_call(|_| {
            let mut b = frame.clone();
            black_box(fc_cluster::decode(&mut b).expect("decodes"));
        }),
    );
    let page = payload(0, 7, seed);
    out.put(
        "cluster.wire.crc32_page_ns",
        ns_per_call(|_| {
            black_box(crc32(black_box(&page)));
        }),
    );

    // -- core.buffer: LAR at the destage-wr buffer size and request stream --
    let w = by_name("destage-wr").expect("destage-wr is in the table");
    let mut buffer = BufferManager::new(PolicyKind::Lar, w.buffer_pages, PAGES_PER_BLOCK, true);
    let stream = client_trace(w, seed, 0, 2 * DIRECT_CALLS).requests;
    let (writes, reads): (Vec<&IoRequest>, Vec<&IoRequest>) =
        stream.iter().partition(|r| r.op == Op::Write);
    out.put(
        "core.buffer.write_ns",
        ns_per_call(|i| {
            let r = writes[i % writes.len()];
            black_box(buffer.write(r.lpn, r.pages));
        }),
    );
    out.put(
        "core.buffer.read_ns",
        ns_per_call(|i| {
            let r = reads[i % reads.len()];
            black_box(buffer.read(r.lpn, r.pages));
        }),
    );
    let bs = buffer.stats();
    out.put(
        "core.buffer.evicted_pages_per_eviction",
        bs.flushed_pages as f64 / bs.evictions.max(1) as f64,
    );
    out.put("core.buffer.hit_ratio", bs.hit_ratio());

    // -- cluster.node: a bare mem pair, no gateway --------------------------
    let (ta, tb) = mem_pair();
    let backend = shared_backend(MemBackend::new());
    // Pages the read-miss pass will find only in the backend.
    const MISS_BASE: u64 = 1 << 20;
    for i in 0..DIRECT_CALLS as u64 {
        backend
            .lock()
            .write_page(MISS_BASE + i, 0, &payload(0, MISS_BASE + i, 0));
    }
    let cfg = |id: u8| {
        NodeConfig::builder()
            .id(id)
            .buffer_pages(8192)
            .remote_capacity(16384)
            .pages_per_block(PAGES_PER_BLOCK)
            .repl_batch_pages(REPL_BATCH_PAGES)
            .build()
    };
    let a = Node::spawn(cfg(0), ta, backend.clone());
    let b = Node::spawn(cfg(1), tb, backend);
    let run32 = pages32(0, seed);
    let us = |ns: f64| ns / 1e3;
    // Each node call is timed alone: these cost microseconds, and the
    // median must not average a scheduler hiccup into its batch.
    let each_ns = |f: &mut dyn FnMut(usize)| {
        let samples: Vec<f64> = (0..DIRECT_CALLS)
            .map(|i| {
                let t = Instant::now();
                f(i);
                t.elapsed().as_nanos() as f64
            })
            .collect();
        median(&samples).expect("calls were made")
    };
    out.put(
        "cluster.node.write_run32_us_p50",
        us(each_ns(&mut |i| {
            black_box(a.write_run(0, (i as u64 % 8) * 64, &run32));
        })),
    );
    out.put(
        "cluster.node.write_run1_us_p50",
        us(each_ns(&mut |i| {
            black_box(a.write_run(0, i as u64 % 512, &run32[..1]));
        })),
    );
    out.put(
        "cluster.node.read_hit_us_p50",
        us(each_ns(&mut |i| {
            black_box(a.read_from(0, i as u64 % 512).expect("buffered"));
        })),
    );
    out.put(
        "cluster.node.read_miss_us_p50",
        us(each_ns(&mut |i| {
            black_box(a.read_from(0, MISS_BASE + i as u64).expect("prefilled"));
        })),
    );
    a.shutdown();
    b.shutdown();
}
