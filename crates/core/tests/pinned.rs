//! The buffer's replacement decisions, pinned.
//!
//! `prop.rs` checks the buffer's invariants against a model; it does not
//! say *which* victim each policy picks, which runs it writes or in what
//! order. This test does: one seeded op sequence per configuration, and
//! the whole [`BufferStats`] plus an FNV-1a digest over everything the
//! buffer handed back — every eviction's runs, clean drops and records,
//! every read's hit/miss segments, and every `core.buffer` trace event. A
//! refactor of the buffer that keeps the figures must keep these numbers.
//!
//! The sequence makes no zero-page call and never clears a buffer: both
//! have their own tests next to the buffer.

use flashcoop::buffer::{BufferConfig, BufferStats, ReadSegment};
use flashcoop::policy::Eviction;
use flashcoop::{BufferManager, PolicyKind};

const PPB: u32 = 8;
const SPACE: u64 = 320;
const OPS: usize = 2500;

/// splitmix64: a seeded stream with no dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

struct Fnv(u64);

impl Fnv {
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        for b in s.bytes() {
            self.u64(u64::from(b));
        }
    }

    fn eviction(&mut self, ev: &Eviction<u64>) {
        self.u64(0xe1);
        self.u64(ev.runs.len() as u64);
        for r in &ev.runs {
            self.u64(r.lpn);
            self.u64(u64::from(r.pages));
            self.u64(u64::from(r.dirty));
        }
        self.u64(u64::from(ev.clean_dropped));
        self.u64(ev.records.len() as u64);
        for &rec in &ev.records {
            self.u64(rec);
        }
    }

    fn segments(&mut self, segs: &[ReadSegment]) {
        self.u64(0x5e);
        self.u64(segs.len() as u64);
        for s in segs {
            self.u64(s.lpn);
            self.u64(u64::from(s.pages));
            self.u64(u64::from(s.hit));
        }
    }
}

/// Run the seeded sequence under `cfg`; returns the final stats and the
/// digest of everything returned and emitted.
fn run(cfg: BufferConfig, seed: u64) -> (BufferStats, u64) {
    let (obs, ring) = fc_obs::Obs::ring(1 << 12);
    let mut buf: BufferManager<u64> = BufferManager::from_config(cfg);
    buf.attach_obs(&obs);
    let mut rng = Rng(seed);
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let mut seq = 0u64;
    let mut next_record = || {
        seq += 1;
        seq
    };
    for _ in 0..OPS {
        let lpn = rng.below(SPACE);
        let pages = 1 + rng.below(2 * PPB as u64) as u32;
        match rng.below(100) {
            0..=39 => {
                let records: Vec<u64> = (0..pages).map(|_| next_record()).collect();
                h.eviction(&buf.write_pages(lpn, records));
            }
            40..=69 => {
                let segs = buf.read(lpn, pages);
                h.segments(&segs);
                for s in segs.iter().filter(|s| !s.hit) {
                    let records: Vec<u64> = (0..s.pages).map(|_| next_record()).collect();
                    h.eviction(&buf.fill_pages(s.lpn, records));
                }
            }
            70..=74 => h.u64(u64::from(buf.discard(lpn, pages))),
            75..=79 => h.u64(buf.remove(lpn).unwrap_or(u64::MAX)),
            80..=85 => h.u64(buf.mark_clean(lpn).copied().unwrap_or(u64::MAX)),
            86..=89 => {
                let capacity = 24 + rng.below(48) as usize;
                h.eviction(&buf.set_capacity(capacity));
            }
            90..=96 => h.eviction(&buf.background_clean()),
            _ => h.eviction(&buf.drain_dirty()),
        }
        for e in ring.drain() {
            if e.component != "core.buffer" {
                continue;
            }
            h.str(&e.kind);
            for (name, value) in &e.fields {
                h.str(name);
                h.str(&format!("{value:?}"));
            }
        }
        h.u64(buf.resident() as u64);
        h.u64(buf.dirty() as u64);
    }
    (*buf.stats(), h.0)
}

/// `(policy, clustering, tie-break, watermark)`, then `BufferStats` as
/// `[page_hits, page_misses, evictions, flushed_pages, flushed_dirty,
/// clean_drops, clustered_batches]`, then the digest.
type Pin = (PolicyKind, bool, bool, Option<f64>, [u64; 7], u64);

const PINS: &[Pin] = &[
    (
        PolicyKind::Lar,
        true,
        true,
        None,
        [2258, 12943, 1424, 7796, 7792, 5726, 956],
        0x548d88aa06017812,
    ),
    (
        PolicyKind::Lar,
        true,
        true,
        Some(0.5),
        [2024, 12470, 1352, 7950, 7942, 5341, 924],
        0xcc00c3a36b9fefe4,
    ),
    (
        PolicyKind::Lar,
        true,
        false,
        None,
        [2019, 12426, 1370, 7499, 7496, 5789, 946],
        0x81b249a634800577,
    ),
    (
        PolicyKind::Lar,
        true,
        false,
        Some(0.5),
        [2048, 13187, 1450, 8171, 8162, 6094, 1009],
        0x395952b92c5ee2bc,
    ),
    (
        PolicyKind::Lar,
        false,
        true,
        None,
        [1994, 12451, 1473, 7721, 7716, 5291, 847],
        0x9ec42776777bf148,
    ),
    (
        PolicyKind::Lar,
        false,
        true,
        Some(0.5),
        [2015, 12737, 1476, 8111, 8108, 5625, 905],
        0x6daf4554025bd35a,
    ),
    (
        PolicyKind::Lar,
        false,
        false,
        None,
        [1948, 12772, 1447, 8302, 8298, 5249, 904],
        0xf87662c3ae58ff8d,
    ),
    (
        PolicyKind::Lar,
        false,
        false,
        Some(0.5),
        [2071, 12840, 1434, 8223, 8219, 5732, 940],
        0xc5da340453f3bf17,
    ),
    (
        PolicyKind::Lru,
        true,
        true,
        None,
        [2283, 12681, 1625, 7509, 7509, 11101, 0],
        0x88d3aaea7ab6ad0e,
    ),
    (
        PolicyKind::Lru,
        true,
        true,
        Some(0.5),
        [1895, 12559, 1589, 7658, 7658, 11334, 0],
        0x0349362dabfabd3d,
    ),
    (
        PolicyKind::Lru,
        true,
        false,
        None,
        [2122, 12903, 1592, 7937, 7937, 11292, 0],
        0x6b66697407c71c64,
    ),
    (
        PolicyKind::Lru,
        true,
        false,
        Some(0.5),
        [2104, 12459, 1590, 7737, 7737, 11054, 0],
        0xb23cd0f21432381f,
    ),
    (
        PolicyKind::Lru,
        false,
        true,
        None,
        [2185, 12508, 1612, 7790, 7790, 10861, 0],
        0xbdbff281be40b782,
    ),
    (
        PolicyKind::Lru,
        false,
        true,
        Some(0.5),
        [2243, 12826, 1638, 8178, 8178, 11503, 0],
        0x10361bd1298f1681,
    ),
    (
        PolicyKind::Lru,
        false,
        false,
        None,
        [2200, 12481, 1640, 7803, 7803, 10929, 0],
        0x59caf9992bdf9b7d,
    ),
    (
        PolicyKind::Lru,
        false,
        false,
        Some(0.5),
        [2279, 12657, 1600, 7993, 7993, 11510, 0],
        0x84bbb7b7cdeb243e,
    ),
    (
        PolicyKind::Lfu,
        true,
        true,
        None,
        [2310, 12463, 1831, 7615, 7615, 10651, 0],
        0x86a044bb974298c1,
    ),
    (
        PolicyKind::Lfu,
        true,
        true,
        Some(0.5),
        [2274, 12835, 1860, 8025, 8025, 10976, 0],
        0x3cd0dec9f9f9be7e,
    ),
    (
        PolicyKind::Lfu,
        true,
        false,
        None,
        [2142, 13104, 1859, 8331, 8331, 11124, 0],
        0xca27fdda615d648e,
    ),
    (
        PolicyKind::Lfu,
        true,
        false,
        Some(0.5),
        [2365, 12592, 1777, 8146, 8146, 10729, 0],
        0x822596a97a2f5917,
    ),
    (
        PolicyKind::Lfu,
        false,
        true,
        None,
        [2012, 12997, 1778, 8489, 8489, 11090, 0],
        0x60e901caedab51bd,
    ),
    (
        PolicyKind::Lfu,
        false,
        true,
        Some(0.5),
        [2214, 12377, 1767, 8036, 8036, 10531, 0],
        0x01c8a1d3b366e037,
    ),
    (
        PolicyKind::Lfu,
        false,
        false,
        None,
        [2164, 12237, 1809, 7892, 7892, 10362, 0],
        0x5585de7baf176710,
    ),
    (
        PolicyKind::Lfu,
        false,
        false,
        Some(0.5),
        [2362, 12801, 1758, 8781, 8781, 10792, 0],
        0xe71272ad7f3e3547,
    ),
];

fn configs() -> Vec<(PolicyKind, bool, bool, Option<f64>)> {
    let mut out = Vec::new();
    for policy in PolicyKind::ALL {
        for clustering in [true, false] {
            for tiebreak in [true, false] {
                for watermark in [None, Some(0.5)] {
                    out.push((policy, clustering, tiebreak, watermark));
                }
            }
        }
    }
    out
}

#[test]
fn every_config_makes_the_pinned_decisions() {
    let mut got = Vec::new();
    for (i, (policy, clustering, tiebreak, watermark)) in configs().into_iter().enumerate() {
        let cfg = BufferConfig {
            policy,
            capacity: 48,
            pages_per_block: PPB,
            clustering,
            lar_dirty_tiebreak: tiebreak,
            dirty_watermark: watermark,
        };
        let (s, digest) = run(cfg, 0x5eed + i as u64);
        let stats = [
            s.page_hits,
            s.page_misses,
            s.evictions,
            s.flushed_pages,
            s.flushed_dirty,
            s.clean_drops,
            s.clustered_batches,
        ];
        got.push((policy, clustering, tiebreak, watermark, stats, digest));
    }
    if got != PINS {
        for (p, c, t, w, s, d) in &got {
            println!("    (PolicyKind::{p:?}, {c}, {t}, {w:?}, {s:?}, {d:#018x}),");
        }
    }
    assert_eq!(got.len(), PINS.len(), "one pin per config");
    for (got, pin) in got.iter().zip(PINS) {
        assert_eq!(got, pin, "config {:?}", (pin.0, pin.1, pin.2, pin.3));
    }
}
