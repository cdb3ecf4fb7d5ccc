//! Compare the three FTLs under identical random-write abuse.
//!
//! A bare-device study of Section II: the same scattered single-page write
//! stream hits a page-level, a BAST, and a FAST FTL; the merge and GC
//! behaviour diverges wildly. Then the same stream filtered through a
//! FlashCoop/LAR buffer shows how sequentialisation rescues the hybrids
//! (Section IV.B.4: "improvement of LAR for BAST is much larger…").
//!
//! ```text
//! cargo run --release --example ftl_comparison
//! ```

use fc_simkit::{DetRng, SimDuration, SimTime};
use fc_ssd::{FtlKind, Lpn, Ssd, SsdConfig};
use flashcoop::{CoopServer, FlashCoopConfig, PolicyKind, RemoteStore, Scheme};

fn main() {
    let writes = 20_000u64;
    println!("Bare device: {writes} random single-page writes on an aged SSD\n");
    println!(
        "{:<12} {:>10} {:>12} {:>10} {:>10} {:>10} {:>8}",
        "FTL", "erases", "page-copies", "switch", "partial", "full", "WA"
    );
    for kind in FtlKind::ALL {
        let mut ssd = Ssd::new(SsdConfig::evaluation(kind));
        let mut rng = DetRng::new(11);
        ssd.precondition(0.9, 0.5, &mut rng);
        let logical = ssd.logical_pages();
        for _ in 0..writes {
            ssd.write(Lpn(rng.below(logical)), 1);
        }
        let m = ssd.ftl_stats();
        println!(
            "{:<12} {:>10} {:>12} {:>10} {:>10} {:>10} {:>8.2}",
            kind.name(),
            ssd.erases_since_reset(),
            m.page_copies,
            m.switch_merges,
            m.partial_merges,
            m.full_merges,
            ssd.stats().write_amplification(),
        );
    }

    println!("\nSame stream through a FlashCoop/LAR buffer (4096 pages):\n");
    println!(
        "{:<12} {:>10} {:>14} {:>16}",
        "FTL", "erases", "mean-write(pg)", "single-page(%)"
    );
    for kind in FtlKind::ALL {
        let mut cfg = FlashCoopConfig::evaluation(kind, PolicyKind::Lar);
        cfg.buffer_pages = 4096;
        let mut server = CoopServer::new(cfg.clone(), Scheme::FlashCoop(PolicyKind::Lar));
        let mut rng = DetRng::new(11);
        server.ssd_mut().precondition(0.9, 0.5, &mut rng);
        let mut remote = RemoteStore::new(cfg.buffer_pages);
        let logical = server.ssd().logical_pages();
        let mut now = SimTime::ZERO;
        for _ in 0..writes {
            // Zipf-ish hot set so the buffer has locality to exploit.
            let lpn = if rng.chance(0.8) {
                rng.below(logical / 16)
            } else {
                rng.below(logical)
            };
            server.handle_write(now, lpn, 1, &mut remote);
            now += SimDuration::from_millis(2);
        }
        let s = server.ssd().stats();
        println!(
            "{:<12} {:>10} {:>14.1} {:>16.1}",
            kind.name(),
            server.ssd().erases_since_reset(),
            s.mean_write_pages(),
            s.write_lengths.frac_single_page() * 100.0,
        );
    }
    println!(
        "\nBAST suffers the most from raw random writes (a full merge per \
         evicted log block) and gains the most from the buffer's reshaping."
    );
}
