//! Quickstart: one cooperative server under a tiny hand-rolled workload.
//!
//! Builds a FlashCoop server over a simulated BAST SSD, writes a few blocks
//! (buffered + replicated), reads them back, and prints what happened.
//!
//! ```text
//! cargo run --release --example quickstart
//! cargo run --release --example quickstart -- --obs run.jsonl
//! ```
//!
//! With `--obs` every trace event and a final metric snapshot are streamed
//! to the given file as JSON lines; the example re-reads the file and
//! validates it against the fc-obs event schema before exiting.

use fc_obs::{Obs, Stamp};
use fc_simkit::{SimDuration, SimTime};
use fc_ssd::FtlKind;
use flashcoop::{CoopServer, FlashCoopConfig, PolicyKind, RemoteStore, Scheme};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let obs_path = args
        .iter()
        .position(|a| a == "--obs")
        .and_then(|i| args.get(i + 1))
        .map(std::path::PathBuf::from);

    // A small evaluation-grade config: BAST FTL, LAR replacement.
    let mut cfg = FlashCoopConfig::evaluation(FtlKind::Bast, PolicyKind::Lar);
    cfg.buffer_pages = 512;
    let mut server = CoopServer::new(cfg.clone(), Scheme::FlashCoop(PolicyKind::Lar));
    let obs = obs_path.as_ref().map(|p| {
        let o = Obs::jsonl_file(p).expect("create --obs file");
        server.attach_obs(&o);
        o
    });
    // The peer donates a remote buffer as large as our local one.
    let mut remote = RemoteStore::new(cfg.buffer_pages);

    println!("FlashCoop quickstart");
    println!(
        "  device: {} FTL, {} logical pages; buffer: {} pages; policy: {}",
        cfg.ssd.ftl,
        server.ssd().logical_pages(),
        cfg.buffer_pages,
        cfg.policy
    );

    // Write three logical blocks' worth of pages, interleaved like Figure 2.
    let mut now = SimTime::ZERO;
    let step = SimDuration::from_millis(5);
    let ppb = cfg.pages_per_block() as u64;
    let mut total_write = SimDuration::ZERO;
    for i in 0..ppb {
        for blk in [0u64, 1, 2] {
            total_write += server.handle_write(now, blk * ppb + i, 1, &mut remote);
            now += step;
        }
    }
    println!(
        "  {} buffered writes, mean latency {} (replication round trip; the SSD is off the write path)",
        3 * ppb,
        total_write / (3 * ppb)
    );
    println!(
        "  buffer: {} resident / {} dirty pages; peer holds {} replicas",
        server.buffer().resident(),
        server.buffer().dirty(),
        remote.len()
    );

    // Read the first block back — straight from DRAM.
    let t_hit = server.handle_read(now, 0, ppb as u32, &mut remote);
    now += step;
    // And something cold — that one goes to the SSD.
    let far = server.ssd().logical_pages() - ppb;
    let t_miss = server.handle_read(now, far, 1, &mut remote);
    println!("  read hit of a whole block: {t_hit}; cold read miss: {t_miss}");

    // Force the buffer down so LAR flushes blocks sequentially.
    server.resize_buffer(now, 8, &mut remote);
    let s = server.ssd().stats();
    println!(
        "  after shrinking the buffer: {} writes reached the SSD, mean length {:.1} pages",
        s.write_lengths.writes(),
        s.mean_write_pages()
    );
    println!(
        "  every acknowledged page recoverable: {}",
        server.unrecoverable_pages(&remote).is_empty()
    );

    if let (Some(o), Some(path)) = (&obs, &obs_path) {
        o.emit_snapshot(Stamp::Sim(now.as_nanos()));
        o.flush();
        let text = std::fs::read_to_string(path).expect("read back --obs file");
        match fc_obs::validate_jsonl(&text) {
            Ok(n) => println!("  obs: {n} events written to {}, schema OK", path.display()),
            Err(e) => {
                eprintln!("obs stream invalid: {e}");
                std::process::exit(1);
            }
        }
    }
}
