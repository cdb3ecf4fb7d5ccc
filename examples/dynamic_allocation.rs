//! Dynamic memory allocation in action (Section III.C / Figure 9).
//!
//! Two cooperative servers with shifting workloads: server 1's traffic
//! starts read-heavy and turns write-heavy halfway through. Watch server 0's
//! donated remote-buffer ratio θ follow Equation 1: θ rises as the peer gets
//! write-hungry and falls as local load grows.
//!
//! ```text
//! cargo run --release --example dynamic_allocation
//! ```

use fc_simkit::{DetRng, SimDuration, SimTime};
use fc_ssd::FtlKind;
use fc_trace::{IoRequest, Op, Trace};
use flashcoop::{CoopPair, FlashCoopConfig, PolicyKind};

/// A trace whose write fraction switches from `w1` to `w2` halfway.
fn two_phase_trace(pages: u64, n: usize, w1: f64, w2: f64, seed: u64, name: &str) -> Trace {
    let mut rng = DetRng::new(seed);
    let mut t = Trace::new(name);
    let mut now = SimTime::ZERO;
    for i in 0..n {
        now += SimDuration::from_millis(4 + rng.below(4));
        let wf = if i < n / 2 { w1 } else { w2 };
        let op = if rng.chance(wf) { Op::Write } else { Op::Read };
        t.push(IoRequest {
            at: now,
            lpn: rng.below(pages - 2),
            pages: 1,
            op,
        });
    }
    t
}

fn main() {
    let mut cfg = FlashCoopConfig::tiny(FtlKind::PageLevel, PolicyKind::Lar);
    cfg.buffer_pages = 128;
    cfg.alloc.period = SimDuration::from_secs(2);
    let pages = {
        use flashcoop::{CoopServer, Scheme};
        CoopServer::new(cfg.clone(), Scheme::Baseline)
            .ssd()
            .logical_pages()
    };

    // Server 0: steady moderate load. Server 1: reads first, writes later.
    let t0 = two_phase_trace(pages, 4_000, 0.5, 0.5, 1, "steady");
    let t1 = two_phase_trace(pages, 4_000, 0.1, 0.9, 2, "shifting");

    let mut pair = CoopPair::new(cfg.clone(), cfg);
    pair.replay([&t0, &t1]);

    println!("Server 0's remote-buffer ratio over time (peer turns write-heavy):");
    println!(
        "{:>10} {:>14} {:>18} {:>10}",
        "t (s)", "local usage b", "peer write frac a", "theta"
    );
    for s in pair.theta_log(0).iter().step_by(2) {
        let bar = "#".repeat((s.theta * 40.0) as usize);
        println!(
            "{:>10.1} {:>14.3} {:>18.3} {:>9.1}% {}",
            s.at_secs,
            s.local_usage,
            s.peer_write_fraction,
            s.theta * 100.0,
            bar
        );
    }
    let log = pair.theta_log(0);
    let early: f64 = log.iter().take(log.len() / 3).map(|s| s.theta).sum::<f64>()
        / (log.len() / 3).max(1) as f64;
    let late: f64 = log
        .iter()
        .skip(2 * log.len() / 3)
        .map(|s| s.theta)
        .sum::<f64>()
        / (log.len() - 2 * log.len() / 3).max(1) as f64;
    println!(
        "\nmean theta, first third: {:.1}% → last third: {:.1}% \
         (Equation 1 follows the peer's write intensity)",
        early * 100.0,
        late * 100.0
    );
}
