//! Regenerate the paper's tables and figures.
//!
//! ```text
//! repro [--quick] [all|table1|fig1|fig6|fig7|fig8|headline|table3|fig9|
//!                  shortlived|recovery|ablations|dftl|lifetime]
//! ```
//!
//! `--quick` runs a reduced-scale configuration (fewer requests, smaller
//! buffer) for smoke testing; full scale is what EXPERIMENTS.md records.
//! The targets are `fc_bench::repro::TARGETS`; `all` runs them in order.

use fc_bench::repro::{self, Run};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let what = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map_or("all", String::as_str);
    let targets = repro::select(what).unwrap_or_else(|msg| {
        eprintln!("{msg}");
        std::process::exit(2);
    });

    let started = Instant::now();
    let mut run = Run::new(quick);
    for target in targets {
        print!("{}", run.render(target));
    }
    eprintln!(
        "[repro] done in {:.1}s ({} mode)",
        started.elapsed().as_secs_f64(),
        if quick { "quick" } else { "full" }
    );
}
