//! # fc-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! FlashCoop paper's evaluation (Section IV):
//!
//! | Paper artifact | Module / function |
//! |---|---|
//! | Figure 1 (SSD write bandwidth vs request size) | [`fig1::run`] |
//! | Table I (workload statistics) | [`table1`] |
//! | Table III (hit ratio vs buffer size) | [`matrix::table3`] |
//! | Figure 6 (average response time) | [`matrix::fig6_table`] |
//! | Figure 7 (GC overhead / erase counts) | [`matrix::fig7_table`] |
//! | Figure 8 (write-length CDF) | [`matrix::fig8_table`] |
//! | Figure 9 (dynamic allocation θ) | [`fig9::run`] |
//! | Short-lived files (§III.A, extension) | [`ext::short_lived`] |
//! | Recovery-time trade-off (§III.D, extension) | [`ext::recovery_time`] |
//! | Design ablations (DESIGN.md §5) | [`ext::ablations`] |
//!
//! The `repro` binary drives everything through one target table,
//! [`repro::TARGETS`]: `cargo run --release -p fc-bench --bin repro -- all`
//! (add `--quick` for a smoke-scale run).

pub mod cli;
pub mod ext;
pub mod fig1;
pub mod fig9;
pub mod format;
pub mod loadgen;
pub mod matrix;
pub mod params;
pub mod repro;

pub use params::ExperimentParams;

use fc_trace::TraceStats;

/// Table I: generate the three workloads and recompute their statistics.
pub fn table1(params: &ExperimentParams) -> String {
    let mut out = String::new();
    out.push_str(&TraceStats::table1_header());
    out.push('\n');
    for spec in params.traces() {
        let trace = spec.generate(params.seed);
        out.push_str(&TraceStats::from_trace(&trace).table1_row());
        out.push('\n');
    }
    out.push_str(
        "(paper: Fin1 4.38KB/91%/2.0%/133.5ms, Fin2 4.84KB/10%/0.2%/64.5ms, \
         Mix 3.16KB/50%/50%/199.9ms; sizes quantise to whole 4KB pages)\n",
    );
    out
}
