//! Regenerate the paper's tables and figures.
//!
//! ```text
//! repro [--quick] [all|fig1|table1|table3|fig6|fig7|fig8|fig9|headline|
//!                  shortlived|recovery|lifetime|dftl|ablations]
//! ```
//!
//! `--quick` runs a reduced-scale configuration (fewer requests, smaller
//! buffer) for smoke testing; full scale is what EXPERIMENTS.md records.

use fc_bench::{ext, fig1, fig9, matrix, table1, ExperimentParams};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let what = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "all".to_string());
    let params = if quick {
        ExperimentParams::quick()
    } else {
        ExperimentParams::full()
    };

    let started = Instant::now();
    let mut matrix_cache: Option<Vec<flashcoop::RunReport>> = None;
    let need_matrix = |cache: &mut Option<Vec<flashcoop::RunReport>>| {
        if cache.is_none() {
            eprintln!("[repro] running the 4x3x3 evaluation matrix…");
            *cache = Some(matrix::run_matrix(&params));
        }
        cache.clone().unwrap()
    };

    let run_fig1 = |params: &ExperimentParams| {
        let requests = if quick { 400 } else { 2000 };
        eprintln!("[repro] running Figure 1 bandwidth sweep…");
        let rows = fig1::run(params, requests);
        println!("== Figure 1: SSD write bandwidth vs request size ==");
        println!("{}", fig1::table(&rows));
    };

    match what.as_str() {
        "fig1" => run_fig1(&params),
        "table1" => {
            println!("== Table I: workload statistics ==");
            println!("{}", table1(&params));
        }
        "table3" => {
            eprintln!("[repro] running Table III hit-ratio sweep…");
            println!("== Table III: cache hit ratio vs buffer size ==");
            let sizes: &[usize] = if quick {
                &[1024, 2048]
            } else {
                &[1024, 2048, 4096, 8192]
            };
            println!("{}", matrix::table3(&params, sizes));
        }
        "fig6" => {
            let m = need_matrix(&mut matrix_cache);
            println!("== Figure 6: average response time ==");
            println!("{}", matrix::fig6_table(&m));
        }
        "fig7" => {
            let m = need_matrix(&mut matrix_cache);
            println!("== Figure 7: garbage-collection overhead ==");
            println!("{}", matrix::fig7_table(&m));
        }
        "fig8" => {
            let m = need_matrix(&mut matrix_cache);
            println!("== Figure 8: write-length distribution ==");
            println!("{}", matrix::fig8_table(&m));
        }
        "fig9" => {
            eprintln!("[repro] running Figure 9 dynamic-allocation sweep…");
            let pts = fig9::run(&params);
            println!("== Figure 9: memory allocation vs workload ==");
            println!("{}", fig9::table(&pts));
        }
        "shortlived" => {
            eprintln!("[repro] running short-lived-files extension…");
            println!("== Extension: short-lived files (Section III.A) ==");
            println!("{}", ext::short_lived(&params));
        }
        "recovery" => {
            eprintln!("[repro] running recovery-time extension…");
            println!("== Extension: recovery time vs buffer size (Section III.D) ==");
            let rows = ext::recovery_time(&params, &[1024, 2048, 4096, 8192, 16384]);
            println!("{}", ext::recovery_table(&rows));
        }
        "lifetime" => {
            eprintln!("[repro] running lifetime extension…");
            println!("== Extension: projected SSD lifetime ==");
            println!("{}", ext::lifetime(&params));
        }
        "dftl" => {
            eprintln!("[repro] running DFTL extension…");
            println!("== Extension: DFTL translation overhead ==");
            println!("{}", ext::dftl_overhead(&params));
        }
        "ablations" => {
            eprintln!("[repro] running ablation matrix…");
            println!("== Extension: design ablations ==");
            println!("{}", ext::ablations(&params));
        }
        "headline" => {
            let m = need_matrix(&mut matrix_cache);
            println!("{}", matrix::headline(&m));
        }
        "all" => {
            println!("== Table I: workload statistics ==");
            println!("{}", table1(&params));
            run_fig1(&params);
            let m = need_matrix(&mut matrix_cache);
            println!("== Figure 6: average response time ==");
            println!("{}", matrix::fig6_table(&m));
            println!("== Figure 7: garbage-collection overhead ==");
            println!("{}", matrix::fig7_table(&m));
            println!("== Figure 8: write-length distribution ==");
            println!("{}", matrix::fig8_table(&m));
            println!("{}", matrix::headline(&m));
            println!();
            eprintln!("[repro] running Table III hit-ratio sweep…");
            println!("== Table III: cache hit ratio vs buffer size ==");
            let sizes: &[usize] = if quick {
                &[1024, 2048]
            } else {
                &[1024, 2048, 4096, 8192]
            };
            println!("{}", matrix::table3(&params, sizes));
            eprintln!("[repro] running Figure 9 dynamic-allocation sweep…");
            let pts = fig9::run(&params);
            println!("== Figure 9: memory allocation vs workload ==");
            println!("{}", fig9::table(&pts));
            eprintln!("[repro] running extensions…");
            println!("== Extension: short-lived files (Section III.A) ==");
            println!("{}", ext::short_lived(&params));
            println!("== Extension: recovery time vs buffer size (Section III.D) ==");
            let rows = ext::recovery_time(&params, &[1024, 2048, 4096, 8192, 16384]);
            println!("{}", ext::recovery_table(&rows));
            println!("== Extension: design ablations ==");
            println!("{}", ext::ablations(&params));
            println!("== Extension: DFTL translation overhead ==");
            println!("{}", ext::dftl_overhead(&params));
            println!("== Extension: projected SSD lifetime ==");
            println!("{}", ext::lifetime(&params));
        }
        other => {
            eprintln!(
                "unknown target {other:?}; expected one of \
                 all|fig1|table1|table3|fig6|fig7|fig8|fig9|headline|\
                 shortlived|recovery|ablations|dftl|lifetime"
            );
            std::process::exit(2);
        }
    }
    eprintln!(
        "[repro] done in {:.1}s ({} mode)",
        started.elapsed().as_secs_f64(),
        if quick { "quick" } else { "full" }
    );
}
