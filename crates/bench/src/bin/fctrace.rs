//! `fctrace` — inspect, generate, and replay I/O traces from the shell.
//!
//! ```text
//! fctrace stats trace.spc
//! fctrace synth fin1 --requests 50000 --out fin1.spc
//! fctrace replay fin1.spc --ftl bast --scheme lar
//! ```
//!
//! All heavy lifting lives in `fc_bench::cli` (unit-tested); this binary
//! only parses arguments and touches the filesystem.

use fc_bench::cli::{self, flag_value, parse_or, USAGE};
use std::process::ExitCode;

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return Err(USAGE.to_string());
    };
    match cmd.as_str() {
        "stats" => {
            let path = args.get(1).ok_or("stats needs a file path")?;
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let all_asu = args.iter().any(|a| a == "--all-asu");
            let out = cli::stats_text(path, &text, all_asu).map_err(|e| e.to_string())?;
            print!("{out}");
            Ok(())
        }
        "synth" => {
            let workload = args.get(1).ok_or("synth needs a workload name")?;
            let requests = parse_or(flag_value(&args, "--requests"), 10_000usize)?;
            let seed = parse_or(flag_value(&args, "--seed"), 42u64)?;
            let pages = parse_or(flag_value(&args, "--pages"), 64 * 1024u64)?;
            let text =
                cli::synth_text(workload, pages, requests, seed).map_err(|e| e.to_string())?;
            match flag_value(&args, "--out") {
                Some(path) => {
                    std::fs::write(&path, &text).map_err(|e| format!("{path}: {e}"))?;
                    eprintln!("wrote {} requests to {path}", requests);
                }
                None => print!("{text}"),
            }
            Ok(())
        }
        "replay" => {
            let path = args.get(1).ok_or("replay needs a file path")?;
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let ftl = flag_value(&args, "--ftl").unwrap_or_else(|| "bast".into());
            let scheme = flag_value(&args, "--scheme").unwrap_or_else(|| "lar".into());
            let buffer = parse_or(flag_value(&args, "--buffer"), 4096usize)?;
            let seed = parse_or(flag_value(&args, "--seed"), 42u64)?;
            let obs = flag_value(&args, "--obs").map(std::path::PathBuf::from);
            let out = cli::replay_text_obs(&text, &ftl, &scheme, buffer, seed, obs.as_deref())
                .map_err(|e| e.to_string())?;
            print!("{out}");
            if let Some(p) = obs {
                eprintln!("wrote observability stream to {}", p.display());
            }
            Ok(())
        }
        "--help" | "-h" | "help" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n\n{USAGE}")),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}
