//! `fc-loadgen` — drive a gateway-fronted FlashCoop pair and report tail
//! latency, throughput, and shed rate.
//!
//! ```text
//! loadgen --clients 8 --trace mix --seed 42
//! loadgen --clients 8 --trace fin1 --mode open --rate 50 --max-inflight 16
//! loadgen --clients 4 --transport mem --requests 500
//! loadgen --clients 8 --transport mem --shards 4
//! ```
//!
//! All driving logic lives in `fc_bench::loadgen` (unit-tested); this
//! binary only parses flags.

use fc_bench::loadgen::{self, LoadgenSpec, Mode, TransportKind, Workload};
use std::process::ExitCode;

const USAGE: &str = "\
fc-loadgen: drive a gateway-fronted FlashCoop pair

USAGE:
  loadgen [flags]

FLAGS:
  --clients N        concurrent client sessions        (default 8)
  --trace NAME       fin1 | fin2 | mix                 (default mix)
  --seed S           base RNG seed; client i uses S+i  (default 42)
  --requests R       requests per client               (default 2000)
  --mode M           closed | open                     (default closed)
  --transport T      tcp | mem                         (default tcp)
  --rate F           open-loop arrival-rate multiplier (default 1.0)
  --client-rate R    admission tokens/s per client     (default 10000)
  --client-burst B   admission bucket capacity         (default 256)
  --max-inflight Q   global queue-depth cap            (default 64)
  --pages P          lpn window per client             (default 16384)
  --page-bytes B     payload bytes per page            (default 512)
  --shards N         cooperative pairs behind the
                     gateway, routed by hash ring; one
                     report line per shard             (default 1)
  --kill-primary-at N  crash the victim shard's primary
                     N ms after start; adds per-phase
                     lines                             (default off)
  --restart-after M  restart the crashed primary M ms
                     after the kill; traffic then
                     drives failback                   (default off)
  --victim-shard S   shard whose primary is killed     (default 0)
  --add-pair-at N    live-attach a fresh pair N ms
                     after start and migrate its share
                     of blocks onto it (excludes
                     --kill-primary-at)                (default off)
  --remove-pair-at N live-remove the newest pair N ms
                     after start (the added pair when
                     combined with --add-pair-at, else
                     the highest shard; never the last
                     pair)                             (default off)
";

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn parse_or<T: std::str::FromStr>(v: Option<String>, default: T) -> Result<T, String> {
    match v {
        None => Ok(default),
        Some(s) => s.parse().map_err(|_| format!("bad number {s:?}")),
    }
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return Ok(());
    }
    let defaults = LoadgenSpec::default();
    let mut spec = LoadgenSpec {
        clients: parse_or(flag_value(&args, "--clients"), defaults.clients)?,
        workload: match flag_value(&args, "--trace") {
            Some(s) => Workload::parse(&s)?,
            None => defaults.workload,
        },
        seed: parse_or(flag_value(&args, "--seed"), defaults.seed)?,
        requests: parse_or(flag_value(&args, "--requests"), defaults.requests)?,
        mode: match flag_value(&args, "--mode") {
            Some(s) => Mode::parse(&s)?,
            None => defaults.mode,
        },
        transport: match flag_value(&args, "--transport") {
            Some(s) => TransportKind::parse(&s)?,
            None => defaults.transport,
        },
        rate_factor: parse_or(flag_value(&args, "--rate"), defaults.rate_factor)?,
        pages_per_client: parse_or(flag_value(&args, "--pages"), defaults.pages_per_client)?,
        page_bytes: parse_or(flag_value(&args, "--page-bytes"), defaults.page_bytes)?,
        shards: parse_or(flag_value(&args, "--shards"), defaults.shards)?,
        kill_primary_at: flag_value(&args, "--kill-primary-at")
            .map(|s| s.parse::<u64>().map_err(|_| format!("bad number {s:?}")))
            .transpose()?
            .map(std::time::Duration::from_millis),
        restart_after: flag_value(&args, "--restart-after")
            .map(|s| s.parse::<u64>().map_err(|_| format!("bad number {s:?}")))
            .transpose()?
            .map(std::time::Duration::from_millis),
        victim_shard: parse_or(flag_value(&args, "--victim-shard"), defaults.victim_shard)?,
        add_pair_at: flag_value(&args, "--add-pair-at")
            .map(|s| s.parse::<u64>().map_err(|_| format!("bad number {s:?}")))
            .transpose()?
            .map(std::time::Duration::from_millis),
        remove_pair_at: flag_value(&args, "--remove-pair-at")
            .map(|s| s.parse::<u64>().map_err(|_| format!("bad number {s:?}")))
            .transpose()?
            .map(std::time::Duration::from_millis),
        ..defaults
    };
    spec.admission.per_client_rate = parse_or(
        flag_value(&args, "--client-rate"),
        spec.admission.per_client_rate,
    )?;
    spec.admission.per_client_burst = parse_or(
        flag_value(&args, "--client-burst"),
        spec.admission.per_client_burst,
    )?;
    spec.admission.max_inflight = parse_or(
        flag_value(&args, "--max-inflight"),
        spec.admission.max_inflight,
    )?;

    let report = loadgen::run(&spec)?;
    print!("{}", loadgen::report_text(&report));
    if report.errors > 0 {
        return Err(format!("{} requests failed", report.errors));
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
