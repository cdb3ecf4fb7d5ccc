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

use fc_bench::cli::{flag_millis, flag_value, parse_or};
use fc_bench::loadgen::{self, Action, LoadgenSpec, Mode, Step, TransportKind, Workload};
use std::process::ExitCode;
use std::time::Duration;

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

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return Ok(());
    }
    let flag = |name: &str| flag_value(&args, name);
    let defaults = LoadgenSpec::default();
    let mut spec = LoadgenSpec {
        clients: parse_or(flag("--clients"), defaults.clients)?,
        workload: match flag("--trace") {
            Some(s) => Workload::parse(&s)?,
            None => defaults.workload,
        },
        seed: parse_or(flag("--seed"), defaults.seed)?,
        requests: parse_or(flag("--requests"), defaults.requests)?,
        mode: match flag("--mode") {
            Some(s) => Mode::parse(&s)?,
            None => defaults.mode,
        },
        transport: match flag("--transport") {
            Some(s) => TransportKind::parse(&s)?,
            None => defaults.transport,
        },
        rate_factor: parse_or(flag("--rate"), defaults.rate_factor)?,
        pages_per_client: parse_or(flag("--pages"), defaults.pages_per_client)?,
        page_bytes: parse_or(flag("--page-bytes"), defaults.page_bytes)?,
        shards: parse_or(flag("--shards"), defaults.shards)?,
        ..defaults
    };
    let admission = &mut spec.admission;
    admission.per_client_rate = parse_or(flag("--client-rate"), admission.per_client_rate)?;
    admission.per_client_burst = parse_or(flag("--client-burst"), admission.per_client_burst)?;
    admission.max_inflight = parse_or(flag("--max-inflight"), admission.max_inflight)?;

    // The schedule flags, as steps in this order; `LoadgenSpec::plan`
    // refuses the combinations that make no sense.
    let kill_at = flag_millis(&args, "--kill-primary-at")?;
    let restart_after = flag_millis(&args, "--restart-after")?;
    let shard = parse_or(flag("--victim-shard"), 0)?;
    let step = |at: Option<Duration>, action| at.map(|at| Step { at, action });
    spec.steps = [
        step(kill_at, Action::KillPrimary { shard }),
        step(
            restart_after.map(|after| kill_at.unwrap_or_default() + after),
            Action::Restart,
        ),
        step(flag_millis(&args, "--add-pair-at")?, Action::AddPair),
        step(flag_millis(&args, "--remove-pair-at")?, Action::RemovePair),
    ]
    .into_iter()
    .flatten()
    .collect();

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
