//! The benchmark of record for the served FlashCoop cluster. See README.md.
//!
//! ```text
//! fc-benchmark --workload W --seed N --seconds S --trace 0|1   one run, result line last
//! fc-benchmark [--seed N] [--seconds S] [--smoke]              every workload, out/results.json
//! fc-benchmark compare A.json B.json
//! fc-benchmark manifest                                        the text of BENCHMARK.json
//! fc-benchmark spin                                            (internal) see `Spinners`
//! ```

mod cluster;
mod direct;
mod drive;
mod layers;
mod metrics;
mod oracle;
mod probes;
mod report;
mod run;
mod spans;
mod stats;
mod workloads;

use std::path::Path;
use std::process::{Child, Command, ExitCode, Stdio};

use metrics::{metrics_json, MetricDef, Values, END_TO_END, PER_LAYER};
use report::{attempted_failed, end_to_end, print_figure, workload_json, Figure};
use run::{run_repeat, Plan, RepeatOut};
use workloads::{Workload, REPEATS, WORKLOADS};

/// `run_seconds` of `BENCHMARK.json`: measured seconds of one run, all
/// repeats together.
const RUN_SECONDS: u32 = 24;
/// A traced run has one traced repeat, not [`REPEATS`] timed ones; it
/// gets this share of `--seconds`.
const TRACED_SHARE: f64 = 1.0 / 3.0;
/// Measured seconds of a smoke run's single repeat.
const SMOKE_SECONDS: f64 = 2.0;
/// Where span files and `results.json` go, relative to the checkout root.
const OUT_DIR: &str = "benchmark/out";

/// One idle-priority busy loop per CPU, for as long as a run measures.
///
/// The benchmark runs in a virtual machine. A request crosses threads six
/// times, and whenever a waking thread's CPU has halted, the wake-up waits
/// for the hypervisor to schedule that CPU again — tens of microseconds on
/// a good day, and how many depends on the host, not on the program: with
/// idle CPUs allowed to halt, closed-loop throughput of one workload, same
/// seed, moved between 1.4k and 6.2k req/s from one repeat to the next.
/// A `SCHED_IDLE` spinner (`taskset -c N chrt -i 0`) keeps its CPU from halting and is
/// preempted the instant anything else wants to run: the user-space twin
/// of booting with `idle=poll`. The spinners are processes of their own, so
/// `cpu_us_per_req` — this process's CPU — does not count them.
struct Spinners(Vec<Child>);

impl Spinners {
    fn start() -> Spinners {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let exe = std::env::current_exe().expect("own path");
        let spawned: Result<Vec<Child>, _> = (0..cpus)
            .map(|cpu| {
                // One per CPU and pinned there: two spinners sharing a CPU
                // would leave the other free to halt.
                Command::new("taskset")
                    .args(["-c", &cpu.to_string(), "chrt", "-i", "0"])
                    .arg(&exe)
                    .arg("spin")
                    .stdin(Stdio::null())
                    .stdout(Stdio::null())
                    .spawn()
            })
            .collect();
        Spinners(spawned.unwrap_or_else(|e| {
            eprintln!("fc-benchmark: no idle spinners ({e}): expect noisier figures");
            Vec::new()
        }))
    }
}

impl Drop for Spinners {
    fn drop(&mut self) {
        for child in &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Body of a spinner: burn idle cycles until the benchmark that started it
/// is gone (killed or not, it must not be outlived).
fn spin() -> ! {
    let parent = std::os::unix::process::parent_id();
    let mut x = 1u64;
    loop {
        // Plain arithmetic, not `spin_loop`: PAUSE invites the hypervisor
        // to take the CPU away, which is what this loop is here to prevent.
        for _ in 0..5_000_000 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        if std::os::unix::process::parent_id() != parent {
            std::process::exit(0);
        }
    }
}

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    git_head: String,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        smoke: false,
        git_head: "unknown".into(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                out.workload =
                    Some(workloads::by_name(name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(out.seconds > 0.0 && out.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => out.smoke = true,
            "--git-head" => out.git_head = value()?.clone(),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(out)
}

/// The untraced repeats of a run: same seed, fresh cluster each.
fn timed_repeats(
    w: &Workload,
    seed: u64,
    seconds: f64,
    repeats: usize,
) -> Result<Vec<RepeatOut>, String> {
    let plan = Plan::of(seconds / repeats as f64);
    (0..repeats)
        .map(|i| run_repeat(w, seed, i as u64, plan, false))
        .collect()
}

/// One repeat's paced-phase health, and anything that went wrong in it.
fn report_repeat(w: &Workload, r: &RepeatOut) {
    if let Some(p) = &r.paced {
        println!(
            "{} paced: late_share {:.4}, backlog_max {}, {} writes, {} reads{}",
            w.name,
            p.late_share,
            p.backlog_max,
            p.write_ns.len(),
            p.read_ns.len(),
            if p.overloaded {
                " — OVERLOADED, latencies withheld"
            } else {
                ""
            }
        );
    }
    if let Some(why) = &r.invariant {
        eprintln!("{}: invariant broken: {why}", w.name);
    }
    if r.tally.failed > 0 || r.verify_bad_pages > 0 {
        eprintln!(
            "{}: {} of {} requests failed, {} of {} pages read back wrong",
            w.name, r.tally.failed, r.tally.issued, r.verify_bad_pages, r.verify_pages
        );
    }
}

/// The traced part of a run: one traced repeat and, with `direct_pass`,
/// the direct-call pass. `untraced_req_per_s` is what the overhead figure
/// compares with; without one, an untraced closed phase is run first to
/// get it. Returns the per-layer values and (attempted, failed).
fn traced_run(
    w: &Workload,
    seed: u64,
    seconds: f64,
    direct_pass: bool,
    untraced_req_per_s: Option<f64>,
) -> Result<(Values, u64, u64), String> {
    let plan = Plan::of(seconds);
    let mut counted = (0, 0);
    let untraced = match untraced_req_per_s {
        Some(rate) => rate,
        None => {
            let closed_only = Plan {
                paced: std::time::Duration::ZERO,
                ..plan
            };
            let plain = run_repeat(w, seed, 0, closed_only, false)?;
            report_repeat(w, &plain);
            counted = attempted_failed([&plain]);
            plain.req_per_s()
        }
    };
    let traced = run_repeat(w, seed, 1, plan, true)?;
    report_repeat(w, &traced);

    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let path = Path::new(OUT_DIR).join(format!("trace-{}.jsonl", w.name));
    let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    spans::write_jsonl(&mut std::io::BufWriter::new(file), &traced.spans)
        .map_err(|e| format!("{}: {e}", path.display()))?;

    let folded = spans::fold(&traced.spans);
    let mut values = Values::default();
    layers::report(&traced, &folded, &mut values);
    values.put(
        "trace.overhead_share",
        (untraced - traced.req_per_s()) / untraced,
    );
    if direct_pass {
        direct::run(seed, &mut values);
    }
    println!(
        "{}: {} spans in {}, {} requests folded, {} malformed",
        w.name,
        traced.spans.len(),
        path.display(),
        folded.session_ns.len(),
        folded.malformed
    );
    let (attempted, failed) = attempted_failed([&traced]);
    Ok((
        values,
        counted.0 + attempted,
        counted.1 + failed + folded.malformed,
    ))
}

fn print_layers(w: &Workload, values: &Values) {
    for m in PER_LAYER {
        if let Some(v) = values.get(m.name) {
            println!("{} {} = {v:.4} {}", w.name, m.name, m.unit);
        }
    }
}

/// The result line the driver reads: last line of standard output.
fn result_line(
    table: &[MetricDef],
    values: &Values,
    attempted: u64,
    failed: u64,
) -> Result<String, String> {
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        metrics_json(table, values)?
    ))
}

/// One run under the driver's contract.
fn single_run(w: &Workload, a: &Args) -> Result<bool, String> {
    let (table, values, attempted, failed) = if a.trace {
        let (values, attempted, failed) =
            traced_run(w, a.seed, a.seconds * TRACED_SHARE, true, None)?;
        print_layers(w, &values);
        (PER_LAYER, values, attempted, failed)
    } else {
        let repeats = timed_repeats(w, a.seed, a.seconds, REPEATS)?;
        let mut values = Values::default();
        for r in &repeats {
            report_repeat(w, r);
        }
        for f in end_to_end(&repeats) {
            print_figure(w.name, &f);
            if END_TO_END.iter().any(|m| m.name == f.def.name) {
                let v = f.median().ok_or(format!(
                    "{}: no repeat could support {}",
                    w.name, f.def.name
                ))?;
                values.put(f.def.name, v);
            }
        }
        let (attempted, failed) = attempted_failed(&repeats);
        (END_TO_END, values, attempted, failed)
    };
    println!("{}", result_line(table, &values, attempted.max(1), failed)?);
    Ok(failed == 0)
}

fn loadavg_1m() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_ascii_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// Every workload, timed and traced; writes `results.json`.
fn full_run(a: &Args) -> Result<bool, String> {
    let load = loadavg_1m();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let (seconds, repeats) = if a.smoke {
        (SMOKE_SECONDS, 1)
    } else {
        (a.seconds, REPEATS)
    };
    println!(
        "seed {} | {} s measured per run, {} repeats | nproc {nproc} | load {load} | head {}",
        a.seed, seconds, repeats, a.git_head
    );
    let mut blocks = Vec::new();
    let mut ok = true;
    for w in &WORKLOADS {
        let timed = timed_repeats(w, a.seed, seconds, repeats)?;
        for r in &timed {
            report_repeat(w, r);
        }
        let figures: Vec<Figure> = end_to_end(&timed);
        for f in &figures {
            print_figure(w.name, f);
        }
        let untraced = figures
            .iter()
            .find(|f| f.def.name == "req_per_s")
            .and_then(Figure::median);
        // A smoke run checks outputs and the probes, not the direct calls.
        let traced_seconds = if a.smoke {
            seconds
        } else {
            seconds * TRACED_SHARE
        };
        let (values, t_attempted, t_failed) =
            traced_run(w, a.seed, traced_seconds, !a.smoke, untraced)?;
        print_layers(w, &values);
        let (attempted, failed) = attempted_failed(&timed);
        let (attempted, failed) = (attempted + t_attempted, failed + t_failed);
        println!(
            "{} failed_share = {:.6} ratio ({failed} of {attempted})",
            w.name,
            failed as f64 / attempted as f64
        );
        ok &= failed == 0;
        let per_layer: Vec<(&'static MetricDef, f64)> = PER_LAYER
            .iter()
            .filter_map(|m| Some((m, values.get(m.name)?)))
            .collect();
        blocks.push(workload_json(
            w.name, &figures, &per_layer, attempted, failed,
        ));
    }
    let text = format!(
        "{{\n  \"seed\": {}, \"seconds\": {seconds}, \"repeats\": {repeats}, \"smoke\": {},\n  \
         \"git_head\": \"{}\", \"nproc\": {nproc}, \"loadavg_1m\": {load},\n  \"workloads\": [\n{}\n  ]\n}}\n",
        a.seed,
        a.smoke,
        a.git_head,
        blocks.join(",\n")
    );
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let path = Path::new(OUT_DIR).join("results.json");
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(ok)
}

fn compare_files(a: &str, b: &str) -> Result<bool, String> {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let (table, ok) = report::compare(&read(a)?, &read(b)?)?;
    print!("{table}");
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", metrics::manifest(RUN_SECONDS));
            Ok(true)
        }
        Some("spin") => spin(),
        Some("compare") => match &args[1..] {
            [a, b] => compare_files(a, b),
            _ => Err("usage: compare A.json B.json".into()),
        },
        _ => parse_args(&args).and_then(|a| {
            let _spinners = Spinners::start();
            match a.workload {
                Some(w) => single_run(w, &a),
                None => full_run(&a),
            }
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("fc-benchmark: {why}");
            ExitCode::from(2)
        }
    }
}
