//! Library half of the `fctrace` command-line tool: inspect, generate, and
//! replay I/O traces. The binary (`src/bin/fctrace.rs`) is a thin argument
//! parser over these functions so everything here is unit-testable.

use fc_obs::Obs;
use fc_ssd::FtlKind;
use fc_trace::synth::ShortLivedSpec;
use fc_trace::{parse_spc, write_spc, SpcConfig, Trace, TraceStats};
use flashcoop::{replay_with_obs, FlashCoopConfig, PolicyKind, Preconditioning, Scheme};
use std::path::Path;
use std::time::Duration;

use crate::params::table1_preset;

/// Errors surfaced to the CLI user.
#[derive(Debug)]
pub enum CliError {
    /// Unknown workload / ftl / scheme name.
    BadName(String),
    /// Trace file failed to parse.
    Parse(String),
    /// Numeric argument failed to parse.
    BadNumber(String),
    /// Filesystem error (e.g. the `--obs` output file).
    Io(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::BadName(s) => write!(f, "unknown name: {s}"),
            CliError::Parse(s) => write!(f, "trace parse error: {s}"),
            CliError::BadNumber(s) => write!(f, "bad number: {s}"),
            CliError::Io(s) => write!(f, "io error: {s}"),
        }
    }
}

impl std::error::Error for CliError {}

/// Resolve a workload name — a Table I preset or `shortlived` — to a
/// generated trace.
pub fn make_trace(
    name: &str,
    address_pages: u64,
    requests: usize,
    seed: u64,
) -> Result<Trace, CliError> {
    if name.eq_ignore_ascii_case("shortlived") {
        let spec = ShortLivedSpec {
            files: requests,
            address_pages,
            ..ShortLivedSpec::default()
        };
        return Ok(spec.generate(seed));
    }
    let spec = table1_preset(name, address_pages)
        .ok_or_else(|| CliError::BadName(name.to_ascii_lowercase()))?;
    Ok(spec.with_requests(requests).generate(seed))
}

/// Resolve an FTL name.
pub fn parse_ftl(name: &str) -> Result<FtlKind, CliError> {
    match name.to_ascii_lowercase().as_str() {
        "bast" => Ok(FtlKind::Bast),
        "fast" => Ok(FtlKind::Fast),
        "page" | "page-based" | "pagelevel" => Ok(FtlKind::PageLevel),
        "dftl" => Ok(FtlKind::Dftl),
        other => Err(CliError::BadName(other.to_string())),
    }
}

/// Resolve a scheme name.
pub fn parse_scheme(name: &str) -> Result<Scheme, CliError> {
    match name.to_ascii_lowercase().as_str() {
        "baseline" => Ok(Scheme::Baseline),
        "lar" => Ok(Scheme::FlashCoop(PolicyKind::Lar)),
        "lru" => Ok(Scheme::FlashCoop(PolicyKind::Lru)),
        "lfu" => Ok(Scheme::FlashCoop(PolicyKind::Lfu)),
        other => Err(CliError::BadName(other.to_string())),
    }
}

/// `fctrace stats`: Table-I-style statistics of an SPC-format text.
pub fn stats_text(name: &str, spc_text: &str, all_asu: bool) -> Result<String, CliError> {
    let cfg = SpcConfig {
        asu_filter: if all_asu { None } else { Some(0) },
        ..SpcConfig::default()
    };
    let trace = parse_spc(name, spc_text, cfg).map_err(|e| CliError::Parse(e.to_string()))?;
    let s = TraceStats::from_trace(&trace);
    let mut out = String::new();
    out.push_str(&TraceStats::table1_header());
    out.push('\n');
    out.push_str(&s.table1_row());
    out.push('\n');
    out.push_str(&format!(
        "unique pages: {}  footprint: {} pages ({:.1} MiB)  trims: {:.1}%\n",
        s.unique_pages,
        s.footprint_pages,
        s.footprint_pages as f64 * 4096.0 / (1 << 20) as f64,
        s.trim_pct,
    ));
    Ok(out)
}

/// `fctrace synth`: generate a workload and serialise it as SPC text.
pub fn synth_text(
    workload: &str,
    address_pages: u64,
    requests: usize,
    seed: u64,
) -> Result<String, CliError> {
    let trace = make_trace(workload, address_pages, requests, seed)?;
    Ok(write_spc(&trace, SpcConfig::default()))
}

/// `fctrace replay`: replay an SPC-format text on the evaluation device.
pub fn replay_text(
    spc_text: &str,
    ftl: &str,
    scheme: &str,
    buffer_pages: usize,
    seed: u64,
) -> Result<String, CliError> {
    replay_text_obs(spc_text, ftl, scheme, buffer_pages, seed, None)
}

/// [`replay_text`] with an optional observability stream: when `obs_path`
/// is given, every metric snapshot and trace event of the run is written
/// there as JSON lines (see `fc_obs::validate_jsonl` for the schema).
pub fn replay_text_obs(
    spc_text: &str,
    ftl: &str,
    scheme: &str,
    buffer_pages: usize,
    seed: u64,
    obs_path: Option<&Path>,
) -> Result<String, CliError> {
    let ftl = parse_ftl(ftl)?;
    let scheme = parse_scheme(scheme)?;
    let policy = match scheme {
        Scheme::FlashCoop(p) => p,
        Scheme::Baseline => PolicyKind::Lar,
    };
    let mut cfg = FlashCoopConfig::evaluation(ftl, policy);
    cfg.buffer_pages = buffer_pages;
    let mut trace = parse_spc("cli", spc_text, SpcConfig::default())
        .map_err(|e| CliError::Parse(e.to_string()))?;
    // Fit the device: real traces can exceed the simulated capacity.
    let logical = {
        use flashcoop::CoopServer;
        CoopServer::new(cfg.clone(), Scheme::Baseline)
            .ssd()
            .logical_pages()
    };
    if trace.address_span() > logical {
        trace.wrap_addresses(logical);
    }
    let obs = match obs_path {
        Some(p) => {
            Some(Obs::jsonl_file(p).map_err(|e| CliError::Io(format!("{}: {e}", p.display())))?)
        }
        None => None,
    };
    let report = replay_with_obs(
        &trace,
        &cfg,
        scheme,
        Some(Preconditioning::default()),
        seed,
        obs.as_ref(),
    );
    let mut out = String::new();
    out.push_str(&crate::format::report_header());
    out.push('\n');
    out.push_str(&crate::format::report_row(&report));
    out.push('\n');
    Ok(out)
}

/// The value following `flag` in `args`, if the flag is present.
pub fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Parse a flag's value, or take `default` when the flag is absent.
pub fn parse_or<T: std::str::FromStr>(v: Option<String>, default: T) -> Result<T, String> {
    match v {
        None => Ok(default),
        Some(s) => s.parse().map_err(|_| format!("bad number {s:?}")),
    }
}

/// A flag whose value is a whole number of milliseconds.
pub fn flag_millis(args: &[String], flag: &str) -> Result<Option<Duration>, String> {
    flag_value(args, flag)
        .map(|s| parse_or(Some(s), 0).map(Duration::from_millis))
        .transpose()
}

/// Usage text for the binary.
pub const USAGE: &str = "\
fctrace — inspect, generate, and replay I/O traces

USAGE:
    fctrace stats <file.spc> [--all-asu]
    fctrace synth <fin1|fin2|mix|shortlived> [--requests N] [--seed S]
                  [--pages P] [--out file.spc]
    fctrace replay <file.spc> [--ftl bast|fast|page|dftl]
                   [--scheme lar|lru|lfu|baseline] [--buffer PAGES] [--seed S]
                   [--obs out.jsonl]
";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn make_trace_resolves_all_presets() {
        for name in ["fin1", "Fin2", "MIX", "shortlived"] {
            let t = make_trace(name, 8192, 200, 1).unwrap();
            assert!(!t.is_empty(), "{name}");
        }
        assert!(make_trace("nope", 8192, 10, 1).is_err());
    }

    #[test]
    fn parse_names() {
        assert_eq!(parse_ftl("BAST").unwrap(), FtlKind::Bast);
        assert_eq!(parse_ftl("dftl").unwrap(), FtlKind::Dftl);
        assert!(parse_ftl("nand").is_err());
        assert_eq!(parse_scheme("baseline").unwrap(), Scheme::Baseline);
        assert_eq!(
            parse_scheme("LAR").unwrap(),
            Scheme::FlashCoop(PolicyKind::Lar)
        );
        assert!(parse_scheme("arc").is_err());
    }

    #[test]
    fn synth_then_stats_round_trip() {
        let text = synth_text("fin1", 8192, 500, 7).unwrap();
        let report = stats_text("fin1", &text, false).unwrap();
        assert!(report.contains("fin1"));
        assert!(report.contains("unique pages"));
        // Write-dominance survives the SPC round trip.
        let line = report.lines().nth(1).unwrap();
        let write_pct: f64 = line.split_whitespace().nth(3).unwrap().parse().unwrap();
        assert!(write_pct > 85.0, "write% {write_pct}");
    }

    #[test]
    fn replay_text_produces_a_report_row() {
        let text = synth_text("mix", 4096, 300, 9).unwrap();
        let out = replay_text(&text, "bast", "lar", 256, 9).unwrap();
        assert!(out.contains("FlashCoop w. LAR"));
        assert!(out.contains("BAST"));
    }

    #[test]
    fn obs_jsonl_recomputes_report_values() {
        // Acceptance: one fc-bench run with `--obs` emits a JSONL stream
        // from which the report's headline numbers — average and p99
        // response, erase count, and the destage run-length histogram —
        // can be recomputed independently.
        use fc_obs::{parse_jsonl, Value};
        use fc_trace::SyntheticSpec;
        use flashcoop::replay_with_obs;

        let dir = std::env::temp_dir().join(format!("fc-bench-obs-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.jsonl");

        let cfg = FlashCoopConfig::tiny(FtlKind::Bast, PolicyKind::Lar);
        let trace = SyntheticSpec::mix(128).with_requests(600).generate(11);
        let obs = fc_obs::Obs::jsonl_file(&path).unwrap();
        let report = replay_with_obs(
            &trace,
            &cfg,
            Scheme::FlashCoop(PolicyKind::Lar),
            None,
            11,
            Some(&obs),
        );
        obs.flush();

        let text = std::fs::read_to_string(&path).unwrap();
        let events = parse_jsonl(&text).unwrap();
        std::fs::remove_dir_all(&dir).ok();

        // Response times: every request leaves one core write/read/trim
        // event carrying resp_ns; the mean and the nearest-rank p99 must
        // reproduce the report.
        let mut resp: Vec<u64> = events
            .iter()
            .filter(|e| {
                e.component == "core" && matches!(e.kind.as_ref(), "write" | "read" | "trim")
            })
            .map(|e| e.get("resp_ns").and_then(Value::as_u64).unwrap())
            .collect();
        assert_eq!(resp.len(), report.requests);
        let mean = resp.iter().sum::<u64>() / resp.len() as u64;
        assert!(
            mean.abs_diff(report.avg_response.as_nanos()) <= 1,
            "recomputed mean {mean} vs report {}",
            report.avg_response.as_nanos()
        );
        resp.sort_unstable();
        let rank = ((0.99 * resp.len() as f64).ceil() as usize).clamp(1, resp.len());
        assert_eq!(resp[rank - 1], report.p99_response.as_nanos());

        // Erase count: the ssd host_write events carry the per-request
        // erase delta.
        let erases: u64 = events
            .iter()
            .filter(|e| e.component == "ssd" && e.kind == "host_write")
            .map(|e| e.get("erases").and_then(Value::as_u64).unwrap())
            .sum();
        assert_eq!(erases, report.erases);

        // Destage run-length histogram: rebuild it from the per-destage
        // run_pages arrays; it must agree with the registry's histogram in
        // the final snapshot (same count/sum/percentiles).
        let rebuilt = fc_obs::Histogram::new();
        for e in events.iter().filter(|e| e.kind == "destage") {
            for &pages in match e.get("run_pages") {
                Some(Value::U64s(v)) => v.as_slice(),
                other => panic!("destage without run_pages: {other:?}"),
            } {
                rebuilt.record(pages);
            }
        }
        let last_snapshot = events
            .iter()
            .rev()
            .find(|e| e.kind == "snapshot")
            .expect("run emits snapshots");
        let snap = |field: &str| {
            last_snapshot
                .get(&format!("core.destage.run_pages.{field}"))
                .and_then(Value::as_u64)
                .unwrap()
        };
        assert!(rebuilt.count() > 0, "run should destage something");
        assert_eq!(rebuilt.count(), snap("count"));
        assert_eq!(rebuilt.sum(), snap("sum"));
        assert_eq!(rebuilt.max(), snap("max"));
        assert_eq!(rebuilt.p50(), snap("p50"));
        assert_eq!(rebuilt.p99(), snap("p99"));
        assert_eq!(rebuilt.p999(), snap("p999"));
    }

    #[test]
    fn replay_text_obs_writes_valid_stream() {
        let dir = std::env::temp_dir().join(format!("fc-bench-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cli.jsonl");
        let text = synth_text("mix", 4096, 300, 9).unwrap();
        let out = replay_text_obs(&text, "bast", "lar", 256, 9, Some(&path)).unwrap();
        assert!(out.contains("FlashCoop w. LAR"));
        let stream = std::fs::read_to_string(&path).unwrap();
        let n = fc_obs::validate_jsonl(&stream).unwrap();
        assert!(n > 300, "expected a dense stream, got {n} events");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replay_rejects_bad_names() {
        assert!(replay_text("0,0,4096,w,0.0\n", "nope", "lar", 64, 1).is_err());
        assert!(replay_text("0,0,4096,w,0.0\n", "bast", "nope", 64, 1).is_err());
        assert!(replay_text("garbage", "bast", "lar", 64, 1).is_err());
    }
}
