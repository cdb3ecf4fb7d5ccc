//! Trace-replay driver — the experiment engine behind Figures 6–8 and
//! Table III.
//!
//! [`replay`] runs one (trace, scheme, FTL) cell: build a server, age the
//! SSD, replay every request at its trace timestamp against a peer remote
//! store sized like the local buffer (the symmetric-pair configuration the
//! paper measures: "results presented in this paper are collected on one
//! server except dynamic testing"), and collect a [`RunReport`].
//!
//! No warm-up exclusion is applied: all schemes replay the same requests
//! from the same aged device state, so cold-buffer effects cancel in the
//! comparisons, exactly as in a full-trace replay study. Dirty data still
//! buffered at the end is *not* force-flushed — short-lived data that never
//! reaches the SSD is part of FlashCoop's claimed benefit (Section III.A).

use crate::config::{FlashCoopConfig, Scheme};
use crate::metrics::RunReport;
use crate::server::CoopServer;
use crate::tables::RemoteStore;
use fc_obs::{Obs, SnapshotScheduler};
use fc_simkit::DetRng;
use fc_trace::Trace;
use serde::{Deserialize, Serialize};

/// Device aging applied before measurement.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Preconditioning {
    /// Fraction of the logical space filled.
    pub fill: f64,
    /// Fraction of the fill written sequentially.
    pub sequential: f64,
}

impl Default for Preconditioning {
    fn default() -> Self {
        // An aged enterprise device: 85% full, half sequential history.
        Preconditioning {
            fill: 0.85,
            sequential: 0.5,
        }
    }
}

/// Replay `trace` under `scheme` on a fresh server built from `cfg`.
///
/// `precondition` ages the device first (pass `None` for a factory-fresh
/// SSD); `seed` drives the aging randomness.
pub fn replay(
    trace: &Trace,
    cfg: &FlashCoopConfig,
    scheme: Scheme,
    precondition: Option<Preconditioning>,
    seed: u64,
) -> RunReport {
    replay_with_obs(trace, cfg, scheme, precondition, seed, None)
}

/// [`replay`] with an optional observability handle.
///
/// When `obs` is given the run is fully instrumented: the server attaches
/// *after* preconditioning (aging traffic stays out of the stream), every
/// request advances the handle's sim clock, a [`SnapshotScheduler`] turns
/// the registry into periodic `snapshot` events (16 over the trace span),
/// and the stream is bracketed by `run_start`/`run_end` events — `run_end`
/// carries the headline [`RunReport`] numbers for cross-checking a replayed
/// JSONL stream against the report.
pub fn replay_with_obs(
    trace: &Trace,
    cfg: &FlashCoopConfig,
    scheme: Scheme,
    precondition: Option<Preconditioning>,
    seed: u64,
    obs: Option<&Obs>,
) -> RunReport {
    let mut server = CoopServer::new(cfg.clone(), scheme);
    if let Some(p) = precondition {
        let mut rng = DetRng::new(seed);
        server
            .ssd_mut()
            .precondition(p.fill, p.sequential, &mut rng);
    }
    assert!(
        trace.address_span() <= server.ssd().logical_pages(),
        "trace footprint ({}) exceeds device logical capacity ({}); \
         wrap the trace or enlarge the geometry",
        trace.address_span(),
        server.ssd().logical_pages()
    );

    let span_ns = trace.requests.last().map(|r| r.at.as_nanos()).unwrap_or(0);
    let mut scheduler = obs.map(|o| {
        server.attach_obs(o);
        o.set_sim_now(0);
        o.emit(
            o.event("core", "run_start")
                .str_field("scheme", scheme.name())
                .str_field("ftl", cfg.ssd.ftl.name().to_string())
                .str_field("trace", trace.name.clone())
                .u64_field("requests", trace.len() as u64)
                .u64_field("seed", seed),
        );
        // 16 registry snapshots across the trace span (at least one period).
        SnapshotScheduler::new((span_ns / 16).max(1))
    });

    // Symmetric pair: the peer donates a store as large as our buffer.
    let mut remote = RemoteStore::new(cfg.buffer_pages);
    for req in &trace.requests {
        if let (Some(s), Some(o)) = (scheduler.as_mut(), obs) {
            s.poll(req.at.as_nanos(), o);
        }
        server.handle(req, &mut remote);
    }
    let report = report_for(&mut server, trace, scheme);
    if let (Some(mut s), Some(o)) = (scheduler, obs) {
        s.finish(span_ns, o);
        o.emit(
            o.event("core", "run_end")
                .u64_field("requests", report.requests as u64)
                .u64_field("erases", report.erases)
                .u64_field("avg_response_ns", report.avg_response.as_nanos())
                .u64_field("p99_response_ns", report.p99_response.as_nanos())
                .f64_field("hit_ratio", report.hit_ratio)
                .f64_field("write_amplification", report.write_amplification),
        );
        o.flush();
    }
    report
}

/// Assemble the report from a replayed server.
pub(crate) fn report_for(server: &mut CoopServer, trace: &Trace, scheme: Scheme) -> RunReport {
    let hit_ratio = match scheme {
        Scheme::Baseline => 0.0,
        Scheme::FlashCoop(_) => server.buffer().stats().hit_ratio(),
    };
    let erases = server.ssd().erases_since_reset();
    let ssd_stats = server.ssd().stats();
    let wa = ssd_stats.write_amplification();
    let mean_write_pages = ssd_stats.mean_write_pages();
    let frac_single = ssd_stats.write_lengths.frac_single_page();
    let frac_gt8 = ssd_stats.write_lengths.frac_larger_than(8);
    let cdf = ssd_stats.write_lengths.cdf();
    let ftl_stats = server.ssd().ftl_stats();
    let ftl = server.ssd().ftl_kind();

    let m = server.metrics_mut();
    let p99 = m.response.percentile(99.0);
    RunReport {
        scheme,
        ftl,
        trace: trace.name.clone(),
        requests: trace.len(),
        avg_response: m.response.mean(),
        p99_response: p99,
        avg_write_response: m.write_response.mean(),
        avg_read_response: m.read_response.mean(),
        hit_ratio,
        erases,
        write_amplification: wa,
        mean_write_pages,
        frac_single_page: frac_single,
        frac_gt8_pages: frac_gt8,
        write_length_cdf: cdf,
        ftl_stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PolicyKind;
    use fc_simkit::{SimDuration, SimTime};
    use fc_ssd::FtlKind;
    use fc_trace::{IoRequest, Op};

    /// A small mixed trace confined to the tiny device.
    fn small_trace(pages: u64, n: usize, seed: u64) -> Trace {
        let mut rng = DetRng::new(seed);
        let mut t = Trace::new("unit");
        let mut now = SimTime::ZERO;
        for i in 0..n {
            now += SimDuration::from_micros(500 + rng.below(1000));
            let lpn = rng.below(pages - 4);
            let op = if i % 3 == 0 { Op::Read } else { Op::Write };
            t.push(IoRequest {
                at: now,
                lpn,
                pages: 1 + (i as u32 % 3),
                op,
            });
        }
        t
    }

    fn tiny_cfg(policy: PolicyKind) -> FlashCoopConfig {
        FlashCoopConfig::tiny(FtlKind::PageLevel, policy)
    }

    #[test]
    fn replay_produces_complete_report() {
        let cfg = tiny_cfg(PolicyKind::Lar);
        let server = CoopServer::new(cfg.clone(), Scheme::Baseline);
        let pages = server.ssd().logical_pages();
        let trace = small_trace(pages, 300, 1);
        let r = replay(&trace, &cfg, Scheme::FlashCoop(PolicyKind::Lar), None, 7);
        assert_eq!(r.requests, 300);
        assert!(r.avg_response > SimDuration::ZERO);
        assert!(r.p99_response >= r.avg_response);
        assert!(r.hit_ratio >= 0.0 && r.hit_ratio <= 1.0);
        assert!(!r.write_length_cdf.is_empty());
    }

    #[test]
    fn flashcoop_beats_baseline_on_write_heavy_trace() {
        let cfg = tiny_cfg(PolicyKind::Lar);
        let server = CoopServer::new(cfg.clone(), Scheme::Baseline);
        let pages = server.ssd().logical_pages();
        let trace = small_trace(pages, 500, 2);
        let pre = Some(Preconditioning {
            fill: 0.8,
            sequential: 0.5,
        });
        let fc = replay(&trace, &cfg, Scheme::FlashCoop(PolicyKind::Lar), pre, 7);
        let base = replay(&trace, &cfg, Scheme::Baseline, pre, 7);
        assert!(
            fc.avg_response < base.avg_response,
            "FlashCoop {} vs Baseline {}",
            fc.avg_response,
            base.avg_response
        );
    }

    #[test]
    fn replay_is_deterministic() {
        let cfg = tiny_cfg(PolicyKind::Lru);
        let server = CoopServer::new(cfg.clone(), Scheme::Baseline);
        let pages = server.ssd().logical_pages();
        let trace = small_trace(pages, 200, 3);
        let a = replay(&trace, &cfg, Scheme::FlashCoop(PolicyKind::Lru), None, 9);
        let b = replay(&trace, &cfg, Scheme::FlashCoop(PolicyKind::Lru), None, 9);
        assert_eq!(a.avg_response, b.avg_response);
        assert_eq!(a.erases, b.erases);
        assert_eq!(a.hit_ratio, b.hit_ratio);
    }

    #[test]
    fn obs_stream_recomputes_report_headlines() {
        let cfg = tiny_cfg(PolicyKind::Lar);
        let server = CoopServer::new(cfg.clone(), Scheme::Baseline);
        let pages = server.ssd().logical_pages();
        let trace = small_trace(pages, 300, 6);
        let (obs, ring) = fc_obs::Obs::ring(16_384);
        let pre = Some(Preconditioning {
            fill: 0.8,
            sequential: 0.5,
        });
        let r = replay_with_obs(
            &trace,
            &cfg,
            Scheme::FlashCoop(PolicyKind::Lar),
            pre,
            7,
            Some(&obs),
        );
        let events = ring.events();
        // Bracketing events present; the stream is schema-valid JSONL.
        assert_eq!(events.first().unwrap().kind, "run_start");
        assert_eq!(events.last().unwrap().kind, "run_end");
        let jsonl: String = events.iter().map(|e| e.to_json() + "\n").collect();
        assert_eq!(fc_obs::validate_jsonl(&jsonl).unwrap(), events.len());
        // Periodic snapshots fired.
        assert!(events.iter().filter(|e| e.kind == "snapshot").count() >= 2);
        // Recompute the mean response from per-request events.
        let resp: Vec<u64> = events
            .iter()
            .filter(|e| {
                e.component == "core" && matches!(e.kind.as_ref(), "write" | "read" | "trim")
            })
            .map(|e| e.get("resp_ns").unwrap().as_u64().unwrap())
            .collect();
        assert_eq!(resp.len(), r.requests);
        let mean = resp.iter().sum::<u64>() / resp.len() as u64;
        assert!(mean.abs_diff(r.avg_response.as_nanos()) <= 1);
        // Recompute measured erases from per-write device events
        // (preconditioning happened before attach, so the stream contains
        // exactly the measured-phase erases).
        let erases: u64 = events
            .iter()
            .filter(|e| e.kind == "host_write")
            .map(|e| e.get("erases").unwrap().as_u64().unwrap())
            .sum();
        assert_eq!(erases, r.erases);
        // The attached run reports the same numbers as a plain replay.
        let plain = replay(&trace, &cfg, Scheme::FlashCoop(PolicyKind::Lar), pre, 7);
        assert_eq!(plain.avg_response, r.avg_response);
        assert_eq!(plain.erases, r.erases);
        assert_eq!(plain.hit_ratio, r.hit_ratio);
    }

    #[test]
    #[should_panic(expected = "exceeds device logical capacity")]
    fn oversized_trace_is_rejected() {
        let cfg = tiny_cfg(PolicyKind::Lar);
        let mut t = Trace::new("big");
        t.push(IoRequest {
            at: SimTime::ZERO,
            lpn: u32::MAX as u64,
            pages: 1,
            op: Op::Write,
        });
        replay(&t, &cfg, Scheme::Baseline, None, 1);
    }

    #[test]
    fn baseline_report_has_zero_hit_ratio() {
        let cfg = tiny_cfg(PolicyKind::Lar);
        let server = CoopServer::new(cfg.clone(), Scheme::Baseline);
        let pages = server.ssd().logical_pages();
        let trace = small_trace(pages, 100, 4);
        let r = replay(&trace, &cfg, Scheme::Baseline, None, 5);
        assert_eq!(r.hit_ratio, 0.0);
        assert!(r.erases > 0 || r.write_amplification >= 1.0);
    }
}
