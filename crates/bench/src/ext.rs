//! Extension experiments beyond the paper's figures.
//!
//! Three studies the paper *argues* but does not measure:
//!
//! * [`short_lived`] — Section III.A claims short-lived files "are often
//!   never really written to SSD"; this quantifies the write traffic the
//!   cooperative buffer absorbs for a create→delete workload.
//! * [`recovery_time`] — Section III.D observes that "failure recovery time
//!   is a tradeoff between performance and reliability. Large remote buffer
//!   … requires long time to transfer during failure recovery"; this sweeps
//!   the buffer size and measures that recovery time.
//! * [`ablations`] — the design-choice ablations from DESIGN.md §5:
//!   clustering, the LAR dirty tie-break, replication, and the network tier.

use crate::params::ExperimentParams;
use fc_simkit::{DetRng, LinkModel, SimDuration, SimTime};
use fc_ssd::FtlKind;
use fc_trace::synth::ShortLivedSpec;
use flashcoop::{replay, CoopServer, FlashCoopConfig, PolicyKind, RemoteStore, Scheme};

/// Section III.A: short-lived files under FlashCoop vs Baseline.
///
/// Returns a table of (scheme, host pages written to SSD, erase count,
/// write-avoidance vs Baseline).
pub fn short_lived(params: &ExperimentParams) -> String {
    let spec = ShortLivedSpec {
        files: params.requests.min(10_000),
        address_pages: params.address_pages,
        ..ShortLivedSpec::default()
    };
    let trace = spec.generate(params.seed);
    let mut out = String::new();
    out.push_str("Short-lived files (write -> delete within the buffer's residency)\n");
    out.push_str(&format!(
        "{:<18} {:>16} {:>10} {:>18}\n",
        "Scheme", "SSD pages written", "erases", "write avoidance(%)"
    ));
    let cfg = params.flashcoop_config(FtlKind::Bast, PolicyKind::Lar);
    let mut base_pages = 0u64;
    for scheme in [Scheme::Baseline, Scheme::FlashCoop(PolicyKind::Lar)] {
        let mut server = CoopServer::new(cfg.clone(), scheme);
        let mut rng = DetRng::new(params.seed);
        server.ssd_mut().precondition(
            params.precondition.fill,
            params.precondition.sequential,
            &mut rng,
        );
        let mut remote = RemoteStore::new(cfg.buffer_pages);
        for req in &trace.requests {
            server.handle(req, &mut remote);
        }
        let pages = server.ssd().stats().host_pages_written;
        if scheme == Scheme::Baseline {
            base_pages = pages.max(1);
        }
        let avoid = 100.0 * (1.0 - pages as f64 / base_pages as f64);
        out.push_str(&format!(
            "{:<18} {:>16} {:>10} {:>18.1}\n",
            scheme.name(),
            pages,
            server.ssd().erases_since_reset(),
            avoid.max(0.0),
        ));
    }
    out.push_str(
        "(Section III.A: files deleted while still buffered never reach the SSD at all)\n",
    );
    out
}

/// One row of the recovery-time sweep.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryRow {
    /// Total memory per server (pages).
    pub buffer_pages: usize,
    /// Dirty pages replicated at the peer when the crash hits.
    pub dirty_pages: usize,
    /// Time to pull the snapshot over the network.
    pub transfer: SimDuration,
    /// Time to replay the snapshot into the SSD.
    pub replay: SimDuration,
}

impl RecoveryRow {
    /// Total recovery time.
    pub fn total(&self) -> SimDuration {
        self.transfer + self.replay
    }
}

/// Section III.D's trade-off: recovery time vs remote-buffer size.
pub fn recovery_time(params: &ExperimentParams, buffer_sizes: &[usize]) -> Vec<RecoveryRow> {
    let mut rows = Vec::new();
    for &pages in buffer_sizes {
        let mut cfg = params.flashcoop_config(FtlKind::PageLevel, PolicyKind::Lar);
        cfg.buffer_pages = pages;
        let mut server = CoopServer::new(cfg.clone(), Scheme::FlashCoop(PolicyKind::Lar));
        let mut rng = DetRng::new(params.seed);
        server.ssd_mut().precondition(
            params.precondition.fill,
            params.precondition.sequential,
            &mut rng,
        );
        let mut remote = RemoteStore::new(pages);
        // Fill the buffer with scattered dirty pages (worst case: everything
        // replicated, nothing flushed).
        let mut now = SimTime::ZERO;
        let span = params.address_pages;
        for _ in 0..pages {
            server.handle_write(now, rng.below(span), 1, &mut remote);
            now += SimDuration::from_millis(1);
        }
        let dirty = remote.len();
        // Crash + recovery: the snapshot crosses the network, then replays
        // into the SSD.
        server.crash();
        let snapshot = remote.snapshot();
        let bytes = snapshot.len() as u64 * cfg.ssd.geometry.page_bytes as u64;
        let transfer = cfg.link.transfer_time(bytes);
        let replay = server.recover_from_snapshot(now, &snapshot);
        rows.push(RecoveryRow {
            buffer_pages: pages,
            dirty_pages: dirty,
            transfer,
            replay,
        });
    }
    rows
}

/// Format the recovery sweep.
pub fn recovery_table(rows: &[RecoveryRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:>14} {:>12} {:>14} {:>14} {:>14}\n",
        "Buffer(pages)", "Dirty pages", "Transfer(ms)", "Replay(ms)", "Total(ms)"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:>14} {:>12} {:>14.2} {:>14.2} {:>14.2}\n",
            r.buffer_pages,
            r.dirty_pages,
            r.transfer.as_millis_f64(),
            r.replay.as_millis_f64(),
            r.total().as_millis_f64(),
        ));
    }
    out.push_str("(Section III.D: larger remote buffers buy more write optimisation\n");
    out.push_str(" but lengthen recovery)\n");
    out
}

/// Lifetime projection: the paper claims FlashCoop "extends SSD lifetime";
/// this converts measured erase rates into projected device lifetime
/// (host data writable before the rated erase budget is exhausted).
pub fn lifetime(params: &ExperimentParams) -> String {
    let trace = params.traces()[0].generate(params.seed); // Fin1
    let mut out = String::new();
    out.push_str(
        "Projected lifetime under Fin1 (BAST, Table II endurance: 100K cycles)
",
    );
    out.push_str(&format!(
        "{:<18} {:>10} {:>16} {:>20} {:>14}
",
        "Scheme", "erases", "host GiB written", "erases per host GiB", "lifetime (x)"
    ));
    let cfg = params.flashcoop_config(FtlKind::Bast, PolicyKind::Lar);
    let mut baseline_rate = 0.0f64;
    for scheme in [Scheme::Baseline, Scheme::FlashCoop(PolicyKind::Lar)] {
        let r = replay(&trace, &cfg, scheme, Some(params.precondition), params.seed);
        // Host GiB the workload asked to write (same for both schemes).
        let host_pages: u64 = trace
            .requests
            .iter()
            .filter(|q| q.op == fc_trace::Op::Write)
            .map(|q| q.pages as u64)
            .sum();
        let gib = host_pages as f64 * 4096.0 / (1u64 << 30) as f64;
        let rate = r.erases as f64 / gib.max(1e-9);
        if scheme == Scheme::Baseline {
            baseline_rate = rate;
        }
        let extension = baseline_rate / rate.max(1e-9);
        out.push_str(&format!(
            "{:<18} {:>10} {:>16.2} {:>20.0} {:>13.2}x
",
            scheme.name(),
            r.erases,
            gib,
            rate,
            extension,
        ));
    }
    out.push_str(
        "(erase budget is fixed, so lifetime scales inversely with erases per          host byte; Section II.C.1)
",
    );
    out
}

/// DFTL extension: translation overhead vs CMT budget, bare device vs
/// behind the FlashCoop buffer. The buffer's filtering concentrates the
/// stream the FTL sees, which also helps the mapping cache.
pub fn dftl_overhead(params: &ExperimentParams) -> String {
    use fc_ssd::SsdConfig;
    let trace = params.traces()[0].generate(params.seed); // Fin1
    let mut out = String::new();
    out.push_str(
        "DFTL translation overhead vs CMT size (Fin1)
",
    );
    out.push_str(&format!(
        "{:<22} {:>12} {:>16} {:>16} {:>10}
",
        "Configuration", "CMT entries", "xlat reads", "xlat writes", "erases"
    ));
    for &cmt in &[4_096usize, 16_384, 65_536] {
        for scheme in [Scheme::Baseline, Scheme::FlashCoop(PolicyKind::Lar)] {
            let mut cfg = params.flashcoop_config(FtlKind::Dftl, PolicyKind::Lar);
            cfg.ssd = SsdConfig {
                ftl: FtlKind::Dftl,
                ..cfg.ssd
            };
            cfg.ssd.ftl_config.cmt_entries = cmt;
            let r = replay(&trace, &cfg, scheme, Some(params.precondition), params.seed);
            out.push_str(&format!(
                "{:<22} {:>12} {:>16} {:>16} {:>10}
",
                scheme.name(),
                cmt,
                r.ftl_stats.translation_reads,
                r.ftl_stats.translation_writes,
                r.erases,
            ));
        }
    }
    out.push_str(
        "(misses fall as the cached mapping table grows; the cooperative buffer
",
    );
    out.push_str(
        " also concentrates the stream the mapping cache sees)
",
    );
    out
}

/// The DESIGN.md §5 ablation table: each variant against the full system.
pub fn ablations(params: &ExperimentParams) -> String {
    let trace = params.traces()[0].generate(params.seed); // Fin1
    let base_cfg = params.flashcoop_config(FtlKind::Bast, PolicyKind::Lar);

    let mut variants: Vec<(String, FlashCoopConfig)> = vec![
        ("full LAR system".into(), base_cfg.clone()),
        (
            "no clustering".into(),
            FlashCoopConfig {
                clustering: false,
                ..base_cfg.clone()
            },
        ),
        (
            "popularity only".into(),
            FlashCoopConfig {
                lar_dirty_tiebreak: false,
                ..base_cfg.clone()
            },
        ),
        (
            "no replication".into(),
            FlashCoopConfig {
                replication: false,
                ..base_cfg.clone()
            },
        ),
        (
            "1 GbE link".into(),
            FlashCoopConfig {
                link: LinkModel::one_gbe(),
                ..base_cfg.clone()
            },
        ),
        (
            "watermark 0.7".into(),
            FlashCoopConfig {
                dirty_watermark: Some(0.7),
                ..base_cfg.clone()
            },
        ),
    ];

    let mut out = String::new();
    out.push_str("Ablations (FlashCoop w. LAR, BAST, Fin1)\n");
    out.push_str(&format!(
        "{:<18} {:>14} {:>14} {:>10} {:>14} {:>8}\n",
        "Variant", "AvgResp(ms)", "AvgWrite(us)", "Erases", "MeanWrite(pg)", "1pg(%)"
    ));
    for (name, cfg) in variants.drain(..) {
        let r = replay(
            &trace,
            &cfg,
            Scheme::FlashCoop(PolicyKind::Lar),
            Some(params.precondition),
            params.seed,
        );
        out.push_str(&format!(
            "{:<18} {:>14.3} {:>14.1} {:>10} {:>14.1} {:>8.2}\n",
            name,
            r.avg_response.as_millis_f64(),
            r.avg_write_response.as_micros_f64(),
            r.erases,
            r.mean_write_pages,
            r.frac_single_page * 100.0,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ExperimentParams {
        let mut p = ExperimentParams::quick();
        p.requests = 1_500;
        p
    }

    #[test]
    fn short_lived_files_mostly_bypass_the_ssd() {
        let p = quick();
        let table = short_lived(&p);
        assert!(table.contains("Baseline"));
        assert!(table.contains("FlashCoop"));
        // Parse the avoidance column of the FlashCoop row.
        let line = table
            .lines()
            .find(|l| l.contains("FlashCoop"))
            .expect("row");
        let avoid: f64 = line
            .split_whitespace()
            .last()
            .unwrap()
            .parse()
            .expect("number");
        assert!(
            avoid > 50.0,
            "buffer should absorb most short-lived writes, got {avoid}%"
        );
    }

    #[test]
    fn recovery_time_grows_with_buffer_size() {
        let p = quick();
        let rows = recovery_time(&p, &[256, 1024, 4096]);
        assert_eq!(rows.len(), 3);
        assert!(rows[0].dirty_pages <= rows[2].dirty_pages);
        assert!(
            rows[2].total() > rows[0].total(),
            "bigger remote buffer must take longer to recover: {:?} vs {:?}",
            rows[2].total(),
            rows[0].total()
        );
        let _ = recovery_table(&rows);
    }

    #[test]
    fn lifetime_extension_exceeds_one() {
        let mut p = quick();
        p.requests = 1_200;
        let t = lifetime(&p);
        let line = t.lines().find(|l| l.contains("FlashCoop")).expect("row");
        let ext: f64 = line
            .split_whitespace()
            .last()
            .unwrap()
            .trim_end_matches('x')
            .parse()
            .expect("number");
        assert!(
            ext > 1.0,
            "FlashCoop must extend lifetime, got {ext}x
{t}"
        );
    }

    #[test]
    fn dftl_overhead_falls_with_cmt_size() {
        let mut p = quick();
        p.requests = 1_000;
        let t = dftl_overhead(&p);
        assert!(t.contains("4096"));
        assert!(t.contains("65536"));
        assert!(t.contains("DFTL translation overhead"));
    }

    #[test]
    fn ablation_table_has_all_variants() {
        let mut p = quick();
        p.requests = 800;
        let t = ablations(&p);
        for v in [
            "full LAR system",
            "no clustering",
            "popularity only",
            "no replication",
            "1 GbE link",
            "watermark 0.7",
        ] {
            assert!(t.contains(v), "missing variant {v}\n{t}");
        }
    }
}
