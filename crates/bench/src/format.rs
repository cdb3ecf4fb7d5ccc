//! Presentation adapters for [`RunReport`].
//!
//! The report itself is plain serialisable data; how it is rendered — the
//! classic aligned table — is a bench-harness concern and lives here.
//! Scripts scrape the table out of `fctrace replay`, so its column layout
//! is fixed.

use flashcoop::RunReport;

/// Column header of the aligned results table.
pub fn report_header() -> String {
    format!(
        "{:<18} {:<11} {:<5} {:>12} {:>12} {:>8} {:>10} {:>6} {:>8} {:>8}",
        "Scheme",
        "FTL",
        "Trace",
        "AvgResp(ms)",
        "p99(ms)",
        "Hit(%)",
        "Erases",
        "WA",
        "1pg(%)",
        ">8pg(%)"
    )
}

/// One aligned results row.
pub fn report_row(r: &RunReport) -> String {
    format!(
        "{:<18} {:<11} {:<5} {:>12.3} {:>12.3} {:>8.2} {:>10} {:>6.2} {:>8.2} {:>8.2}",
        r.scheme.name(),
        r.ftl.name(),
        r.trace,
        r.avg_response.as_millis_f64(),
        r.p99_response.as_millis_f64(),
        r.hit_ratio * 100.0,
        r.erases,
        r.write_amplification,
        r.frac_single_page * 100.0,
        r.frac_gt8_pages * 100.0,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_simkit::SimDuration;
    use fc_ssd::{FtlKind, FtlStats};
    use flashcoop::{PolicyKind, Scheme};

    fn report() -> RunReport {
        RunReport {
            scheme: Scheme::FlashCoop(PolicyKind::Lar),
            ftl: FtlKind::Bast,
            trace: "Fin1".into(),
            requests: 1000,
            avg_response: SimDuration::from_micros(630),
            p99_response: SimDuration::from_millis(5),
            avg_write_response: SimDuration::from_micros(100),
            avg_read_response: SimDuration::from_micros(900),
            hit_ratio: 0.78,
            erases: 8700,
            write_amplification: 1.4,
            mean_write_pages: 12.0,
            frac_single_page: 0.03,
            frac_gt8_pages: 0.35,
            write_length_cdf: vec![(1, 0.03), (64, 1.0)],
            ftl_stats: FtlStats::default(),
        }
    }

    #[test]
    fn row_and_header_align() {
        let row = report_row(&report());
        assert!(row.contains("FlashCoop w. LAR"));
        assert!(row.contains("BAST"));
        assert!(row.contains("Fin1"));
        assert!(row.contains("8700"));
        // Millisecond conversion shows 0.630.
        assert!(row.contains("0.630"));
        assert!(!report_header().is_empty());
    }
}
