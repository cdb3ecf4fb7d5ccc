//! Shared experiment parameters.
//!
//! Every experiment reads its sizing from [`ExperimentParams`] so the `repro`
//! binary and the integration tests agree on the setup. The defaults mirror
//! the paper's evaluation (Section IV.A): Table II device (scaled capacity,
//! identical page/block shape), 4096-page buffer, aged device, Table I
//! workloads.

use fc_ssd::FtlKind;
use fc_trace::SyntheticSpec;
use flashcoop::{FlashCoopConfig, PolicyKind, Preconditioning};

/// Sizing knobs for a full experiment run.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentParams {
    /// Requests per trace.
    pub requests: usize,
    /// Trace address space in pages (must fit the device's logical space).
    pub address_pages: u64,
    /// Cooperative buffer capacity in pages.
    pub buffer_pages: usize,
    /// Device aging before measurement.
    pub precondition: Preconditioning,
    /// Master seed.
    pub seed: u64,
}

impl ExperimentParams {
    /// Full-scale run (the EXPERIMENTS.md numbers).
    pub fn full() -> Self {
        ExperimentParams {
            requests: 50_000,
            address_pages: 64 * 1024,
            buffer_pages: 4096,
            precondition: Preconditioning {
                fill: 0.92,
                sequential: 0.5,
            },
            seed: 42,
        }
    }

    /// Reduced run for smoke tests.
    pub fn quick() -> Self {
        ExperimentParams {
            requests: 4_000,
            address_pages: 64 * 1024,
            buffer_pages: 2048,
            precondition: Preconditioning {
                fill: 0.92,
                sequential: 0.5,
            },
            seed: 42,
        }
    }

    /// FlashCoop configuration for one cell of the matrix.
    pub fn flashcoop_config(&self, ftl: FtlKind, policy: PolicyKind) -> FlashCoopConfig {
        let mut cfg = FlashCoopConfig::evaluation(ftl, policy);
        cfg.buffer_pages = self.buffer_pages;
        cfg
    }

    /// The three Table I workloads sized for this run.
    pub fn traces(&self) -> [SyntheticSpec; 3] {
        let mut specs = SyntheticSpec::table1(self.address_pages);
        for s in &mut specs {
            s.requests = self.requests;
        }
        specs
    }
}

/// A Table I workload by name (`fin1`, `fin2` or `mix`, in any case),
/// sized for `address_pages`: the one place a preset name meets
/// [`SyntheticSpec::table1`].
pub fn table1_preset(name: &str, address_pages: u64) -> Option<SyntheticSpec> {
    SyntheticSpec::table1(address_pages)
        .into_iter()
        .find(|spec| spec.name.eq_ignore_ascii_case(name))
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashcoop::{CoopServer, Scheme};

    #[test]
    fn traces_fit_the_evaluation_device() {
        let p = ExperimentParams::full();
        let cfg = p.flashcoop_config(FtlKind::Bast, PolicyKind::Lar);
        let server = CoopServer::new(cfg, Scheme::Baseline);
        assert!(p.address_pages <= server.ssd().logical_pages());
    }

    #[test]
    fn quick_is_smaller_than_full() {
        let q = ExperimentParams::quick();
        let f = ExperimentParams::full();
        assert!(q.requests < f.requests);
        assert!(q.buffer_pages <= f.buffer_pages);
    }

    #[test]
    fn presets_resolve_in_any_case_through_table1() {
        for (name, want) in [("fin1", "Fin1"), ("FIN2", "Fin2"), ("Mix", "Mix")] {
            let spec = table1_preset(name, 4096).expect(name);
            assert_eq!((spec.name.as_str(), spec.address_pages), (want, 4096));
        }
        assert!(table1_preset("shortlived", 4096).is_none());
    }

    #[test]
    fn trace_specs_carry_request_count() {
        let p = ExperimentParams::quick();
        for spec in p.traces() {
            assert_eq!(spec.requests, p.requests);
            assert_eq!(spec.address_pages, p.address_pages);
        }
    }
}
