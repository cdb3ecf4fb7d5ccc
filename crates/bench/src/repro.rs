//! The `repro` binary's targets, as one table: each target's name, the
//! `== … ==` title above its output and the body that computes it, so
//! `repro <name>` and `repro all` print the same text for it.

use flashcoop::RunReport;

use crate::{ext, fig1, fig9, matrix, table1, ExperimentParams};

/// One `repro` target.
pub struct Target {
    /// Its command-line name.
    pub name: &'static str,
    /// The `== … ==` title above its output (the headline has none).
    title: Option<&'static str>,
    body: fn(&mut Run) -> String,
}

/// Every target, in the order `repro all` prints them.
pub const TARGETS: &[Target] = &[
    Target {
        name: "table1",
        title: Some("Table I: workload statistics"),
        body: |run| table1(&run.params),
    },
    Target {
        name: "fig1",
        title: Some("Figure 1: SSD write bandwidth vs request size"),
        body: |run| {
            let requests = if run.quick { 400 } else { 2000 };
            fig1::table(&fig1::run(&run.params, requests))
        },
    },
    Target {
        name: "fig6",
        title: Some("Figure 6: average response time"),
        body: |run| matrix::fig6_table(run.matrix()),
    },
    Target {
        name: "fig7",
        title: Some("Figure 7: garbage-collection overhead"),
        body: |run| matrix::fig7_table(run.matrix()),
    },
    Target {
        name: "fig8",
        title: Some("Figure 8: write-length distribution"),
        body: |run| matrix::fig8_table(run.matrix()),
    },
    Target {
        name: "headline",
        title: None,
        body: |run| matrix::headline(run.matrix()) + "\n",
    },
    Target {
        name: "table3",
        title: Some("Table III: cache hit ratio vs buffer size"),
        body: |run| {
            let sizes: &[usize] = if run.quick {
                &[1024, 2048]
            } else {
                &[1024, 2048, 4096, 8192]
            };
            matrix::table3(&run.params, sizes)
        },
    },
    Target {
        name: "fig9",
        title: Some("Figure 9: memory allocation vs workload"),
        body: |run| fig9::table(&fig9::run(&run.params)),
    },
    Target {
        name: "shortlived",
        title: Some("Extension: short-lived files (Section III.A)"),
        body: |run| ext::short_lived(&run.params),
    },
    Target {
        name: "recovery",
        title: Some("Extension: recovery time vs buffer size (Section III.D)"),
        body: |run| {
            let rows = ext::recovery_time(&run.params, &[1024, 2048, 4096, 8192, 16384]);
            ext::recovery_table(&rows)
        },
    },
    Target {
        name: "ablations",
        title: Some("Extension: design ablations"),
        body: |run| ext::ablations(&run.params),
    },
    Target {
        name: "dftl",
        title: Some("Extension: DFTL translation overhead"),
        body: |run| ext::dftl_overhead(&run.params),
    },
    Target {
        name: "lifetime",
        title: Some("Extension: projected SSD lifetime"),
        body: |run| ext::lifetime(&run.params),
    },
];

/// The targets `what` names: `all` is the whole table. An unknown name
/// gets the message listing every name `repro` takes.
pub fn select(what: &str) -> Result<&'static [Target], String> {
    if what == "all" {
        return Ok(TARGETS);
    }
    match TARGETS.iter().position(|t| t.name == what) {
        Some(i) => Ok(&TARGETS[i..=i]),
        None => {
            let names: Vec<&str> = TARGETS.iter().map(|t| t.name).collect();
            Err(format!(
                "unknown target {what:?}; expected one of all|{}",
                names.join("|")
            ))
        }
    }
}

/// One `repro` invocation: its scale, and the evaluation matrix, computed
/// the first time a target needs it.
pub struct Run {
    quick: bool,
    params: ExperimentParams,
    matrix: Option<Vec<RunReport>>,
}

impl Run {
    /// A full-scale run, or with `quick` the reduced smoke-test scale.
    pub fn new(quick: bool) -> Run {
        let params = if quick {
            ExperimentParams::quick()
        } else {
            ExperimentParams::full()
        };
        Run {
            quick,
            params,
            matrix: None,
        }
    }

    /// Compute `target` and return what `repro` prints for it.
    pub fn render(&mut self, target: &Target) -> String {
        eprintln!("[repro] running {}…", target.name);
        let body = (target.body)(self);
        match target.title {
            Some(title) => format!("== {title} ==\n{body}\n"),
            None => format!("{body}\n"),
        }
    }

    fn matrix(&mut self) -> &[RunReport] {
        let params = &self.params;
        self.matrix.get_or_insert_with(|| {
            eprintln!("[repro] running the 4x3x3 evaluation matrix…");
            matrix::run_matrix(params)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_name_selects_its_target_and_unknown_names_list_the_table() {
        let names: Vec<&str> = TARGETS.iter().map(|t| t.name).collect();
        for name in &names {
            let picked = select(name).expect(name);
            assert_eq!(picked.len(), 1);
            assert_eq!(picked[0].name, *name);
        }
        assert_eq!(select("all").unwrap().len(), names.len());
        let err = select("bogus").err().expect("unknown target");
        let (_, listed) = err.split_once("expected one of ").expect(&err);
        let listed: Vec<&str> = listed.split('|').collect();
        assert_eq!(listed[0], "all");
        assert_eq!(listed[1..], names[..], "the message lists the table");
    }

    #[test]
    fn render_puts_the_title_above_the_body() {
        let text = Run::new(true).render(select("table1").unwrap().first().unwrap());
        assert!(text.starts_with("== Table I: workload statistics ==\nTrace "));
        assert!(text.ends_with("4KB pages)\n\n"), "{text}");
    }
}
