//! Turning repeats into reported figures, `results.json`, and `compare`.

use std::fmt::Write as _;

use fc_obs::json::{self, Json};

use crate::layers::flash_cost;
use crate::metrics::{Better, MetricDef, END_TO_END, FLASH};
use crate::run::RepeatOut;
use crate::stats::{median, quartiles, supported_percentile};

/// One end-to-end metric of one workload: a value per repeat (`None`
/// where the repeat could not support it) and their median.
#[derive(Debug, Clone)]
pub struct Figure {
    pub def: &'static MetricDef,
    pub values: Vec<Option<f64>>,
    /// Samples behind each repeat's value (requests, or latencies).
    pub samples: Vec<u64>,
}

impl Figure {
    fn present(&self) -> Vec<f64> {
        self.values.iter().flatten().copied().collect()
    }

    /// Median of the repeats that produced a value.
    pub fn median(&self) -> Option<f64> {
        median(&self.present())
    }

    pub fn quartiles(&self) -> Option<(f64, f64)> {
        quartiles(&self.present())
    }
}

/// The end-to-end figures of a workload's untraced repeats: the contract's
/// metrics, then the flash-cost metrics where the workload has a device.
pub fn end_to_end(repeats: &[RepeatOut]) -> Vec<Figure> {
    let per_repeat = |f: &dyn Fn(&RepeatOut) -> (Option<f64>, u64)| {
        let (values, samples) = repeats.iter().map(f).unzip();
        (values, samples)
    };
    let latency = |pick: fn(&crate::run::PacedOut) -> &Vec<u64>, p: f64| {
        move |r: &RepeatOut| match &r.paced {
            Some(paced) if !paced.overloaded => {
                let ns = pick(paced);
                (
                    supported_percentile(ns, p).map(|v| v as f64 / 1e3),
                    ns.len() as u64,
                )
            }
            _ => (None, 0),
        }
    };
    let mut figures = Vec::new();
    for def in END_TO_END.iter().chain(FLASH) {
        let (values, samples) = match def.name {
            "setup_s" => per_repeat(&|r| (Some(r.setup_s), 1)),
            "req_per_s" => per_repeat(&|r| (Some(r.req_per_s()), r.closed_acked)),
            "cpu_us_per_req" => per_repeat(&|r| {
                let v = (r.closed_acked > 0).then(|| r.closed_cpu_s * 1e6 / r.closed_acked as f64);
                (v, r.closed_acked)
            }),
            "write_p50_us" => per_repeat(&latency(|p| &p.write_ns, 0.50)),
            "read_p50_us" => per_repeat(&latency(|p| &p.read_ns, 0.50)),
            "flash_programs_per_page" => {
                per_repeat(&|r| (flash_cost(r).map(|c| c.0), r.paced_pages_written))
            }
            "erases_per_kpage" => {
                per_repeat(&|r| (flash_cost(r).map(|c| c.1), r.paced_pages_written))
            }
            other => unreachable!("no rule for end-to-end metric {other}"),
        };
        figures.push(Figure {
            def,
            values,
            samples,
        });
    }
    // A workload without a device has no flash cost at all: omitted, not 0.
    figures.retain(|f| !(FLASH.iter().any(|m| m.name == f.def.name) && f.present().is_empty()));
    figures
}

/// Requests and read-back pages attempted, and how many failed; a broken
/// invariant counts as one failure.
pub fn attempted_failed<'a>(repeats: impl IntoIterator<Item = &'a RepeatOut>) -> (u64, u64) {
    repeats.into_iter().fold((0, 0), |(att, bad), r| {
        (
            att + r.tally.issued + r.verify_pages,
            bad + r.tally.failed + r.verify_bad_pages + u64::from(r.invariant.is_some()),
        )
    })
}

pub fn print_figure(workload: &str, f: &Figure) {
    let fmt = |v: &Option<f64>| v.map_or("n/a".to_string(), |v| format!("{v:.4}"));
    let values: Vec<String> = f.values.iter().map(fmt).collect();
    println!(
        "{workload} {} = {} {} (median of [{}], samples {:?}, bound {:.0} %)",
        f.def.name,
        fmt(&f.median()),
        f.def.unit,
        values.join(", "),
        f.samples,
        f.def.bound * 100.0
    );
}

// ---------------------------------------------------------------------------
// results.json
// ---------------------------------------------------------------------------

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn opt(v: Option<f64>) -> String {
    v.map_or("null".into(), num)
}

/// One workload's block of `results.json`.
pub fn workload_json(
    name: &str,
    figures: &[Figure],
    per_layer: &[(&'static MetricDef, f64)],
    attempted: u64,
    failed: u64,
) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "    {{\"name\": \"{name}\", \"attempted\": {attempted}, \"failed\": {failed},\n     \"end_to_end\": [\n"
    );
    for (i, f) in figures.iter().enumerate() {
        let (q1, q3) = f.quartiles().unzip();
        let values: Vec<String> = f.values.iter().map(|v| opt(*v)).collect();
        let _ = write!(
            out,
            "       {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}, \
             \"median\": {}, \"q1\": {}, \"q3\": {}, \"values\": [{}], \"samples\": {:?}}}",
            f.def.name,
            f.def.unit,
            f.def.better.name(),
            f.def.bound,
            opt(f.median()),
            opt(q1),
            opt(q3),
            values.join(", "),
            f.samples
        );
        out.push_str(if i + 1 < figures.len() { ",\n" } else { "\n" });
    }
    out.push_str("     ],\n     \"per_layer\": [\n");
    for (i, (def, v)) in per_layer.iter().enumerate() {
        let _ = write!(
            out,
            "       {{\"name\": \"{}\", \"unit\": \"{}\", \"value\": {}}}",
            def.name,
            def.unit,
            num(*v)
        );
        out.push_str(if i + 1 < per_layer.len() { ",\n" } else { "\n" });
    }
    out.push_str("     ]}");
    out
}

// ---------------------------------------------------------------------------
// compare
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Within,
    Regressed,
    Improved,
    /// A side's own repeats spread wider than the bound: the medians
    /// cannot be told apart at this resolution.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Within => "within",
            Verdict::Regressed => "regressed",
            Verdict::Improved => "improved",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a comparison: median and quartiles of its repeats.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Side {
    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs()
    }
}

/// Judge `b` against base `a`: worse by more than `bound` of a's median is
/// a regression, better by more than `bound` an improvement.
pub fn verdict(a: Side, b: Side, better: Better, bound: f64) -> Verdict {
    if a.spread() > bound || b.spread() > bound {
        return Verdict::Unresolved;
    }
    let change = (b.median - a.median) / a.median.abs();
    let worse = match better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    if worse > bound {
        Verdict::Regressed
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Within
    }
}

fn side_of(metric: &Json) -> Option<Side> {
    let f = |k: &str| metric.get(k).and_then(Json::as_f64);
    Some(Side {
        median: f("median")?,
        q1: f("q1")?,
        q3: f("q3")?,
    })
}

fn list<'a>(j: &'a Json, key: &str) -> &'a [Json] {
    match j.get(key) {
        Some(Json::Arr(items)) => items,
        _ => &[],
    }
}

/// Compare two `results.json` texts. Returns the table and whether every
/// row is `within` or `improved`.
pub fn compare(a_text: &str, b_text: &str) -> Result<(String, bool), String> {
    let a = json::parse(a_text).map_err(|e| format!("A: {e}"))?;
    let b = json::parse(b_text).map_err(|e| format!("B: {e}"))?;
    let mut table = format!(
        "{:<15} {:<24} {:>12} {:>8} {:>12} {:>8} {:>8} {:>6}  {}\n",
        "workload", "metric", "A median", "A iqr%", "B median", "B iqr%", "B/A", "bound", "verdict"
    );
    let mut ok = true;
    for wa in list(&a, "workloads") {
        let name = wa
            .get("name")
            .and_then(Json::as_str)
            .ok_or("A: unnamed workload")?;
        let wb = list(&b, "workloads")
            .iter()
            .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
            .ok_or_else(|| format!("B has no workload {name}"))?;
        for ma in list(wa, "end_to_end") {
            let metric = ma
                .get("name")
                .and_then(Json::as_str)
                .ok_or("A: unnamed metric")?;
            let mb = list(wb, "end_to_end")
                .iter()
                .find(|m| m.get("name").and_then(Json::as_str) == Some(metric));
            let bound = ma
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("A: metric without bound")?;
            let better = match ma.get("better").and_then(Json::as_str) {
                Some("higher") => Better::Higher,
                _ => Better::Lower,
            };
            let unit = ma.get("unit").and_then(Json::as_str).unwrap_or("");
            let (Some(sa), Some(sb)) = (side_of(ma), mb.and_then(side_of)) else {
                ok = false;
                let _ = writeln!(
                    table,
                    "{name:<15} {metric:<24} a side has no value for this metric: unresolved"
                );
                continue;
            };
            let v = verdict(sa, sb, better, bound);
            ok &= matches!(v, Verdict::Within | Verdict::Improved);
            let _ = writeln!(
                table,
                "{name:<15} {:<24} {:>12.4} {:>8.2} {:>12.4} {:>8.2} {:>8.4} {:>5.0}%  {}",
                format!("{metric} [{unit}]"),
                sa.median,
                sa.spread() * 100.0,
                sb.median,
                sb.spread() * 100.0,
                sb.median / sa.median,
                bound * 100.0,
                v.name()
            );
        }
    }
    Ok((table, ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(median: f64, iqr: f64) -> Side {
        Side {
            median,
            q1: median - iqr / 2.0,
            q3: median + iqr / 2.0,
        }
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let base = side(100.0, 2.0);
        // Lower is better, 10 % bound.
        assert_eq!(
            verdict(base, side(109.0, 2.0), Better::Lower, 0.1),
            Verdict::Within
        );
        assert_eq!(
            verdict(base, side(111.0, 2.0), Better::Lower, 0.1),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(base, side(89.0, 2.0), Better::Lower, 0.1),
            Verdict::Improved
        );
        // Higher is better: the same numbers read the other way.
        assert_eq!(
            verdict(base, side(111.0, 2.0), Better::Higher, 0.1),
            Verdict::Improved
        );
        assert_eq!(
            verdict(base, side(89.0, 2.0), Better::Higher, 0.1),
            Verdict::Regressed
        );
        // Either side's own spread beyond the bound: no verdict on the medians.
        assert_eq!(
            verdict(side(100.0, 11.0), base, Better::Lower, 0.1),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(base, side(150.0, 20.0), Better::Lower, 0.1),
            Verdict::Unresolved
        );
    }

    #[test]
    fn compare_reads_two_result_files() {
        let file = |median: f64| {
            format!(
                r#"{{"workloads": [{{"name": "w", "end_to_end": [
                  {{"name": "req_per_s", "unit": "req/s", "better": "higher", "bound": 0.1,
                    "median": {median}, "q1": {}, "q3": {}, "values": [1], "samples": [1]}}]}}]}}"#,
                median - 1.0,
                median + 1.0
            )
        };
        let (table, ok) = compare(&file(1000.0), &file(1050.0)).unwrap();
        assert!(ok && table.contains("within"), "{table}");
        let (table, ok) = compare(&file(1000.0), &file(800.0)).unwrap();
        assert!(!ok && table.contains("regressed"), "{table}");
        assert!(compare(&file(1.0), r#"{"workloads": []}"#).is_err());
        assert!(compare("not json", &file(1.0)).is_err());
    }

    #[test]
    fn workload_block_is_valid_json() {
        let fig = Figure {
            def: &END_TO_END[1],
            values: vec![Some(10.0), None, Some(12.0)],
            samples: vec![5, 0, 6],
        };
        assert_eq!(fig.median(), Some(11.0));
        let text = workload_json("w", &[fig], &[(&END_TO_END[0], 0.25)], 9, 0);
        let j = json::parse(&text).expect("valid JSON");
        let m = &list(&j, "end_to_end")[0];
        assert_eq!(m.get("median").and_then(Json::as_f64), Some(11.0));
        assert_eq!(list(m, "values")[1], Json::Null);
        assert_eq!(side_of(m).unwrap().q1, 9.5);
    }
}
