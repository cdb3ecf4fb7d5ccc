//! The metric tables: every name the benchmark reports, with its unit and
//! direction. `BENCHMARK.json` is generated from these tables (`fc-benchmark
//! manifest`) and a test checks the two agree.

use std::fmt::Write as _;

use crate::workloads::WORKLOADS;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// it is a regression. End-to-end metrics only.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// What a user of the cluster sees. Reported by every workload with
/// `--trace 0`.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("req_per_s", "req/s", Higher, 0.25),
    e2e("cpu_us_per_req", "us", Lower, 0.25),
    e2e("write_p50_us", "us", Lower, 0.25),
    e2e("read_p50_us", "us", Lower, 0.25),
];

/// Flash cost per client page acknowledged written, over all phases after
/// a final flush. End-to-end by nature and judged by `compare` with these
/// bounds, but defined only where the workload has a simulated device —
/// and `BENCHMARK.json` wants every end-to-end metric from every workload
/// — so the manifest lists them per layer (see README, "Metrics").
pub const FLASH: &[MetricDef] = &[
    e2e("flash_programs_per_page", "ratio", Lower, 0.03),
    e2e("erases_per_kpage", "1/kpage", Lower, 0.03),
];

/// One layer each. Reported by every workload with `--trace 1`; a metric
/// of a layer the workload does not use reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    // See `FLASH`.
    layer("flash_programs_per_page", "ratio", Lower),
    layer("erases_per_kpage", "1/kpage", Lower),
    // The tail of the paced phase. A user sees it, but on the reference box
    // it does not repeat within any bound the manifest allows (see README).
    layer("write_p90_us", "us", Lower),
    layer("write_p99_us", "us", Lower),
    layer("read_p90_us", "us", Lower),
    layer("read_p99_us", "us", Lower),
    layer("failed_share", "ratio", Lower),
    layer("paced.late_share", "ratio", Lower),
    layer("paced.backlog_max", "count", Lower),
    layer("trace.overhead_share", "ratio", Lower),
    layer("trace.generate_s", "s", Lower),
    // Spans of the traced closed phase.
    layer("client.link_us_p50", "us", Lower),
    layer("client.link_us_p99", "us", Lower),
    layer("gateway.session_us_p50", "us", Lower),
    layer("gateway.session_us_p99", "us", Lower),
    layer("gateway.session_self_us_p50", "us", Lower),
    // GatewayStats.
    layer("gateway.batches", "count", Lower),
    layer("gateway.runs", "count", Lower),
    layer("gateway.coalesced_pages", "count", Higher),
    layer("gateway.runs_per_write", "ratio", Lower),
    layer("gateway.retries", "count", Lower),
    layer("gateway.shed_total", "count", Lower),
    layer("gateway.max_inflight_seen", "count", Lower),
    // ShardStats.
    layer("gateway.shard.submit_us_mean", "us", Lower),
    layer("gateway.shard.submit_us_max_shard", "us", Lower),
    layer("gateway.shard.pages_max_over_mean", "ratio", Lower),
    // Direct calls, gateway.
    layer("gateway.proto.encode_write32_ns", "ns", Lower),
    layer("gateway.proto.decode_write32_ns", "ns", Lower),
    layer("gateway.proto.encode_readok32_ns", "ns", Lower),
    layer("gateway.proto.decode_readok32_ns", "ns", Lower),
    layer("gateway.batch.coalesce_sharded_ns", "ns", Lower),
    layer("gateway.batch.coalesce_ns", "ns", Lower),
    layer("gateway.admission.try_admit_ns", "ns", Lower),
    layer("ring.shard_of_lpn_1pair_ns", "ns", Lower),
    layer("ring.shard_of_lpn_4pair_ns", "ns", Lower),
    // Direct calls, a bare mem pair.
    layer("cluster.node.write_run32_us_p50", "us", Lower),
    layer("cluster.node.write_run1_us_p50", "us", Lower),
    layer("cluster.node.read_hit_us_p50", "us", Lower),
    layer("cluster.node.read_miss_us_p50", "us", Lower),
    // NodeStats, summed over primaries.
    layer("cluster.node.replicated_pages", "count", Higher),
    layer("cluster.node.write_through", "count", Lower),
    layer("cluster.node.write_through_share", "ratio", Lower),
    layer("cluster.node.flushed_pages", "count", Lower),
    layer("cluster.node.read_hit_share", "ratio", Higher),
    layer("cluster.node.dedup_hits", "count", Lower),
    // ReplicationStats and the batch-size histogram.
    layer("cluster.repl.batches_sent", "count", Lower),
    layer("cluster.repl.pages_per_batch_mean", "pages", Higher),
    layer("cluster.repl.pages_per_batch_p50", "pages", Higher),
    layer("cluster.repl.retries", "count", Lower),
    layer("cluster.repl.credit_stalls", "count", Lower),
    layer("cluster.repl.credit_rejections", "count", Lower),
    // Transport probe.
    layer("cluster.transport.frames", "count", Lower),
    layer("cluster.transport.pages_per_frame_mean", "pages", Higher),
    layer("cluster.transport.send_us_p50", "us", Lower),
    layer("cluster.transport.send_us_p99", "us", Lower),
    layer("cluster.transport.repl_rtt_us_p50", "us", Lower),
    layer("cluster.transport.repl_rtt_us_p99", "us", Lower),
    layer("cluster.transport.inflight_batches_max", "count", Lower),
    // Direct calls, wire codec.
    layer("cluster.wire.encode_batch32_ns", "ns", Lower),
    layer("cluster.wire.decode_batch32_ns", "ns", Lower),
    layer("cluster.wire.crc32_page_ns", "ns", Lower),
    // Direct calls, buffer manager.
    layer("core.buffer.write_ns", "ns", Lower),
    layer("core.buffer.read_ns", "ns", Lower),
    layer("core.buffer.evicted_pages_per_eviction", "pages", Higher),
    layer("core.buffer.hit_ratio", "ratio", Higher),
    // Backend probe.
    layer("cluster.backend.write_pages", "count", Lower),
    layer("cluster.backend.read_pages", "count", Lower),
    layer("cluster.backend.trim_pages", "count", Lower),
    layer("cluster.backend.write_page_us_p50", "us", Lower),
    layer("cluster.backend.write_page_us_p99", "us", Lower),
    layer("cluster.backend.busy_share", "ratio", Lower),
    layer("cluster.backend.run_len_mean", "pages", Higher),
    layer("cluster.backend.one_page_run_share", "ratio", Lower),
    // Device statistics.
    layer("ssd.block_erases", "count", Lower),
    layer("ssd.flash_page_programs", "count", Lower),
    layer("ssd.host_pages_written", "count", Lower),
    layer("ssd.write_amp", "ratio", Lower),
    layer("ssd.host_write_len_mean", "pages", Higher),
];

/// One reported figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    pub name: &'static str,
    pub value: f64,
}

/// Collects values by name; panics on a name no table lists, so a typo
/// cannot silently drop a metric.
#[derive(Debug, Default)]
pub struct Values(pub Vec<Value>);

impl Values {
    pub fn put(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|m| m.name == name),
            "metric {name} is in no table"
        );
        assert!(
            !self.0.iter().any(|v| v.name == name),
            "metric {name} reported twice"
        );
        self.0.push(Value { name, value });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|v| v.name == name).map(|v| v.value)
    }
}

/// The `metrics` object of the result line: every metric of `table`, in
/// table order. A metric the run did not produce is an error.
pub fn metrics_json(table: &[MetricDef], values: &Values) -> Result<String, String> {
    let mut out = String::from("{");
    for (i, m) in table.iter().enumerate() {
        let v = values
            .get(m.name)
            .ok_or_else(|| format!("metric {} was not measured", m.name))?;
        if !v.is_finite() {
            return Err(format!("metric {} is not a finite number", m.name));
        }
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\"{}\":{{\"value\":{v:?},\"unit\":\"{}\"}}",
            m.name, m.unit
        );
    }
    out.push('}');
    Ok(out)
}

/// The text of `BENCHMARK.json`.
pub fn manifest(run_seconds: u32) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {run_seconds},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}",
            w.name, w.why
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}",
            m.name,
            m.unit,
            m.better.name(),
            m.bound
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}",
            m.name,
            m.unit,
            m.better.name()
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(s: &str) -> bool {
        let mut chars = s.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn tables_meet_the_contract_limits() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        names.extend(WORKLOADS.iter().map(|w| w.name));
        for n in &names {
            assert!(name_ok(n), "bad name {n}");
        }
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before, "a name is used twice");

        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {}",
                m.unit
            );
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((2..=8).contains(&WORKLOADS.len()));
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n') && !w.why.contains('"'));
        }
    }

    #[test]
    fn checked_in_manifest_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let json = fc_obs::json::parse(&text).expect("BENCHMARK.json parses");
        let run_seconds = json.get("run_seconds").and_then(|v| v.as_u64()).unwrap();
        assert_eq!(text, manifest(run_seconds as u32));
        assert!((1..=60).contains(&run_seconds));
        assert!(text.len() <= 64 * 1024);
    }

    #[test]
    fn result_metrics_are_complete_or_an_error() {
        let table = &END_TO_END[..2];
        let mut v = Values::default();
        v.put("setup_s", 0.5);
        assert!(metrics_json(table, &v).is_err(), "req_per_s missing");
        v.put("req_per_s", 1234.5678);
        assert_eq!(
            metrics_json(table, &v).unwrap(),
            r#"{"setup_s":{"value":0.5,"unit":"s"},"req_per_s":{"value":1234.5678,"unit":"req/s"}}"#
        );
        let mut nan = Values::default();
        nan.put("setup_s", f64::NAN);
        nan.put("req_per_s", 1.0);
        assert!(metrics_json(table, &nan).is_err());
    }
}
