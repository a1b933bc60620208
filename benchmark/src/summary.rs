//! The metric registry, the checked-operation counter and the result line.
//!
//! `BENCHMARK.json` lists the same names, units and directions; the test
//! at the bottom keeps the two in step.

use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// What a user of the system sees; measured with tracing off; gated.
pub const END_TO_END: &[MetricDef] = &[
    lower("setup_s", "s"),
    lower("cold_start_s", "s"),
    lower("wire_p99_us", "us"),
    higher("wire_qps", "queries/s"),
    higher("churn_apply_ops_s", "ops/s"),
    lower("rebuild_to_swap_s", "s"),
    lower("enumerate_s", "s"),
    lower("enumerate_rounds", "rounds"),
    lower("enumerate_words", "words"),
    lower("artifact_mb", "MB"),
    lower("peak_rss_mb", "MB"),
];

/// Single layers, from the traced run; reported, never gated.
pub const PER_LAYER: &[MetricDef] = &[
    lower("storage.convert_s", "s"),
    higher("storage.convert_edges_per_s", "edges/s"),
    lower("storage.open_s", "s"),
    lower("storage.store_s", "s"),
    lower("storage.load_s", "s"),
    lower("storage.artifact_bytes", "bytes"),
    lower("expander.decompose_s", "s"),
    lower("expander.assign_s", "s"),
    lower("expander.ldd_s", "s"),
    lower("expander.sparse_cut_s", "s"),
    lower("expander.rounds.ldd", "rounds"),
    lower("expander.rounds.nibble", "rounds"),
    lower("expander.rounds.parallel_nibble", "rounds"),
    lower("expander.clusters", "count"),
    lower("expander.cut_fraction", "fraction"),
    lower("expander.recluster_s", "s"),
    lower("expander.certify_s", "s"),
    lower("routing.build_s", "s"),
    lower("routing.route_query_ns", "ns"),
    lower("congest.exchange_rounds", "rounds"),
    lower("congest.exchange_words", "words"),
    lower("congest.exchange_messages", "messages"),
    lower("triangle.pipeline.clusters_s", "s"),
    lower("triangle.pipeline.dlp_s", "s"),
    lower("triangle.pipeline.exchange_s", "s"),
    lower("triangle.pipeline.join_s", "s"),
    lower("triangle.service.freeze_s", "s"),
    lower("triangle.service.snapshot_words", "words"),
    lower("triangle.service.to_frozen_s", "s"),
    lower("triangle.service.from_frozen_s", "s"),
    higher("triangle.service.serve_qps", "queries/s"),
    lower("triangle.service.answer_p50_ns", "ns"),
    lower("triangle.service.words_per_query", "words"),
    lower("triangle.churn.open_s", "s"),
    lower("triangle.churn.apply_us_per_batch", "us"),
    lower("triangle.churn.rebuild_s", "s"),
    lower("triangle.churn.refreeze_s", "s"),
    lower("triangle.churn.recount_s", "s"),
    lower("triangle.churn.rebuild_checked", "count"),
    lower("triangle.churn.rebuild_broken", "count"),
    higher("triangle.churn.rebuild_reused", "count"),
    lower("triangle.churn.rebuild_rebuilt", "count"),
    lower("graph.to_graph_s", "s"),
    lower("graph.count_triangles_s", "s"),
    lower("graph.gen_s", "s"),
    lower("server.restart_s", "s"),
    lower("server.startup_s", "s"),
    lower("server.first_answer_us", "us"),
    lower("server.swap_us", "us"),
    lower("server.codec_roundtrip_ns", "ns"),
    lower("server.batches", "count"),
    higher("server.queries_per_batch", "queries"),
    lower("server.busy_retries", "count"),
    lower("server.wire_overhead_us", "us"),
    lower("server.wire_p50_us", "us"),
    lower("server.wire_p99_us", "us"),
    higher("server.qps_under_churn", "queries/s"),
    lower("bench.oracle_s", "s"),
    lower("bench.trace_overhead_pct", "%"),
];

/// Values collected by one run, by metric name.
#[derive(Debug, Default)]
pub struct Report {
    values: Vec<(&'static str, f64)>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.values.iter().all(|(n, _)| *n != name),
            "metric {name} set twice"
        );
        self.values.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| *n == name).map(|x| x.1)
    }
}

/// Checked operations: every wire answer compared with the oracle, every
/// count compared with a recount, every identity probe. A wrong or refused
/// one is a failure.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 10 {
                eprintln!("lifecycle_bench: CHECK FAILED: {}", what());
            }
        }
    }
}

/// The human-readable table: one metric per line — name, value, unit, and
/// which direction is better.
pub fn render_table(defs: &[MetricDef], report: &Report, label: &str) -> String {
    let mut out = String::new();
    for d in defs {
        if let Some(v) = report.get(d.name) {
            let better = match d.better {
                Better::Lower => "lower is better",
                Better::Higher => "higher is better",
            };
            let _ = writeln!(
                out,
                "{label}{:<36} {:>20.6} {:<10} ({better})",
                d.name, v, d.unit
            );
        }
    }
    out
}

/// The result line: one JSON object with exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`, the latter holding every metric of
/// `defs` and nothing else.
///
/// # Errors
///
/// Names the first metric of `defs` the run did not produce, or produced
/// as a non-finite number.
pub fn render_result(
    defs: &[MetricDef],
    report: &Report,
    checks: &Checks,
) -> Result<String, String> {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        checks.failed == 0,
        checks.attempted.max(1),
        checks.failed
    );
    for (i, d) in defs.iter().enumerate() {
        let v = report
            .get(d.name)
            .ok_or_else(|| format!("metric {} was not measured", d.name))?;
        if !v.is_finite() {
            return Err(format!("metric {} is {v}", d.name));
        }
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            d.name, v, d.unit
        );
    }
    out.push_str("}}");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let defs = [lower("latency_ms", "ms"), higher("rate", "1/s")];
        let mut report = Report::default();
        report.set("rate", 2500.0);
        report.set("latency_ms", 1.2034);
        report.set("extra", 9.0); // not in defs: must not appear
        let mut checks = Checks::default();
        checks.check(true, String::new);
        checks.check(true, String::new);
        let line = render_result(&defs, &report, &checks).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 2, \"failed\": 0, \"metrics\": {\
             \"latency_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \
             \"rate\": {\"value\": 2500, \"unit\": \"1/s\"}}}"
        );
        assert!(!line.contains('\n'));

        checks.check(false, || "wrong answer".to_string());
        let line = render_result(&defs, &report, &checks).unwrap();
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 3, \"failed\": 1,"));
    }

    #[test]
    fn missing_or_non_finite_metrics_are_refused() {
        let defs = [lower("a", "s")];
        let checks = Checks::default();
        let mut report = Report::default();
        assert!(render_result(&defs, &report, &checks).is_err());
        report.set("a", f64::NAN);
        assert!(render_result(&defs, &report, &checks).is_err());
    }

    /// `BENCHMARK.json` and the registry name the same metrics with the
    /// same units and directions, and the same workloads.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let flat: String = text.split_whitespace().collect();
        let section = |key: &str, next: &str| -> String {
            let from = flat.find(&format!("\"{key}\":[")).expect("section present");
            let to = flat[from..]
                .find(&format!("\"{next}\":"))
                .map_or(flat.len(), |i| from + i);
            flat[from..to].to_string()
        };
        for (key, next, defs) in [
            ("end_to_end", "per_layer", END_TO_END),
            ("per_layer", "\u{0}", PER_LAYER),
        ] {
            let sec = section(key, next);
            assert_eq!(sec.matches("\"name\":").count(), defs.len(), "{key} count");
            for d in defs {
                let better = match d.better {
                    Better::Lower => "lower",
                    Better::Higher => "higher",
                };
                let entry = format!(
                    "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{better}\"",
                    d.name, d.unit
                );
                assert!(sec.contains(&entry), "{key} lacks {entry}");
            }
        }
        let workloads = section("workloads", "end_to_end");
        assert_eq!(
            workloads.matches("\"name\":").count(),
            crate::inputs::Workload::ALL.len()
        );
        for w in crate::inputs::Workload::ALL {
            assert!(workloads.contains(&format!("\"name\":\"{}\"", w.name())));
        }
        assert!(flat.contains(&format!(
            "\"run_seconds\":{}",
            crate::inputs::NOMINAL_SECONDS
        )));
    }
}
