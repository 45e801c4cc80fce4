//! The metric catalogue and the result line.
//!
//! `END_TO_END` and `PER_LAYER` are the names `BENCHMARK.json` declares (a
//! test keeps the two in step). An untraced run reports every end-to-end
//! metric; a traced run reports every per-layer metric. A per-layer metric
//! of a layer the workload never reaches reads 0.

use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`. See README.md for what each means
/// on each workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("sweep_s", "s"),
    ("est_mse", "mse"),
    ("ingest_rps", "reports/s"),
    ("ack_p50_ms", "ms"),
    ("ack_p99_ms", "ms"),
    ("round_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("failed_frac", "ratio"),
];

/// Per-layer metrics: `(name, unit)`, named after the crate modules.
pub const PER_LAYER: &[(&str, &str)] = &[
    // dap_bench::engine
    ("engine.cells", "count"),
    ("engine.pm-mse_s", "s"),
    ("engine.kmeans_s", "s"),
    ("engine.cat-dap_s", "s"),
    ("engine.sw-mse_s", "s"),
    ("engine.gamma-hat_s", "s"),
    ("engine.other_s", "s"),
    // dap_datasets::cache
    ("datasets.cache.hits", "count"),
    ("datasets.cache.misses", "count"),
    ("datasets.cache.evictions", "count"),
    ("datasets.cache.fill_s", "s"),
    // dap_bench::report_cache
    ("report_cache.hits", "count"),
    ("report_cache.misses", "count"),
    ("report_cache.evictions", "count"),
    ("report_cache.fill_s", "s"),
    // dap_estimation::cache
    ("estimation.cache.matrices", "count"),
    // dap_core::protocol
    ("protocol.replay_s", "s"),
    ("protocol.local_s", "s"),
    // dap_core::session
    ("session.ingest_s", "s"),
    ("session.finalize_s", "s"),
    ("session.apply_ns_per_report", "ns"),
    ("session.merge_ms", "ms"),
    // dap_emf, dap_core::scheme
    ("emf.probe_s", "s"),
    ("scheme.group_s", "s"),
    // dap_estimation::em
    ("em.solves", "count"),
    ("em.iterations", "count"),
    ("em.iters_p50", "count"),
    ("em.iters_max", "count"),
    ("em.unconverged", "count"),
    ("em.ns_per_iter", "ns"),
    // dap_defenses
    ("defenses.kmeans_s", "s"),
    ("defenses.trimming_s", "s"),
    ("defenses.ostrich_s", "s"),
    // dap_core::net
    ("net.frames", "count"),
    ("net.wire_bytes_per_report", "bytes"),
    ("net.encode_ns_per_report", "ns"),
    ("net.decode_ns_per_report", "ns"),
    ("net.send_s", "s"),
    ("net.wait_s", "s"),
    ("net.retries", "count"),
    ("net.reconnects", "count"),
    ("net.pull_ms", "ms"),
    // dap_core::net reactor (status counters)
    ("net.reactor.throttled", "count"),
    ("net.reactor.peak_connections", "count"),
    ("net.reactor.journal_records", "count"),
    // dap_core::storage
    ("storage.journal_bytes_per_report", "bytes"),
    ("storage.append_us_per_record", "us"),
    ("storage.fsync_us", "us"),
    // Same-run CPU yardstick (dap_bench::common::calibrate_dense_solve_ms)
    ("calib.dense_em_ms", "ms"),
    // Self time per layer: span time not covered by child spans.
    ("self.bench_s", "s"),
    ("self.engine_s", "s"),
    ("self.datasets.cache_s", "s"),
    ("self.report_cache_s", "s"),
    ("self.protocol_s", "s"),
    ("self.session_s", "s"),
    ("self.emf_s", "s"),
    ("self.scheme_s", "s"),
    ("self.em_s", "s"),
    ("self.defenses_s", "s"),
    ("self.net_s", "s"),
    ("self.storage_s", "s"),
    // The tracing itself
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
];

/// Whether `name` is a legal metric name: starts with a letter or digit,
/// at most 64 characters of letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// Whether `unit` is a legal unit: at most 16 letters, digits, `_`, `/`,
/// `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok_char)
}

/// Metric values gathered by one run, by name.
#[derive(Debug, Default, Clone)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Records `value` under `name` (overwriting).
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// The value under `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// What one run produced: the output check, the operation counts, and the
/// metric values.
#[derive(Debug, Default, Clone)]
pub struct Outcome {
    /// Whether every output check passed.
    pub correct: bool,
    /// Operations attempted (cells, frames or rounds, per workload).
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Metric values by name.
    pub values: Values,
    /// Why the output check failed, one line each.
    pub problems: Vec<String>,
}

impl Outcome {
    /// Records a failed output check.
    pub fn problem(&mut self, what: String) {
        self.correct = false;
        self.problems.push(what);
    }
}

/// The run's last stdout line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`, holding every metric of `catalogue`. A metric the
/// run did not record reads 0; a non-finite value fails the run, since JSON
/// cannot carry it.
pub fn result_line(outcome: &Outcome, catalogue: &[(&str, &str)]) -> String {
    let mut correct = outcome.correct;
    let mut fields = Vec::with_capacity(catalogue.len());
    for &(name, unit) in catalogue {
        let mut value = outcome.values.get(name).unwrap_or(0.0);
        if !value.is_finite() {
            correct = false;
            value = -1.0;
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_and_unit_is_legal_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "illegal metric name {name}");
            assert!(valid_unit(unit), "illegal unit {unit} of {name}");
            assert!(seen.insert(name), "metric {name} listed twice");
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
    }

    #[test]
    fn name_rules() {
        assert!(valid_name("engine.pm-mse_s"));
        assert!(valid_name("9lives"));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/no"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("reports/s") && valid_unit("%") && !valid_unit("a b"));
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = json.matches("\"unit\":").count();
        assert_eq!(
            declared,
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json has extra metrics"
        );
    }

    #[test]
    fn result_line_carries_every_metric_with_full_digits() {
        let mut outcome = Outcome {
            correct: true,
            attempted: 3,
            ..Outcome::default()
        };
        outcome.values.set("sweep_s", 0.123456789012);
        let line = result_line(&outcome, END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"sweep_s\": {\"value\": 0.123456789012, \"unit\": \"s\"}"));
        assert!(line.contains("\"failed_frac\": {\"value\": 0.0, \"unit\": \"ratio\"}"));
        outcome.values.set("sweep_s", f64::NAN);
        assert!(result_line(&outcome, END_TO_END).starts_with("{\"correct\": false"));
    }
}
