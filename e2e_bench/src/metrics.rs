//! The metric catalogue and the result line.
//!
//! `BENCHMARK.json` at the repository root holds the same names with
//! their direction and bounds; a unit test keeps the two in step.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics `(name, unit)`, reported by every workload with
/// `--trace 0`.
pub const E2E: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("written_mb", "MB"),
    ("accuracy_pct", "%"),
];

/// Per-layer metrics `(name, unit)`, reported by every workload with
/// `--trace 1`; a layer the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("cli.gen_s", "s"),
    ("cli.sim_s", "s"),
    ("cli.sim_arrivals_per_s", "1/s"),
    ("cli.sim_rss_mb", "MB"),
    ("cli.inspect_s", "s"),
    ("cli.inspect_rss_mb", "MB"),
    ("cli.bytes_per_arrival", "B"),
    ("cli.miss_rate", "ratio"),
    ("os.gen_user_s", "s"),
    ("os.sim_user_s", "s"),
    ("os.sim_sys_s", "s"),
    ("os.inspect_user_s", "s"),
    ("os.inspect_sys_s", "s"),
    ("workload.estimator_calls", "count"),
    ("workload.estimator_s", "s"),
    ("workload.estimator_ns_p50", "ns"),
    ("workload.estimator_ns_p99", "ns"),
    ("core.select_calls", "count"),
    ("core.select_s", "s"),
    ("core.select_ns_p50", "ns"),
    ("core.select_ns_p99", "ns"),
    ("sim.startup_s", "s"),
    ("sim.run_s", "s"),
    ("sim.self_s", "s"),
    ("sim.self_ns_per_arrival", "ns"),
    ("sim.arrivals", "count"),
    ("telemetry.offered", "count"),
    ("telemetry.written", "count"),
    ("telemetry.kept_ratio", "ratio"),
    ("telemetry.kept.arrival", "count"),
    ("telemetry.kept.enqueue", "count"),
    ("telemetry.kept.dispatch", "count"),
    ("telemetry.kept.complete", "count"),
    ("telemetry.kept.policy_decision", "count"),
    ("telemetry.kept.other", "count"),
    ("telemetry.sample_s", "s"),
    ("telemetry.codec_s", "s"),
    ("telemetry.record_ns_p50", "ns"),
    ("telemetry.record_ns_p99", "ns"),
    ("telemetry.finish_s", "s"),
    ("telemetry.bytes_per_event", "B"),
    ("decisions.records", "count"),
    ("decisions.record_s", "s"),
    ("decisions.record_ns_p50", "ns"),
    ("decisions.record_ns_p99", "ns"),
    ("decisions.bytes_per_record", "B"),
    ("analyze.read_s", "s"),
    ("analyze.parse_s", "s"),
    ("analyze.events", "count"),
    ("analyze.parse_ns_per_event", "ns"),
    ("analyze.conservation_s", "s"),
    ("analyze.aggregates_s", "s"),
    ("analyze.windows_s", "s"),
    ("analyze.spans_s", "s"),
    ("analyze.critical_path_s", "s"),
    ("analyze.decisions_parse_s", "s"),
    ("analyze.burn_s", "s"),
    ("analyze.residual_s", "s"),
    ("core.generate_s", "s"),
    ("core.assemble_s", "s"),
    ("mdp.solve_s", "s"),
    ("mdp.stationary_s", "s"),
    ("mdp.states", "count"),
    ("mdp.sweeps", "count"),
    ("mdp.ns_per_state_sweep", "ns"),
    ("trace.overhead_ratio", "ratio"),
];

/// A complete set of values for one catalogue: every name starts at 0,
/// and setting a name outside the catalogue is a bug.
#[derive(Debug, Clone)]
pub struct Metrics {
    catalogue: &'static [(&'static str, &'static str)],
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    pub fn new(catalogue: &'static [(&'static str, &'static str)]) -> Self {
        Self {
            catalogue,
            values: catalogue.iter().map(|&(n, _)| (n, 0.0)).collect(),
        }
    }

    /// Sets `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in the catalogue.
    pub fn set(&mut self, name: &str, value: f64) {
        *self
            .values
            .get_mut(name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalogue")) = value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values[name]
    }

    /// `(name, value, unit)` in catalogue order.
    pub fn entries(&self) -> impl Iterator<Item = (&'static str, f64, &'static str)> + '_ {
        self.catalogue.iter().map(|&(n, u)| (n, self.values[n], u))
    }

    /// The `"metrics"` object of the result line.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        for (i, (name, value, unit)) in self.entries().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            write!(
                s,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(value)
            )
            .expect("writing to a String cannot fail");
        }
        s.push('}');
        s
    }
}

/// A JSON number with every digit Rust's shortest round-trip `Display`
/// gives; non-finite values (a bug upstream) render as 0.
pub fn number(x: f64) -> String {
    if x.is_finite() {
        x.to_string()
    } else {
        "0".to_string()
    }
}

/// The last line the benchmark prints.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Option<&Metrics>,
) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.map_or_else(|| "{}".to_string(), Metrics::to_json)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    const SPEC: &str = include_str!("../../BENCHMARK.json");

    fn spec_entries(key: &str) -> Vec<(String, String)> {
        let spec: Value = serde_json::from_str(SPEC).expect("BENCHMARK.json parses");
        spec.field(key)
            .and_then(Value::elements)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k: &str| match m.field(k) {
                    Some(Value::Str(s)) => s.clone(),
                    other => panic!("{key}: {k} is {other:?}"),
                };
                (s("name"), s("unit"))
            })
            .collect()
    }

    fn owned(catalogue: &[(&str, &str)]) -> Vec<(String, String)> {
        catalogue
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for &(name, unit) in E2E.iter().chain(PER_LAYER) {
            assert!(
                !name.is_empty()
                    && name.len() <= 64
                    && name.chars().next().unwrap().is_ascii_alphanumeric()
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "bad metric name {name:?}"
            );
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {unit:?}"
            );
            assert!(seen.insert(name), "duplicate metric {name}");
        }
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        assert_eq!(spec_entries("end_to_end"), owned(E2E));
        assert_eq!(spec_entries("per_layer"), owned(PER_LAYER));
    }

    #[test]
    fn every_name_is_emitted_once() {
        let mut m = Metrics::new(PER_LAYER);
        m.set("sim.run_s", 1.5);
        let json: Value = serde_json::from_str(&m.to_json()).unwrap();
        let Value::Object(entries) = json else {
            panic!("metrics is an object")
        };
        let names: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        let expected: Vec<&str> = PER_LAYER.iter().map(|&(n, _)| n).collect();
        assert_eq!(names, expected);
        assert_eq!(m.get("sim.run_s"), 1.5);
    }

    #[test]
    #[should_panic(expected = "not in the catalogue")]
    fn setting_an_unknown_metric_is_a_bug() {
        Metrics::new(E2E).set("latency_ms", 1.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut m = Metrics::new(E2E);
        m.set("wall_s", 0.1 + 0.2);
        let line = result_line(true, 12, 0, Some(&m));
        let v: Value = serde_json::from_str(&line).unwrap();
        let Value::Object(entries) = &v else {
            panic!("result is an object")
        };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(line.contains("\"wall_s\": {\"value\": 0.30000000000000004, \"unit\": \"s\"}"));
    }
}
