//! The metric catalogue (mirrored by `BENCHMARK.json`) and the result
//! line the benchmark prints last.
//!
//! Each per-layer metric belongs to one layer and should move one
//! end-to-end metric on one workload; `README.md` in this directory
//! lists the mapping. Every traced run prints every per-layer metric: a
//! layer that does no work in the workload reads 0.

use std::collections::BTreeMap;

/// A metric's name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as printed and as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 4] = [
    "fleet-overload",
    "offline-noisy",
    "compile-churn",
    "fig9-superposition",
];

/// Host wall-clock metrics of an untraced run.
pub const END_TO_END: [Metric; 3] = [
    m("ops_per_s", "1/s"),
    m("setup_s", "s"),
    m("peak_rss_mib", "MiB"),
];

/// Metrics of the traced run, grouped by layer.
pub const PER_LAYER: [Metric; 46] = [
    // fleet: front door, router, controller
    m("fleet.submit_at_p50_ns", "ns"),
    m("fleet.submit_at_p99_ns", "ns"),
    m("fleet.route_ns", "ns"),
    m("fleet.routed", "count"),
    m("fleet.shed", "count"),
    m("fleet.replica_cache_wins", "count"),
    m("fleet.front_depth_high_water", "count"),
    // telemetry
    m("telemetry.overhead_ratio", "ratio"),
    m("telemetry.spans", "count"),
    // service event loop, scheduler, admission
    m("service.try_submit_at_p50_ns", "ns"),
    m("service.try_submit_at_p99_ns", "ns"),
    m("service.submit_all_ms", "ms"),
    m("service.drain_ms", "ms"),
    m("service.self_ns_per_op", "ns"),
    m("service.batches_fired", "count"),
    m("service.batch_size_p50", "count"),
    m("admission.shed", "count"),
    // compiled-circuit cache
    m("cache.hits", "count"),
    m("cache.misses", "count"),
    m("cache.evictions", "count"),
    m("cache.hit_ratio", "ratio"),
    m("cache.fetch_hit_ns", "ns"),
    // compiler
    m("compile.ns_p50", "ns"),
    m("compile.ms_total", "ms"),
    m("compile.gates_mean", "count"),
    // verify
    m("verify.structural_ns_p50", "ns"),
    m("verify.ms_total", "ms"),
    // classical readout
    m("readout.ns_per_op", "ns"),
    m("readout.ns_per_gate", "ns"),
    // shots on one basis path, per-gate sampler
    m("shots.ns_per_op", "ns"),
    m("sampler.sample_ns", "ns"),
    m("sim.shots", "count"),
    m("sim.replayed_shots", "count"),
    m("sim.replay_ratio", "ratio"),
    m("sim.faults_injected", "count"),
    m("sim.gate_applications", "count"),
    m("sim.ns_per_gate_application", "ns"),
    // executor
    m("executor.parallel_efficiency", "ratio"),
    // multi-path slab, qubit-per-step sampler
    m("slab.paths", "count"),
    m("slab.ns_per_path_gate", "ns"),
    m("slab.reduced_fidelity_ns", "ns"),
    m("sampler.qps_sample_ns", "ns"),
    // setup
    m("plan.ms", "ms"),
    m("build.ms", "ms"),
    m("sampler.build_ms", "ms"),
    // tracing
    m("trace.overhead_ratio", "ratio"),
];

/// Per-layer values of one traced run, keyed by catalogue name.
#[derive(Debug, Clone, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Records `value` for the catalogue metric `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|metric| metric.name == name),
            "`{name}` is not a per-layer metric"
        );
        self.0.insert(name, value);
    }

    /// The value of `name`, 0 when the workload never set it.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Every catalogue metric with its value, in catalogue order.
    pub fn all(&self) -> Vec<(Metric, f64)> {
        PER_LAYER
            .iter()
            .map(|&metric| (metric, self.get(metric.name)))
            .collect()
    }
}

/// A JSON number for `value`: every digit Rust prints, non-finite as 0.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// The result object printed as the last line of standard output.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(Metric, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(metric, value)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                metric.name,
                json_number(*value),
                metric.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_the_contract_shape() {
        let line = result_line(
            true,
            3,
            0,
            &[(END_TO_END[1], 0.5), (END_TO_END[0], f64::NAN)],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"ops_per_s\": {\"value\": 0, \"unit\": \"1/s\"}}}"
        );
    }

    #[test]
    fn catalogue_names_are_unique() {
        let mut names: Vec<&str> = PER_LAYER
            .iter()
            .chain(&END_TO_END)
            .map(|m| m.name)
            .collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len() + END_TO_END.len());
    }

    #[test]
    #[should_panic(expected = "not a per-layer metric")]
    fn unknown_layer_metric_is_a_bug() {
        Layers::default().set("no.such_metric", 1.0);
    }
}
