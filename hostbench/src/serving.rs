//! Checks and isolated re-timings shared by the three serving
//! workloads.
//!
//! The traced run cannot wrap layers that run inside the service (the
//! compiler, the verifier, the classical readout), so it re-times them
//! in isolation on the run's own inputs and attributes the timed window
//! with the exact counts the service reports.

use std::collections::BTreeMap;

use qram::core::Memory;
use qram::service::{CircuitCache, CompiledQuery, Compiler, CostModel, QuerySpec};
use qram::verify::{verify_query, VerifyLevel};

use crate::metrics::Layers;
use crate::stats::{median, median_call_ns, ratio};

/// How many served values disagree with `reference`, the memory image
/// built from the generated bits independently of the circuits that
/// served them.
pub fn wrong_values(served: impl IntoIterator<Item = (u64, bool)>, reference: &Memory) -> u64 {
    served
        .into_iter()
        .filter(|&(address, value)| value != reference.get(address as usize))
        .count() as u64
}

/// One spec compiled and re-timed in isolation.
#[derive(Debug, Clone)]
pub struct SpecCost {
    /// The compiled artifact.
    pub compiled: CompiledQuery,
    /// Median host ns of `Compiler::compile`.
    pub compile_ns: f64,
    /// Median host ns of structural `verify_query`.
    pub verify_ns: f64,
}

/// Compiles each of `specs` over `memory` `reps` times, timing the
/// compile and the structural verification separately.
pub fn retime_specs(specs: &[QuerySpec], memory: &Memory, reps: usize) -> Vec<SpecCost> {
    let compiler = Compiler::new(CostModel::default(), 0);
    specs
        .iter()
        .map(|&spec| {
            let compile_ns = median_call_ns(reps, || compiler.compile(spec, memory));
            let compiled = compiler.compile(spec, memory);
            let verify_ns = median_call_ns(reps, || {
                verify_query(
                    spec.arch.family(),
                    &compiled.circuit,
                    &compiled.resources,
                    VerifyLevel::Structural,
                )
            });
            SpecCost {
                compiled,
                compile_ns,
                verify_ns,
            }
        })
        .collect()
}

/// Host ns of the compiles and structural verifications behind
/// `misses` (one spec index per cache miss), recorded as the compiler
/// and verify layer metrics.
pub fn set_compile_layers(layers: &mut Layers, costs: &[SpecCost], misses: &[usize]) -> f64 {
    let compile: Vec<f64> = misses.iter().map(|&i| costs[i].compile_ns).collect();
    let verify: Vec<f64> = misses.iter().map(|&i| costs[i].verify_ns).collect();
    let gates: f64 = misses
        .iter()
        .map(|&i| costs[i].compiled.circuit.circuit().gates().len() as f64)
        .sum();
    let compile_total: f64 = compile.iter().sum();
    let verify_total: f64 = verify.iter().sum();
    layers.set("compile.ns_p50", median(&compile));
    layers.set("compile.ms_total", compile_total / 1e6);
    layers.set("compile.gates_mean", ratio(gates, misses.len() as f64));
    layers.set("verify.structural_ns_p50", median(&verify));
    layers.set("verify.ms_total", verify_total / 1e6);
    compile_total + verify_total
}

/// Re-times `query_classical` for every served `(spec index, address)`
/// pair (`reps` calls each; `served` maps a pair to its completions),
/// records the readout layer metrics, and returns the attributed host
/// ns. A readout that disagrees with `reference` is returned as a
/// problem.
pub fn set_readout_layers(
    layers: &mut Layers,
    costs: &[SpecCost],
    served: &BTreeMap<(usize, u64), u64>,
    reference: &Memory,
    reps: usize,
) -> (f64, Vec<String>) {
    let mut problems = Vec::new();
    let (mut total_ns, mut total_gates, mut requests) = (0.0, 0.0, 0.0);
    for (&(spec, address), &count) in served {
        let circuit = &costs[spec].compiled.circuit;
        let value = circuit.query_classical(address);
        if value.as_ref().ok() != Some(&reference.get(address as usize)) {
            problems.push(format!(
                "isolated readout of address {address} returned {value:?}"
            ));
        }
        let ns = median_call_ns(reps, || circuit.query_classical(address));
        let count = count as f64;
        total_ns += ns * count;
        total_gates += circuit.circuit().gates().len() as f64 * count;
        requests += count;
    }
    layers.set("readout.ns_per_op", ratio(total_ns, requests));
    layers.set("readout.ns_per_gate", ratio(total_ns, total_gates));
    (total_ns, problems)
}

/// Median host ns of one `CircuitCache::fetch` hit, over a cache of
/// `capacity` holding the first `capacity` of `costs`.
pub fn set_cache_hit_layer(layers: &mut Layers, costs: &[SpecCost], capacity: usize) {
    let resident = &costs[..capacity.min(costs.len())];
    let mut cache = CircuitCache::new(capacity);
    for cost in resident {
        cache.fetch(cost.compiled.spec, || cost.compiled.clone());
    }
    const HITS: usize = 4096;
    let per_batch = median_call_ns(9, || {
        for i in 0..HITS {
            let spec = resident[i % resident.len()].compiled.spec;
            let (_, hit) = cache.fetch(spec, || unreachable!("every fetched spec is resident"));
            std::hint::black_box(hit);
        }
    });
    layers.set("cache.fetch_hit_ns", per_batch / HITS as f64);
}
