//! The real executor: a work-stealing per-request dispatch pool over the
//! sharded shot engine.
//!
//! Where the virtual timeline ([`crate::VirtualTimeline`]) *models* when
//! a request runs on the served device, this module actually *computes*
//! each request's answer (classical readout + Monte-Carlo fidelity
//! estimate) on the simulation host. Fired requests — possibly from
//! several batches — are flattened into one work list; `workers` threads
//! pull individual items off a shared atomic cursor, so a thread that
//! drew cheap requests steals the next pending one instead of idling
//! behind a skewed batch (the failure mode of the old
//! round-robin-over-batches pool).
//!
//! # Determinism
//!
//! Results are **bit-identical for any worker count**, structurally:
//! each item's answer is a pure function of `(circuit, noise, service
//! seed, request id)` — the fault stream derives from
//! [`qram_noise::derive_stream_seed`]`(seed, id)` and replays via
//! [`FaultSampler::sample_shot_from`] over the spec's shared trial
//! table — and every worker writes only its item's own slot. Which
//! thread steals which item is invisible in the output.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;

use qram_noise::{derive_stream_seed, FaultSampler};
use qram_sim::{run_shots_stats, Amplitude, FidelityEstimate, ShotConfig, ShotStats};

use crate::{CompiledQuery, Latency, QueryRequest, QueryResult, ServiceConfig, Ticks};

/// One fired request, fully resolved for execution: the shared compiled
/// artifact, the spec's shared fault sampler, and the virtual-clock
/// accounting already assigned by the scheduler.
#[derive(Debug, Clone)]
pub(crate) struct PreparedRequest {
    pub request: QueryRequest,
    pub compiled: Arc<CompiledQuery>,
    /// `None` when serving noiseless (`shots == 0`): no fault pattern is
    /// ever drawn.
    pub sampler: Option<Arc<FaultSampler>>,
    pub latency: Latency,
    pub completed: Ticks,
}

/// Executes `prepared` on `workers` threads via work-stealing dispatch;
/// returns `(result, shot-engine stats)` pairs in `prepared` order —
/// the stats ride back to the coordinating thread so telemetry
/// recording never happens off it.
///
/// The service passes the count `ServiceConfig::resolved_workers`
/// resolves (one inline worker when serving noiseless); which worker
/// runs an item is purely a scheduling choice — the bit-identity
/// contract holds for any count.
pub(crate) fn dispatch(
    prepared: &[PreparedRequest],
    workers: usize,
    config: &ServiceConfig,
) -> Vec<(QueryResult, ShotStats)> {
    let workers = workers.clamp(1, prepared.len().max(1));
    if workers == 1 {
        return prepared
            .iter()
            .map(|item| execute_one(item, config))
            .collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut results: Vec<Option<(QueryResult, ShotStats)>> = vec![None; prepared.len()];
    let stolen: Vec<Vec<(usize, (QueryResult, ShotStats))>> = thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        // Steal the next pending item; the claim order is
                        // scheduling-dependent, the per-item result is not.
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = prepared.get(i) else {
                            return mine;
                        };
                        mine.push((i, execute_one(item, config)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("executor worker panicked"))
            .collect()
    });
    for (i, result) in stolen.into_iter().flatten() {
        debug_assert!(results[i].is_none(), "item {i} executed twice");
        results[i] = Some(result);
    }
    results
        .into_iter()
        .map(|r| r.expect("every dispatched item produces a result"))
        .collect()
}

/// Serves one request: classical readout off the compiled circuit plus a
/// Monte-Carlo fidelity estimate under the request's own fault stream.
fn execute_one(item: &PreparedRequest, config: &ServiceConfig) -> (QueryResult, ShotStats) {
    let circuit = &item.compiled.circuit;
    let request = item.request;
    // The served answer is deliberately read off the *circuit* (a full
    // noiseless trajectory through the bus), not `memory.get` — the
    // serving layer answers with what the compiled query actually
    // returns, which is what the correctness tests pin against the
    // memory ground truth.
    let value = circuit
        .query_classical(request.address)
        .expect("compiled query circuits serve every in-range address");
    let (fidelity, stats) = match item.sampler.as_deref() {
        // Noiseless serving: fidelity is not estimated, no replay runs.
        None => (FidelityEstimate::from_samples(&[]), ShotStats::default()),
        Some(sampler) => {
            // The request's input: the classical basis state at its
            // address; its fault streams derive from (seed, request id).
            let keep = circuit.output_qubits();
            let mut amps = vec![Amplitude::ZERO; request.address as usize + 1];
            amps[request.address as usize] = Amplitude::ONE;
            let input = circuit.input_state(Some(&amps));
            let request_master = derive_stream_seed(config.seed, request.id);
            let shot_config = ShotConfig {
                shots: config.shots,
                seed: request_master,
                threads: config.shot_threads,
                path_chunks: config.path_chunks,
            };
            run_shots_stats(
                circuit.circuit().gates(),
                &input,
                Some(&keep),
                &shot_config,
                &|shot| sampler.sample_shot_from(request_master, shot),
            )
            .expect("compiled query circuits are always simulable")
        }
    };
    let result = QueryResult {
        id: request.id,
        address: request.address,
        spec: request.spec,
        value,
        fidelity,
        arrival: request.arrival,
        completed: item.completed,
        latency: item.latency,
    };
    (result, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Compiler, QuerySpec};
    use qram_core::Memory;
    use qram_noise::{NoiseModel, PauliChannel, BASE_ERROR_RATE};

    fn prepared(count: usize, shots: usize) -> (Vec<PreparedRequest>, ServiceConfig) {
        let spec = QuerySpec::new(1, 2);
        let memory = Memory::ones(spec.address_width());
        let config = ServiceConfig::default().with_shots(shots).with_seed(11);
        let compiled = Arc::new(Compiler::new(config.cost, shots).compile(spec, &memory));
        let sampler = (shots > 0).then(|| {
            Arc::new(FaultSampler::new(
                compiled.circuit.circuit(),
                NoiseModel::per_gate(PauliChannel::depolarizing(BASE_ERROR_RATE)),
                config.seed,
            ))
        });
        let items = (0..count)
            .map(|i| PreparedRequest {
                request: QueryRequest {
                    id: i as u64,
                    address: (i % 8) as u64,
                    spec,
                    arrival: 0,
                    tenant: crate::TenantId::default(),
                    slo: crate::SloClass::default(),
                },
                compiled: Arc::clone(&compiled),
                sampler: sampler.clone(),
                latency: Latency::default(),
                completed: 0,
            })
            .collect();
        (items, config)
    }

    #[test]
    fn stealing_is_invisible_in_the_output() {
        let (items, config) = prepared(17, 6);
        let serial = dispatch(&items, 1, &config);
        for workers in [2, 3, 5, 16] {
            assert_eq!(serial, dispatch(&items, workers, &config), "{workers}");
        }
        // Results come back in item order with correct readouts, each
        // carrying its own (knob-invariant) shot-engine stats.
        for (i, (r, stats)) in serial.iter().enumerate() {
            assert_eq!(r.id, i as u64);
            assert!(r.value, "Memory::ones reads 1 everywhere");
            assert_eq!(r.fidelity.shots, 6);
            assert_eq!(stats.shots, 6);
        }
    }

    #[test]
    fn worker_count_clamps_to_the_item_count() {
        let (items, config) = prepared(2, 0);
        // More workers than items must not deadlock or drop items.
        let results = dispatch(&items, 64, &config);
        assert_eq!(results.len(), 2);
        assert!(dispatch(&[], 8, &config).is_empty());
    }
}
