//! The real executor: requests run as lanes of bit-sliced circuit walks,
//! dispatched as work-stealing runs.
//!
//! Where the virtual timeline ([`crate::VirtualTimeline`]) *models* when
//! a request runs on the served device, this module actually *computes*
//! each request's answer (classical readout + Monte-Carlo fidelity
//! estimate) on the simulation host.
//!
//! # Lane runs
//!
//! A served request is a classical address, so it is one Feynman path,
//! and so is each of its noisy shots. The fired requests are cut into
//! *runs*: at most `⌊64 / (1 + shots)⌋` consecutive requests (at least
//! one) that share one compiled artifact. A run is one
//! [`qram_sim::Lanes`] pass over the circuit's gates. Each request gets
//! an *ideal* lane, whose bus bit is the readout and whose work qubits
//! must end clean, plus one lane per shot whose fault plan is non-empty.
//! A shot with an empty plan samples `1.0` without a lane. A replayed
//! shot samples `1.0` if its lane's address and bus bits equal the ideal
//! lane's, else `-0.0`. Both are bit for bit what
//! [`qram_sim::PathState::reduced_fidelity`] gives a single path: a unit
//! amplitude's overlap is exactly 1, and a mismatch leaves an empty sum,
//! which is `-0.0`. The estimate and [`ShotStats`] therefore equal those
//! of the slab reference (per shot [`qram_sim::run_with_faults`], then
//! the reduced fidelity) on the request's basis input, and so those of
//! [`qram_sim::run_shots_stats`], whose shots are lane passes too.
//!
//! # Dispatch
//!
//! The caller allocates one result slot per request and cuts the slots
//! per run before any worker starts. `workers − 1` threads are spawned
//! and the calling thread works too; each pulls the next run off a
//! shared queue, writes only that run's slots, and reuses one lane
//! buffer across the runs it takes. A fired batch's work is now a few
//! milliseconds, so a spawned thread less counts. Results never live in
//! storage a worker allocated: glibc keeps a worker arena's high-water
//! mark, and per-worker result vectors showed up in peak RSS.
//!
//! # Determinism
//!
//! Results are **bit-identical for any worker count**, structurally:
//! each request's answer is a pure function of `(circuit, noise, service
//! seed, request id)` — the fault stream derives from
//! [`qram_noise::derive_stream_seed`]`(seed, id)` and replays via
//! [`FaultSampler::sample_shot_from`] over the spec's shared trial
//! table — lanes never interact, and the run boundaries depend only on
//! the fired request order. Which thread takes which run is invisible
//! in the output.

use std::sync::{Arc, Mutex};
use std::thread;

use qram_circuit::Qubit;
use qram_core::QueryError;
use qram_noise::{derive_stream_seed, FaultSampler};
use qram_sim::{FaultPlan, FidelityEstimate, Lanes, ShotStats};

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

/// A served request's result slot.
type Slot = Option<(QueryResult, ShotStats)>;

/// Executes `prepared` as lane runs on `workers` threads (the caller
/// included); returns `(result, shot stats)` pairs in `prepared` order —
/// the stats ride back to the coordinating thread so telemetry
/// recording never happens off it.
///
/// The service passes the count `ServiceConfig::resolved_workers`
/// resolves (one inline worker when serving noiseless); which worker
/// runs a run is purely a scheduling choice — the bit-identity contract
/// holds for any count.
pub(crate) fn dispatch(
    prepared: &[PreparedRequest],
    workers: usize,
    config: &ServiceConfig,
) -> Vec<(QueryResult, ShotStats)> {
    let per_run = (64 / (1 + config.shots)).max(1);
    let mut slots: Vec<Slot> = vec![None; prepared.len()];
    let mut runs = Vec::new();
    let (mut items, mut rest) = (prepared, slots.as_mut_slice());
    while let Some(first) = items.first() {
        let len = items
            .iter()
            .take(per_run)
            .take_while(|item| Arc::ptr_eq(&item.compiled, &first.compiled))
            .count();
        let (run, tail) = items.split_at(len);
        let (out, slot_tail) = rest.split_at_mut(len);
        runs.push((run, out));
        (items, rest) = (tail, slot_tail);
    }
    let workers = workers.clamp(1, runs.len().max(1));
    let queue = Mutex::new(runs.into_iter());
    let work = || {
        let mut scratch = Scratch::default();
        loop {
            // Take the next run; the claim order is scheduling-dependent,
            // the per-request results are not.
            let next = queue.lock().expect("run queue poisoned").next();
            let Some((run, out)) = next else {
                return;
            };
            execute_run(run, out, config, &mut scratch);
        }
    };
    if workers == 1 {
        work();
    } else {
        thread::scope(|scope| {
            let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
            work();
            for helper in helpers {
                helper.join().expect("executor worker panicked");
            }
        });
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every dispatched item produces a result"))
        .collect()
}

/// A worker's buffers, reused across the runs it takes.
#[derive(Default)]
struct Scratch {
    lanes: Lanes,
    /// Request `j`'s shot plans sit at `[j·shots, (j+1)·shots)`.
    plans: Vec<FaultPlan>,
    /// Per lane word: set where some work qubit is `|1⟩`.
    garbage: Vec<u64>,
    samples: Vec<f64>,
}

/// Serves one run of requests that share a compiled artifact, as lanes
/// of one pass, into `out`.
fn execute_run(
    run: &[PreparedRequest],
    out: &mut [Slot],
    config: &ServiceConfig,
    scratch: &mut Scratch,
) {
    let Scratch {
        lanes,
        plans,
        garbage,
        samples,
    } = scratch;
    let circuit = &run[0].compiled.circuit;
    let gates = circuit.circuit().gates();
    let address = circuit.address();
    let bus = circuit.bus();
    let shots = if run[0].sampler.is_some() {
        config.shots
    } else {
        0
    };

    plans.clear();
    for item in run {
        if let Some(sampler) = item.sampler.as_deref() {
            let master = derive_stream_seed(config.seed, item.request.id);
            plans.extend((0..shots as u64).map(|shot| sampler.sample_shot_from(master, shot)));
        }
    }
    let replayed = plans.iter().filter(|p| !p.is_empty()).count();

    // Lanes 0..run.len() are the ideal lanes; the replayed shots follow
    // in (request, shot) order. Every lane of a request starts at its
    // address, written MSB first like `QueryCircuit::input_state`.
    lanes.reset(circuit.num_qubits(), run.len() + replayed);
    let width = address.len();
    let write_address = |lanes: &mut Lanes, lane: usize, value: u64| {
        for (i, q) in address.iter().enumerate() {
            lanes.set(lane, q, (value >> (width - 1 - i)) & 1 == 1);
        }
    };
    let mut lane = run.len();
    for (j, item) in run.iter().enumerate() {
        let value = item.request.address;
        assert!(value < (1u64 << width), "address {value} out of range");
        write_address(lanes, j, value);
        for plan in &plans[j * shots..(j + 1) * shots] {
            if !plan.is_empty() {
                write_address(lanes, lane, value);
                lanes.add_faults(lane, plan);
                lane += 1;
            }
        }
    }
    lanes
        .run(gates)
        .expect("compiled query circuits are always simulable");

    garbage.clear();
    garbage.resize(lanes.row(bus).len(), 0);
    for q in (0..circuit.num_qubits() as u32).map(Qubit) {
        if q != bus && !address.contains(q) {
            garbage
                .iter_mut()
                .zip(lanes.row(q))
                .for_each(|(g, w)| *g |= w);
        }
    }
    let kept_bits_agree = |lanes: &Lanes, a: usize, b: usize| {
        lanes.get(a, bus) == lanes.get(b, bus)
            && address.iter().all(|q| lanes.get(a, q) == lanes.get(b, q))
    };

    // The served answer is read off the circuit's ideal lane, not
    // `memory.get`: the service answers with what the compiled query
    // returns, which the correctness tests pin against the memory.
    let mut lane = run.len();
    for (j, (item, slot)) in run.iter().zip(out.iter_mut()).enumerate() {
        assert!(
            garbage[j / 64] >> (j % 64) & 1 == 0,
            "compiled query circuits serve every in-range address: {}",
            QueryError::GarbageLeft
        );
        let mut stats = ShotStats::default();
        samples.clear();
        for plan in &plans[j * shots..(j + 1) * shots] {
            stats.shots += 1;
            if plan.is_empty() {
                samples.push(1.0);
                continue;
            }
            stats.replayed += 1;
            stats.faults += plan.len() as u64;
            stats.gate_applications += gates.len() as u64;
            // A mismatch samples -0.0: the empty group sum that
            // `reduced_fidelity` returns for it.
            samples.push(if kept_bits_agree(lanes, lane, j) {
                1.0
            } else {
                -0.0
            });
            lane += 1;
        }
        let request = item.request;
        let result = QueryResult {
            id: request.id,
            address: request.address,
            spec: request.spec,
            value: lanes.get(j, bus),
            fidelity: FidelityEstimate::from_samples(samples),
            arrival: request.arrival,
            completed: item.completed,
            latency: item.latency,
        };
        *slot = Some((result, stats));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Compiler, QuerySpec};
    use qram_core::{ArchSpec, Memory};
    use qram_noise::{NoiseModel, PauliChannel};
    use qram_sim::{run, run_with_faults, Amplitude};

    fn default_noise() -> NoiseModel {
        ServiceConfig::default().noise
    }

    /// `per_spec` requests for each of `specs` (all of `memory`'s
    /// address width 3), in spec order, as one fire would hand them to
    /// `dispatch`.
    fn fire(
        memory: &Memory,
        specs: &[QuerySpec],
        per_spec: usize,
        shots: usize,
        noise: NoiseModel,
    ) -> (Vec<PreparedRequest>, ServiceConfig) {
        let mut config = ServiceConfig::default().with_shots(shots).with_seed(11);
        config.noise = noise;
        let mut items = Vec::new();
        for &spec in specs {
            let compiled = Arc::new(Compiler::new(config.cost, shots).compile(spec, memory));
            let sampler = (shots > 0).then(|| {
                Arc::new(FaultSampler::new(
                    compiled.circuit.circuit(),
                    config.noise,
                    config.seed,
                ))
            });
            for _ in 0..per_spec {
                let id = items.len() as u64;
                items.push(PreparedRequest {
                    request: QueryRequest {
                        id,
                        address: (id * 5) % 8,
                        spec,
                        arrival: 0,
                        tenant: crate::TenantId::default(),
                        slo: crate::SloClass::default(),
                    },
                    compiled: Arc::clone(&compiled),
                    sampler: sampler.clone(),
                    latency: Latency::default(),
                    completed: 0,
                });
            }
        }
        (items, config)
    }

    fn prepared(count: usize, shots: usize) -> (Vec<PreparedRequest>, ServiceConfig) {
        let specs = [QuerySpec::new(1, 2)];
        fire(&Memory::ones(3), &specs, count, shots, default_noise())
    }

    fn mixed_memory() -> Memory {
        Memory::from_bits((0..8).map(|i| i % 3 == 0))
    }

    /// What the slab engine serves `item`: the readout off
    /// `query_classical`, and the slab reference loop on the request's
    /// basis input — per shot `run_with_faults`, then the fidelity
    /// reduced to the address and bus — with the shot counters the
    /// shot engine defines.
    fn slab_reference(
        item: &PreparedRequest,
        config: &ServiceConfig,
    ) -> (bool, FidelityEstimate, ShotStats) {
        let circuit = &item.compiled.circuit;
        let request = item.request;
        let value = circuit.query_classical(request.address).unwrap();
        let Some(sampler) = item.sampler.as_deref() else {
            return (
                value,
                FidelityEstimate::from_samples(&[]),
                ShotStats::default(),
            );
        };
        let mut amps = vec![Amplitude::ZERO; request.address as usize + 1];
        amps[request.address as usize] = Amplitude::ONE;
        let input = circuit.input_state(Some(&amps));
        let gates = circuit.circuit().gates();
        let keep = circuit.output_qubits();
        let mut ideal = input.clone();
        run(gates, &mut ideal).unwrap();
        let master = derive_stream_seed(config.seed, request.id);
        let mut stats = ShotStats::default();
        let samples: Vec<f64> = (0..config.shots as u64)
            .map(|shot| {
                let plan = sampler.sample_shot_from(master, shot);
                stats.shots += 1;
                if plan.is_empty() {
                    return 1.0;
                }
                stats.replayed += 1;
                stats.faults += plan.len() as u64;
                stats.gate_applications += gates.len() as u64;
                let mut noisy = input.clone();
                run_with_faults(gates, &mut noisy, &plan).unwrap();
                ideal.reduced_fidelity(&noisy, &keep)
            })
            .collect();
        (value, FidelityEstimate::from_samples(&samples), stats)
    }

    fn bits(f: &FidelityEstimate) -> (u64, u64, usize) {
        (f.mean.to_bits(), f.std_error.to_bits(), f.shots)
    }

    /// Dispatches `items` at 1, 2 and 4 workers and checks every result
    /// against the slab, bit for bit; returns the served results.
    fn assert_served_like_the_slab(
        items: &[PreparedRequest],
        config: &ServiceConfig,
    ) -> Vec<(QueryResult, ShotStats)> {
        let served = dispatch(items, 1, config);
        for workers in [2, 4] {
            assert_eq!(
                served,
                dispatch(items, workers, config),
                "{workers} workers"
            );
        }
        for (item, (result, stats)) in items.iter().zip(&served) {
            let (value, estimate, slab_stats) = slab_reference(item, config);
            assert_eq!(result.value, value, "request {}", result.id);
            assert_eq!(
                bits(&result.fidelity),
                bits(&estimate),
                "request {}",
                result.id
            );
            assert_eq!(*stats, slab_stats, "request {}", result.id);
        }
        served
    }

    #[test]
    fn lanes_serve_what_the_slab_serves() {
        // One fire holding three specs; at 100 shots a request's lanes
        // span two words.
        let specs = [
            QuerySpec::new(1, 2),
            QuerySpec::of(ArchSpec::Sqc { n: 3 }),
            QuerySpec::of(ArchSpec::BucketBrigade { k: 1, m: 2 }),
        ];
        for shots in [0, 8, 100] {
            let (items, config) = fire(&mixed_memory(), &specs, 9, shots, default_noise());
            let served = assert_served_like_the_slab(&items, &config);
            assert!(served.iter().all(|(r, _)| r.fidelity.shots == shots));
        }
    }

    #[test]
    fn a_request_failing_every_shot_serves_negative_zero() {
        // Under heavy bit-flip noise some request loses every shot. Each
        // such sample is the slab's empty group sum, -0.0, so the mean is
        // -0.0 too.
        let noise = NoiseModel::per_gate(PauliChannel::bit_flip(0.3));
        let (items, config) = fire(&mixed_memory(), &[QuerySpec::new(1, 2)], 16, 8, noise);
        let served = assert_served_like_the_slab(&items, &config);
        assert!(
            served
                .iter()
                .any(|(r, _)| r.fidelity.mean.to_bits() == (-0.0f64).to_bits()),
            "no request failed every shot"
        );
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
