//! Criterion benches: Feynman-path simulator throughput.
//!
//! The paper's simulator claim (Sec. 6.2): noisy QRAM circuits simulate
//! in memory *constant in circuit depth* because the gate family is
//! classical-reversible — the interesting cost is time per (gate × path).
//! These benches measure full-query simulation and one Monte-Carlo shot
//! across QRAM widths, the engine against the slab reference loop on
//! the full overlap (`lane_engine`) and the reduced one
//! (`reduced_engine`), and the served-shot stage of the query service
//! (`served_run`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qram_bench::experiment_memory;
use qram_core::{ArchSpec, QueryArchitecture, VirtualQram};
use qram_noise::{derive_stream_seed, FaultSampler, NoiseModel, PauliChannel, BASE_ERROR_RATE};
use qram_sim::{
    run, run_shots, run_with_faults, FaultPlan, FidelityEstimate, Lanes, Pauli, ShotConfig,
};

fn bench_noiseless_query(c: &mut Criterion) {
    let mut group = c.benchmark_group("noiseless_query");
    for m in [2usize, 4, 6] {
        let memory = experiment_memory(m, 1);
        let query = VirtualQram::new(0, m).build(&memory);
        let input = query.input_state(None);
        group.bench_with_input(BenchmarkId::new("virtual_k0", m), &m, |b, _| {
            b.iter(|| {
                let mut state = input.clone();
                run(query.circuit().gates(), &mut state).unwrap();
                state.num_paths()
            })
        });
    }
    group.finish();
}

fn bench_noisy_shot(c: &mut Criterion) {
    let mut group = c.benchmark_group("noisy_shot");
    for m in [2usize, 4, 6] {
        let memory = experiment_memory(m, 2);
        let query = VirtualQram::new(0, m).build(&memory);
        let input = query.input_state(None);
        let model = NoiseModel::per_gate(PauliChannel::depolarizing(1e-3));
        group.bench_with_input(BenchmarkId::new("virtual_k0", m), &m, |b, _| {
            let sampler = FaultSampler::new(query.circuit(), model, 3);
            let mut shot = 0u64;
            b.iter(|| {
                let plan = sampler.sample_shot(shot);
                shot += 1;
                let mut state = input.clone();
                run_with_faults(query.circuit().gates(), &mut state, &plan).unwrap();
                state.num_paths()
            })
        });
    }
    group.finish();
}

fn bench_fault_sampling(c: &mut Criterion) {
    let mut group = c.benchmark_group("fault_sampling");
    let memory = experiment_memory(6, 3);
    let query = VirtualQram::new(0, 6).build(&memory);
    for (name, model) in [
        (
            "per_gate",
            NoiseModel::per_gate(PauliChannel::depolarizing(1e-3)),
        ),
        (
            "qubit_per_step",
            NoiseModel::qubit_per_step(PauliChannel::depolarizing(1e-3)),
        ),
    ] {
        group.bench_function(name, |b| {
            let sampler = FaultSampler::new(query.circuit(), model, 4);
            let mut shot = 0u64;
            b.iter(|| {
                shot += 1;
                sampler.sample_shot(shot).len()
            })
        });
    }
    group.finish();
}

/// The headline serial-vs-sharded comparison the CI regression gate and
/// `BENCH_2.json` track: one full Monte-Carlo fidelity estimate per
/// iteration, identical workload and seed, only the thread count varies.
/// Determinism across thread counts means the two paths compute the very
/// same estimate — the ratio is pure engine throughput.
fn bench_shot_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("shot_engine");
    let m = 5;
    let shots = 96;
    let memory = experiment_memory(m, 8);
    let query = VirtualQram::new(0, m).build(&memory);
    let input = query.input_state(None);
    let model = NoiseModel::per_gate(PauliChannel::depolarizing(2e-3));
    let sampler = FaultSampler::new(query.circuit(), model, 9);
    for (label, threads) in [("serial", 1usize), ("sharded", 0)] {
        let config = ShotConfig::new(shots).with_seed(9).with_threads(threads);
        group.bench_function(label, |b| {
            b.iter(|| {
                run_shots(query.circuit().gates(), &input, None, &config, &|shot| {
                    sampler.sample_shot(shot)
                })
                .unwrap()
                .mean
            })
        });
    }
    group.finish();
}

/// The lane-versus-slab comparison the CI `lane_speedup` gate tracks: a
/// wide (`m = 10`, 1024-path) query where shots are few but each shot is
/// expensive. `slab` is the reference loop (per shot `run_with_faults`
/// on the path slab, then the overlap); `lanes` is the shot engine, which
/// runs each shot as one bit-sliced pass with one lane per path. Both
/// run on one thread and compute the same estimate bit for bit, so the
/// ratio is pure engine throughput and needs no second core.
fn bench_lane_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("lane_engine");
    let m = 10;
    let shots = 4;
    let memory = experiment_memory(m, 8);
    let query = VirtualQram::new(0, m).build(&memory);
    let gates = query.circuit().gates();
    let input = query.input_state(None);
    let model = NoiseModel::per_gate(PauliChannel::depolarizing(2e-3));
    let sampler = FaultSampler::new(query.circuit(), model, 9);
    group.bench_function("slab", |b| {
        b.iter(|| {
            let mut ideal = input.clone();
            run(gates, &mut ideal).unwrap();
            let samples: Vec<f64> = (0..shots)
                .map(|shot| {
                    let plan = sampler.sample_shot(shot);
                    if plan.is_empty() {
                        return 1.0;
                    }
                    let mut state = input.clone();
                    run_with_faults(gates, &mut state, &plan).unwrap();
                    ideal.fidelity(&state)
                })
                .collect();
            FidelityEstimate::from_samples(&samples).mean
        })
    });
    let config = ShotConfig::new(shots as usize).with_seed(9).with_threads(1);
    group.bench_function("lanes", |b| {
        b.iter(|| {
            run_shots(gates, &input, None, &config, &|shot| {
                sampler.sample_shot(shot)
            })
            .unwrap()
            .mean
        })
    });
    group.finish();
}

/// The reduction stage of a Fig. 9 shot: `VirtualQram(0, 8)` on the
/// 256-path uniform superposition, reduced to its address and bus, under
/// qubit-per-step bit-flip noise, the channel where lanes leave the
/// ideal's traced-out bits. `slab` is the reference loop (per shot
/// `run_with_faults` on the path slab, then
/// `PathState::reduced_fidelity`); `lanes` is the shot engine, which
/// walks the shots in one multi-shot pass and reduces each block
/// straight from its lane rows. Both run on one thread and compute the
/// same estimate bit for bit. `lanes_phase_flip` runs the same circuit
/// and shot count under phase-flip noise, where every shot is all-`Z`:
/// no shot is walked, and one sign walk of the ideal gives every
/// shot's phases.
fn bench_reduced_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("reduced_engine");
    let m = 8;
    let shots = 4;
    let memory = experiment_memory(m, 8);
    let query = VirtualQram::new(0, m).build(&memory);
    let gates = query.circuit().gates();
    let input = query.input_state(None);
    let keep = query.output_qubits();
    let model = NoiseModel::qubit_per_step(PauliChannel::bit_flip(BASE_ERROR_RATE));
    let sampler = FaultSampler::new(query.circuit(), model, 9);
    group.bench_function("slab", |b| {
        b.iter(|| {
            let mut ideal = input.clone();
            run(gates, &mut ideal).unwrap();
            let samples: Vec<f64> = (0..shots)
                .map(|shot| {
                    let plan = sampler.sample_shot(shot);
                    if plan.is_empty() {
                        return 1.0;
                    }
                    let mut state = input.clone();
                    run_with_faults(gates, &mut state, &plan).unwrap();
                    ideal.reduced_fidelity(&state, &keep)
                })
                .collect();
            FidelityEstimate::from_samples(&samples).mean
        })
    });
    let config = ShotConfig::new(shots as usize).with_seed(9).with_threads(1);
    group.bench_function("lanes", |b| {
        b.iter(|| {
            run_shots(gates, &input, Some(&keep), &config, &|shot| {
                sampler.sample_shot(shot)
            })
            .unwrap()
            .mean
        })
    });
    let model = NoiseModel::qubit_per_step(PauliChannel::phase_flip(BASE_ERROR_RATE));
    let sampler = FaultSampler::new(query.circuit(), model, 9);
    group.bench_function("lanes_phase_flip", |b| {
        b.iter(|| {
            run_shots(gates, &input, Some(&keep), &config, &|shot| {
                sampler.sample_shot(shot)
            })
            .unwrap()
            .mean
        })
    });
    group.finish();
}

/// The served-shot stage of the query service at `n = 10`: one run of
/// 7 requests with 8 shots each, as the executor serves it under the
/// service's default noise (per-gate depolarizing at
/// [`BASE_ERROR_RATE`]). An iteration samples the 56 shots into reused
/// plans, gives each request an ideal lane and each shot whose plan
/// flips a bit a lane with only its `X` and `Y` faults, and walks the
/// 63-lane pass once. Each iteration draws fresh request streams.
fn bench_served_run(c: &mut Criterion) {
    const REQUESTS: u64 = 7;
    const SHOTS: u64 = 8;
    let mut group = c.benchmark_group("served_run");
    let memory = experiment_memory(10, 5);
    let model = NoiseModel::per_gate(PauliChannel::depolarizing(BASE_ERROR_RATE));
    for (name, spec) in [
        (
            "bucket_brigade_k1_m9",
            ArchSpec::BucketBrigade { k: 1, m: 9 },
        ),
        ("virtual_k1_m9", ArchSpec::virtual_all(1, 9)),
    ] {
        let query = spec.instantiate().build(&memory);
        let (gates, address, bus) = (query.circuit().gates(), query.address(), query.bus());
        let sampler = FaultSampler::new(query.circuit(), model, 11);
        let mut plans = vec![FaultPlan::new(); (REQUESTS * SHOTS) as usize];
        let mut lanes = Lanes::default();
        let mut id = 0u64;
        group.bench_function(name, |b| {
            b.iter(|| {
                for (j, shot_plans) in plans.chunks_exact_mut(SHOTS as usize).enumerate() {
                    let master = derive_stream_seed(11, id + j as u64);
                    for (shot, plan) in (0..).zip(shot_plans) {
                        sampler.sample_shot_into(master, shot, plan);
                    }
                }
                let flips = |plan: &FaultPlan| plan.faults().iter().any(|f| f.pauli != Pauli::Z);
                let walked = plans.iter().filter(|plan| flips(plan)).count();
                lanes.reset(query.num_qubits(), REQUESTS as usize + walked);
                let mut lane = REQUESTS as usize;
                for (j, shot_plans) in plans.chunks_exact(SHOTS as usize).enumerate() {
                    let value = (id + j as u64).wrapping_mul(0x9E37) % 1024;
                    let write_address = |lanes: &mut Lanes, lane: usize| {
                        for (i, q) in address.iter().enumerate() {
                            lanes.set(lane, q, (value >> (address.len() - 1 - i)) & 1 == 1);
                        }
                    };
                    write_address(&mut lanes, j);
                    for plan in shot_plans.iter().filter(|plan| flips(plan)) {
                        write_address(&mut lanes, lane);
                        for fault in plan.faults().iter().filter(|f| f.pauli != Pauli::Z) {
                            lanes.add_fault(lane, fault);
                        }
                        lane += 1;
                    }
                }
                lanes.run(gates).unwrap();
                id += REQUESTS;
                lanes.row(bus).iter().map(|w| w.count_ones()).sum::<u32>()
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_noiseless_query,
    bench_noisy_shot,
    bench_fault_sampling,
    bench_shot_engine,
    bench_lane_engine,
    bench_reduced_engine,
    bench_served_run
);
criterion_main!(benches);
