//! Criterion benches: Feynman-path simulator throughput.
//!
//! The paper's simulator claim (Sec. 6.2): noisy QRAM circuits simulate
//! in memory *constant in circuit depth* because the gate family is
//! classical-reversible — the interesting cost is time per (gate × path).
//! These benches measure full-query simulation and one Monte-Carlo shot
//! across QRAM widths.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qram_bench::experiment_memory;
use qram_core::{QueryArchitecture, VirtualQram};
use qram_noise::{FaultSampler, NoiseModel, PauliChannel};
use qram_sim::{monte_carlo_fidelity_with, run, run_with_faults, FidelityEstimate, ShotConfig};

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
                monte_carlo_fidelity_with(query.circuit().gates(), &input, &config, |shot| {
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
            monte_carlo_fidelity_with(gates, &input, &config, |shot| sampler.sample_shot(shot))
                .unwrap()
                .mean
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_noiseless_query,
    bench_noisy_shot,
    bench_fault_sampling,
    bench_shot_engine,
    bench_lane_engine
);
criterion_main!(benches);
