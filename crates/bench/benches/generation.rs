//! Criterion benches: circuit generation, pricing, structural verify and
//! 2D embedding throughput.
//!
//! Resource-estimation workflows (Tables 1-2) regenerate circuits many
//! times, and the serving stack builds, prices and verifies a circuit on
//! every cache miss; these benches track the cost of compiling each
//! architecture, of pricing and verifying one, and of building/validating
//! H-tree embeddings.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qram_bench::experiment_memory;
use qram_core::{ArchSpec, BucketBrigadeQram, QueryArchitecture, SelectSwapQram, Sqc, VirtualQram};
use qram_layout::HTreeEmbedding;
use qram_verify::{verify_query, VerifyLevel};

fn bench_circuit_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("circuit_generation");
    let (k, m) = (2usize, 6usize);
    let memory = experiment_memory(k + m, 5);
    let archs: [(&str, Box<dyn QueryArchitecture>); 4] = [
        ("virtual", Box::new(VirtualQram::new(k, m))),
        ("sqc_bb", Box::new(BucketBrigadeQram::new(k, m))),
        ("sqc_ss", Box::new(SelectSwapQram::new(k, m))),
        ("sqc", Box::new(Sqc::new(k + m))),
    ];
    for (name, arch) in &archs {
        group.bench_function(*name, |b| b.iter(|| arch.build(&memory).circuit().len()));
    }
    group.finish();
}

/// The two stages a cache miss pays after the build: pricing and the
/// structural verify.
fn bench_resource_counting(c: &mut Criterion) {
    let (k, m) = (2usize, 6usize);
    let memory = experiment_memory(k + m, 6);
    let query = VirtualQram::new(k, m).build(&memory);
    c.bench_function("resource_count_virtual_k2_m6", |b| {
        b.iter(|| query.resources().t_count)
    });
    let family = ArchSpec::virtual_all(k, m).family();
    let claimed = query.resources();
    c.bench_function("verify_structural_virtual_k2_m6", |b| {
        b.iter(|| verify_query(family, &query, &claimed, VerifyLevel::Structural).is_ok())
    });
}

fn bench_htree(c: &mut Criterion) {
    let mut group = c.benchmark_group("htree");
    for m in [4usize, 8, 12] {
        group.bench_with_input(BenchmarkId::new("embed", m), &m, |b, &m| {
            b.iter(|| HTreeEmbedding::new(m).role_census().routing)
        });
    }
    group.bench_function("embed_validate_m8", |b| {
        b.iter(|| {
            let e = HTreeEmbedding::new(8);
            e.validate().unwrap();
            e.unused_fraction()
        })
    });
    group.finish();
}

fn bench_optimization_ablation(c: &mut Criterion) {
    use qram_core::{Optimizations, VirtualQram};
    let mut group = c.benchmark_group("table1_ablation");
    let (k, m) = (2usize, 5usize);
    let memory = experiment_memory(k + m, 7);
    for (name, opts) in [
        ("raw", Optimizations::RAW),
        ("opt1", Optimizations::OPT1),
        ("opt2", Optimizations::OPT2),
        ("opt3", Optimizations::OPT3),
        ("all", Optimizations::ALL),
    ] {
        group.bench_function(name, |b| {
            let arch = VirtualQram::new(k, m).with_optimizations(opts);
            b.iter(|| {
                let q = arch.build(&memory);
                (q.resources().depth, q.num_qubits())
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_circuit_generation,
    bench_resource_counting,
    bench_htree,
    bench_optimization_ablation
);
criterion_main!(benches);
