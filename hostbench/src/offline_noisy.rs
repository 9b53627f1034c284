//! `offline-noisy`: an offline batch — the whole request set admitted
//! through `submit_all`, then drained — into a bare service estimating
//! fidelity with 8 shots under the default depolarizing noise.
//!
//! Why: each request walks a 0.5k–23k-gate circuit about ten times (the
//! readout, the ideal run and 8 replays), full batches exercise the
//! work-stealing executor on two workers, and the control plane is
//! negligible. One operation is one served request.

use qram::core::Memory;
use qram::noise::{derive_stream_seed, FaultSampler};
use qram::plan::{planned_families, UNLIMITED_BUDGET};
use qram::service::{assign_specs, QramService, QuerySpec, ServiceConfig, ServiceReport, Workload};
use qram::sim::{run_shots_stats, Amplitude, ShotConfig, ShotStats};
use qram::telemetry::{host_wall, key};

use crate::metrics::Layers;
use crate::rounds::{run_rounds, timed_setup, Outcome, Pass, Round};
use crate::serving::{
    retime_specs, set_cache_hit_layer, set_compile_layers, wrong_values, SpecCost,
};
use crate::stats::{elapsed_ns, median, memory_bits, percentile, ratio, timed, Digest};
use crate::trace::Tracer;
use crate::Settings;

const WIDTH: usize = 10;
const SHOTS: usize = 8;
const WORKERS: usize = 2;
const CACHE: usize = 8;
/// Requests per round.
const REQUESTS: usize = 384;

/// The generated inputs; `stream` pairs an address with an index into
/// the planner's family list.
struct Inputs {
    seed: u64,
    bits: Vec<bool>,
    reference: Memory,
    stream: Vec<(u64, usize)>,
}

fn planned_specs() -> Vec<QuerySpec> {
    planned_families(WIDTH, UNLIMITED_BUDGET)
        .into_iter()
        .map(QuerySpec::of)
        .collect()
}

fn config(seed: u64) -> ServiceConfig {
    ServiceConfig::default()
        .with_workers(WORKERS)
        .with_shots(SHOTS)
        .with_seed(seed)
        .with_batch_limit(32)
        .with_cache_capacity(CACHE)
}

fn inputs(seed: u64) -> Inputs {
    let bits = memory_bits(WIDTH, seed);
    let reference = Memory::from_bits(bits.iter().copied());
    let specs = planned_specs();
    let workload = Workload::Zipfian {
        address_width: WIDTH,
        theta: 0.99,
        seed,
    };
    let stream = assign_specs(&workload, &specs, REQUESTS)
        .into_iter()
        .map(|(address, spec)| {
            let index = specs
                .iter()
                .position(|s| *s == spec)
                .expect("picked from specs");
            (address, index)
        })
        .collect();
    Inputs {
        seed,
        bits,
        reference,
        stream,
    }
}

/// One round's served output.
struct Served {
    service: QramService,
    specs: Vec<QuerySpec>,
    report: ServiceReport,
}

fn round(inputs: &Inputs, tracer: &mut Tracer) -> (Round, Served) {
    let ((specs, mut service), setup_ns) = timed_setup(tracer, |tracer| {
        let specs = tracer.span("plan.planned_families", 0, planned_specs);
        let service = tracer.span("build", 0, || {
            QramService::new(
                Memory::from_bits(inputs.bits.iter().copied()),
                config(inputs.seed),
            )
        });
        (specs, service)
    });

    let start = host_wall();
    let serve = tracer.begin("serve", 0);
    let stream = inputs
        .stream
        .iter()
        .map(|&(address, spec)| (address, specs[spec]));
    tracer.span("service.submit_all", 0, || service.submit_all(stream));
    let report = tracer.span("service.drain", 0, || service.drain());
    tracer.end(serve);
    let op_ns = elapsed_ns(start);

    let offered = inputs.stream.len() as u64;
    let results = &report.results;
    let wrong = wrong_values(
        results.iter().map(|r| (r.address, r.value)),
        &inputs.reference,
    );
    let bad_estimates = results
        .iter()
        .filter(|r| r.fidelity.shots != SHOTS || !(0.0..=1.0).contains(&r.fidelity.mean))
        .count() as u64;
    let admission = report.admission;
    let mut problems = Vec::new();
    if wrong > 0 {
        problems.push(format!("{wrong} served values differ from Memory::get"));
    }
    if bad_estimates > 0 {
        problems.push(format!(
            "{bad_estimates} fidelity estimates outside [0, 1] or without {SHOTS} shots"
        ));
    }
    if admission.offered() != offered
        || admission.accepted != results.len() as u64
        || admission.shed + admission.rejected != 0
    {
        problems.push(format!(
            "offered {offered} != completed {} + shed {} + rejected {}",
            results.len(),
            admission.shed,
            admission.rejected
        ));
    }
    let mut digest = Digest::default();
    for r in results {
        for word in [
            r.id,
            r.address,
            u64::from(r.value),
            r.fidelity.mean.to_bits(),
            r.fidelity.std_error.to_bits(),
            r.fidelity.shots as u64,
            r.completed,
            r.latency.queue_wait,
            r.latency.compile,
            r.latency.execute,
        ] {
            digest.add(word);
        }
    }
    let round = Round {
        setup_ns,
        ops: offered,
        op_ns,
        failed: wrong + bad_estimates + offered.saturating_sub(results.len() as u64),
        digest: digest.value(),
        problems,
    };
    (
        round,
        Served {
            service,
            specs,
            report,
        },
    )
}

/// Modeled (virtual-clock) statistics of one round.
fn modeled(served: &Served) -> Vec<String> {
    let results = &served.report.results;
    let totals: Vec<f64> = results.iter().map(|r| r.latency.total() as f64).collect();
    let span = results.iter().map(|r| r.completed).max().unwrap_or(0);
    let fidelity =
        results.iter().map(|r| r.fidelity.mean).sum::<f64>() / results.len().max(1) as f64;
    vec![format!(
        "modeled latency_ns p50 {:.0}, p99 {:.0}; virtual_rps {:.1}; batches {}; mean fidelity {fidelity:.6}",
        percentile(&totals, 50.0),
        percentile(&totals, 99.0),
        ratio(results.len() as f64 * 1e9, span as f64),
        served.report.batches.len()
    )]
}

/// Runs `offline-noisy`.
pub fn run(settings: &Settings) -> Outcome {
    let inputs = inputs(settings.seed);
    let (mut outcome, last_traced) = run_rounds(
        settings,
        &[Pass::Plain, Pass::Traced],
        |_, tracer| {
            let (done, served) = round(&inputs, tracer);
            (done, Some(served))
        },
        modeled,
    );
    if let Some(served) = last_traced {
        (outcome.layers, outcome.problems) = layer_metrics(&inputs, &served, &outcome.tracer);
    }
    outcome
}

/// Host time and shot counters of every request of one round, re-run
/// one at a time on one thread exactly as the executor runs it.
#[derive(Default)]
struct Rerun {
    readout_ns: f64,
    shots_ns: f64,
    sample_ns: f64,
    gates: f64,
    stats: ShotStats,
    problems: Vec<String>,
}

fn rerun(inputs: &Inputs, served: &Served, costs: &[SpecCost]) -> Rerun {
    let config = config(inputs.seed);
    let samplers: Vec<FaultSampler> = costs
        .iter()
        .map(|c| FaultSampler::new(c.compiled.circuit.circuit(), config.noise, config.seed))
        .collect();
    let mut out = Rerun::default();
    for r in &served.report.results {
        let spec = served
            .specs
            .iter()
            .position(|s| *s == r.spec)
            .expect("planned spec");
        let circuit = &costs[spec].compiled.circuit;
        let sampler = &samplers[spec];
        let (value, readout_ns) = timed(|| circuit.query_classical(r.address));
        let master = derive_stream_seed(config.seed, r.id);
        let (shots, shots_ns) = timed(|| {
            let mut amps = vec![Amplitude::ZERO; r.address as usize + 1];
            amps[r.address as usize] = Amplitude::ONE;
            let input = circuit.input_state(Some(&amps));
            let shot_config = ShotConfig {
                shots: SHOTS,
                seed: master,
                threads: config.shot_threads,
                path_chunks: config.path_chunks,
            };
            run_shots_stats(
                circuit.circuit().gates(),
                &input,
                Some(&circuit.output_qubits()),
                &shot_config,
                &|shot| sampler.sample_shot_from(master, shot),
            )
        });
        let (_, sample_ns) = timed(|| {
            for shot in 0..SHOTS as u64 {
                std::hint::black_box(sampler.sample_shot_from(master, shot));
            }
        });
        match (value, shots) {
            (Ok(value), Ok((estimate, stats))) if value == r.value && estimate == r.fidelity => {
                out.stats.merge_from(&stats);
            }
            other => out.problems.push(format!(
                "isolated re-run of request {} disagrees with the served result: {other:?}",
                r.id
            )),
        }
        out.readout_ns += readout_ns as f64;
        out.shots_ns += shots_ns as f64;
        out.sample_ns += sample_ns as f64;
        out.gates += circuit.circuit().gates().len() as f64;
    }
    out
}

/// The traced run's per-layer metrics.
fn layer_metrics(inputs: &Inputs, served: &Served, tracer: &Tracer) -> (Layers, Vec<String>) {
    let mut layers = Layers::default();
    let report = &served.report;
    let requests = report.results.len() as f64;

    let submit_all = median(&tracer.durations_ns("service.submit_all"));
    let drain = median(&tracer.durations_ns("service.drain"));
    layers.set("service.submit_all_ms", submit_all / 1e6);
    layers.set("service.drain_ms", drain / 1e6);
    let metrics = served.service.metrics_snapshot();
    layers.set(
        "service.batches_fired",
        metrics.counter(key::BATCHES_FIRED) as f64,
    );
    let sizes: Vec<f64> = report.batches.iter().map(|b| b.requests as f64).collect();
    layers.set("service.batch_size_p50", percentile(&sizes, 50.0));
    layers.set("admission.shed", report.admission.shed as f64);
    let cache = report.cache;
    layers.set("cache.hits", cache.hits as f64);
    layers.set("cache.misses", cache.misses as f64);
    layers.set("cache.evictions", cache.evictions as f64);
    layers.set("cache.hit_ratio", cache.hit_rate());

    let costs = retime_specs(&served.specs, &inputs.reference, 3);
    set_cache_hit_layer(&mut layers, &costs, CACHE);
    let misses: Vec<usize> = report
        .batches
        .iter()
        .filter(|b| b.compile > 0)
        .map(|b| {
            served
                .specs
                .iter()
                .position(|s| *s == b.spec)
                .expect("planned spec")
        })
        .collect();
    let compile_ns = set_compile_layers(&mut layers, &costs, &misses);

    let rerun = rerun(inputs, served, &costs);
    let stats = rerun.stats;
    layers.set("readout.ns_per_op", ratio(rerun.readout_ns, requests));
    layers.set("readout.ns_per_gate", ratio(rerun.readout_ns, rerun.gates));
    layers.set("shots.ns_per_op", ratio(rerun.shots_ns, requests));
    layers.set(
        "sampler.sample_ns",
        ratio(rerun.sample_ns, requests * SHOTS as f64),
    );
    layers.set("sim.shots", stats.shots as f64);
    layers.set("sim.replayed_shots", stats.replayed as f64);
    layers.set(
        "sim.replay_ratio",
        ratio(stats.replayed as f64, stats.shots as f64),
    );
    layers.set("sim.faults_injected", stats.faults as f64);
    layers.set("sim.gate_applications", stats.gate_applications as f64);
    // Each request also walks its circuit once for the ideal run.
    layers.set(
        "sim.ns_per_gate_application",
        ratio(rerun.shots_ns, stats.gate_applications as f64 + rerun.gates),
    );
    let window = submit_all + drain;
    let executor_ns = rerun.readout_ns + rerun.shots_ns;
    layers.set(
        "executor.parallel_efficiency",
        ratio(executor_ns, WORKERS as f64 * window),
    );
    // Executor work runs on WORKERS threads: count it as its sum over
    // the worker count.
    layers.set(
        "service.self_ns_per_op",
        (window - compile_ns - executor_ns / WORKERS as f64) / requests,
    );
    layers.set(
        "plan.ms",
        median(&tracer.durations_ns("plan.planned_families")) / 1e6,
    );
    layers.set("build.ms", median(&tracer.durations_ns("build")) / 1e6);
    (layers, rerun.problems)
}
