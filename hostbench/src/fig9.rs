//! `fig9-superposition`: the paper's Fig. 9 sweep at m = 8 —
//! `VirtualQram(0,8)`, `BucketBrigadeQram(0,8)` and `SelectSwapQram(4,4)`,
//! each under Z and X qubit-per-step noise at ε = 1e-3, on a uniform
//! superposition over all 256 addresses, fidelity reduced over address
//! and bus, 2 shot threads.
//!
//! Why: served requests are classical addresses, which activate one
//! bucket-brigade path each, so they never reach the multi-path slab,
//! reduced fidelity or the qubit-per-step sampler. This workload is the
//! only one that does. One operation is one Monte-Carlo shot.

use qram::circuit::Qubit;
use qram::core::{
    BucketBrigadeQram, Memory, QueryArchitecture, QueryCircuit, SelectSwapQram, VirtualQram,
};
use qram::noise::{derive_stream_seed, FaultSampler, NoiseModel, PauliChannel, BASE_ERROR_RATE};
use qram::sim::{run_shots_stats, FidelityEstimate, PathState, ShotConfig, ShotStats};
use qram::telemetry::host_wall;

use crate::metrics::Layers;
use crate::rounds::{run_rounds, timed_setup, Outcome, Pass, Round};
use crate::stats::{elapsed_ns, median, median_call_ns, memory_bits, ratio, timed, Digest};
use crate::trace::Tracer;
use crate::Settings;

const M: usize = 8;
const SHOT_THREADS: usize = 2;
/// Shots per point per round.
const SHOTS: usize = 32;

/// One architecture, built and verified against the memory.
struct Built {
    query: QueryCircuit,
    input: PathState,
    keep: Vec<Qubit>,
}

/// One (architecture, channel) point of the sweep.
struct Point {
    arch: usize,
    channel: &'static str,
    sampler: FaultSampler,
}

fn architectures() -> [Box<dyn QueryArchitecture>; 3] {
    [
        Box::new(VirtualQram::new(0, M)),
        Box::new(BucketBrigadeQram::new(0, M)),
        Box::new(SelectSwapQram::new(M / 2, M - M / 2)),
    ]
}

fn channels() -> [(&'static str, PauliChannel); 2] {
    [
        ("Z", PauliChannel::phase_flip(BASE_ERROR_RATE)),
        ("X", PauliChannel::bit_flip(BASE_ERROR_RATE)),
    ]
}

/// One round's output: per point, the estimate and shot counters.
struct Swept {
    built: Vec<Built>,
    points: Vec<Point>,
    estimates: Vec<(FidelityEstimate, ShotStats)>,
}

fn round(bits: &[bool], seed: u64, tracer: &mut Tracer) -> (Round, Swept) {
    let ((built, points, mut problems), setup_ns) = timed_setup(tracer, |tracer| {
        let mut problems = Vec::new();
        let built: Vec<Built> = tracer.span("build", 0, || {
            let memory = Memory::from_bits(bits.iter().copied());
            architectures()
                .iter()
                .map(|arch| {
                    let query = arch.build(&memory);
                    if let Err(e) = query.verify(&memory) {
                        problems.push(format!("{} fails QueryCircuit::verify: {e}", arch.name()));
                    }
                    Built {
                        input: query.input_state(None),
                        keep: query.output_qubits(),
                        query,
                    }
                })
                .collect()
        });
        let points: Vec<Point> = tracer.span("sampler.build", 0, || {
            (0..built.len())
                .flat_map(|arch| channels().map(move |channel| (arch, channel)))
                .enumerate()
                .map(|(i, (arch, (label, channel)))| Point {
                    arch,
                    channel: label,
                    sampler: FaultSampler::new(
                        built[arch].query.circuit(),
                        NoiseModel::qubit_per_step(channel),
                        derive_stream_seed(seed, i as u64),
                    ),
                })
                .collect()
        });
        (built, points, problems)
    });

    let start = host_wall();
    let serve = tracer.begin("serve", 0);
    let mut estimates = Vec::with_capacity(points.len());
    for (i, point) in points.iter().enumerate() {
        let b = &built[point.arch];
        let config = ShotConfig::new(SHOTS)
            .with_seed(point.sampler.seed())
            .with_threads(SHOT_THREADS);
        let call = tracer.begin("sim.run_shots_stats", i as u64);
        let estimate = run_shots_stats(
            b.query.circuit().gates(),
            &b.input,
            Some(&b.keep),
            &config,
            &|shot| point.sampler.sample_shot(shot),
        );
        tracer.end(call);
        match estimate {
            Ok(estimate) => estimates.push(estimate),
            Err(e) => problems.push(format!("point {i} is not simulable: {e:?}")),
        }
    }
    tracer.end(serve);
    let op_ns = elapsed_ns(start);

    let bad = estimates
        .iter()
        .filter(|(e, _)| e.shots != SHOTS || !(0.0..=1.0).contains(&e.mean))
        .count() as u64;
    if bad > 0 {
        problems.push(format!(
            "{bad} fidelity estimates outside [0, 1] or without {SHOTS} shots"
        ));
    }
    let mut digest = Digest::default();
    for (e, s) in &estimates {
        for word in [
            e.mean.to_bits(),
            e.std_error.to_bits(),
            e.shots as u64,
            s.replayed,
            s.faults,
            s.gate_applications,
        ] {
            digest.add(word);
        }
    }
    let missing = (points.len() - estimates.len()) as u64 * SHOTS as u64;
    let round = Round {
        setup_ns,
        ops: (points.len() * SHOTS) as u64,
        op_ns,
        failed: missing + bad * SHOTS as u64,
        digest: digest.value(),
        problems,
    };
    (
        round,
        Swept {
            built,
            points,
            estimates,
        },
    )
}

/// Runs `fig9-superposition`.
pub fn run(settings: &Settings) -> Outcome {
    let bits = memory_bits(M, settings.seed);
    let (mut outcome, last_traced) = run_rounds(
        settings,
        &[Pass::Plain, Pass::Traced],
        |_, tracer| {
            let (done, swept) = round(&bits, settings.seed, tracer);
            (done, Some(swept))
        },
        simulated,
    );
    if let Some(swept) = last_traced {
        (outcome.layers, outcome.problems) = layer_metrics(&swept, &outcome.tracer);
    }
    outcome
}

/// The sweep's simulated fidelities, one line per point.
fn simulated(swept: &Swept) -> Vec<String> {
    swept
        .points
        .iter()
        .zip(&swept.estimates)
        .map(|(p, (e, _))| {
            format!(
                "simulated fidelity {} {}: {:.6} +- {:.6} ({} shots)",
                architectures()[p.arch].name(),
                p.channel,
                e.mean,
                e.std_error,
                e.shots
            )
        })
        .collect()
}

/// The traced run's per-layer metrics.
fn layer_metrics(swept: &Swept, tracer: &Tracer) -> (Layers, Vec<String>) {
    let mut layers = Layers::default();
    let mut problems = Vec::new();
    let mut stats = ShotStats::default();
    swept
        .estimates
        .iter()
        .for_each(|(_, s)| stats.merge_from(s));
    layers.set("sim.shots", stats.shots as f64);
    layers.set("sim.replayed_shots", stats.replayed as f64);
    layers.set(
        "sim.replay_ratio",
        ratio(stats.replayed as f64, stats.shots as f64),
    );
    layers.set("sim.faults_injected", stats.faults as f64);
    layers.set("sim.gate_applications", stats.gate_applications as f64);

    // Every point once more on one thread: the isolated shot cost, and a
    // check that the estimate does not depend on the thread count.
    let (mut serial_ns, mut ideal_gates) = (0.0, 0.0);
    for (i, (point, (estimate, _))) in swept.points.iter().zip(&swept.estimates).enumerate() {
        let b = &swept.built[point.arch];
        let config = ShotConfig::serial(SHOTS).with_seed(point.sampler.seed());
        let (serial, ns) = timed(|| {
            run_shots_stats(
                b.query.circuit().gates(),
                &b.input,
                Some(&b.keep),
                &config,
                &|shot| point.sampler.sample_shot(shot),
            )
        });
        if serial.as_ref().map(|(e, _)| e) != Ok(estimate) {
            problems.push(format!(
                "point {i}: the serial estimate differs from the 2-thread one"
            ));
        }
        serial_ns += ns as f64;
        ideal_gates += b.query.circuit().gates().len() as f64;
    }
    let total_shots = (swept.points.len() * SHOTS) as f64;
    layers.set("shots.ns_per_op", ratio(serial_ns, total_shots));
    layers.set(
        "sim.ns_per_gate_application",
        ratio(serial_ns, stats.gate_applications as f64 + ideal_gates),
    );

    let (mut paths, mut per_path_gate, mut reduced) = (Vec::new(), Vec::new(), Vec::new());
    for b in &swept.built {
        let gates = b.query.circuit().gates();
        let mut ideal = b.input.clone();
        if let Err(e) = qram::sim::run(gates, &mut ideal) {
            problems.push(format!("ideal run failed: {e:?}"));
            continue;
        }
        let run_ns = median_call_ns(5, || {
            let mut state = b.input.clone();
            qram::sim::run(gates, &mut state)
        });
        paths.push(ideal.num_paths() as f64);
        per_path_gate.push(ratio(run_ns, (b.input.num_paths() * gates.len()) as f64));
        reduced.push(median_call_ns(5, || {
            ideal.reduced_fidelity(&ideal, &b.keep)
        }));
    }
    let mean = |v: &[f64]| ratio(v.iter().sum(), v.len() as f64);
    layers.set("slab.paths", mean(&paths));
    layers.set("slab.ns_per_path_gate", mean(&per_path_gate));
    layers.set("slab.reduced_fidelity_ns", mean(&reduced));
    const SAMPLES: u64 = 1024;
    let sample: Vec<f64> = swept
        .points
        .iter()
        .map(|p| {
            let (_, ns) = timed(|| {
                for shot in 0..SAMPLES {
                    std::hint::black_box(p.sampler.sample_shot(shot));
                }
            });
            ns as f64 / SAMPLES as f64
        })
        .collect();
    layers.set("sampler.qps_sample_ns", mean(&sample));
    layers.set("build.ms", median(&tracer.durations_ns("build")) / 1e6);
    layers.set(
        "sampler.build_ms",
        median(&tracer.durations_ns("sampler.build")) / 1e6,
    );
    (layers, problems)
}
