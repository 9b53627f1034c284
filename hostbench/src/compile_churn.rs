//! `compile-churn`: an open loop of Poisson offers at half the modeled
//! capacity into a bare service whose 2-entry cache faces all 23
//! family candidates at n = 8 under zipf(0.5) spec skew.
//!
//! Why: the spec working set far exceeds the cache, so most batches
//! miss, and each miss compiles and structurally verifies a circuit
//! (0.06–0.8 ms) against 0.03–0.3 ms per readout. One operation is one
//! served request; a shed or rejected offer is a failed one.

use std::collections::BTreeMap;

use qram::core::{ArchSpec, Memory};
use qram::plan::planning_memory;
use qram::service::{
    assign_specs_with, Admission, ArrivalProcess, BatchReport, QramService, QueryResult, QuerySpec,
    ServiceConfig, SpecMix, Ticks, Workload,
};
use qram::telemetry::{host_wall, key};

use crate::metrics::Layers;
use crate::rounds::{run_rounds, timed_setup, Outcome, Pass, Round};
use crate::serving::{
    retime_specs, set_cache_hit_layer, set_compile_layers, set_readout_layers, wrong_values,
};
use crate::stats::{elapsed_ns, median, memory_bits, percentile, Digest};
use crate::trace::Tracer;
use crate::Settings;

const WIDTH: usize = 8;
const LOAD: f64 = 0.5;
const CACHE: usize = 2;
/// Far above the queue depth half-capacity Poisson traffic reaches, so
/// no offer is shed.
const QUEUE: usize = 4096;
/// Offers per round.
const OFFERS: usize = 2_048;
/// Offers between two polls for completed results.
const POLL_EVERY: usize = 256;

/// One generated offer; `spec` indexes the family candidates.
#[derive(Debug, Clone, Copy)]
struct Offer {
    address: u64,
    spec: usize,
    arrival: Ticks,
}

struct Inputs {
    seed: u64,
    bits: Vec<bool>,
    reference: Memory,
    offers: Vec<Offer>,
    capacity_rps: f64,
}

fn candidate_specs() -> Vec<QuerySpec> {
    ArchSpec::family_candidates(WIDTH)
        .into_iter()
        .map(QuerySpec::of)
        .collect()
}

fn config(seed: u64) -> ServiceConfig {
    ServiceConfig::default()
        .with_workers(1)
        .with_shots(0)
        .with_seed(seed)
        .with_batch_limit(32)
        .with_cache_capacity(CACHE)
        .with_queue_capacity(QUEUE)
        .with_deadline(20_000)
}

fn inputs(seed: u64) -> Inputs {
    let bits = memory_bits(WIDTH, seed);
    let reference = Memory::from_bits(bits.iter().copied());
    let specs = candidate_specs();
    // Priced on the planner's memory image, so the offered rate does
    // not depend on the seed.
    let pricing = planning_memory(WIDTH);
    let cost = config(seed).cost;
    let mean_execute = specs
        .iter()
        .map(|s| cost.execute_cost(&s.arch.instantiate().resources(&pricing), 0))
        .sum::<u64>() as f64
        / specs.len() as f64;
    let capacity_rps = cost.capacity_rps(mean_execute.round() as u64);
    let arrivals = ArrivalProcess::Poisson {
        mean_gap: 1e9 / (LOAD * capacity_rps),
        seed: seed ^ 0x5eed,
    }
    .arrivals(OFFERS);
    let workload = Workload::Zipfian {
        address_width: WIDTH,
        theta: 0.99,
        seed,
    };
    let mix = SpecMix::Zipfian {
        theta: 0.5,
        seed: seed ^ 0x51ce,
    };
    let offers = assign_specs_with(&workload, &specs, mix, OFFERS)
        .into_iter()
        .zip(arrivals)
        .map(|((address, spec), arrival)| Offer {
            address,
            spec: specs
                .iter()
                .position(|s| *s == spec)
                .expect("picked from specs"),
            arrival,
        })
        .collect();
    Inputs {
        seed,
        bits,
        reference,
        offers,
        capacity_rps,
    }
}

/// One round's served output.
struct Served {
    service: QramService,
    specs: Vec<QuerySpec>,
    results: Vec<QueryResult>,
    batches: Vec<BatchReport>,
}

fn round(inputs: &Inputs, tracer: &mut Tracer) -> (Round, Served) {
    let ((specs, mut service), setup_ns) = timed_setup(tracer, |tracer| {
        tracer.span("build", 0, || {
            let memory = Memory::from_bits(inputs.bits.iter().copied());
            (
                candidate_specs(),
                QramService::new(memory, config(inputs.seed)),
            )
        })
    });

    let start = host_wall();
    let serve = tracer.begin("serve", 0);
    let (mut accepted, mut refused) = (0u64, 0u64);
    let mut results = Vec::with_capacity(inputs.offers.len());
    for (i, o) in inputs.offers.iter().enumerate() {
        let call = tracer.begin("service.try_submit_at", i as u64);
        let admission = service.try_submit_at(o.address, specs[o.spec], o.arrival);
        tracer.end(call);
        match admission {
            Admission::Accepted(_) => accepted += 1,
            Admission::Shed { .. } | Admission::Rejected(_) => refused += 1,
        }
        if i % POLL_EVERY == POLL_EVERY - 1 {
            results.extend(tracer.span("service.poll", i as u64, || service.poll(o.arrival)));
        }
    }
    results.extend(tracer.span("service.run_until_idle", 0, || service.run_until_idle()));
    tracer.end(serve);
    let op_ns = elapsed_ns(start);
    let batches = service.take_batch_reports();

    let offered = inputs.offers.len() as u64;
    let wrong = wrong_values(
        results.iter().map(|r| (r.address, r.value)),
        &inputs.reference,
    );
    let admission = service.admission_stats();
    let mut problems = Vec::new();
    if wrong > 0 {
        problems.push(format!("{wrong} served values differ from Memory::get"));
    }
    if admission.offered() != offered || accepted != results.len() as u64 {
        problems.push(format!(
            "offered {offered} != completed {} + shed {} + rejected {}",
            results.len(),
            admission.shed,
            admission.rejected
        ));
    }
    let mut digest = Digest::default();
    for r in &results {
        for word in [
            r.id,
            r.address,
            u64::from(r.value),
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
        failed: wrong + refused + accepted.saturating_sub(results.len() as u64),
        digest: digest.value(),
        problems,
    };
    let served = Served {
        service,
        specs,
        results,
        batches,
    };
    (round, served)
}

/// Modeled (virtual-clock) statistics of one round.
fn modeled(inputs: &Inputs, served: &Served) -> Vec<String> {
    let totals: Vec<f64> = served
        .results
        .iter()
        .map(|r| r.latency.total() as f64)
        .collect();
    let missed = served.batches.iter().filter(|b| b.compile > 0).count();
    vec![format!(
        "modeled capacity_rps {:.1}, offered_rps {:.1}; latency_ns p50 {:.0}, p99 {:.0}; batches {}, compiled {missed}",
        inputs.capacity_rps,
        inputs.capacity_rps * LOAD,
        percentile(&totals, 50.0),
        percentile(&totals, 99.0),
        served.batches.len()
    )]
}

/// Runs `compile-churn`.
pub fn run(settings: &Settings) -> Outcome {
    let inputs = inputs(settings.seed);
    let (mut outcome, last_traced) = run_rounds(
        settings,
        &[Pass::Plain, Pass::Traced],
        |_, tracer| {
            let (done, served) = round(&inputs, tracer);
            (done, Some(served))
        },
        |served| modeled(&inputs, served),
    );
    if let Some(served) = last_traced {
        (outcome.layers, outcome.problems) = layer_metrics(&inputs, &served, &outcome.tracer);
    }
    outcome
}

/// The traced run's per-layer metrics.
fn layer_metrics(inputs: &Inputs, served: &Served, tracer: &Tracer) -> (Layers, Vec<String>) {
    let mut layers = Layers::default();
    let offers = inputs.offers.len() as f64;
    let submit = tracer.durations_ns("service.try_submit_at");
    layers.set("service.try_submit_at_p50_ns", percentile(&submit, 50.0));
    layers.set("service.try_submit_at_p99_ns", percentile(&submit, 99.0));
    let metrics = served.service.metrics_snapshot();
    layers.set(
        "service.batches_fired",
        metrics.counter(key::BATCHES_FIRED) as f64,
    );
    let sizes: Vec<f64> = served.batches.iter().map(|b| b.requests as f64).collect();
    layers.set("service.batch_size_p50", percentile(&sizes, 50.0));
    layers.set(
        "admission.shed",
        metrics.counter(key::ADMISSION_SHED) as f64,
    );
    let cache = served.service.cache_stats();
    layers.set("cache.hits", cache.hits as f64);
    layers.set("cache.misses", cache.misses as f64);
    layers.set("cache.evictions", cache.evictions as f64);
    layers.set("cache.hit_ratio", cache.hit_rate());

    let spec_index = |spec: &QuerySpec| {
        served
            .specs
            .iter()
            .position(|s| s == spec)
            .expect("served specs are candidates")
    };
    let costs = retime_specs(&served.specs, &inputs.reference, 3);
    set_cache_hit_layer(&mut layers, &costs, CACHE);
    let misses: Vec<usize> = served
        .batches
        .iter()
        .filter(|b| b.compile > 0)
        .map(|b| spec_index(&b.spec))
        .collect();
    let compile_ns = set_compile_layers(&mut layers, &costs, &misses);
    let mut pairs: BTreeMap<(usize, u64), u64> = BTreeMap::new();
    for r in &served.results {
        *pairs.entry((spec_index(&r.spec), r.address)).or_default() += 1;
    }
    let (readout_ns, problems) =
        set_readout_layers(&mut layers, &costs, &pairs, &inputs.reference, 3);

    let traced_rounds = tracer.durations_ns("serve").len() as f64;
    let serving: f64 = [
        "service.try_submit_at",
        "service.poll",
        "service.run_until_idle",
    ]
    .iter()
    .map(|name| tracer.durations_ns(name).iter().sum::<f64>())
    .sum::<f64>()
        / traced_rounds.max(1.0);
    layers.set(
        "service.self_ns_per_op",
        (serving - compile_ns - readout_ns) / offers,
    );
    layers.set("build.ms", median(&tracer.durations_ns("build")) / 1e6);
    (layers, problems)
}
