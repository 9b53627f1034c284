//! `fleet-overload`: an open loop of Poisson offers at twice the modeled
//! capacity of a 4-shard fleet recording telemetry.
//!
//! Why: the control plane does the work here — rendezvous routing,
//! shed-victim scans over up to 1024 parked requests, the shard event
//! loops and the telemetry recorder. Readouts are 9–320 gates and
//! nothing compiles after first use. One operation is one offer handled
//! at the front door: admitted and served, or shed. Shedding is the
//! front door's designed answer to overload, so a shed offer is a
//! handled operation; a failed one is an offer that is lost or served a
//! wrong value.

use qram::core::Memory;
use qram::fleet::{FleetConfig, FleetController, FleetResult, ShedPolicy};
use qram::plan::{planned_families, planning_memory, UNLIMITED_BUDGET};
use qram::service::{
    assign_specs_with, ArrivalProcess, QuerySpec, Recorder, ServiceConfig, SloClass, SpecMix,
    TelemetryRecorder, TenantId, Ticks, Workload,
};
use qram::telemetry::{fnv1a_64, host_wall, key, Histogram, MetricsRegistry};
use std::collections::{BTreeMap, BTreeSet};

use crate::metrics::Layers;
use crate::rounds::{run_rounds, timed_setup, Outcome, Pass, Round};
use crate::serving::{
    retime_specs, set_cache_hit_layer, set_compile_layers, set_readout_layers, wrong_values,
};
use crate::stats::{elapsed_ns, median, memory_bits, percentile, ratio, timed, Digest};
use crate::trace::Tracer;
use crate::Settings;

const WIDTH: usize = 4;
const SHARDS: usize = 4;
const LOAD: f64 = 2.0;
const TENANTS: u64 = 3;
const SLO_DEADLINE: Ticks = 60_000;
const CACHE: usize = 8;
/// Offers per round: enough to fill the 1024-slot front door many
/// times over.
const OFFERS: usize = 49_152;

/// One generated offer; `spec` indexes the planner's family list.
#[derive(Debug, Clone, Copy)]
struct Offer {
    address: u64,
    spec: usize,
    arrival: Ticks,
    tenant: TenantId,
    slo: SloClass,
}

/// The generated inputs.
struct Inputs {
    seed: u64,
    bits: Vec<bool>,
    reference: Memory,
    offers: Vec<Offer>,
    capacity_rps: f64,
}

fn planned_specs() -> Vec<QuerySpec> {
    planned_families(WIDTH, UNLIMITED_BUDGET)
        .into_iter()
        .map(QuerySpec::of)
        .collect()
}

fn fleet_config(seed: u64) -> FleetConfig {
    let shard = ServiceConfig::default()
        .with_workers(1)
        .with_shots(0)
        .with_seed(seed)
        .with_batch_limit(32)
        .with_cache_capacity(CACHE)
        .with_queue_capacity(64)
        .with_deadline(20_000);
    FleetConfig::default()
        .with_shards(SHARDS)
        .with_shard_base(shard)
        .with_front_capacity(1024)
        .with_shed_policy(ShedPolicy::DeadlinePriority)
        .with_replication(2)
}

fn inputs(seed: u64) -> Inputs {
    let bits = memory_bits(WIDTH, seed);
    let reference = Memory::from_bits(bits.iter().copied());
    let specs = planned_specs();
    // Priced on the planner's memory image, so the offered rate does
    // not depend on the seed.
    let pricing = planning_memory(WIDTH);
    let cost = fleet_config(seed).shard_base.cost;
    let mean_execute = specs
        .iter()
        .map(|s| cost.execute_cost(&s.arch.instantiate().resources(&pricing), 0))
        .sum::<u64>() as f64
        / specs.len() as f64;
    let capacity_rps = cost.capacity_rps(mean_execute.round() as u64) * SHARDS as f64;
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
        theta: 0.9,
        seed: seed ^ 0x51ce,
    };
    let offers = assign_specs_with(&workload, &specs, mix, OFFERS)
        .into_iter()
        .zip(arrivals)
        .enumerate()
        .map(|(i, ((address, spec), arrival))| {
            let tag = fnv1a_64(
                (i as u64)
                    .to_le_bytes()
                    .into_iter()
                    .chain(seed.to_le_bytes()),
            );
            Offer {
                address,
                spec: specs
                    .iter()
                    .position(|s| *s == spec)
                    .expect("picked from specs"),
                arrival,
                tenant: TenantId((tag % TENANTS) as u32),
                slo: match i % 4 {
                    0 => SloClass::Interactive {
                        deadline: SLO_DEADLINE,
                    },
                    3 => SloClass::BestEffort,
                    _ => SloClass::Batch,
                },
            }
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

/// Offers between two harvests of completed results.
const HARVEST_EVERY: usize = 4096;

/// What a round keeps of its results. Results are absorbed as they are
/// harvested, so the benchmark's own storage does not grow with the
/// completed count.
#[derive(Debug, Default)]
struct Tally {
    completed: u64,
    wrong: u64,
    digest: Digest,
    /// Door-to-done virtual latency, all completions and interactive.
    door_to_done: Histogram,
    interactive: Histogram,
    /// Completions per `(spec index, address)`.
    pairs: BTreeMap<(usize, u64), u64>,
    /// `(shard, spec index)` placements that served a request.
    placements: BTreeSet<(usize, usize)>,
}

impl Tally {
    fn absorb(&mut self, results: Vec<FleetResult>, specs: &[QuerySpec], reference: &Memory) {
        self.wrong += wrong_values(
            results.iter().map(|r| (r.result.address, r.result.value)),
            reference,
        );
        for r in results {
            self.completed += 1;
            for word in [
                r.seq,
                r.shard as u64,
                u64::from(r.result.value),
                r.front_wait,
                r.result.completed,
                r.result.latency.queue_wait,
                r.result.latency.compile,
                r.result.latency.execute,
            ] {
                self.digest.add(word);
            }
            self.door_to_done.record(r.total_latency());
            if matches!(r.slo, SloClass::Interactive { .. }) {
                self.interactive.record(r.total_latency());
            }
            let spec = specs
                .iter()
                .position(|s| *s == r.result.spec)
                .expect("served specs are planned specs");
            *self.pairs.entry((spec, r.result.address)).or_default() += 1;
            self.placements.insert((r.shard, spec));
        }
    }
}

/// One round's served output.
struct Served<R: Recorder> {
    fleet: FleetController<R>,
    specs: Vec<QuerySpec>,
    tally: Tally,
    shed: u64,
}

/// Builds the fleet (timed as set-up), offers every input, runs the
/// fleet to idle (timed as the operations), and checks the outputs.
fn round<R: Recorder>(
    inputs: &Inputs,
    tracer: &mut Tracer,
    build: impl Fn(Memory, FleetConfig) -> FleetController<R>,
) -> (Round, Served<R>) {
    let ((specs, mut fleet), setup_ns) = timed_setup(tracer, |tracer| {
        let specs = tracer.span("plan.planned_families", 0, planned_specs);
        let fleet = tracer.span("build", 0, || {
            build(
                Memory::from_bits(inputs.bits.iter().copied()),
                fleet_config(inputs.seed),
            )
        });
        (specs, fleet)
    });

    let start = host_wall();
    let serve = tracer.begin("serve", 0);
    let mut tally = Tally::default();
    let mut absorb_ns = 0;
    let mut shed = Digest::default();
    let mut shed_count = 0u64;
    for (i, o) in inputs.offers.iter().enumerate() {
        let call = tracer.begin("fleet.submit_at", i as u64);
        let admission = fleet.submit_at(o.address, specs[o.spec], o.arrival, o.tenant, o.slo);
        tracer.end(call);
        if let Some(victim) = admission.shed {
            shed.add(victim.seq);
            shed_count += 1;
        }
        if i % HARVEST_EVERY == HARVEST_EVERY - 1 {
            let done = tracer.span("fleet.take_completed", i as u64, || fleet.take_completed());
            absorb_ns += timed(|| tally.absorb(done, &specs, &inputs.reference)).1;
        }
    }
    let done = tracer.span("fleet.run_until_idle", 0, || fleet.run_until_idle());
    tracer.end(serve);
    // The benchmark's own bookkeeping is not the system's work.
    let op_ns = elapsed_ns(start).saturating_sub(absorb_ns);
    tally.absorb(done, &specs, &inputs.reference);

    let offered = inputs.offers.len() as u64;
    let handled = tally.completed + shed_count;
    let mut problems = Vec::new();
    if tally.wrong > 0 {
        problems.push(format!(
            "{} served values differ from Memory::get",
            tally.wrong
        ));
    }
    if handled != offered || fleet.stats().offered != offered {
        problems.push(format!(
            "offered {offered} != completed {} + shed {shed_count} + rejected 0",
            tally.completed
        ));
    }
    tally.digest.add(shed.value());
    let round = Round {
        setup_ns,
        ops: offered,
        op_ns,
        failed: tally.wrong + offered.saturating_sub(handled),
        digest: tally.digest.value(),
        problems,
    };
    let served = Served {
        fleet,
        specs,
        tally,
        shed: shed_count,
    };
    (round, served)
}

/// Modeled (virtual-clock) statistics of one round.
fn modeled(inputs: &Inputs, served: &Served<TelemetryRecorder>) -> Vec<String> {
    let tally = &served.tally;
    vec![
        format!(
            "modeled capacity_rps {:.1}, offered_rps {:.1}, offered {}, completed {}, shed {}",
            inputs.capacity_rps,
            inputs.capacity_rps * LOAD,
            inputs.offers.len(),
            tally.completed,
            served.shed
        ),
        format!(
            "modeled door_to_done_ns p50 {}, p99 {}; interactive p99 {}",
            tally.door_to_done.percentile(50.0),
            tally.door_to_done.percentile(99.0),
            tally.interactive.percentile(99.0)
        ),
    ]
}

/// Runs `fleet-overload`.
pub fn run(settings: &Settings) -> Outcome {
    let inputs = inputs(settings.seed);
    let (mut outcome, last_traced) = run_rounds(
        settings,
        &[Pass::Plain, Pass::Traced, Pass::Noop],
        |pass, tracer| match pass {
            Pass::Noop => (round(&inputs, tracer, FleetController::new).0, None),
            _ => {
                let (done, served) = round(&inputs, tracer, FleetController::with_telemetry);
                (done, Some(served))
            }
        },
        |served| modeled(&inputs, served),
    );
    if let Some(served) = last_traced {
        (outcome.layers, outcome.problems) = layer_metrics(&inputs, &served, &outcome.tracer);
        // Time with the telemetry recorder over time with the no-op one.
        let telemetry = ratio(
            outcome.ops_per_s(Pass::Noop),
            outcome.ops_per_s(Pass::Plain),
        );
        outcome.layers.set("telemetry.overhead_ratio", telemetry);
    }
    outcome
}

/// The traced run's per-layer metrics, from its spans, the last traced
/// round's counters, and isolated re-timings on its inputs.
fn layer_metrics(
    inputs: &Inputs,
    served: &Served<TelemetryRecorder>,
    tracer: &Tracer,
) -> (Layers, Vec<String>) {
    let mut layers = Layers::default();
    let fleet = &served.fleet;
    let specs = &served.specs;
    let offers = inputs.offers.len() as f64;

    let submit = tracer.durations_ns("fleet.submit_at");
    layers.set("fleet.submit_at_p50_ns", percentile(&submit, 50.0));
    layers.set("fleet.submit_at_p99_ns", percentile(&submit, 99.0));
    let metrics: MetricsRegistry = fleet.metrics_snapshot();
    let routed = metrics.counter(key::FLEET_ROUTED) as f64;
    layers.set("fleet.routed", routed);
    layers.set("fleet.shed", metrics.counter(key::FLEET_SHED) as f64);
    layers.set(
        "fleet.replica_cache_wins",
        metrics.counter(key::FLEET_REPLICA_CACHE_WINS) as f64,
    );
    layers.set(
        "fleet.front_depth_high_water",
        metrics.gauge(key::FLEET_FRONT_DEPTH_HIGH_WATER) as f64,
    );
    let spans = fleet.recorder().tracer().len()
        + fleet
            .shards()
            .iter()
            .map(|s| s.recorder().tracer().len())
            .sum::<usize>();
    layers.set("telemetry.spans", spans as f64);

    layers.set(
        "service.batches_fired",
        metrics.counter(key::BATCHES_FIRED) as f64,
    );
    let mut sizes = Histogram::new();
    for shard in fleet.shards() {
        if let Some(h) = shard.recorder().metrics().histogram(key::BATCH_SIZE) {
            sizes.merge_from(h);
        }
    }
    layers.set("service.batch_size_p50", sizes.percentile(50.0) as f64);
    layers.set(
        "admission.shed",
        metrics.counter(key::ADMISSION_SHED) as f64,
    );
    let (hits, misses, evictions) = fleet.shards().iter().fold((0, 0, 0), |acc, s| {
        let c = s.cache_stats();
        (acc.0 + c.hits, acc.1 + c.misses, acc.2 + c.evictions)
    });
    layers.set("cache.hits", hits as f64);
    layers.set("cache.misses", misses as f64);
    layers.set("cache.evictions", evictions as f64);
    layers.set(
        "cache.hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
    );

    let costs = retime_specs(specs, &inputs.reference, 5);
    set_cache_hit_layer(&mut layers, &costs, CACHE);
    // The cache holds every planned spec, so each shard compiled each
    // spec it served exactly once.
    let misses: Vec<usize> = served
        .tally
        .placements
        .iter()
        .map(|&(_, spec)| spec)
        .collect();
    let compile_ns = set_compile_layers(&mut layers, &costs, &misses);
    let (readout_ns, problems) = set_readout_layers(
        &mut layers,
        &costs,
        &served.tally.pairs,
        &inputs.reference,
        16,
    );

    let router = fleet.router();
    let (_, route_total) = timed(|| {
        for o in &inputs.offers {
            std::hint::black_box(router.route(&specs[o.spec], fleet.shards()));
        }
    });
    let route_ns = route_total as f64 / offers;
    layers.set("fleet.route_ns", route_ns);

    let traced_rounds = tracer.durations_ns("serve").len() as f64;
    let serving: f64 = [
        "fleet.submit_at",
        "fleet.take_completed",
        "fleet.run_until_idle",
    ]
    .iter()
    .map(|name| tracer.durations_ns(name).iter().sum::<f64>())
    .sum::<f64>()
        / traced_rounds.max(1.0);
    let inner = route_ns * routed + compile_ns + readout_ns;
    layers.set("service.self_ns_per_op", (serving - inner) / offers);

    layers.set(
        "plan.ms",
        median(&tracer.durations_ns("plan.planned_families")) / 1e6,
    );
    layers.set("build.ms", median(&tracer.durations_ns("build")) / 1e6);
    (layers, problems)
}
