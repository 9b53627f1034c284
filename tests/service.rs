//! Integration tests of the `qram-service` serving layer through the
//! facade — including the acceptance pins: a 1k-request zipfian
//! workload served through the batching scheduler with a > 80%
//! circuit-cache hit rate and bit-identical results across worker
//! counts, and an open-loop overload scenario where reported p99
//! latency includes queueing delay (growing with queue depth) while
//! back-pressure sheds the excess.

use qram::core::Memory;
use qram::service::{
    assign_specs, assign_specs_with, mixed_arch_specs, Admission, ArrivalProcess, CostModel,
    QramService, QueryResult, QuerySpec, ReleasePolicy, ServiceConfig, ServiceReport, SpecMix,
    Ticks, Workload,
};
use qram::telemetry::key;
use rand::rngs::StdRng;
use rand::SeedableRng;

const N: usize = 4;

fn serve_memory() -> Memory {
    Memory::random(N, &mut StdRng::seed_from_u64(2023))
}

/// The hot circuit shapes the 1k workload cycles over.
fn hot_specs() -> Vec<QuerySpec> {
    use qram::core::{DataEncoding, Optimizations};
    vec![
        QuerySpec::new(1, 3),
        QuerySpec::new(2, 2),
        QuerySpec::new(1, 3)
            .try_with_encoding(DataEncoding::FusedBit)
            .unwrap(),
        QuerySpec::new(2, 2)
            .try_with_optimizations(Optimizations::OPT2)
            .unwrap(),
    ]
}

fn serve_1k(workers: usize) -> ServiceReport {
    let workload = Workload::Zipfian {
        address_width: N,
        theta: 0.99,
        seed: 41,
    };
    let config = ServiceConfig::default()
        .with_workers(workers)
        .with_shots(4)
        .with_seed(7)
        .with_batch_limit(16);
    let mut service = QramService::new(serve_memory(), config);
    let admitted = service.submit_all(assign_specs(&workload, &hot_specs(), 1000));
    assert_eq!(admitted, 1000);
    service.drain()
}

#[test]
fn zipfian_1k_acceptance_hit_rate_and_worker_determinism() {
    let serial = serve_1k(1);
    assert_eq!(serial.results.len(), 1000);

    // Acceptance: hot configurations skip rebuild — > 80% of batch
    // lookups are served from the compiled-circuit cache (only the 4
    // distinct specs ever compile).
    assert_eq!(serial.cache.misses, hot_specs().len() as u64);
    assert!(
        serial.cache.hit_rate() > 0.8,
        "hit rate {:.3}",
        serial.cache.hit_rate()
    );
    assert_eq!(serial.cache.evictions, 0);

    // Acceptance: batched estimates are bit-identical across worker
    // counts — full QueryResult equality, fidelity estimates included.
    let quad = serve_1k(4);
    assert_eq!(serial.results, quad.results);
    assert_eq!(serial.cache, quad.cache);
    assert_eq!(quad.workers, 4);

    // The served values are the memory's ground truth.
    let memory = serve_memory();
    for result in &serial.results {
        assert_eq!(
            result.value,
            memory.get(result.address as usize),
            "address {}",
            result.address
        );
        let f = result.fidelity;
        assert_eq!(f.shots, 4);
        assert!((0.0..=1.0 + 1e-9).contains(&f.mean));
    }
}

#[test]
fn sequential_scan_reads_back_the_whole_memory() {
    let memory = serve_memory();
    let workload = Workload::SequentialScan { address_width: N };
    let mut service = QramService::new(
        memory.clone(),
        ServiceConfig::default().with_shots(0).with_workers(2),
    );
    service.submit_all(assign_specs(&workload, &[QuerySpec::new(1, 3)], 16));
    let report = service.drain();
    let bits: Vec<bool> = report.results.iter().map(|r| r.value).collect();
    assert_eq!(bits, memory.bits());
}

#[test]
fn grover_trace_is_one_hot_and_cache_resident() {
    let workload = Workload::GroverTrace {
        address_width: N,
        target: 11,
    };
    let mut service = QramService::new(
        serve_memory(),
        ServiceConfig::default().with_shots(0).with_batch_limit(8),
    );
    service.submit_all(assign_specs(&workload, &[QuerySpec::new(2, 2)], 64));
    let report = service.drain();
    assert!(report.results.iter().all(|r| r.address == 11));
    // 64 requests in batches of 8: one compile, seven hits.
    assert_eq!(report.cache.misses, 1);
    assert_eq!(report.cache.hits, 7);
}

/// Nearest-rank percentile over the results' end-to-end virtual
/// latencies.
fn latency_percentile(results: &[QueryResult], q: f64) -> f64 {
    let mut totals: Vec<f64> = results.iter().map(|r| r.latency.total() as f64).collect();
    totals.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let rank = ((q / 100.0) * totals.len() as f64).ceil() as usize;
    totals[rank.clamp(1, totals.len()) - 1]
}

/// Drives an open-loop Poisson stream at 4x the modeled capacity
/// through a bounded queue; returns the completed results and the shed
/// count.
fn serve_overloaded(workers: usize, queue_capacity: usize) -> (Vec<QueryResult>, u64) {
    let config = ServiceConfig::default()
        .with_shots(2)
        .with_seed(11)
        .with_workers(workers)
        .with_batch_limit(8)
        .with_deadline(5_000)
        .with_queue_capacity(queue_capacity);
    let memory = serve_memory();
    let spec = QuerySpec::new(1, 3);
    // The modeled per-request cost fixes capacity; offer 4x that rate.
    let resources = spec.arch.instantiate().resources(&memory);
    let execute = config.cost.execute_cost(&resources, config.shots);
    let mean_gap = execute as f64 / (4.0 * config.cost.units as f64);
    let arrivals = ArrivalProcess::Poisson { mean_gap, seed: 3 }.arrivals(400);

    let mut service = QramService::new(memory, config);
    for (i, &arrival) in arrivals.iter().enumerate() {
        match service.try_submit_at(i as u64 % 16, spec, arrival) {
            Admission::Accepted(_) | Admission::Shed { .. } => {}
            Admission::Rejected(reason) => panic!("rejected: {reason}"),
        }
    }
    let results = service.run_until_idle();
    let stats = service.admission_stats();
    assert_eq!(stats.accepted as usize, results.len());
    assert_eq!(stats.offered(), 400);
    (results, stats.shed)
}

#[test]
fn overload_p99_includes_queueing_grows_with_queue_depth_and_sheds() {
    let (results, shed) = serve_overloaded(1, 32);
    // Back-pressure: the bounded queue shed a real fraction of the 4x
    // overload instead of queueing it forever.
    assert!(shed > 50, "shed {shed}");
    assert!(!results.is_empty());

    // Honest percentiles: at 4x overload the p99 is dominated by
    // queueing delay, not by compile + execute.
    let p99 = latency_percentile(&results, 99.0);
    let served_cost = results
        .iter()
        .map(|r| (r.latency.compile + r.latency.execute) as f64)
        .fold(0.0f64, f64::max);
    assert!(
        p99 > 3.0 * served_cost,
        "p99 {p99} vs max compile+execute {served_cost}"
    );
    let p99_queue_wait = {
        let mut waits: Vec<f64> = results
            .iter()
            .map(|r| r.latency.queue_wait as f64)
            .collect();
        waits.sort_by(|a, b| a.partial_cmp(b).unwrap());
        waits[waits.len() * 99 / 100]
    };
    assert!(p99_queue_wait > served_cost, "queueing dominates the tail");
    // The breakdown partitions the end-to-end time exactly.
    for r in &results {
        assert_eq!(r.completed - r.arrival, r.latency.total());
    }

    // A deeper bounded queue admits more and waits longer: p99 grows
    // with queue depth, shedding shrinks.
    let (deeper_results, deeper_shed) = serve_overloaded(1, 128);
    assert!(deeper_shed < shed, "{deeper_shed} vs {shed}");
    assert!(deeper_results.len() > results.len());
    let deeper_p99 = latency_percentile(&deeper_results, 99.0);
    assert!(
        deeper_p99 > 1.5 * p99,
        "queue 128 p99 {deeper_p99} vs queue 32 p99 {p99}"
    );
}

#[test]
fn overloaded_results_are_bit_identical_across_worker_counts() {
    // The work-stealing executor is a pure throughput knob even under
    // overload: results (fidelity estimates, latency breakdowns, shed
    // accounting) are bit-identical for any real worker count.
    let (serial, serial_shed) = serve_overloaded(1, 64);
    for workers in [2, 4] {
        let (parallel, parallel_shed) = serve_overloaded(workers, 64);
        assert_eq!(serial, parallel, "workers = {workers}");
        assert_eq!(serial_shed, parallel_shed);
    }
}

#[test]
fn spec_skewed_traffic_moves_eviction_counters() {
    use qram::core::{DataEncoding, Optimizations};
    // Six hot shapes through a 3-entry cache: zipf-skewed assignment
    // keeps the head resident while the tail churns the LRU.
    let specs = vec![
        QuerySpec::new(1, 3),
        QuerySpec::new(2, 2),
        QuerySpec::new(3, 1),
        QuerySpec::new(1, 3)
            .try_with_encoding(DataEncoding::FusedBit)
            .unwrap(),
        QuerySpec::new(2, 2)
            .try_with_encoding(DataEncoding::FusedBit)
            .unwrap(),
        QuerySpec::new(1, 3)
            .try_with_optimizations(Optimizations::OPT2)
            .unwrap(),
    ];
    let memory = serve_memory();
    let config = ServiceConfig::default()
        .with_shots(0)
        .with_cache_capacity(3)
        .with_batch_limit(4);
    let mut service = QramService::new(memory.clone(), config);
    let workload = Workload::Zipfian {
        address_width: N,
        theta: 0.99,
        seed: 5,
    };
    let mix = SpecMix::Zipfian {
        theta: 1.1,
        seed: 23,
    };
    service.submit_all(assign_specs_with(&workload, &specs, mix, 512));
    let report = service.drain();
    // Eviction pressure is real and fully accounted.
    assert!(report.cache.evictions > 0, "{:?}", report.cache);
    assert!(report.cache.hits > 0);
    assert_eq!(
        report.cache.lookups,
        report.cache.hits + report.cache.misses
    );
    // Skew keeps the head shapes hot: far fewer compiles than lookups.
    assert!(report.cache.hit_rate() > 0.5, "{:?}", report.cache);
    // Thrash or not, every answer is the memory's ground truth.
    for result in &report.results {
        assert_eq!(result.value, memory.get(result.address as usize));
    }
}

/// Acceptance (ISSUE 5): every `ArchSpec` family at n = 3 is servable
/// through `QramService`, and the served values match the architecture's
/// own `query_classical` ground truth computed outside the service.
#[test]
fn every_architecture_family_serves_ground_truth_at_n3() {
    let memory = Memory::random(3, &mut StdRng::seed_from_u64(5));
    for spec in mixed_arch_specs(3) {
        let arch = spec.arch;
        // Direct ground truth through the architecture itself.
        let direct = arch.instantiate().build(&memory);
        let truth: Vec<bool> = (0..8u64)
            .map(|a| direct.query_classical(a).unwrap())
            .collect();
        // Served through the full pipeline.
        let config = ServiceConfig::default().with_shots(0).with_workers(2);
        let mut service = QramService::new(memory.clone(), config);
        for address in 0..8u64 {
            service.submit(address, spec);
        }
        let report = service.drain();
        assert_eq!(report.results.len(), 8, "{}", arch.name());
        for result in &report.results {
            assert_eq!(
                result.value,
                truth[result.address as usize],
                "{} at address {}",
                arch.name(),
                result.address
            );
            assert_eq!(result.value, memory.get(result.address as usize));
            assert_eq!(result.spec.arch, arch);
        }
        assert_eq!(report.cache.misses, 1);
    }
}

/// Acceptance (ISSUE 5): a mixed-architecture zipfian workload through
/// one service — distinct cache keys per family, per-architecture cost
/// ticks from measured resources, and bit-identical results for any
/// worker count.
#[test]
fn mixed_arch_zipfian_workload_is_worker_count_invariant() {
    let memory = serve_memory();
    let specs = mixed_arch_specs(N);
    let workload = Workload::Zipfian {
        address_width: N,
        theta: 0.99,
        seed: 31,
    };
    let stream = assign_specs_with(
        &workload,
        &specs,
        SpecMix::Zipfian {
            theta: 0.8,
            seed: 9,
        },
        400,
    );
    let run = |workers: usize| {
        let config = ServiceConfig::default()
            .with_shots(4)
            .with_seed(13)
            .with_workers(workers)
            .with_cache_capacity(8)
            .with_batch_limit(8);
        let mut service = QramService::new(memory.clone(), config);
        service.submit_all(stream.clone());
        service.drain()
    };
    let serial = run(1);
    assert_eq!(serial.results.len(), 400);
    // Every family compiled exactly once: distinct keys, no cross-talk.
    assert_eq!(serial.cache.misses, specs.len() as u64);
    assert_eq!(serial.cache.evictions, 0);
    // Cost ticks are per-architecture: resources-calibrated execute.
    for result in &serial.results {
        let resources = result.spec.arch.instantiate().resources(&memory);
        assert_eq!(
            result.latency.execute,
            ServiceConfig::default().cost.execute_cost(&resources, 4),
            "{}",
            result.spec.arch.name()
        );
        assert_eq!(result.value, memory.get(result.address as usize));
    }
    // Bit-identity across worker counts, mixed architectures included.
    for workers in [2, 4] {
        let parallel = run(workers);
        assert_eq!(serial.results, parallel.results, "workers = {workers}");
        assert_eq!(serial.batches, parallel.batches);
        assert_eq!(serial.cache, parallel.cache);
    }
}

/// Work conservation keeps light-load p50 far below the deadline: an
/// idle device fires underfull batches on arrival instead of sitting
/// out the deadline.
#[test]
fn work_conservation_cuts_light_load_p50() {
    let memory = serve_memory();
    let spec = QuerySpec::new(1, 3);
    let deadline: Ticks = 50_000;
    // Light load: arrivals far apart relative to the per-request cost,
    // so the device is idle when each request lands.
    let arrivals = ArrivalProcess::Poisson {
        mean_gap: 400_000.0,
        seed: 7,
    }
    .arrivals(64);
    let config = ServiceConfig::default()
        .with_shots(0)
        .with_workers(1)
        .with_deadline(deadline)
        .with_batch_limit(16);
    let mut service = QramService::new(memory.clone(), config);
    for (i, &arrival) in arrivals.iter().enumerate() {
        assert!(service
            .try_submit_at(i as u64 % 16, spec, arrival)
            .is_accepted());
    }
    let results = service.run_until_idle();
    assert_eq!(results.len(), 64);
    let p50 = latency_percentile(&results, 50.0);
    assert!(
        p50 < deadline as f64 / 2.0,
        "p50 {p50} vs deadline {deadline}"
    );
    for r in &results {
        assert_eq!(r.value, memory.get(r.address as usize));
    }
}

#[test]
fn eviction_pressure_is_accounted_and_still_correct() {
    let memory = serve_memory();
    // Capacity 2 under 4 hot specs: the LRU thrashes but serves
    // correctly and counts evictions.
    let config = ServiceConfig::default()
        .with_shots(0)
        .with_cache_capacity(2)
        .with_batch_limit(4);
    let mut service = QramService::new(memory.clone(), config);
    let workload = Workload::Uniform {
        address_width: N,
        seed: 3,
    };
    service.submit_all(assign_specs(&workload, &hot_specs(), 64));
    let report = service.drain();
    assert!(report.cache.evictions > 0);
    for result in &report.results {
        assert_eq!(result.value, memory.get(result.address as usize));
    }
}

/// Serves a zipf-spec-skewed Poisson stream near the modeled capacity
/// under `policy`, over the planner's five-family mix and a cache two
/// entries small for it. The arrival stream, spec assignment and
/// addresses depend only on the fixed seeds — never on the policy — so
/// two policies serve byte-identical offered work, and the queue is
/// deep enough that nothing is shed.
fn serve_skewed_with_policy(policy: ReleasePolicy, workers: usize) -> Vec<QueryResult> {
    let memory = serve_memory();
    let specs: Vec<QuerySpec> = qram::plan::planned_families(N, usize::MAX)
        .into_iter()
        .map(QuerySpec::of)
        .collect();
    assert_eq!(specs.len(), 5, "one planned representative per family");
    let config = ServiceConfig::default()
        .with_shots(2)
        .with_seed(17)
        .with_workers(workers)
        .with_batch_limit(8)
        .with_cache_capacity(2)
        .with_queue_capacity(4096)
        .with_release_policy(policy);
    // Offer close to the modeled capacity: below it queues barely form,
    // far above it every group ages past the cap — the capacity point
    // is where the release policies actually diverge.
    let mean_execute = specs
        .iter()
        .map(|s| {
            config
                .cost
                .execute_cost(&s.arch.instantiate().resources(&memory), config.shots)
        })
        .sum::<u64>()
        / specs.len() as u64;
    let mean_gap = mean_execute as f64 / config.cost.units as f64;
    let arrivals = ArrivalProcess::Poisson { mean_gap, seed: 29 }.arrivals(400);
    let workload = Workload::Zipfian {
        address_width: N,
        theta: 0.99,
        seed: 31,
    };
    let submissions = assign_specs_with(
        &workload,
        &specs,
        SpecMix::Zipfian {
            theta: 0.9,
            seed: 37,
        },
        400,
    );
    let mut service = QramService::new(memory, config);
    for (&arrival, &(address, spec)) in arrivals.iter().zip(&submissions) {
        match service.try_submit_at(address, spec, arrival) {
            Admission::Accepted(_) => {}
            other => panic!("identical-arrivals premise broken: {other:?}"),
        }
    }
    let results = service.run_until_idle();
    assert_eq!(results.len(), 400);
    results
}

#[test]
fn cache_affine_dispatch_strictly_cuts_compile_ticks_on_identical_arrivals() {
    let mut oldest = serve_skewed_with_policy(ReleasePolicy::OldestFirst, 1);
    let mut affine = serve_skewed_with_policy(ReleasePolicy::cache_affine(), 1);
    // Completion order legitimately differs between policies; compare
    // request-by-request in admission order.
    oldest.sort_by_key(|r| r.id);
    affine.sort_by_key(|r| r.id);

    // Identical offered work: same ids, addresses, specs, arrivals.
    for (a, b) in oldest.iter().zip(&affine) {
        assert_eq!(
            (a.id, a.address, a.spec, a.arrival),
            (b.id, b.address, b.spec, b.arrival)
        );
    }
    // Acceptance: preferring cache-resident groups strictly reduces
    // the total compile ticks charged — fewer evict-recompile cycles
    // on the same arrival stream.
    let compile = |rs: &[QueryResult]| rs.iter().map(|r| r.latency.compile).sum::<u64>();
    let (c_oldest, c_affine) = (compile(&oldest), compile(&affine));
    assert!(
        c_affine < c_oldest,
        "cache-affine compile ticks {c_affine} must undercut oldest-first {c_oldest}"
    );
    // Both serve ground truth regardless of dispatch order.
    let memory = serve_memory();
    for r in oldest.iter().chain(&affine) {
        assert_eq!(r.value, memory.get(r.address as usize));
    }
}

#[test]
fn cache_affine_results_are_bit_identical_across_host_parallelism() {
    // The policy reads only virtual-time state (group arrival order +
    // cache residency), so the worker count is still a pure throughput
    // knob: full QueryResult equality, latency breakdowns and fidelity
    // estimates included.
    let reference = serve_skewed_with_policy(ReleasePolicy::cache_affine(), 1);
    for workers in [2, 4] {
        let run = serve_skewed_with_policy(ReleasePolicy::cache_affine(), workers);
        assert_eq!(reference, run, "results diverged at workers={workers}");
    }
}

#[test]
fn age_cap_bounds_a_cold_groups_queue_wait_without_deadlines() {
    // Batch-limit-only mode: the deadline never fires (`Ticks::MAX`
    // means "never" — pinned by the batcher) and the batch limit is
    // far above the offered group sizes, so the CacheAffine age cap is
    // the *only* anti-starvation mechanism in play.
    //
    // Starvation needs a precise shape: work conservation fires any
    // lone pending group the instant a unit frees, so the cold group
    // can only be passed over while a *resident* hot group is pending
    // at that same instant. With one execution unit, one hot request
    // arriving mid-way through every busy period guarantees exactly
    // that at every release point.
    let age_cap: Ticks = 30_000;
    let memory = serve_memory();
    let hot = QuerySpec::new(1, 3);
    let cold = QuerySpec::new(2, 2);
    let cost = CostModel::default().with_units(1);
    let config = ServiceConfig::default()
        .with_shots(0)
        .with_seed(5)
        .with_workers(1)
        .with_cost(cost)
        .with_batch_limit(64)
        .with_deadline(Ticks::MAX)
        .with_queue_capacity(4096)
        .with_release_policy(ReleasePolicy::CacheAffine { age_cap });
    let hot_resources = hot.arch.instantiate().resources(&memory);
    let c_h = cost.compile_cost(&hot_resources);
    let e_h = cost.execute_cost(&hot_resources, 0);
    let mut service = QramService::new(memory, config);

    // h0 fires immediately (empty queue, free unit) and occupies the
    // unit over [c_h, c_h + e_h). The cold request then pends behind
    // it; each later hot request i lands half a service period before
    // the unit frees at free_i = c_h + i·e_h, so every conserving
    // release sees heads = [cold, hot] with the hot group resident.
    match service.try_submit_at(1, hot, 0) {
        Admission::Accepted(_) => {}
        other => panic!("warm-up hot submit failed: {other:?}"),
    }
    let cold_arrival: Ticks = 100;
    let cold_id = match service.try_submit_at(3, cold, cold_arrival) {
        Admission::Accepted(id) => id,
        other => panic!("cold submit failed: {other:?}"),
    };
    // Enough rounds that the cold group's age crosses the cap with
    // margin while hot requests are still flowing.
    let rounds = age_cap / e_h + 8;
    for i in 1..=rounds {
        let arrival = c_h + i * e_h - e_h / 2;
        match service.try_submit_at(i % 16, hot, arrival) {
            Admission::Accepted(_) => {}
            other => panic!("hot submit failed: {other:?}"),
        }
    }
    let results = service.run_until_idle();
    let cold_result = results
        .iter()
        .find(|r| r.id == cold_id)
        .expect("cold served");

    // The redirect machinery really engaged: younger resident hot
    // groups were preferred over the pending cold one many times, and
    // the age cap eventually forced the cold group out.
    let metrics = service.metrics_snapshot();
    assert!(
        metrics.counter(key::POLICY_CACHE_AFFINE_FIRES) > 1,
        "expected repeated cache-affine redirects, saw {}",
        metrics.counter(key::POLICY_CACHE_AFFINE_FIRES)
    );
    assert!(
        metrics.counter(key::POLICY_AGE_CAP_FORCED) >= 1,
        "the age cap never forced the cold group out"
    );

    // The cold group genuinely starved right up to the cap — the
    // redirects held it back — and then fired at the very next freed
    // unit, so its queue wait is sandwiched within one hot service
    // period above the cap.
    assert!(
        cold_result.latency.queue_wait >= age_cap,
        "cold queue wait {} below age cap {age_cap}: it never starved",
        cold_result.latency.queue_wait
    );
    assert!(
        cold_result.latency.queue_wait <= age_cap + e_h,
        "cold queue wait {} exceeds age cap {age_cap} + one hot period {e_h}",
        cold_result.latency.queue_wait
    );
}

/// The slab engine's answer for a served request: the readout off
/// `query_classical`, and the slab reference loop on the request's basis
/// input — per shot `run_with_faults`, then the fidelity reduced to the
/// address and bus (a shot with an empty plan samples 1, as in the shot
/// engine).
fn slab_answer(
    circuit: &qram::core::QueryCircuit,
    sampler: &qram::noise::FaultSampler,
    config: &ServiceConfig,
    r: &QueryResult,
) -> (bool, qram::sim::FidelityEstimate) {
    use qram::noise::derive_stream_seed;
    use qram::sim::{run, run_with_faults, Amplitude, FidelityEstimate};
    let value = circuit.query_classical(r.address).unwrap();
    let mut amps = vec![Amplitude::ZERO; r.address as usize + 1];
    amps[r.address as usize] = Amplitude::ONE;
    let input = circuit.input_state(Some(&amps));
    let gates = circuit.circuit().gates();
    let keep = circuit.output_qubits();
    let mut ideal = input.clone();
    run(gates, &mut ideal).unwrap();
    let master = derive_stream_seed(config.seed, r.id);
    let samples: Vec<f64> = (0..config.shots as u64)
        .map(|shot| {
            let plan = sampler.sample_shot_from(master, shot);
            if plan.is_empty() {
                return 1.0;
            }
            let mut noisy = input.clone();
            run_with_faults(gates, &mut noisy, &plan).unwrap();
            ideal.reduced_fidelity(&noisy, &keep)
        })
        .collect();
    (value, FidelityEstimate::from_samples(&samples))
}

#[test]
fn served_answers_equal_the_slab_engine_bit_for_bit() {
    use qram::core::ArchSpec;
    use qram::noise::{FaultSampler, NoiseModel, PauliChannel};
    use qram::service::Compiler;

    let memory = Memory::from_bits((0..8).map(|i| i % 3 == 0));
    let specs = [
        QuerySpec::new(1, 2),
        QuerySpec::of(ArchSpec::Sqc { n: 3 }),
        QuerySpec::of(ArchSpec::BucketBrigade { k: 1, m: 2 }),
    ];
    // Every address under every spec, interleaved, twice over.
    let stream: Vec<(u64, QuerySpec)> = (0..48u64)
        .map(|i| ((i * 3) % 8, specs[i as usize % specs.len()]))
        .collect();
    let depolarizing = ServiceConfig::default().noise;
    let heavy = NoiseModel::per_gate(PauliChannel::bit_flip(0.3));
    // At 100 shots a request's lanes span two words.
    for (shots, noise) in [
        (0, depolarizing),
        (8, depolarizing),
        (100, depolarizing),
        (8, heavy),
    ] {
        let mut config = ServiceConfig::default()
            .with_shots(shots)
            .with_seed(5)
            .with_batch_limit(12)
            .with_cache_capacity(specs.len());
        config.noise = noise;
        let serve = |workers: usize| {
            let mut service = QramService::new(memory.clone(), config.with_workers(workers));
            assert_eq!(service.submit_all(stream.iter().copied()), stream.len());
            service.drain().results
        };
        let served = serve(1);
        for workers in [2, 4] {
            assert_eq!(served, serve(workers), "shots={shots} workers={workers}");
        }
        let compiler = Compiler::new(config.cost, shots);
        for spec in specs {
            let circuit = compiler.compile(spec, &memory).circuit;
            let sampler = FaultSampler::new(circuit.circuit(), config.noise, config.seed);
            for r in served.iter().filter(|r| r.spec == spec) {
                let (value, estimate) = slab_answer(&circuit, &sampler, &config, r);
                assert_eq!(r.value, value, "request {}", r.id);
                let bits = |f: &qram::sim::FidelityEstimate| {
                    (f.mean.to_bits(), f.std_error.to_bits(), f.shots)
                };
                assert_eq!(bits(&r.fidelity), bits(&estimate), "request {}", r.id);
            }
        }
        if noise == heavy {
            // A request whose every shot fails reads the slab's empty
            // sum, -0.0, as its mean.
            assert!(served
                .iter()
                .any(|r| r.fidelity.mean.to_bits() == (-0.0f64).to_bits()));
        }
    }
}
