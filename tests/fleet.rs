//! Fleet acceptance tests: the determinism contract, the 1-shard
//! degeneracy to a bare service, the fleet clock, the conservation law
//! on the `stats()` view, and the SLO-aware shedding behavior under
//! overload.

use std::collections::BTreeMap;

use qram::core::Memory;
use qram::fleet::{FleetConfig, FleetController, FleetResult, ShedDrop, ShedPolicy};
use qram::service::{
    mixed_arch_specs, QramService, QuerySpec, ServiceConfig, SloClass, TelemetryRecorder, TenantId,
    Ticks,
};
use qram::telemetry::{key, RouteReason, SpanStage};

fn memory(n: usize) -> Memory {
    Memory::from_bits((0..1usize << n).map(|i| (i * 5) % 7 < 3))
}

/// A deterministic SplitMix64 step — the arrival streams below must be
/// byte-identical across runs and policies by construction.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// One pre-built fleet arrival: everything `submit_at` takes.
type Arrival = (u64, QuerySpec, Ticks, TenantId, SloClass);

/// A mixed-tenant, mixed-class, mixed-spec open-loop stream with the
/// given mean inter-arrival gap. Same seed → byte-identical stream.
fn arrivals(count: usize, mean_gap: u64, seed: u64) -> Vec<Arrival> {
    let specs = mixed_arch_specs(3);
    let mut state = seed;
    let mut t: Ticks = 0;
    (0..count)
        .map(|i| {
            t += 1 + splitmix(&mut state) % (2 * mean_gap);
            let spec = specs[(splitmix(&mut state) % specs.len() as u64) as usize];
            let address = splitmix(&mut state) % 8;
            let tenant = TenantId((splitmix(&mut state) % 3) as u32);
            let slo = match i % 4 {
                0 => SloClass::Interactive { deadline: 60_000 },
                1 | 2 => SloClass::Batch,
                _ => SloClass::BestEffort,
            };
            (address, spec, t, tenant, slo)
        })
        .collect()
}

fn shard_base(workers: usize) -> ServiceConfig {
    ServiceConfig::default().with_workers(workers).with_shots(8)
}

/// Runs `stream` through a telemetry fleet and returns the completed
/// results plus the fleet trace and metrics digests.
fn run_fleet(config: FleetConfig, stream: &[Arrival]) -> (Vec<FleetResult>, u64, u64) {
    let mut fleet = FleetController::with_telemetry(memory(3), config);
    let mut results = Vec::new();
    for &(address, spec, at, tenant, slo) in stream {
        fleet.submit_at(address, spec, at, tenant, slo);
        results.extend(fleet.poll(at));
    }
    results.extend(fleet.run_until_idle());
    (
        results,
        fleet.trace_digest(),
        fleet.metrics_snapshot().digest(),
    )
}

#[test]
fn fleet_outputs_are_bit_identical_across_parallelism_knobs() {
    let stream = arrivals(400, 6_000, 0xf1ee7);
    let reference = run_fleet(
        FleetConfig::default()
            .with_shards(3)
            .with_shard_base(shard_base(1)),
        &stream,
    );
    assert!(!reference.0.is_empty());
    for workers in [2, 4] {
        let run = run_fleet(
            FleetConfig::default()
                .with_shards(3)
                .with_shard_base(shard_base(workers)),
            &stream,
        );
        assert_eq!(reference.0, run.0, "results diverged at workers={workers}");
        assert_eq!(reference.1, run.1, "trace digest diverged");
        assert_eq!(reference.2, run.2, "metrics digest diverged");
    }
}

/// A 1-shard fleet with a zero-capacity front door makes exactly the
/// bare service's decisions: on an uncongested stream the shard's
/// trace, metrics, and results are bit-identical to a bare
/// `QramService` fed the same tagged arrivals.
#[test]
fn one_shard_fleet_is_bit_identical_to_bare_service() {
    let stream = arrivals(300, 40_000, 0xba5e); // sparse: never sheds
    let base = shard_base(2);

    let mut bare = QramService::with_recorder(memory(3), base, TelemetryRecorder::default());
    for &(address, spec, at, tenant, slo) in &stream {
        let admission = bare.try_submit_tagged_at(address, spec, at, tenant, slo);
        assert!(admission.is_accepted(), "premise: the stream never sheds");
    }
    let mut bare_results = bare.run_until_idle();
    bare_results.sort_by_key(|r| r.id);

    let config = FleetConfig::default()
        .with_shards(1)
        .with_shard_base(base)
        .with_front_capacity(0)
        .with_shed_policy(ShedPolicy::TailDrop)
        .with_replication(1);
    let mut fleet = FleetController::with_telemetry(memory(3), config);
    for &(address, spec, at, tenant, slo) in &stream {
        let admission = fleet.submit_at(address, spec, at, tenant, slo);
        assert!(admission.admitted && admission.shed.is_none());
    }
    let mut fleet_results = fleet.run_until_idle();
    fleet_results.sort_by_key(|r| r.result.id);

    assert_eq!(fleet_results.len(), bare_results.len());
    for (f, b) in fleet_results.iter().zip(&bare_results) {
        assert_eq!(f.front_wait, 0, "uncongested: nothing parks at the door");
        assert_eq!(&f.result, b, "shard result must match the bare service");
    }
    let shard = &fleet.shards()[0];
    assert_eq!(
        shard.recorder().trace_digest(),
        bare.recorder().trace_digest(),
        "the shard's span trace must match the bare service's"
    );
    assert_eq!(
        shard.metrics_snapshot().digest(),
        bare.metrics_snapshot().digest(),
        "the shard's metrics must match the bare service's"
    );
}

/// Under overload the shed *decisions* coincide too: the fleet's
/// zero-capacity door sheds exactly when the bare bounded queue would,
/// so completed results and shed counts match (the shed accounting
/// moves from the shard to the fleet door, so traces are compared on
/// the completed population only).
#[test]
fn one_shard_fleet_matches_bare_service_shed_decisions_at_overload() {
    let stream = arrivals(600, 300, 0x0e1); // ~10x overload
    let base = ServiceConfig::default()
        .with_shots(0)
        .with_workers(1)
        .with_queue_capacity(8);

    let mut bare = QramService::new(memory(3), base);
    let mut bare_shed = 0u64;
    for &(address, spec, at, tenant, slo) in &stream {
        if !bare
            .try_submit_tagged_at(address, spec, at, tenant, slo)
            .is_accepted()
        {
            bare_shed += 1;
        }
    }
    let mut bare_results = bare.run_until_idle();
    bare_results.sort_by_key(|r| r.id);
    assert!(bare_shed > 0, "premise: the stream overloads the service");

    let config = FleetConfig::default()
        .with_shards(1)
        .with_shard_base(base)
        .with_front_capacity(0)
        .with_shed_policy(ShedPolicy::TailDrop)
        .with_replication(1);
    let mut fleet = FleetController::new(memory(3), config);
    for &(address, spec, at, tenant, slo) in &stream {
        fleet.submit_at(address, spec, at, tenant, slo);
    }
    let mut fleet_results = fleet.run_until_idle();
    fleet_results.sort_by_key(|r| r.result.id);

    assert_eq!(fleet.stats().shed, bare_shed, "same shed decisions");
    assert_eq!(fleet_results.len(), bare_results.len());
    for (f, b) in fleet_results.iter().zip(&bare_results) {
        assert_eq!(&f.result, b);
    }
}

/// `run_until_idle` leaves the fleet clock at or past every shard's, so
/// a later offer stamped earlier is clamped to that instant: it does
/// not wait at the door, and its route span does not start before any
/// shard could admit it.
#[test]
fn offers_after_run_until_idle_are_clamped_to_the_fleet_clock() {
    let config = FleetConfig::default()
        .with_shards(2)
        .with_shard_base(ServiceConfig::default().with_shots(0));
    let mut fleet = FleetController::with_telemetry(memory(3), config);
    let spec = QuerySpec::new(1, 2);
    fleet.submit_at(3, spec, 100, TenantId(0), SloClass::Batch);
    assert_eq!(fleet.run_until_idle().len(), 1);
    assert!(
        fleet.shards().iter().any(|shard| shard.now() > 100),
        "premise: serving took virtual time"
    );
    let now = fleet.now();
    for shard in fleet.shards() {
        assert!(
            now >= shard.now(),
            "fleet clock {now} behind shard clock {}",
            shard.now()
        );
    }

    let late = fleet.submit_at(5, spec, 100, TenantId(1), SloClass::Batch);
    let results = fleet.run_until_idle();
    assert_eq!(results.len(), 1);
    let r = &results[0];
    assert_eq!(r.seq, late.seq);
    assert_eq!(r.front_wait, 0);
    assert_eq!(r.fleet_arrival(), r.result.arrival);
    assert_eq!(r.result.arrival, now);
    let route = fleet
        .recorder()
        .tracer()
        .canonical()
        .into_iter()
        .find(|e| e.request == late.seq && matches!(e.stage, SpanStage::Route { .. }))
        .expect("the late offer was routed");
    assert_eq!((route.start, route.end), (now, now));
}

/// Nearest-rank percentile over door-to-completion latencies.
fn percentile(sorted: &[Ticks], q: f64) -> Ticks {
    assert!(!sorted.is_empty());
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The canonical overload stream: far past the capacity of the
/// 2-shard fleet [`run_overloaded`] builds.
fn overload_stream() -> Vec<Arrival> {
    arrivals(1_500, 400, 0x0510)
}

/// Runs [`overload_stream`] under one shed policy and returns the idle
/// fleet, its completed results and every shed `submit_at` reported.
fn run_overloaded(policy: ShedPolicy) -> (FleetController, Vec<FleetResult>, Vec<ShedDrop>) {
    let config = FleetConfig::default()
        .with_shards(2)
        .with_shard_base(
            ServiceConfig::default()
                .with_shots(0)
                .with_workers(1)
                .with_queue_capacity(4),
        )
        .with_front_capacity(48)
        .with_shed_policy(policy)
        .with_replication(2);
    let mut fleet = FleetController::new(memory(3), config);
    let mut sheds = Vec::new();
    for (address, spec, at, tenant, slo) in overload_stream() {
        sheds.extend(fleet.submit_at(address, spec, at, tenant, slo).shed);
    }
    let results = fleet.run_until_idle();
    (fleet, results, sheds)
}

/// Requests of SLO class `label` among `sheds`.
fn shed_in_class(sheds: &[ShedDrop], label: &str) -> usize {
    sheds.iter().filter(|d| d.slo.label() == label).count()
}

/// The conservation law on the `stats()` view: every offer is completed
/// or shed exactly once, every dispatch completes, and the view agrees
/// with the results and sheds the caller saw — in total, per tenant
/// and per SLO class.
#[test]
fn fleet_stats_conserve_every_offer_at_overload() {
    let stream = overload_stream();
    for policy in [ShedPolicy::DeadlinePriority, ShedPolicy::TailDrop] {
        let (fleet, results, sheds) = run_overloaded(policy);
        let stats = fleet.stats();
        assert!(stats.shed > 0, "premise: the stream overloads the fleet");
        assert_eq!(stats.offered, stream.len() as u64);
        assert_eq!(stats.offered, stats.completed + stats.shed, "{policy:?}");
        assert_eq!(stats.dispatched, stats.completed, "{policy:?}");
        assert_eq!(stats.completed, results.len() as u64, "{policy:?}");
        assert_eq!(stats.shed, sheds.len() as u64, "{policy:?}");

        let mut seqs: Vec<u64> = results.iter().map(|r| r.seq).collect();
        seqs.extend(sheds.iter().map(|d| d.seq));
        seqs.sort_unstable();
        assert!(seqs.iter().copied().eq(0..stats.offered), "{policy:?}");

        // `[offered, completed, shed]` per tenant and per class.
        let mut tenants: BTreeMap<TenantId, [u64; 3]> = BTreeMap::new();
        let mut classes: BTreeMap<&str, [u64; 3]> = BTreeMap::new();
        for &(_, _, _, tenant, slo) in &stream {
            tenants.entry(tenant).or_default()[0] += 1;
            classes.entry(slo.label()).or_default()[0] += 1;
        }
        for r in &results {
            tenants.entry(r.tenant).or_default()[1] += 1;
            classes.entry(r.slo.label()).or_default()[1] += 1;
        }
        for d in &sheds {
            tenants.entry(d.tenant).or_default()[2] += 1;
            classes.entry(d.slo.label()).or_default()[2] += 1;
        }
        for tallies in [
            tenants.values().collect::<Vec<_>>(),
            classes.values().collect(),
        ] {
            for [offered, completed, shed] in &tallies {
                assert_eq!(offered, &(completed + shed), "{policy:?}");
            }
            let sum = |i: usize| tallies.iter().map(|t| t[i]).sum::<u64>();
            assert_eq!(sum(1), stats.completed, "{policy:?}");
            assert_eq!(sum(2), stats.shed, "{policy:?}");
        }
    }
}

/// Every route span carries one of the router's two reasons, and the
/// span counts agree with the `fleet.routed` and
/// `fleet.replica_cache_wins` counters.
#[test]
fn route_spans_agree_with_the_fleet_routing_counters() {
    let config = FleetConfig::default()
        .with_shards(4)
        .with_shard_base(
            ServiceConfig::default()
                .with_shots(0)
                .with_workers(1)
                .with_queue_capacity(4)
                .with_cache_capacity(2),
        )
        .with_front_capacity(48)
        .with_replication(2);
    let mut fleet = FleetController::with_telemetry(memory(3), config);
    for (address, spec, at, tenant, slo) in overload_stream() {
        fleet.submit_at(address, spec, at, tenant, slo);
    }
    fleet.run_until_idle();
    let reasons: Vec<RouteReason> = fleet
        .recorder()
        .tracer()
        .canonical()
        .into_iter()
        .filter_map(|e| match e.stage {
            SpanStage::Route { reason, .. } => Some(reason),
            _ => None,
        })
        .collect();
    assert!(reasons
        .iter()
        .all(|r| matches!(r, RouteReason::Hash | RouteReason::Replica)));
    let metrics = fleet.metrics_snapshot();
    assert_eq!(reasons.len() as u64, metrics.counter(key::FLEET_ROUTED));
    let replica = reasons
        .iter()
        .filter(|&&r| r == RouteReason::Replica)
        .count() as u64;
    assert_eq!(replica, metrics.counter(key::FLEET_REPLICA_CACHE_WINS));
    assert!(replica > 0, "premise: some routes are replica cache wins");
}

#[test]
fn deadline_priority_beats_tail_drop_on_interactive_p99_at_overload() {
    let (_, dp_results, dp_sheds) = run_overloaded(ShedPolicy::DeadlinePriority);
    let (_, td_results, td_sheds) = run_overloaded(ShedPolicy::TailDrop);

    let interactive_latencies = |results: &[FleetResult]| {
        let mut v: Vec<Ticks> = results
            .iter()
            .filter(|r| matches!(r.slo, SloClass::Interactive { .. }))
            .map(|r| r.total_latency())
            .collect();
        v.sort_unstable();
        v
    };
    let dp = interactive_latencies(&dp_results);
    let td = interactive_latencies(&td_results);
    assert!(!dp.is_empty() && !td.is_empty());

    let (dp_p99, td_p99) = (percentile(&dp, 0.99), percentile(&td, 0.99));
    assert!(
        dp_p99 < td_p99,
        "deadline-priority interactive p99 {dp_p99} must beat tail-drop {td_p99} \
         on byte-identical arrivals"
    );

    // Deadline-priority sheds the low classes first: batch bears the
    // brunt, and the only interactive sheds are zombies whose deadline
    // had already passed (worthless to complete).
    let dp_interactive = shed_in_class(&dp_sheds, "interactive");
    let dp_batch = shed_in_class(&dp_sheds, "batch");
    let dp_best_effort = shed_in_class(&dp_sheds, "best_effort");
    assert!(dp_batch + dp_best_effort > 0, "premise: overload sheds");
    assert!(
        dp_batch > dp_interactive,
        "batch must bear the brunt: batch {dp_batch} vs interactive {dp_interactive}"
    );
    // Tail-drop is class-blind: under a 1-in-4 interactive mix it
    // inevitably drops interactive work too.
    let td_interactive = shed_in_class(&td_sheds, "interactive");
    assert!(
        td_interactive > 0,
        "premise: tail-drop should be shedding interactive arrivals"
    );
}

#[test]
#[ignore]
fn probe_capacity() {
    let (fleet, results, _) = run_overloaded(ShedPolicy::TailDrop);
    let makespan = results.iter().map(|r| r.result.completed).max().unwrap();
    let last_arrival = overload_stream().last().unwrap().2;
    println!(
        "completed={} shed={} makespan={} last_arrival={} mean_service_gap={}",
        results.len(),
        fleet.stats().shed,
        makespan,
        last_arrival,
        makespan / results.len() as u64
    );
}
