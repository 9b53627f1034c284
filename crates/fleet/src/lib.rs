//! Fleet-scale QRAM serving: a sharded [`QramService`] fleet with
//! tenants, SLO classes, and deterministic routing.
//!
//! A [`FleetController`] owns N independent [`QramService`] shards —
//! each with its own device profile, compile cache, and cost
//! calibration — behind a single front door. Requests arrive tagged
//! with a [`TenantId`] and an [`SloClass`]; the front door parks them
//! in per-tenant sub-queues and drains them round-robin: each pass
//! visits tenants in ascending id and forwards at most one head each,
//! and the next pass starts again at the lowest id. The consistent-hash
//! [`Router`] (rendezvous replicas + cache-affine tie-breaking) places
//! each forwarded request on a shard. When the door overflows, the
//! [`ShedPolicy`] picks the victim — tail-drop or SLO-aware deadline
//! priority.
//!
//! The door's `push`, `pop` and shed-victim choice each cost O(log n)
//! in the parked count (ordered indexes, not a scan), and the router
//! memoizes each spec's candidate list at the spec's first offer, so
//! routing a parked head is one hash lookup plus a room probe per
//! candidate.
//!
//! # Determinism contract
//!
//! The fleet interleaves shard virtual clocks by *event time*, not by
//! host scheduling: [`FleetController::advance_to`] repeatedly finds
//! the earliest pending event across all shards, polls exactly the
//! shards due at that instant in ascending id (so completions are
//! harvested in shard order), and only then dispatches parked work
//! into the freed room. Every routing, queueing, and shedding decision
//! reads virtual-time state alone, so per-request results, span
//! traces, and metrics are bit-identical for any worker count.
//!
//! A single-shard fleet with an unbounded front door degenerates to
//! the bare service: same admissions at the same instants, same
//! results, same trace.

mod front;
mod router;

use std::collections::BTreeMap;

pub use front::{Pending, ShedPolicy};
pub use router::{RouteDecision, Router};

use front::FrontDoor;
use qram_core::Memory;
use qram_service::{
    Admission, QramService, QueryResult, QuerySpec, ServiceConfig, SloClass, TenantId, Ticks,
};
use qram_telemetry::{
    fnv1a_64, key, AdmissionOutcome, MetricsRegistry, NoopRecorder, Recorder, RouteReason,
    SpanEvent, SpanStage, TelemetryRecorder, SYNTHETIC_REQUEST_BASE,
};

/// Fleet topology and front-door policy.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of shards.
    pub shards: usize,
    /// Base per-shard service configuration; shard `i` runs it with
    /// `seed + i` (shard 0 keeps the base verbatim, so a 1-shard fleet
    /// matches a bare service bit-for-bit).
    pub shard_base: ServiceConfig,
    /// Requests the front door may hold beyond what shards have
    /// absorbed; an arrival that would exceed this triggers the shed
    /// policy. `0` means never park more than the overflow arrival
    /// itself (shed immediately when no shard has room).
    pub front_capacity: usize,
    /// Victim selection at front-door overflow.
    pub shed_policy: ShedPolicy,
    /// Rendezvous replication factor (clamped to `1..=shards`).
    pub replication: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            shards: 1,
            shard_base: ServiceConfig::default(),
            front_capacity: 1024,
            shed_policy: ShedPolicy::default(),
            replication: 2,
        }
    }
}

impl FleetConfig {
    /// Sets the shard count.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Sets the base per-shard service configuration.
    pub fn with_shard_base(mut self, base: ServiceConfig) -> Self {
        self.shard_base = base;
        self
    }

    /// Sets the front-door overflow capacity.
    pub fn with_front_capacity(mut self, capacity: usize) -> Self {
        self.front_capacity = capacity;
        self
    }

    /// Sets the overflow shed policy.
    pub fn with_shed_policy(mut self, policy: ShedPolicy) -> Self {
        self.shed_policy = policy;
        self
    }

    /// Sets the rendezvous replication factor.
    pub fn with_replication(mut self, replication: usize) -> Self {
        self.replication = replication;
        self
    }

    /// The service configuration of shard `sid`: the base re-seeded
    /// with `seed + sid` (shard 0 keeps the base seed).
    pub fn shard_config(&self, sid: usize) -> ServiceConfig {
        self.shard_base.with_seed(self.shard_base.seed + sid as u64)
    }
}

/// The front door's verdict on one offered request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrontAdmission {
    /// Fleet-wide sequence number assigned to the offer.
    pub seq: u64,
    /// Whether this offer is still in the system (it may be queued or
    /// already forwarded; `false` means the offer itself was the shed
    /// victim).
    pub admitted: bool,
    /// The request shed to make room, if the offer overflowed the
    /// front door (possibly the offer itself).
    pub shed: Option<ShedDrop>,
}

/// A request dropped by the front-door shed policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShedDrop {
    /// Fleet-wide sequence number of the dropped request.
    pub seq: u64,
    /// Tenant the dropped request belonged to.
    pub tenant: TenantId,
    /// SLO class the dropped request was offered under.
    pub slo: SloClass,
}

/// A completed fleet request: the shard-level [`QueryResult`] plus the
/// fleet-level placement and queueing context.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetResult {
    /// Fleet-wide sequence number (offer order at the front door).
    pub seq: u64,
    /// Shard that served the request.
    pub shard: usize,
    /// Tenant the request was served on behalf of.
    pub tenant: TenantId,
    /// SLO class the request was offered under.
    pub slo: SloClass,
    /// Virtual time spent parked at the front door before forwarding.
    pub front_wait: Ticks,
    /// The shard-level result (its `arrival` is the *forward* instant;
    /// see [`FleetResult::fleet_arrival`]).
    pub result: QueryResult,
}

impl FleetResult {
    /// Arrival instant at the fleet front door.
    pub fn fleet_arrival(&self) -> Ticks {
        self.result.arrival - self.front_wait
    }

    /// Door-to-completion latency: front-door wait plus shard queue
    /// wait, compile, and execute.
    pub fn total_latency(&self) -> Ticks {
        self.front_wait + self.result.latency.total()
    }

    /// Whether an interactive request met its deadline (measured from
    /// fleet arrival); `None` for classes without one.
    pub fn deadline_met(&self) -> Option<bool> {
        self.slo.deadline().map(|d| self.total_latency() <= d)
    }
}

/// Aggregate front-door accounting, computed on demand from the
/// controller's sequence counter, its `fleet.*` counters and the
/// shards' served counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetStats {
    /// Requests offered to the front door.
    pub offered: u64,
    /// Requests forwarded to a shard.
    pub dispatched: u64,
    /// Requests completed by a shard.
    pub completed: u64,
    /// Requests shed at the front door.
    pub shed: u64,
}

/// Fleet-level bookkeeping for one forwarded request, keyed by
/// `(shard, shard-local request id)` until its result comes back.
#[derive(Debug, Clone, Copy)]
struct RequestMeta {
    seq: u64,
    tenant: TenantId,
    slo: SloClass,
    fleet_arrival: Ticks,
    forwarded: Ticks,
}

/// A deterministic virtual-time controller over a fleet of
/// [`QramService`] shards. See the [crate docs](crate) for the
/// architecture and determinism contract.
#[derive(Debug)]
pub struct FleetController<R: Recorder = NoopRecorder> {
    config: FleetConfig,
    shards: Vec<QramService<R>>,
    router: Router,
    front: FrontDoor,
    recorder: R,
    metrics: MetricsRegistry,
    address_width: usize,
    cells: u64,
    now: Ticks,
    next_seq: u64,
    meta: BTreeMap<(usize, u64), RequestMeta>,
    completed: Vec<FleetResult>,
}

impl FleetController<NoopRecorder> {
    /// A fleet over `memory` with no telemetry. Every shard serves its
    /// own clone of the image.
    pub fn new(memory: Memory, config: FleetConfig) -> Self {
        Self::with_recorders(memory, config, |_| NoopRecorder)
    }
}

impl<R: Recorder> FleetController<R> {
    /// A fleet over `memory` with one recorder per shard plus one for
    /// the fleet front door. `mk` is called with each shard id in
    /// ascending order and finally with `config.shards` for the
    /// front-door recorder.
    pub fn with_recorders(
        memory: Memory,
        config: FleetConfig,
        mut mk: impl FnMut(usize) -> R,
    ) -> Self {
        assert!(config.shards > 0, "a fleet needs at least one shard");
        let shards: Vec<QramService<R>> = (0..config.shards)
            .map(|sid| {
                QramService::with_recorder(memory.clone(), config.shard_config(sid), mk(sid))
            })
            .collect();
        let router = Router::new(config.shards, config.replication);
        FleetController {
            recorder: mk(config.shards),
            metrics: MetricsRegistry::default(),
            address_width: memory.address_width(),
            cells: memory.len() as u64,
            config,
            shards,
            router,
            front: FrontDoor::default(),
            now: 0,
            next_seq: 0,
            meta: BTreeMap::new(),
            completed: Vec::new(),
        }
    }

    /// The fleet configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// The routing table.
    pub fn router(&self) -> &Router {
        &self.router
    }

    /// The fleet's shards, in id order.
    pub fn shards(&self) -> &[QramService<R>] {
        &self.shards
    }

    /// The front-door recorder (routing spans and shed terminals).
    pub fn recorder(&self) -> &R {
        &self.recorder
    }

    /// Current fleet virtual-clock instant.
    pub fn now(&self) -> Ticks {
        self.now
    }

    /// Requests parked at the front door.
    pub fn front_depth(&self) -> usize {
        self.front.depth()
    }

    /// Aggregate front-door accounting so far: offers counted by the
    /// sequence number, dispatches and sheds by the `fleet.routed` and
    /// `fleet.shed` counters, completions by what the shards returned.
    pub fn stats(&self) -> FleetStats {
        FleetStats {
            offered: self.next_seq,
            dispatched: self.metrics.counter(key::FLEET_ROUTED),
            completed: self.shards.iter().map(|shard| shard.served()).sum(),
            shed: self.metrics.counter(key::FLEET_SHED),
        }
    }

    /// Fleet front-door metrics merged with every shard's metrics.
    pub fn metrics_snapshot(&self) -> MetricsRegistry {
        let mut merged = self.metrics.clone();
        for shard in &self.shards {
            merged.merge_from(&shard.metrics_snapshot());
        }
        merged
    }

    /// Offers one request to the fleet at `arrival` on the virtual
    /// clock, advancing the fleet to that instant first; an `arrival`
    /// earlier than [`now`](FleetController::now) is clamped to it
    /// (virtual time never rewinds). The request is forwarded
    /// immediately when its routed shard has room, otherwise parked at
    /// the front door; if parking overflows
    /// [`FleetConfig::front_capacity`], the shed policy drops a victim
    /// (possibly this offer).
    ///
    /// # Panics
    ///
    /// Panics when `spec` does not match the fleet's memory width or
    /// `address` is out of range — the fleet front door owns workload
    /// construction, so a malformed request is a harness bug, not
    /// back-pressure.
    pub fn submit_at(
        &mut self,
        address: u64,
        spec: QuerySpec,
        arrival: Ticks,
        tenant: TenantId,
        slo: SloClass,
    ) -> FrontAdmission {
        assert_eq!(
            spec.address_width(),
            self.address_width,
            "spec width must match the fleet memory"
        );
        assert!(
            address < self.cells,
            "address {address} out of range for {} cells",
            self.cells
        );
        self.router.memoize(spec);
        let arrival = arrival.max(self.now);
        self.advance_to(arrival);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.front.push(Pending {
            seq,
            address,
            spec,
            arrival,
            tenant,
            slo,
        });
        self.metrics
            .gauge_max(key::FLEET_FRONT_DEPTH_HIGH_WATER, self.front.depth() as u64);
        self.dispatch();
        let shed = if self.front.depth() > self.config.front_capacity {
            let victim = self
                .front
                .shed_victim(self.config.shed_policy, self.now)
                .expect("overflowing front door is non-empty");
            self.record_shed();
            Some(ShedDrop {
                seq: victim.seq,
                tenant: victim.tenant,
                slo: victim.slo,
            })
        } else {
            None
        };
        FrontAdmission {
            seq,
            admitted: shed.is_none_or(|s| s.seq != seq),
            shed,
        }
    }

    /// Advances the fleet virtual clock to `t`, processing every shard
    /// event (completions, batch deadlines, work-conserving releases)
    /// in global event order and dispatching parked front-door work
    /// into freed room as it appears.
    pub fn advance_to(&mut self, t: Ticks) {
        while let Some(tick) = self.next_tick(Some(t)) {
            self.process_tick(tick);
        }
        self.now = self.now.max(t);
    }

    /// Advances to `until` and returns every fleet result completed so
    /// far, ordered by completion instant (ties by shard id, then
    /// shard-local request id).
    pub fn poll(&mut self, until: Ticks) -> Vec<FleetResult> {
        self.advance_to(until);
        self.take_completed()
    }

    /// Runs the fleet to quiescence: drains the front door through
    /// shard events, then drains every shard (flushing partially-full
    /// batches exactly like the bare service's `run_until_idle`) and
    /// moves the fleet clock to the latest shard clock. Returns every
    /// remaining completed result.
    ///
    /// # Panics
    ///
    /// Panics if requests are parked at the front door while every
    /// shard is idle — impossible under the router's room predicate
    /// (a full shard always has a pending completion event).
    pub fn run_until_idle(&mut self) -> Vec<FleetResult> {
        while self.front.depth() > 0 {
            let tick = self
                .next_tick(None)
                .expect("front-door requests parked with every shard idle");
            self.process_tick(tick);
        }
        for sid in 0..self.shards.len() {
            for result in self.shards[sid].run_until_idle() {
                self.collect(sid, result);
            }
            self.now = self.now.max(self.shards[sid].now());
        }
        self.take_completed()
    }

    /// Completed results harvested so far, ordered by completion
    /// instant (ties by shard id, then shard-local request id).
    /// Clears the internal buffer.
    pub fn take_completed(&mut self) -> Vec<FleetResult> {
        self.completed
            .sort_by_key(|r| (r.result.completed, r.shard, r.result.id));
        std::mem::take(&mut self.completed)
    }

    /// The earliest pending event instant across all shards, filtered
    /// to `bound` when given.
    fn next_tick(&self, bound: Option<Ticks>) -> Option<Ticks> {
        let tick = self.shards.iter().filter_map(|s| s.next_event()).min()?;
        match bound {
            Some(b) if tick > b => None,
            _ => Some(tick),
        }
    }

    /// Polls every shard due at `tick` in ascending id, harvesting
    /// each one's completions as it goes, then dispatches parked work
    /// into whatever room the tick freed.
    fn process_tick(&mut self, tick: Ticks) {
        for sid in 0..self.shards.len() {
            if self.shards[sid].next_event().is_some_and(|e| e <= tick) {
                for result in self.shards[sid].poll(tick) {
                    self.collect(sid, result);
                }
            }
        }
        self.now = self.now.max(tick);
        self.dispatch();
    }

    /// Round-robin drain of the front door: each pass visits non-empty
    /// tenants in ascending id order and forwards at most one head
    /// request each; passes repeat, starting again at the lowest id,
    /// until one dispatches nothing (every head is routed to a full
    /// shard, or the door is empty).
    fn dispatch(&mut self) {
        loop {
            let mut dispatched_this_pass = false;
            for tenant in self.front.tenants() {
                let Some(head) = self.front.head(tenant) else {
                    continue;
                };
                let Some(decision) = self.router.route(&head.spec, &self.shards) else {
                    continue;
                };
                let pending = self.front.pop(tenant).expect("head exists");
                self.forward(pending, decision);
                dispatched_this_pass = true;
            }
            if !dispatched_this_pass {
                return;
            }
        }
    }

    /// Forwards one parked request to its routed shard, recording the
    /// route span and placement metrics.
    fn forward(&mut self, p: Pending, decision: RouteDecision) {
        let forward_at = p.arrival.max(self.now);
        self.metrics.add(key::FLEET_ROUTED, 1);
        if decision.reason == RouteReason::Replica {
            self.metrics.add(key::FLEET_REPLICA_CACHE_WINS, 1);
        }
        if self.recorder.enabled() {
            self.recorder.span(SpanEvent {
                request: p.seq,
                start: p.arrival,
                end: forward_at,
                stage: SpanStage::Route {
                    shard: decision.shard as u64,
                    reason: decision.reason,
                },
            });
        }
        let admission = self.shards[decision.shard]
            .try_submit_tagged_at(p.address, p.spec, forward_at, p.tenant, p.slo);
        let Admission::Accepted(id) = admission else {
            unreachable!("router verified room and the door verified the spec: {admission:?}")
        };
        self.meta.insert(
            (decision.shard, id),
            RequestMeta {
                seq: p.seq,
                tenant: p.tenant,
                slo: p.slo,
                fleet_arrival: p.arrival,
                forwarded: forward_at,
            },
        );
    }

    /// Joins a shard completion with its fleet-level metadata.
    fn collect(&mut self, sid: usize, result: QueryResult) {
        let meta = self
            .meta
            .remove(&(sid, result.id))
            .expect("completion for a request the fleet forwarded");
        self.completed.push(FleetResult {
            seq: meta.seq,
            shard: sid,
            tenant: meta.tenant,
            slo: meta.slo,
            front_wait: meta.forwarded - meta.fleet_arrival,
            result,
        });
    }

    /// Accounts one front-door shed: the `fleet.shed` counter and a
    /// synthetic terminal span mirroring the bare service's shed
    /// accounting.
    fn record_shed(&mut self) {
        let ordinal = self.metrics.counter(key::FLEET_SHED);
        self.metrics.add(key::FLEET_SHED, 1);
        if self.recorder.enabled() {
            self.recorder.span(SpanEvent {
                request: SYNTHETIC_REQUEST_BASE + ordinal,
                start: self.now,
                end: self.now,
                stage: SpanStage::Admission {
                    outcome: AdmissionOutcome::Shed,
                    queue_depth: self.front.depth() as u64,
                },
            });
        }
    }
}

impl FleetController<TelemetryRecorder> {
    /// A fleet with a [`TelemetryRecorder`] per shard and one for the
    /// front door.
    pub fn with_telemetry(memory: Memory, config: FleetConfig) -> Self {
        Self::with_recorders(memory, config, |_| TelemetryRecorder::default())
    }

    /// Order-insensitive digest over every span in the fleet: each
    /// shard's trace digest in shard order, chained with the front
    /// door's.
    pub fn trace_digest(&self) -> u64 {
        let mut bytes = Vec::new();
        for shard in &self.shards {
            bytes.extend_from_slice(&shard.recorder().trace_digest().to_le_bytes());
        }
        bytes.extend_from_slice(&self.recorder.trace_digest().to_le_bytes());
        fnv1a_64(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn memory(n: usize) -> Memory {
        Memory::from_bits((0..1usize << n).map(|i| i % 3 == 0))
    }

    fn base_config(shards: usize) -> FleetConfig {
        FleetConfig::default()
            .with_shards(shards)
            .with_shard_base(ServiceConfig::default().with_shots(0))
    }

    #[test]
    fn single_request_round_trips_with_route_metadata() {
        let mut fleet = FleetController::new(memory(3), base_config(2));
        let spec = QuerySpec::new(1, 2);
        let admission = fleet.submit_at(3, spec, 100, TenantId(1), SloClass::Batch);
        assert!(admission.admitted);
        assert_eq!(admission.seq, 0);
        let results = fleet.run_until_idle();
        assert_eq!(results.len(), 1);
        let r = &results[0];
        assert_eq!(r.seq, 0);
        assert_eq!(r.tenant, TenantId(1));
        assert_eq!(r.slo, SloClass::Batch);
        assert_eq!(r.front_wait, 0);
        assert_eq!(r.fleet_arrival(), 100);
        assert!(r.result.value, "memory bit 3 is set (3 % 3 == 0)");
        assert_eq!(
            fleet.stats(),
            FleetStats {
                offered: 1,
                dispatched: 1,
                completed: 1,
                shed: 0,
            }
        );
    }

    #[test]
    fn equal_weight_tenants_complete_within_one_round_of_each_other() {
        // Saturate a tiny fleet so the front door arbitrates, then
        // check round-robin kept the tenants balanced.
        let config = base_config(1)
            .with_shard_base(
                ServiceConfig::default()
                    .with_shots(0)
                    .with_workers(1)
                    .with_queue_capacity(2),
            )
            .with_front_capacity(400);
        let mut fleet = FleetController::new(memory(3), config);
        for i in 0..300u64 {
            fleet.submit_at(
                i % 8,
                QuerySpec::new(1, 2),
                i, // near-simultaneous burst
                TenantId((i % 2) as u32),
                SloClass::BestEffort,
            );
        }
        let results = fleet.run_until_idle();
        let count = |t: u32| results.iter().filter(|r| r.tenant == TenantId(t)).count();
        assert_eq!(fleet.stats().shed, 0);
        let (a, b) = (count(0), count(1));
        assert_eq!(a + b, 300);
        assert!(
            a.abs_diff(b) <= fleet.config().shard_base.batch_limit,
            "round-robin tenants diverged: {a} vs {b}"
        );
    }

    #[test]
    fn front_capacity_zero_sheds_when_no_shard_has_room() {
        let config = base_config(1)
            .with_shard_base(
                ServiceConfig::default()
                    .with_shots(0)
                    .with_workers(1)
                    .with_queue_capacity(1),
            )
            .with_front_capacity(0)
            .with_shed_policy(ShedPolicy::TailDrop);
        let mut fleet = FleetController::new(memory(3), config);
        let first = fleet.submit_at(0, QuerySpec::new(1, 2), 0, TenantId(0), SloClass::Batch);
        assert!(first.admitted);
        // Same instant: the shard is full, the door holds nothing.
        let second = fleet.submit_at(1, QuerySpec::new(1, 2), 0, TenantId(0), SloClass::Batch);
        assert!(!second.admitted);
        assert_eq!(second.shed.unwrap().seq, second.seq);
        assert_eq!(fleet.stats().shed, 1);
        let results = fleet.run_until_idle();
        assert_eq!(results.len(), 1);
    }

    #[test]
    fn deadline_priority_displaces_batch_for_interactive() {
        let config = base_config(1)
            .with_shard_base(
                ServiceConfig::default()
                    .with_shots(0)
                    .with_workers(1)
                    .with_queue_capacity(1),
            )
            .with_front_capacity(1)
            .with_shed_policy(ShedPolicy::DeadlinePriority);
        let mut fleet = FleetController::new(memory(3), config);
        fleet.submit_at(0, QuerySpec::new(1, 2), 0, TenantId(0), SloClass::Batch);
        // Parks at the door (shard full), within capacity.
        let parked = fleet.submit_at(1, QuerySpec::new(1, 2), 0, TenantId(0), SloClass::Batch);
        assert!(parked.admitted && parked.shed.is_none());
        // Overflows: the parked batch request is displaced, not the
        // interactive newcomer.
        let urgent = fleet.submit_at(
            2,
            QuerySpec::new(1, 2),
            0,
            TenantId(1),
            SloClass::Interactive {
                deadline: 1_000_000,
            },
        );
        assert!(urgent.admitted);
        assert_eq!(
            urgent.shed,
            Some(ShedDrop {
                seq: parked.seq,
                tenant: TenantId(0),
                slo: SloClass::Batch,
            })
        );
        assert_eq!(fleet.stats().shed, 1);
    }

    #[test]
    fn metrics_snapshot_merges_fleet_and_shard_counters() {
        let mut fleet = FleetController::new(memory(3), base_config(2));
        for i in 0..10u64 {
            fleet.submit_at(
                i % 8,
                QuerySpec::new(1, 2),
                i * 1_000,
                TenantId(0),
                SloClass::Batch,
            );
        }
        fleet.run_until_idle();
        let merged = fleet.metrics_snapshot();
        assert_eq!(merged.counter(key::FLEET_ROUTED), 10);
        assert_eq!(merged.counter(key::ADMISSION_ACCEPTED), 10);
    }
}
