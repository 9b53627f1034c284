//! The query-serving engine: an event-driven pipeline on a virtual
//! clock — bounded admission → deadline-aware batching → circuit cache →
//! lane-run execution on bit-sliced circuit walks.
//!
//! # The event loop
//!
//! The service is a discrete-event simulation driven by its callers:
//! every [`try_submit_at`](QramService::try_submit_at) and
//! [`poll`](QramService::poll) advances the virtual clock to the given
//! instant, firing — in event order — every batch whose deadline slack
//! expired and harvesting every request whose modeled execution
//! completed. Nothing ever blocks: admission on a full bounded queue
//! resolves to [`Admission::Shed`] (back-pressure) instead of waiting.
//!
//! # Determinism
//!
//! The pipeline produces **bit-identical** [`QueryResult`]s — fidelity
//! estimates *and* latency breakdowns — for any worker count. Like the
//! shot engine underneath, this is structural:
//!
//! * batch firing is a pure function of the admitted request sequence
//!   and the clock instants the pipeline is advanced to
//!   ([`crate::DeadlineBatcher`]);
//! * circuit compilation, cache accounting and virtual-time scheduling
//!   ([`crate::VirtualTimeline`]) happen on the coordinating thread,
//!   before any worker starts;
//! * each request's fault-sampling stream derives purely from
//!   `(service seed, request id)` ([`qram_noise::derive_stream_seed`] +
//!   [`FaultSampler::sample_shot_from`] over the spec's shared trial
//!   table), so the estimate a request receives cannot depend on which
//!   worker claimed it;
//! * latency is measured on the virtual clock via the [`CostModel`],
//!   never on host wall time.

use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::Arc;

use qram_core::Memory;
use qram_noise::{FaultSampler, NoiseModel, PauliChannel, BASE_ERROR_RATE};
use qram_sim::{ShotConfig, ShotStats};
use qram_telemetry::{
    key, AdmissionOutcome, FireReason, MetricsRegistry, NoopRecorder, Recorder, SpanEvent,
    SpanStage, SYNTHETIC_REQUEST_BASE,
};
use qram_verify::VerifyLevel;

use crate::executor::{dispatch, PreparedRequest};
use crate::{
    Admission, AdmissionStats, CacheStats, CircuitCache, Compiler, CostModel, DeadlineBatcher,
    Latency, QueryBatch, QueryRequest, QueryResult, QuerySpec, RejectReason, ReleasePolicy,
    SloClass, TenantId, Ticks, VirtualTimeline,
};

/// Tunables of a [`QramService`].
///
/// ```
/// use qram_service::ServiceConfig;
/// let config = ServiceConfig::default().with_workers(2).with_shots(16);
/// assert_eq!(config.workers, 2);
/// assert_eq!(config.shots, 16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceConfig {
    /// Executor worker threads; `0` = all available cores. A pure
    /// throughput knob: results are bit-identical for any value.
    pub workers: usize,
    /// Bounded LRU capacity of the compiled-circuit cache (distinct
    /// [`QuerySpec`]s held at once).
    pub cache_capacity: usize,
    /// Maximum requests per batch.
    pub batch_limit: usize,
    /// Monte-Carlo shots per request for the fidelity estimate; `0`
    /// serves noiseless (classical readout only).
    pub shots: usize,
    /// Master seed; each request's fault stream derives from
    /// `(seed, request id)`.
    pub seed: u64,
    /// Not read by the service: a request's shots run as lanes of one
    /// pass, so there are no shot threads to size. Kept, at 1, only for
    /// the host benchmark's offline-noisy re-run, which passes it to
    /// `ShotConfig::threads`; deleted together with that re-run.
    pub shot_threads: usize,
    /// Not read by the service, nor by the shot engine: nothing splits a
    /// path set any more. Kept, at 1, only for the host benchmark's
    /// offline-noisy re-run, which copies it into the equally unread
    /// `ShotConfig::path_chunks`; deleted together with that re-run.
    pub path_chunks: usize,
    /// The noise model fidelity estimates are taken under.
    pub noise: NoiseModel,
    /// Bound on in-system requests (pending + executing) for the
    /// non-blocking admission path; offers beyond it are
    /// [shed](Admission::Shed). The closed-loop
    /// [`submit`](QramService::submit) path models a blocking client
    /// and is exempt.
    pub queue_capacity: usize,
    /// Deadline slack in virtual ns: a pending batch fires at the latest
    /// `deadline` ticks after its oldest member arrived, even if under
    /// the batch limit.
    pub deadline: Ticks,
    /// Which pending group a work-conserving release hands a freed
    /// execution unit: strict FIFO over groups
    /// ([`ReleasePolicy::OldestFirst`], the default — the historical
    /// behavior, bit-for-bit), or cost-based cache affinity
    /// ([`ReleasePolicy::CacheAffine`]) preferring the oldest group
    /// whose compiled circuit is cache-resident (zero compile ticks on
    /// the critical path), bounded by an age cap so no group starves.
    /// The policy reads only virtual-time state, so either setting is
    /// bit-identical across worker counts.
    pub release_policy: ReleasePolicy,
    /// The virtual-time cost model latency is measured under.
    pub cost: CostModel,
    /// Run the *deep* `qram-verify` analysis (ancilla lifecycle +
    /// resource certification) on every cache-miss compile, in addition
    /// to the always-on structural checks (gate bounds, operand overlap,
    /// family gate-set legality). Off by default: deep verification
    /// costs an extra pass over the gate list per compile, and CI's
    /// `verify_all` already certifies the whole architecture matrix.
    pub deep_verify: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 0,
            cache_capacity: 8,
            batch_limit: 32,
            shots: 32,
            seed: ShotConfig::DEFAULT_SEED,
            shot_threads: 1,
            path_chunks: 1,
            noise: NoiseModel::per_gate(PauliChannel::depolarizing(BASE_ERROR_RATE)),
            queue_capacity: 256,
            deadline: 20_000,
            release_policy: ReleasePolicy::OldestFirst,
            cost: CostModel::default(),
            deep_verify: false,
        }
    }
}

impl ServiceConfig {
    /// Overrides the worker count (`0` = all cores).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Overrides the circuit-cache capacity.
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Overrides the batch limit.
    pub fn with_batch_limit(mut self, limit: usize) -> Self {
        self.batch_limit = limit;
        self
    }

    /// Overrides the per-request shot count.
    pub fn with_shots(mut self, shots: usize) -> Self {
        self.shots = shots;
        self
    }

    /// Overrides the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the bounded-queue capacity.
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Overrides the batching deadline slack (virtual ns).
    pub fn with_deadline(mut self, deadline: Ticks) -> Self {
        self.deadline = deadline;
        self
    }

    /// Overrides the work-conserving release policy.
    pub fn with_release_policy(mut self, policy: ReleasePolicy) -> Self {
        self.release_policy = policy;
        self
    }

    /// Overrides the virtual-time cost model.
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Enables or disables deep verification of cache-miss compiles.
    pub fn with_deep_verify(mut self, on: bool) -> Self {
        self.deep_verify = on;
        self
    }

    /// The effective executor worker count for `items` work items.
    ///
    /// Noiseless serving (`shots == 0`, one classical readout per item)
    /// always resolves to one inline worker: dispatch runs per firing
    /// event, and spawning a thread scope per microsecond-scale batch
    /// would cost more than the work itself.
    fn resolved_workers(&self, items: usize) -> usize {
        if self.shots == 0 {
            return 1;
        }
        qram_sim::resolve_workers(self.workers).min(items).max(1)
    }
}

/// Virtual-clock accounting of one fired batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchReport {
    /// The batch's compilation profile.
    pub spec: QuerySpec,
    /// Requests served by the batch.
    pub requests: usize,
    /// The instant the batch fired (batch limit reached or deadline
    /// slack exhausted).
    pub fired_at: Ticks,
    /// Virtual compile time charged to the batch (0 on a cache hit).
    pub compile: Ticks,
    /// The instant the batch's last member finished executing.
    pub completed: Ticks,
}

/// Everything one [`QramService::drain`] produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceReport {
    /// One result per returned request, in admission (id) order.
    pub results: Vec<QueryResult>,
    /// Per-batch accounting of every batch fired since the previous
    /// report, in firing order.
    pub batches: Vec<BatchReport>,
    /// Lifetime circuit-cache counters after this drain.
    pub cache: CacheStats,
    /// Lifetime admission counters after this drain.
    pub admission: AdmissionStats,
    /// Worker threads the executor pool resolves to for this report's
    /// result count.
    pub workers: usize,
}

/// One executed request waiting for the virtual clock to pass its
/// completion instant; min-ordered by `(completed, id)`.
#[derive(Debug)]
struct InFlight {
    result: QueryResult,
}

impl InFlight {
    fn key(&self) -> (Ticks, u64) {
        (self.result.completed, self.result.id)
    }
}

impl PartialEq for InFlight {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for InFlight {}

impl PartialOrd for InFlight {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for InFlight {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we pop earliest completion.
        other.key().cmp(&self.key())
    }
}

/// An event-driven QRAM query-serving pipeline over one classical
/// memory, scheduled on a virtual clock.
///
/// Closed-loop clients [`submit`](QramService::submit) queries and
/// [`drain`](QramService::drain) for a full report; open-loop clients
/// [`try_submit_at`](QramService::try_submit_at) timestamped arrivals
/// (taking [`Admission::Shed`] back-pressure on a full queue) and
/// [`poll`](QramService::poll) completed results as virtual time
/// passes.
///
/// ```
/// use qram_core::Memory;
/// use qram_service::{QramService, QuerySpec, ServiceConfig};
///
/// let memory = Memory::from_bits([true, false, false, true, true, true, false, false]);
/// let mut service = QramService::new(memory.clone(), ServiceConfig::default().with_shots(0));
/// let spec = QuerySpec::new(1, 2);
/// for address in 0..8 {
///     service.submit(address, spec);
/// }
/// let report = service.drain();
/// for result in &report.results {
///     assert_eq!(result.value, memory.get(result.address as usize));
///     // Latency is measured on the virtual clock and partitions fully.
///     assert_eq!(result.completed - result.arrival, result.latency.total());
/// }
/// assert_eq!(report.cache.misses, 1); // one spec, compiled once
/// ```
///
/// Open-loop admission with explicit back-pressure:
///
/// ```
/// use qram_core::Memory;
/// use qram_service::{Admission, QramService, QuerySpec, ServiceConfig};
///
/// let memory = Memory::from_bits([true; 8]);
/// let config = ServiceConfig::default().with_shots(0).with_queue_capacity(2);
/// let mut service = QramService::new(memory, config);
/// let spec = QuerySpec::new(1, 2);
/// assert!(service.try_submit_at(0, spec, 0).is_accepted());
/// assert!(service.try_submit_at(1, spec, 0).is_accepted());
/// // The bounded queue is full: the third offer is shed, not queued.
/// assert_eq!(service.try_submit_at(2, spec, 0), Admission::Shed { queue_depth: 2 });
/// let results = service.run_until_idle();
/// assert_eq!(results.len(), 2);
/// ```
#[derive(Debug)]
pub struct QramService<R: Recorder = NoopRecorder> {
    memory: Memory,
    config: ServiceConfig,
    /// The staged `spec → circuit → resources → cost` pipeline run on
    /// every cache miss.
    compiler: Compiler,
    cache: CircuitCache,
    /// One shared fault sampler per spec seen so far: trial locations
    /// depend only on `(circuit, noise, seed)`, so workers replay
    /// per-request streams from it instead of rebuilding.
    samplers: HashMap<QuerySpec, Arc<FaultSampler>>,
    /// The recorder's interned group id per spec, filled at each spec's
    /// first batch while the recorder is enabled.
    groups: HashMap<QuerySpec, u32>,
    batcher: DeadlineBatcher,
    timeline: VirtualTimeline,
    now: Ticks,
    next_id: u64,
    /// Always-on service counters (`admission.*`, `service.*`): the
    /// source of truth behind the [`AdmissionStats`] and
    /// [`batch_reports_dropped`](QramService::batch_reports_dropped)
    /// accessor shims.
    metrics: MetricsRegistry,
    /// The optional telemetry sink: spans and stage histograms go here.
    /// The [`NoopRecorder`] default monomorphizes every call to an
    /// empty inline body, so undecorated services pay nothing.
    recorder: R,
    /// Executed requests whose virtual completion lies in the future.
    in_flight: BinaryHeap<InFlight>,
    /// Virtually completed results awaiting the next poll/drain.
    ready: VecDeque<QueryResult>,
    /// Batches fired since they were last taken (by
    /// [`drain`](QramService::drain) or
    /// [`take_batch_reports`](QramService::take_batch_reports)), FIFO,
    /// capped at [`MAX_BATCH_REPORTS`] so a poll-only open-loop client
    /// that never takes them cannot grow the service unboundedly.
    fired_reports: VecDeque<BatchReport>,
}

/// Retained [`BatchReport`]s before the oldest are dropped (see
/// [`QramService::take_batch_reports`]).
pub const MAX_BATCH_REPORTS: usize = 4096;

impl QramService {
    /// A service over `memory` with the given tunables and no telemetry
    /// (the zero-cost [`NoopRecorder`]).
    ///
    /// # Panics
    ///
    /// Panics if `config.queue_capacity == 0` (a pipeline that sheds
    /// every offer serves nothing) — the batch limit, cache capacity and
    /// cost-model units are validated by their own constructors.
    pub fn new(memory: Memory, config: ServiceConfig) -> Self {
        QramService::with_recorder(memory, config, NoopRecorder)
    }
}

impl<R: Recorder> QramService<R> {
    /// A service over `memory` that records telemetry — spans and stage
    /// histograms — into `recorder` as it serves. Everything recorded is
    /// measured on the virtual clock, so the trace and metrics are
    /// bit-identical for any worker count.
    ///
    /// # Panics
    ///
    /// Same contract as [`QramService::new`].
    pub fn with_recorder(memory: Memory, config: ServiceConfig, recorder: R) -> Self {
        assert!(config.queue_capacity > 0, "queue capacity must be positive");
        QramService {
            memory,
            config,
            compiler: Compiler::new(config.cost, config.shots),
            cache: CircuitCache::new(config.cache_capacity),
            samplers: HashMap::new(),
            groups: HashMap::new(),
            batcher: DeadlineBatcher::new(config.batch_limit, config.deadline),
            timeline: VirtualTimeline::new(config.cost.units),
            now: 0,
            next_id: 0,
            metrics: MetricsRegistry::new(),
            recorder,
            in_flight: BinaryHeap::new(),
            ready: VecDeque::new(),
            fired_reports: VecDeque::new(),
        }
    }

    /// The attached telemetry recorder (e.g. to export its trace and
    /// metrics after a run).
    pub fn recorder(&self) -> &R {
        &self.recorder
    }

    /// A merged snapshot of the always-on service metrics: `admission.*`
    /// and `service.*` counters plus the circuit cache's `cache.*`
    /// counters.
    pub fn metrics_snapshot(&self) -> MetricsRegistry {
        let mut merged = self.metrics.clone();
        merged.merge_from(self.cache.metrics());
        merged
    }

    /// The served memory.
    pub fn memory(&self) -> &Memory {
        &self.memory
    }

    /// The service tunables.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The current instant on the virtual clock.
    pub fn now(&self) -> Ticks {
        self.now
    }

    /// Requests admitted but not yet fired into a batch.
    pub fn pending(&self) -> usize {
        self.batcher.pending()
    }

    /// Requests in the system: pending plus executing (virtually
    /// incomplete). This is what the bounded queue bounds.
    pub fn in_system(&self) -> usize {
        self.batcher.pending() + self.in_flight.len()
    }

    /// Total requests returned to callers over the service's lifetime:
    /// every completion counted by `service.completed` except those
    /// still waiting in the ready queue.
    pub fn served(&self) -> u64 {
        self.metrics.counter(key::SERVICE_COMPLETED) - self.ready.len() as u64
    }

    /// Lifetime circuit-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Lifetime admission counters — read back from the `admission.*`
    /// keys of the always-on metrics registry.
    pub fn admission_stats(&self) -> AdmissionStats {
        AdmissionStats::from_metrics(&self.metrics)
    }

    /// Takes the accounting of every batch fired since the last
    /// [`drain`](QramService::drain) or call to this method, in firing
    /// order — the open-loop counterpart of [`ServiceReport::batches`].
    ///
    /// At most [`MAX_BATCH_REPORTS`] are retained between takes; check
    /// [`batch_reports_dropped`](QramService::batch_reports_dropped)
    /// when harvesting infrequently under heavy traffic.
    pub fn take_batch_reports(&mut self) -> Vec<BatchReport> {
        self.fired_reports.drain(..).collect()
    }

    /// Batch reports dropped (oldest first) because more than
    /// [`MAX_BATCH_REPORTS`] accumulated between takes.
    pub fn batch_reports_dropped(&self) -> u64 {
        self.metrics.counter(key::BATCH_REPORTS_DROPPED)
    }

    /// The earliest future instant anything happens on this service's
    /// virtual clock: the next completion a [`poll`](QramService::poll)
    /// returns, or the next batch deadline, whichever comes first.
    /// Results already harvested into the ready queue (by an
    /// admission's clock advance) report the current instant.
    /// Work-conserving releases need no separate entry: a unit frees
    /// exactly at a completion instant, so polling to the returned
    /// instant observes them too. `None` when the pipeline is idle.
    pub fn next_event(&self) -> Option<Ticks> {
        let completion = if self.ready.is_empty() {
            self.in_flight.peek().map(|f| f.result.completed)
        } else {
            Some(self.now)
        };
        match (completion, self.batcher.next_deadline()) {
            (Some(c), Some(d)) => Some(c.min(d)),
            (c, d) => c.or(d),
        }
    }

    /// Whether `spec`'s compiled circuit is cache-resident, without
    /// touching recency or the lookup counters — the fleet router's
    /// cache-affinity probe for replica tie-breaking.
    pub fn cache_contains(&self, spec: &QuerySpec) -> bool {
        self.cache.contains(spec)
    }

    /// Offers one query arriving at `arrival` on the virtual clock —
    /// the non-blocking open-loop admission path.
    ///
    /// Advances the clock to `arrival` (firing due batches, completing
    /// executed work) and resolves to an [`Admission`]: `Accepted` with
    /// a request id, `Shed` when the bounded queue is full, or
    /// `Rejected` for structurally invalid requests. Arrivals must be
    /// offered in nondecreasing order; an `arrival` earlier than the
    /// clock is clamped to *now* (virtual time never rewinds).
    pub fn try_submit_at(&mut self, address: u64, spec: QuerySpec, arrival: Ticks) -> Admission {
        self.try_submit_tagged_at(
            address,
            spec,
            arrival,
            TenantId::default(),
            SloClass::default(),
        )
    }

    /// [`try_submit_at`](QramService::try_submit_at) with an explicit
    /// tenant and SLO class — the fleet front door's admission hook. The
    /// tags ride along on the admitted [`QueryRequest`] for accounting;
    /// a bare service schedules and prices every class identically, so
    /// tagging never perturbs results.
    pub fn try_submit_tagged_at(
        &mut self,
        address: u64,
        spec: QuerySpec,
        arrival: Ticks,
        tenant: TenantId,
        slo: SloClass,
    ) -> Admission {
        self.advance_to(arrival.max(self.now));
        if spec.address_width() != self.memory.address_width() {
            self.record_terminal(AdmissionOutcome::Rejected);
            return Admission::Rejected(RejectReason::SpecWidthMismatch {
                spec,
                memory_width: self.memory.address_width(),
            });
        }
        if address >= self.memory.len() as u64 {
            self.record_terminal(AdmissionOutcome::Rejected);
            return Admission::Rejected(RejectReason::AddressOutOfRange {
                address,
                cells: self.memory.len(),
            });
        }
        let queue_depth = self.in_system();
        if queue_depth >= self.config.queue_capacity {
            self.record_terminal(AdmissionOutcome::Shed);
            return Admission::Shed { queue_depth };
        }
        let id = self.admit(address, spec, tenant, slo);
        // Work conservation: if the modeled device has a free unit right
        // now, waiting for the batch to fill (or its deadline) is pure
        // latency — release pending work immediately.
        self.conserve_now();
        Admission::Accepted(id)
    }

    /// Counts a shed/rejected offer and records its terminal admission
    /// span, so the trace accounts for every arrival — not only the
    /// completed ones. Terminal spans never consume a request id; they
    /// carry a synthetic `SYNTHETIC_REQUEST_BASE | ordinal` key instead,
    /// keeping accepted requests' ids (and fault streams) untouched.
    fn record_terminal(&mut self, outcome: AdmissionOutcome) {
        let ordinal = self.metrics.counter(key::ADMISSION_SHED)
            + self.metrics.counter(key::ADMISSION_REJECTED);
        let counter = match outcome {
            AdmissionOutcome::Shed => key::ADMISSION_SHED,
            _ => key::ADMISSION_REJECTED,
        };
        self.metrics.add(counter, 1);
        if self.recorder.enabled() {
            self.recorder.span(SpanEvent {
                request: SYNTHETIC_REQUEST_BASE + ordinal,
                start: self.now,
                end: self.now,
                stage: SpanStage::Admission {
                    outcome,
                    queue_depth: self.in_system() as u64,
                },
            });
        }
    }

    /// Admits one query at the current clock instant and returns its
    /// request id — the closed-loop path, modeling a client that blocks
    /// until admitted (and is therefore never shed by the bounded
    /// queue).
    ///
    /// # Panics
    ///
    /// Panics if `spec`'s address width disagrees with the memory or
    /// `address` is out of range; use
    /// [`try_submit_at`](QramService::try_submit_at) for non-panicking
    /// admission.
    pub fn submit(&mut self, address: u64, spec: QuerySpec) -> u64 {
        assert_eq!(
            spec.address_width(),
            self.memory.address_width(),
            "spec address width disagrees with the served memory"
        );
        assert!(
            address < self.memory.len() as u64,
            "address {address} out of range for {} cells",
            self.memory.len()
        );
        self.admit(address, spec, TenantId::default(), SloClass::default())
    }

    /// Admits a validated request and fires its batch if it filled.
    fn admit(&mut self, address: u64, spec: QuerySpec, tenant: TenantId, slo: SloClass) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.metrics.add(key::ADMISSION_ACCEPTED, 1);
        if self.recorder.enabled() {
            self.recorder.span(SpanEvent {
                request: id,
                start: self.now,
                end: self.now,
                stage: SpanStage::Admission {
                    outcome: AdmissionOutcome::Accepted,
                    queue_depth: self.in_system() as u64,
                },
            });
        }
        let request = QueryRequest {
            id,
            address,
            spec,
            arrival: self.now,
            tenant,
            slo,
        };
        // The admitted request joins the queue before anything fires:
        // that instant is the queue-depth high-water candidate.
        self.recorder
            .gauge_max(key::QUEUE_DEPTH_HIGH_WATER, self.in_system() as u64 + 1);
        if let Some(batch) = self.batcher.push(request) {
            self.fire_batches(vec![batch], self.now, FireReason::Full);
        }
        id
    }

    /// Admits a whole `(address, spec)` stream (e.g. from
    /// [`crate::workload::assign_specs`]) at the current clock instant;
    /// returns the number admitted.
    pub fn submit_all(&mut self, stream: impl IntoIterator<Item = (u64, QuerySpec)>) -> usize {
        let mut admitted = 0;
        for (address, spec) in stream {
            self.submit(address, spec);
            admitted += 1;
        }
        admitted
    }

    /// Advances the virtual clock to `until` and returns every result
    /// that completed by then, in completion order.
    pub fn poll(&mut self, until: Ticks) -> Vec<QueryResult> {
        self.advance_to(until.max(self.now));
        self.take_ready()
    }

    /// Fires everything still pending (deadlines waived), runs the
    /// virtual clock until the pipeline is idle, and returns the
    /// remaining results in completion order.
    pub fn run_until_idle(&mut self) -> Vec<QueryResult> {
        let batches = self.batcher.flush();
        self.fire_batches(batches, self.now, FireReason::Drain);
        self.advance_to(self.timeline.idle_at().max(self.now));
        self.take_ready()
    }

    /// Serves everything still in the pipeline and reports: fires all
    /// pending batches (deadlines waived), runs the clock to idle, and
    /// returns every unreturned result in admission order together with
    /// per-batch accounting — the closed-loop counterpart of
    /// [`poll`](QramService::poll).
    pub fn drain(&mut self) -> ServiceReport {
        let mut results = self.run_until_idle();
        results.sort_by_key(|r| r.id);
        ServiceReport {
            workers: self.config.resolved_workers(results.len()),
            results,
            batches: self.take_batch_reports(),
            cache: self.cache.stats(),
            admission: self.admission_stats(),
        }
    }

    /// Hands the ready queue to the caller.
    fn take_ready(&mut self) -> Vec<QueryResult> {
        self.ready.drain(..).collect()
    }

    /// While work is pending and an execution unit is free at the
    /// current instant, fires the pending group the release policy
    /// selects.
    fn conserve_now(&mut self) {
        while self.batcher.pending() > 0 && self.timeline.next_free() <= self.now {
            let (batch, reason) = self.release_pending().expect("pending group exists");
            self.fire_batches(vec![batch], self.now, reason);
        }
    }

    /// Releases one pending group under the configured
    /// [`ReleasePolicy`], returning it with the fire reason its
    /// [`SpanStage::BatchForm`] span carries (`None` when nothing is
    /// pending).
    ///
    /// `OldestFirst` is the historical strict-FIFO release. Under
    /// `CacheAffine` the freed unit goes to the oldest group whose
    /// compiled circuit is cache-resident — zero compile ticks on the
    /// critical path — *unless* the oldest group has already waited
    /// `age_cap` ticks, in which case it is released regardless of
    /// residency. Both the selection inputs (group arrival order, cache
    /// residency) and the clock are virtual-time state, so the choice is
    /// deterministic across all host-parallelism knobs.
    fn release_pending(&mut self) -> Option<(QueryBatch, FireReason)> {
        let ReleasePolicy::CacheAffine { age_cap } = self.config.release_policy else {
            let batch = self.batcher.fire_oldest()?;
            return Some((batch, FireReason::WorkConserving));
        };
        let heads = self.batcher.group_heads();
        let (_, oldest_arrival) = *heads.first()?;
        let resident = heads.iter().position(|(spec, _)| self.cache.contains(spec));
        if self.now.saturating_sub(oldest_arrival) >= age_cap {
            // Non-starvation bound: the oldest group exhausted its age
            // cap, so it fires even if a younger resident group exists.
            if resident.is_some_and(|pos| pos > 0) {
                self.metrics.add(key::POLICY_AGE_CAP_FORCED, 1);
            }
            let batch = self.batcher.fire_oldest()?;
            return Some((batch, FireReason::WorkConserving));
        }
        match resident {
            // The oldest resident group is not the oldest group: the
            // cache-affine redirect, charged zero compile ticks.
            Some(pos) if pos > 0 => {
                self.metrics.add(key::POLICY_CACHE_AFFINE_FIRES, 1);
                let batch = self.batcher.fire_nth(pos)?;
                Some((batch, FireReason::CacheAffine))
            }
            // Oldest group is resident, or nothing is: plain FIFO.
            _ => {
                let batch = self.batcher.fire_oldest()?;
                Some((batch, FireReason::WorkConserving))
            }
        }
    }

    /// Advances the clock to `t`, firing batches in event order —
    /// deadline expirations interleaved with work-conserving releases
    /// (a unit falling free with work pending) — and harvesting
    /// completed work.
    fn advance_to(&mut self, t: Ticks) {
        loop {
            let deadline = self.batcher.next_deadline().filter(|&d| d <= t);
            let conserve = (self.batcher.pending() > 0)
                .then(|| self.timeline.next_free().max(self.now))
                .filter(|&w| w <= t);
            let conserving = match (deadline, conserve) {
                (None, None) => break,
                (Some(_), None) => false,
                (None, Some(_)) => true,
                // On a tie the work-conserving release wins: the due
                // group is also the oldest, and firing it alone keeps
                // later groups batching while the device is busy.
                (Some(d), Some(w)) => w <= d,
            };
            if conserving {
                let at = conserve.expect("conserving event exists");
                self.now = self.now.max(at);
                let (batch, reason) = self.release_pending().expect("pending group exists");
                self.fire_batches(vec![batch], self.now, reason);
            } else {
                let at = deadline.expect("deadline event exists");
                self.now = self.now.max(at);
                let due = self.batcher.fire_due(self.now);
                self.fire_batches(due, self.now, FireReason::Deadline);
            }
        }
        self.now = self.now.max(t);
        while let Some(top) = self.in_flight.peek() {
            if top.result.completed > self.now {
                break;
            }
            let done = self.in_flight.pop().expect("peeked entry exists");
            self.metrics.add(key::SERVICE_COMPLETED, 1);
            self.ready.push_back(done.result);
        }
    }

    /// The recorder's group id for `batch`'s spec: its group key is
    /// formatted and interned once, at the spec's first batch.
    fn group_id(&mut self, batch: &QueryBatch) -> u32 {
        let recorder = &mut self.recorder;
        *self
            .groups
            .entry(batch.spec)
            .or_insert_with(|| recorder.intern_group(&batch.group_key()))
    }

    /// Fires `batches` at `fire_time`: resolves circuits through the
    /// cache, schedules every member on the virtual timeline, executes
    /// the flattened work list as lane runs on the executor, and parks the
    /// results until their virtual completion.
    fn fire_batches(&mut self, batches: Vec<QueryBatch>, fire_time: Ticks, reason: FireReason) {
        if batches.is_empty() {
            return;
        }
        let enabled = self.recorder.enabled();
        let mut prepared: Vec<PreparedRequest> = Vec::new();
        for batch in batches {
            let spec = batch.spec;
            let group = enabled.then(|| self.group_id(&batch));
            let lead = batch.lead_id();
            let memory = &self.memory;
            let compiler = self.compiler;
            // Every miss is verified before the artifact may enter the
            // cache: structural checks always, the deep pass when
            // configured. A finding here is an internal miscompile — the
            // service cannot serve from a circuit its own analyzer
            // rejects, so it aborts rather than degrade silently.
            let level = if self.config.deep_verify {
                VerifyLevel::Deep
            } else {
                VerifyLevel::Structural
            };
            let (compiled, hit, evicted) = self
                .cache
                .try_fetch(spec, || compiler.try_compile(spec, memory, level))
                .unwrap_or_else(|e| panic!("miscompiled artifact for {spec:?}: {e}"));
            if let Some(evicted) = evicted {
                // Drop the evicted spec's sampler too, so the sampler map
                // stays bounded by the cache capacity. Rebuilding a
                // sampler later is deterministic (pure in circuit, noise,
                // seed), so pruning cannot perturb any fault stream.
                self.samplers.remove(&evicted);
            }
            // Virtual costs come off the artifact's measured resources:
            // compile scales with the architecture's gate count, execute
            // with its lowered depth (per-architecture calibration).
            let compile = if hit { 0 } else { compiled.cost.compile };
            let execute = compiled.cost.execute;
            let ready_at = fire_time + compile;
            self.metrics.add(key::BATCHES_FIRED, 1);
            if let Some(group) = group {
                self.recorder
                    .record(key::BATCH_SIZE, batch.requests.len() as u64);
                self.recorder.span(SpanEvent {
                    request: lead,
                    start: fire_time,
                    end: fire_time,
                    stage: SpanStage::BatchForm {
                        group,
                        reason,
                        size: batch.requests.len() as u64,
                    },
                });
                self.recorder.span(SpanEvent {
                    request: lead,
                    start: fire_time,
                    end: ready_at,
                    stage: SpanStage::Compile {
                        group,
                        cache_hit: hit,
                        verify: Compiler::verify_tag(level),
                    },
                });
            }
            let config = &self.config;
            let sampler = (self.config.shots > 0).then(|| {
                Arc::clone(self.samplers.entry(spec).or_insert_with(|| {
                    Arc::new(FaultSampler::new(
                        compiled.circuit.circuit(),
                        config.noise,
                        config.seed,
                    ))
                }))
            });
            let requests = batch.requests.len();
            let mut batch_completed = ready_at;
            for request in batch.requests {
                let (unit, start, end) = self.timeline.assign_slot(ready_at, execute);
                // start ≥ ready_at = fire_time + compile ≥ arrival + compile,
                // so the breakdown partitions end − arrival exactly.
                let latency = Latency {
                    queue_wait: start - request.arrival - compile,
                    compile,
                    execute,
                };
                batch_completed = batch_completed.max(end);
                if let Some(group) = group {
                    self.recorder.span(SpanEvent {
                        request: request.id,
                        start: request.arrival,
                        end: request.arrival + latency.queue_wait,
                        stage: SpanStage::QueueWait { group },
                    });
                    self.recorder.span(SpanEvent {
                        request: request.id,
                        start,
                        end,
                        stage: SpanStage::Execute {
                            unit: unit as u64,
                            shots: self.config.shots as u64,
                        },
                    });
                    self.recorder
                        .record(key::STAGE_QUEUE_WAIT, latency.queue_wait);
                    self.recorder.record(key::STAGE_COMPILE, latency.compile);
                    self.recorder.record(key::STAGE_EXECUTE, latency.execute);
                    self.recorder
                        .record(key::STAGE_TOTAL, end - request.arrival);
                }
                prepared.push(PreparedRequest {
                    request,
                    compiled: Arc::clone(&compiled),
                    sampler: sampler.clone(),
                    latency,
                    completed: end,
                });
            }
            self.fired_reports.push_back(BatchReport {
                spec,
                requests,
                fired_at: fire_time,
                compile,
                completed: batch_completed,
            });
            if self.fired_reports.len() > MAX_BATCH_REPORTS {
                self.fired_reports.pop_front();
                self.metrics.add(key::BATCH_REPORTS_DROPPED, 1);
            }
        }
        let workers = self.config.resolved_workers(prepared.len());
        let mut sim_stats = ShotStats::default();
        for (result, stats) in dispatch(&prepared, workers, &self.config) {
            sim_stats.merge_from(&stats);
            self.in_flight.push(InFlight { result });
        }
        // Shot-engine counters are merged on the coordinating thread in
        // item order, so the recorder never needs to be Sync.
        sim_stats.record_into(&mut self.recorder);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qram_noise::derive_stream_seed;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn memory(n: usize) -> Memory {
        Memory::random(n, &mut StdRng::seed_from_u64(13))
    }

    fn noiseless_config() -> ServiceConfig {
        ServiceConfig::default()
            .with_shots(0)
            .with_workers(1)
            .with_cache_capacity(4)
    }

    #[test]
    fn serves_correct_values_for_every_address() {
        let memory = memory(3);
        let mut service = QramService::new(memory.clone(), noiseless_config());
        let spec = QuerySpec::new(1, 2);
        for address in 0..8u64 {
            service.submit(address, spec);
        }
        let report = service.drain();
        assert_eq!(report.results.len(), 8);
        for (i, result) in report.results.iter().enumerate() {
            assert_eq!(result.address, i as u64);
            assert_eq!(result.value, memory.get(i), "address {i}");
            // The virtual-clock breakdown partitions the total exactly.
            assert_eq!(result.completed - result.arrival, result.latency.total());
        }
        assert_eq!(service.served(), 8);
        assert_eq!(service.pending(), 0);
        assert_eq!(service.admission_stats().accepted, 8);
    }

    #[test]
    fn results_come_back_in_submission_order_despite_spec_grouping() {
        let memory = memory(3);
        let mut service = QramService::new(memory, noiseless_config());
        let a = QuerySpec::new(1, 2);
        let b = QuerySpec::new(2, 1);
        // Interleave specs; batching groups them, results must not.
        let ids: Vec<u64> = (0..6u64)
            .map(|i| service.submit(i, if i % 2 == 0 { a } else { b }))
            .collect();
        let report = service.drain();
        let got: Vec<u64> = report.results.iter().map(|r| r.id).collect();
        assert_eq!(got, ids);
        // Two batches, one per spec.
        assert_eq!(report.batches.len(), 2);
        assert_eq!(report.batches[0].spec, a);
        assert_eq!(report.batches[1].spec, b);
    }

    #[test]
    fn noisy_results_are_bit_identical_across_worker_counts() {
        let mem = memory(4);
        let run = |workers: usize| {
            let config = ServiceConfig::default()
                .with_shots(24)
                .with_seed(17)
                .with_workers(workers)
                .with_batch_limit(3);
            let mut service = QramService::new(mem.clone(), config);
            let specs = [
                QuerySpec::new(1, 3),
                QuerySpec::new(2, 2),
                QuerySpec::new(3, 1),
            ];
            for i in 0..24u64 {
                service.submit(i % 16, specs[(i % 3) as usize]);
            }
            service.drain()
        };
        let serial = run(1);
        for workers in [2, 3, 4, 7] {
            let parallel = run(workers);
            // Results (ids, values, estimates, latency breakdowns) are
            // bit-identical; so is the whole batch accounting — every
            // field of BatchReport is virtual-clock-deterministic.
            assert_eq!(serial.results, parallel.results, "workers = {workers}");
            assert_eq!(serial.batches, parallel.batches);
            assert_eq!(serial.cache, parallel.cache);
            assert_eq!(serial.admission, parallel.admission);
        }
    }

    #[test]
    fn noisy_estimates_depend_on_request_id_not_batch_position() {
        // Two services submit the same address under different queue
        // shapes; the shared request id must receive the same estimate.
        let mem = memory(3);
        let config = ServiceConfig::default().with_shots(16).with_seed(5);
        let spec = QuerySpec::new(1, 2);

        let mut lone = QramService::new(mem.clone(), config);
        lone.submit(3, spec); // id 0
        let lone_result = lone.drain().results[0].clone();

        let mut crowded = QramService::new(mem, config);
        crowded.submit(3, spec); // id 0, now sharing its batch
        for address in 0..6 {
            crowded.submit(address, spec);
        }
        let crowded_result = crowded.drain().results[0].clone();
        assert_eq!(lone_result, crowded_result);
    }

    #[test]
    fn drain_on_empty_queue_is_a_no_op() {
        let mut service = QramService::new(memory(2), noiseless_config());
        let report = service.drain();
        assert!(report.results.is_empty());
        assert!(report.batches.is_empty());
        assert_eq!(report.workers, 1);
    }

    #[test]
    fn noiseless_drain_reports_one_inline_worker() {
        // Noiseless items run inline on one thread whatever the worker
        // count, and the report says so.
        let config = noiseless_config().with_workers(4);
        let mut service = QramService::new(memory(3), config);
        for address in 0..8u64 {
            service.submit(address, QuerySpec::new(1, 2));
        }
        let report = service.drain();
        assert_eq!(report.results.len(), 8);
        assert_eq!(report.workers, 1);
    }

    #[test]
    fn cache_is_reused_across_drains() {
        let mut service = QramService::new(memory(3), noiseless_config());
        let spec = QuerySpec::new(1, 2);
        service.submit(0, spec);
        service.drain();
        service.submit(1, spec);
        let report = service.drain();
        assert_eq!(report.cache.misses, 1);
        assert_eq!(report.cache.hits, 1);
        assert_eq!(report.cache.lookups, 2);
    }

    #[test]
    #[should_panic(expected = "address width disagrees")]
    fn mismatched_spec_is_rejected() {
        let mut service = QramService::new(memory(3), noiseless_config());
        service.submit(0, QuerySpec::new(1, 1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_address_is_rejected() {
        let mut service = QramService::new(memory(3), noiseless_config());
        service.submit(8, QuerySpec::new(1, 2));
    }

    #[test]
    fn invalid_open_loop_offers_resolve_to_rejections() {
        let mut service = QramService::new(memory(3), noiseless_config());
        assert!(matches!(
            service.try_submit_at(0, QuerySpec::new(1, 1), 0),
            Admission::Rejected(RejectReason::SpecWidthMismatch { .. })
        ));
        assert!(matches!(
            service.try_submit_at(8, QuerySpec::new(1, 2), 0),
            Admission::Rejected(RejectReason::AddressOutOfRange { .. })
        ));
        assert_eq!(service.admission_stats().rejected, 2);
        assert_eq!(service.admission_stats().accepted, 0);
    }

    #[test]
    fn deadline_fires_underfull_batches_as_the_clock_advances() {
        let config = noiseless_config().with_deadline(100).with_batch_limit(8);
        let mut service = QramService::new(memory(3), config);
        let spec = QuerySpec::new(1, 2);
        // Two blockers take both default execution units at t = 0, so
        // only the deadline can fire the later requests.
        for address in [5, 6] {
            assert!(service.try_submit_at(address, spec, 0).is_accepted());
        }
        assert_eq!(service.pending(), 0, "the blockers fired on arrival");
        service.take_batch_reports();
        assert!(service.try_submit_at(1, spec, 10).is_accepted());
        assert!(service.try_submit_at(2, spec, 30).is_accepted());
        // The oldest pending member's deadline: 10 + 100.
        assert_eq!(service.batcher.next_deadline(), Some(110));
        // Before it nothing fires.
        assert!(service.poll(109).is_empty());
        assert_eq!(service.pending(), 2);
        // At the deadline the underfull batch fires; results complete
        // after compile + execute on the virtual clock.
        let results = service.poll(1_000_000);
        assert_eq!(results.len(), 4);
        assert_eq!(service.pending(), 0);
        for result in results.iter().filter(|r| r.id >= 2) {
            assert!(result.latency.queue_wait > 0, "waited for the deadline");
            assert_eq!(result.completed - result.arrival, result.latency.total());
        }
        // The batch report records the deadline instant.
        let report = service.drain();
        assert_eq!(report.batches.len(), 1);
        assert_eq!(report.batches[0].fired_at, 110);
        assert_eq!(report.batches[0].requests, 2);
    }

    #[test]
    fn full_queue_sheds_and_recovers() {
        let config = noiseless_config()
            .with_queue_capacity(4)
            .with_batch_limit(2)
            .with_deadline(1_000);
        let mut service = QramService::new(memory(3), config);
        let spec = QuerySpec::new(1, 2);
        // Fill the bounded queue with simultaneous arrivals.
        let mut accepted = 0;
        let mut shed = 0;
        for address in 0..8u64 {
            match service.try_submit_at(address, spec, 0) {
                Admission::Accepted(_) => accepted += 1,
                Admission::Shed { .. } => shed += 1,
                Admission::Rejected(_) => unreachable!(),
            }
        }
        assert_eq!(accepted, 4);
        assert_eq!(shed, 4);
        assert_eq!(service.admission_stats().shed, 4);
        // Once the pipeline clears, admission recovers.
        let drained = service.run_until_idle();
        assert_eq!(drained.len(), 4);
        assert!(service.try_submit_at(0, spec, service.now()).is_accepted());
    }

    #[test]
    fn virtual_latency_is_independent_of_real_worker_count() {
        let mem = memory(3);
        let run = |workers: usize| {
            let config = ServiceConfig::default()
                .with_shots(8)
                .with_workers(workers)
                .with_deadline(500)
                .with_batch_limit(4);
            let mut service = QramService::new(mem.clone(), config);
            let spec = QuerySpec::new(1, 2);
            for i in 0..12u64 {
                service.try_submit_at(i % 8, spec, i * 40);
            }
            service.run_until_idle()
        };
        let serial = run(1);
        let parallel = run(4);
        assert_eq!(serial, parallel);
        assert_eq!(serial.len(), 12);
    }

    #[test]
    fn batch_report_buffer_is_bounded_for_poll_only_clients() {
        // An open-loop client that never takes batch reports must not
        // grow the service without bound: the FIFO cap drops the oldest
        // and counts the drops.
        let config = noiseless_config().with_batch_limit(1);
        let mut service = QramService::new(memory(2), config);
        let spec = QuerySpec::new(1, 1);
        let total = MAX_BATCH_REPORTS + 100;
        for i in 0..total {
            service.submit(i as u64 % 4, spec); // fires one batch each
        }
        assert_eq!(service.batch_reports_dropped(), 100);
        let reports = service.take_batch_reports();
        assert_eq!(reports.len(), MAX_BATCH_REPORTS);
        // The retained window is the most recent one.
        assert_eq!(reports.last().unwrap().requests, 1);
        assert!(service.take_batch_reports().is_empty());
    }

    #[test]
    fn max_deadline_slack_never_fires_early() {
        // Ticks::MAX slack = no deadline firing; arrivals at nonzero
        // instants must not overflow into immediate deadlines.
        let config = noiseless_config()
            .with_deadline(Ticks::MAX)
            .with_batch_limit(4);
        let mut service = QramService::new(memory(3), config);
        let spec = QuerySpec::new(1, 2);
        // Two blockers take both default execution units at t = 0.
        for address in [5, 6] {
            assert!(service.try_submit_at(address, spec, 0).is_accepted());
        }
        let unit_free = service.timeline.next_free();
        assert!(unit_free > 500, "premise: the units are busy at 500");
        assert!(service.try_submit_at(1, spec, 500).is_accepted());
        assert_eq!(service.batcher.next_deadline(), Some(Ticks::MAX));
        // The request stays pending until a unit frees.
        let mut results = service.poll(unit_free - 1);
        assert_eq!(service.pending(), 1);
        results.extend(service.poll(unit_free));
        assert_eq!(service.pending(), 0);
        let report = service.drain();
        results.extend(report.results);
        assert_eq!(results.len(), 3);
        let last = report.batches.last().expect("the pending request fired");
        assert_eq!((last.fired_at, last.requests), (unit_free, 1));
    }

    #[test]
    fn evicted_specs_release_their_samplers() {
        // Two specs thrashing a capacity-1 cache: the sampler map must
        // track evictions instead of holding every spec ever served.
        let config = ServiceConfig::default()
            .with_shots(4)
            .with_workers(1)
            .with_cache_capacity(1)
            .with_batch_limit(2);
        let mut service = QramService::new(memory(3), config);
        let a = QuerySpec::new(1, 2);
        let b = QuerySpec::new(2, 1);
        for round in 0..3u64 {
            service.submit(round % 8, a);
            service.submit((round + 1) % 8, a);
            service.submit(round % 8, b);
            service.submit((round + 1) % 8, b);
        }
        let report = service.drain();
        assert!(report.cache.evictions > 0);
        assert!(
            service.samplers.len() <= service.config.cache_capacity,
            "{} samplers held over capacity {}",
            service.samplers.len(),
            service.config.cache_capacity
        );
        assert_eq!(report.results.len(), 12);
    }

    #[test]
    fn work_conserving_idle_service_fires_on_arrival() {
        // A lone request reaching an idle device must not sit out the
        // batching deadline: with work conservation (the default) it
        // fires the instant it arrives.
        let config = noiseless_config()
            .with_deadline(100_000)
            .with_batch_limit(64);
        let mut service = QramService::new(memory(3), config);
        let spec = QuerySpec::new(1, 2);
        assert!(service.try_submit_at(3, spec, 500).is_accepted());
        assert_eq!(service.pending(), 0, "fired on arrival, not queued");
        let results = service.poll(100_000_000);
        assert_eq!(results.len(), 1);
        // No queueing: latency is exactly compile + execute.
        assert_eq!(results[0].latency.queue_wait, 0);
        assert!(results[0].latency.compile > 0);
        let reports = service.take_batch_reports();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].fired_at, 500);
    }

    #[test]
    fn work_conservation_only_fires_into_free_units() {
        // Two units (default cost model): the first two arrivals fire
        // immediately; the third finds no free unit and batches until
        // one frees up.
        let config = noiseless_config()
            .with_deadline(1_000_000)
            .with_batch_limit(64);
        let mut service = QramService::new(memory(3), config);
        let spec = QuerySpec::new(1, 2);
        for address in 0..3u64 {
            assert!(service.try_submit_at(address, spec, 0).is_accepted());
        }
        // Units are busy with requests 0 and 1; request 2 pends.
        assert_eq!(service.pending(), 1);
        let results = service.poll(1_000_000_000);
        assert_eq!(results.len(), 3);
        // The third request fired when a unit freed — well before the
        // deadline — and charged the stall as queue wait.
        let third = results.iter().find(|r| r.id == 2).expect("id 2 served");
        assert!(third.latency.queue_wait > 0);
        assert!(third.latency.total() < 1_000_000);
    }

    #[test]
    fn cache_affine_redirects_a_freed_unit_to_the_resident_group() {
        // Both units busy serving hot spec H (so H is cache-resident),
        // a cold group C pending ahead of a younger hot group: when the
        // first unit frees, the cache-affine policy hands it to the hot
        // group (zero compile ticks) and only then serves C.
        let config = noiseless_config()
            .with_deadline(1_000_000)
            .with_batch_limit(64)
            .with_release_policy(ReleasePolicy::CacheAffine { age_cap: 500_000 });
        let mut service = QramService::new(memory(3), config);
        let hot = QuerySpec::new(1, 2);
        let cold = QuerySpec::new(2, 1);
        assert!(service.try_submit_at(0, hot, 0).is_accepted()); // unit 0
        assert!(service.try_submit_at(1, hot, 0).is_accepted()); // unit 1
        assert!(service.try_submit_at(2, cold, 0).is_accepted()); // pends (oldest group)
        assert!(service.try_submit_at(3, hot, 0).is_accepted()); // pends (younger, resident)
        assert_eq!(service.pending(), 2);
        let results = service.poll(1_000_000_000);
        assert_eq!(results.len(), 4);
        let reports = service.take_batch_reports();
        // Firing order: the two immediate hot fires, then the redirect
        // to the resident hot group, then the cold group.
        assert_eq!(
            reports.iter().map(|b| b.spec).collect::<Vec<_>>(),
            vec![hot, hot, hot, cold]
        );
        assert_eq!(reports[2].compile, 0, "redirected fire was a cache hit");
        assert!(reports[3].compile > 0, "cold group still pays its compile");
        let metrics = service.metrics_snapshot();
        assert_eq!(metrics.counter(key::POLICY_CACHE_AFFINE_FIRES), 1);
        assert_eq!(metrics.counter(key::POLICY_AGE_CAP_FORCED), 0);
    }

    #[test]
    fn age_cap_forces_the_oldest_group_despite_a_resident_one() {
        // Same shape as above, but with a 1-tick age cap: by the time a
        // unit frees the cold group has exhausted its cap, so it fires
        // first even though the hot group is resident.
        let config = noiseless_config()
            .with_deadline(1_000_000)
            .with_batch_limit(64)
            .with_release_policy(ReleasePolicy::CacheAffine { age_cap: 1 });
        let mut service = QramService::new(memory(3), config);
        let hot = QuerySpec::new(1, 2);
        let cold = QuerySpec::new(2, 1);
        assert!(service.try_submit_at(0, hot, 0).is_accepted());
        assert!(service.try_submit_at(1, hot, 0).is_accepted());
        assert!(service.try_submit_at(2, cold, 0).is_accepted());
        assert!(service.try_submit_at(3, hot, 0).is_accepted());
        let results = service.poll(1_000_000_000);
        assert_eq!(results.len(), 4);
        let reports = service.take_batch_reports();
        assert_eq!(
            reports.iter().map(|b| b.spec).collect::<Vec<_>>(),
            vec![hot, hot, cold, hot]
        );
        let metrics = service.metrics_snapshot();
        assert_eq!(metrics.counter(key::POLICY_CACHE_AFFINE_FIRES), 0);
        assert_eq!(metrics.counter(key::POLICY_AGE_CAP_FORCED), 1);
    }

    #[test]
    fn oldest_first_remains_the_default_release_policy() {
        assert_eq!(
            ServiceConfig::default().release_policy,
            ReleasePolicy::OldestFirst
        );
        // And under it the counters never move, even with the same
        // contended workload the affine tests use.
        let config = noiseless_config()
            .with_deadline(1_000_000)
            .with_batch_limit(64);
        let mut service = QramService::new(memory(3), config);
        let hot = QuerySpec::new(1, 2);
        let cold = QuerySpec::new(2, 1);
        for (address, spec) in [(0, hot), (1, hot), (2, cold), (3, hot)] {
            assert!(service.try_submit_at(address, spec, 0).is_accepted());
        }
        let results = service.poll(1_000_000_000);
        assert_eq!(results.len(), 4);
        let reports = service.take_batch_reports();
        // Strict FIFO: the cold group fires before the younger hot one.
        assert_eq!(
            reports.iter().map(|b| b.spec).collect::<Vec<_>>(),
            vec![hot, hot, cold, hot]
        );
        let metrics = service.metrics_snapshot();
        assert_eq!(metrics.counter(key::POLICY_CACHE_AFFINE_FIRES), 0);
        assert_eq!(metrics.counter(key::POLICY_AGE_CAP_FORCED), 0);
    }

    #[test]
    fn deep_verification_does_not_perturb_serving() {
        // deep_verify only adds analysis on the miss path; every served
        // result — readout, fidelity, latency breakdown — is
        // bit-identical with it on.
        let memory = memory(4);
        let config = ServiceConfig::default()
            .with_shots(8)
            .with_workers(1)
            .with_batch_limit(4);
        let specs = [QuerySpec::new(1, 3), QuerySpec::new(2, 2)];
        let requests: Vec<(u64, QuerySpec)> = (0..12u64)
            .map(|i| (i % 16, specs[(i % 2) as usize]))
            .collect();
        let mut plain = QramService::new(memory.clone(), config);
        plain.submit_all(requests.clone());
        let mut deep = QramService::new(memory, config.with_deep_verify(true));
        deep.submit_all(requests);
        assert_eq!(plain.drain().results, deep.drain().results);
    }

    #[test]
    fn mixed_architectures_serve_through_one_pipeline() {
        let memory = memory(3);
        let config = noiseless_config().with_cache_capacity(8);
        let mut service = QramService::new(memory.clone(), config);
        let specs = crate::mixed_arch_specs(3);
        for &spec in &specs {
            for address in 0..8u64 {
                service.submit(address, spec);
            }
        }
        let report = service.drain();
        assert_eq!(report.results.len(), 40);
        // One distinct cache entry per architecture family.
        assert_eq!(report.cache.misses, specs.len() as u64);
        assert_eq!(report.cache.evictions, 0);
        for result in &report.results {
            // Every architecture answers with the memory ground truth.
            assert_eq!(
                result.value,
                memory.get(result.address as usize),
                "{} at {}",
                result.spec.arch,
                result.address
            );
            // Execute ticks are calibrated per architecture: they match
            // the cost model applied to the measured resources.
            let resources = result.spec.arch.instantiate().resources(&memory);
            assert_eq!(
                result.latency.execute,
                service.config().cost.execute_cost(&resources, 0),
                "{}",
                result.spec.arch
            );
        }
        // The calibration distinguishes the families: at least three
        // distinct execute costs across the five architectures.
        let mut costs: Vec<Ticks> = report.results.iter().map(|r| r.latency.execute).collect();
        costs.sort_unstable();
        costs.dedup();
        assert!(costs.len() >= 3, "execute costs {costs:?}");
    }

    #[test]
    fn request_streams_are_decorrelated() {
        let seeds: Vec<u64> = (0..64).map(|id| derive_stream_seed(2023, id)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len());
        assert_ne!(derive_stream_seed(1, 0), derive_stream_seed(2, 0));
    }
}
