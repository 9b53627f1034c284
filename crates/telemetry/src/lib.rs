//! Deterministic virtual-time telemetry for the QRAM serving stack.
//!
//! Every latency/throughput claim in the reproduction is made on the
//! **virtual clock** (`Ticks`), and results are required to be
//! bit-identical for any host parallelism (worker, shot-thread or
//! path-chunk count). This
//! crate extends that discipline from results to *observability*:
//!
//! * [`SpanTracer`] — per-request virtual-time intervals for each
//!   pipeline stage (admission, queue wait, batch formation, compile,
//!   execute), exported as a canonically-ordered event log with an
//!   fnv1a-64 digest that CI can diff across parallelism settings;
//! * [`MetricsRegistry`] — named counters, high-water gauges and
//!   log-linear [`Histogram`]s with deterministic (exactly associative)
//!   merge and a nearest-rank `percentile()` consistent with the bench
//!   crate's `report::percentile`;
//! * [`Recorder`] — the trait instrumentation sites call, with a
//!   zero-cost [`NoopRecorder`] default (every method an empty inline
//!   body, monomorphized away) and a [`TelemetryRecorder`] that feeds
//!   a registry plus a tracer;
//! * [`host_wall`] — the one audited gateway to host wall-clock time,
//!   so the determinism lint's allowlist shrinks to this single file;
//! * [`Json`] — the workspace's one JSON value, writer and strict
//!   parser, which every artifact exporter and reader goes through.
//!
//! The crate is deliberately dependency-free (it sits below `qram-sim`
//! and `qram-service` in the workspace graph) and does all arithmetic
//! in integers: merging shard-local telemetry in any order yields
//! bit-identical state.

pub mod json;
pub mod metrics;
pub mod trace;

pub use json::Json;
pub use metrics::{Histogram, MetricsRegistry};
pub use trace::{
    AdmissionOutcome, FireReason, RouteReason, SpanEvent, SpanStage, SpanTracer, VerifyTag,
    SYNTHETIC_REQUEST_BASE,
};

/// Virtual time in ticks (1 tick = 1 virtual nanosecond), mirroring
/// `qram_service::Ticks` without depending on it.
pub type Ticks = u64;

/// fnv1a-64 over a byte stream — the same digest primitive the bench
/// harness uses for results, applied here to traces and metrics.
pub fn fnv1a_64(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The audited host wall-clock read.
///
/// Virtual-time code must never observe host time; the determinism lint
/// enforces that workspace-wide. The two legitimate consumers — bench
/// harness "how long did the *host* take" columns and example binaries
/// printing runtimes for humans — route through this helper instead of
/// calling `Instant::now()` themselves, so the lint allowlist carries
/// exactly one entry: this file. The returned [`std::time::Instant`] is
/// only ever compared against itself (`elapsed()`); nothing derived
/// from it may flow into results, digests or schedules.
pub fn host_wall() -> std::time::Instant {
    std::time::Instant::now()
}

/// Canonical metric names, shared by recording sites and exporters so
/// the registry's key space stays consistent across crates.
pub mod key {
    /// Counter: arrivals admitted into the pending queue.
    pub const ADMISSION_ACCEPTED: &str = "admission.accepted";
    /// Counter: arrivals shed by the admission controller.
    pub const ADMISSION_SHED: &str = "admission.shed";
    /// Counter: arrivals rejected as malformed.
    pub const ADMISSION_REJECTED: &str = "admission.rejected";
    /// Counter: compiled-circuit cache lookups.
    pub const CACHE_LOOKUPS: &str = "cache.lookups";
    /// Counter: cache lookups served from the cache.
    pub const CACHE_HITS: &str = "cache.hits";
    /// Counter: cache lookups that had to compile.
    pub const CACHE_MISSES: &str = "cache.misses";
    /// Counter: compiled circuits evicted by the LRU policy.
    pub const CACHE_EVICTIONS: &str = "cache.evictions";
    /// Counter: per-batch reports dropped by the FIFO cap.
    pub const BATCH_REPORTS_DROPPED: &str = "service.batch_reports_dropped";
    /// Counter: requests that completed execution.
    pub const SERVICE_COMPLETED: &str = "service.completed";
    /// Counter: batches fired by the scheduler.
    pub const BATCHES_FIRED: &str = "service.batches_fired";
    /// Gauge: high-water mark of requests in the system.
    pub const QUEUE_DEPTH_HIGH_WATER: &str = "queue.depth.high_water";
    /// Histogram: per-request queue-wait ticks.
    pub const STAGE_QUEUE_WAIT: &str = "stage.queue_wait_ns";
    /// Histogram: per-request compile ticks.
    pub const STAGE_COMPILE: &str = "stage.compile_ns";
    /// Histogram: per-request execute ticks.
    pub const STAGE_EXECUTE: &str = "stage.execute_ns";
    /// Histogram: per-request end-to-end latency ticks.
    pub const STAGE_TOTAL: &str = "stage.total_ns";
    /// Histogram: batch sizes at fire time.
    pub const BATCH_SIZE: &str = "batch.size";
    /// Counter: work-conserving releases the cache-affine policy
    /// redirected to a younger cache-resident group.
    pub const POLICY_CACHE_AFFINE_FIRES: &str = "policy.cache_affine_fires";
    /// Counter: releases where the age cap forced the oldest group
    /// despite a younger cache-resident group pending.
    pub const POLICY_AGE_CAP_FORCED: &str = "policy.age_cap_forced";
    /// Counter: shots sampled by the simulation engine.
    pub const SIM_SHOTS: &str = "sim.shots";
    /// Counter: shots whose fault plan forced a path replay.
    pub const SIM_REPLAYED: &str = "sim.replayed_shots";
    /// Counter: faults injected across all shots.
    pub const SIM_FAULTS: &str = "sim.faults_injected";
    /// Counter: gate applications replayed by faulty shots.
    pub const SIM_GATES: &str = "sim.gate_applications";
    /// Counter: requests the fleet router placed on a shard.
    pub const FLEET_ROUTED: &str = "fleet.routed";
    /// Counter: requests shed at the fleet front door.
    pub const FLEET_SHED: &str = "fleet.shed";
    /// Counter: replica routes whose tie-break was decided by the
    /// cache-residency probe (rather than the lowest-shard fallback).
    pub const FLEET_REPLICA_CACHE_WINS: &str = "fleet.replica_cache_wins";
    /// Gauge: high-water mark of the fleet front-door queue depth.
    pub const FLEET_FRONT_DEPTH_HIGH_WATER: &str = "fleet.front_depth.high_water";
}

/// The instrumentation interface threaded through the serving pipeline
/// and the simulation engine.
///
/// Sites call these methods unconditionally on hot paths; with the
/// [`NoopRecorder`] every call monomorphizes to an empty inline body,
/// so disabled telemetry costs nothing. Sites that would *allocate* to
/// build a payload (group-key strings, span structs) guard on
/// [`Recorder::enabled`] first.
pub trait Recorder {
    /// Whether recording is active. Sites use this to skip payload
    /// construction; the default is `true`.
    fn enabled(&self) -> bool {
        true
    }

    /// Adds `delta` to a named counter.
    fn add(&mut self, name: &'static str, delta: u64);

    /// Raises a named high-water gauge to `value` if larger.
    fn gauge_max(&mut self, name: &'static str, value: u64);

    /// Records a sample into a named histogram.
    fn record(&mut self, name: &'static str, value: u64);

    /// Records one pipeline span.
    fn span(&mut self, event: SpanEvent);
}

/// The zero-cost default recorder: drops everything.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }

    #[inline(always)]
    fn add(&mut self, _name: &'static str, _delta: u64) {}

    #[inline(always)]
    fn gauge_max(&mut self, _name: &'static str, _value: u64) {}

    #[inline(always)]
    fn record(&mut self, _name: &'static str, _value: u64) {}

    #[inline(always)]
    fn span(&mut self, _event: SpanEvent) {}
}

/// A recorder that captures everything: metrics into a
/// [`MetricsRegistry`], spans into a [`SpanTracer`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TelemetryRecorder {
    metrics: MetricsRegistry,
    tracer: SpanTracer,
}

impl TelemetryRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        TelemetryRecorder::default()
    }

    /// The captured metrics.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The captured span log.
    pub fn tracer(&self) -> &SpanTracer {
        &self.tracer
    }

    /// Digest of the canonical span log.
    pub fn trace_digest(&self) -> u64 {
        self.tracer.digest()
    }
}

impl Recorder for TelemetryRecorder {
    fn add(&mut self, name: &'static str, delta: u64) {
        self.metrics.add(name, delta);
    }

    fn gauge_max(&mut self, name: &'static str, value: u64) {
        self.metrics.gauge_max(name, value);
    }

    fn record(&mut self, name: &'static str, value: u64) {
        self.metrics.record(name, value);
    }

    fn span(&mut self, event: SpanEvent) {
        self.tracer.push(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Standard FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a_64([]), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(*b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(*b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn noop_recorder_is_disabled() {
        let mut r = NoopRecorder;
        assert!(!r.enabled());
        r.add(key::SIM_SHOTS, 5);
        r.record(key::STAGE_TOTAL, 10);
        // Nothing to observe: the type holds no state at all.
        assert_eq!(std::mem::size_of::<NoopRecorder>(), 0);
    }

    #[test]
    fn telemetry_recorder_captures_everything() {
        let mut r = TelemetryRecorder::new();
        assert!(r.enabled());
        r.add(key::ADMISSION_ACCEPTED, 2);
        r.gauge_max(key::QUEUE_DEPTH_HIGH_WATER, 7);
        r.record(key::STAGE_TOTAL, 1234);
        r.span(SpanEvent {
            request: 1,
            start: 0,
            end: 5,
            stage: SpanStage::Execute { unit: 0, shots: 3 },
        });
        assert_eq!(r.metrics().counter(key::ADMISSION_ACCEPTED), 2);
        assert_eq!(r.metrics().gauge(key::QUEUE_DEPTH_HIGH_WATER), 7);
        assert_eq!(r.metrics().histogram(key::STAGE_TOTAL).unwrap().count(), 1);
        assert_eq!(r.tracer().len(), 1);
        assert_ne!(r.trace_digest(), SpanTracer::new().digest());
    }
}
