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
//! * [`MetricsRegistry`] — counters, high-water gauges and log-linear
//!   [`Histogram`]s in array slots indexed by [`Key`], with
//!   deterministic (exactly associative) merge and a nearest-rank
//!   `percentile()` consistent with the bench crate's
//!   `report::percentile`;
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
    let mut hash = Fnv1a::new();
    for byte in bytes {
        hash.write(&[byte]);
    }
    hash.finish()
}

/// fnv1a-64 folded as bytes are produced, so digests never buffer the
/// serialization they hash.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fnv1a(u64);

impl Fnv1a {
    pub(crate) fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub(crate) fn write_u64(&mut self, value: u64) {
        self.write(&value.to_le_bytes());
    }

    /// A string as its little-endian `u64` length, then its bytes.
    pub(crate) fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    pub(crate) fn finish(self) -> u64 {
        self.0
    }
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

/// Canonical metric keys, shared by recording sites and exporters so
/// the registry's key space stays consistent across crates.
///
/// A [`Key`] is an index into one static name table that lists every
/// name in byte order, so a registry stores each metric in an array
/// slot and walks its slots in name order.
pub mod key {
    /// A metric name, as its index into the sorted name table.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
    pub struct Key(u8);

    impl Key {
        /// Number of keys.
        pub const COUNT: usize = NAMES.len();

        /// The metric name.
        pub fn name(self) -> &'static str {
            NAMES[self.index()]
        }

        /// Every key, in name order.
        pub fn all() -> impl Iterator<Item = Key> {
            (0..Key::COUNT as u8).map(Key)
        }

        pub(crate) fn index(self) -> usize {
            usize::from(self.0)
        }
    }

    /// Declares the keys in one list, so a key's index and its name
    /// cannot disagree: the list's order is the index order.
    macro_rules! keys {
        ($($(#[doc = $doc:literal])* $key:ident = $name:literal,)*) => {
            #[allow(non_camel_case_types, clippy::upper_case_acronyms)]
            #[repr(u8)]
            enum Index {
                $($key,)*
            }

            $(
                $(#[doc = $doc])*
                pub const $key: Key = Key(Index::$key as u8);
            )*

            /// Every metric name, indexed by [`Key`]; listed in byte order
            /// (pinned by test).
            const NAMES: &[&str] = &[$($name,)*];
        };
    }

    keys! {
        /// Counter: arrivals admitted into the pending queue.
        ADMISSION_ACCEPTED = "admission.accepted",
        /// Counter: arrivals rejected as malformed.
        ADMISSION_REJECTED = "admission.rejected",
        /// Counter: arrivals shed by the admission controller.
        ADMISSION_SHED = "admission.shed",
        /// Histogram: batch sizes at fire time.
        BATCH_SIZE = "batch.size",
        /// Counter: compiled circuits evicted by the LRU policy.
        CACHE_EVICTIONS = "cache.evictions",
        /// Counter: cache lookups served from the cache.
        CACHE_HITS = "cache.hits",
        /// Counter: compiled-circuit cache lookups.
        CACHE_LOOKUPS = "cache.lookups",
        /// Counter: cache lookups that had to compile.
        CACHE_MISSES = "cache.misses",
        /// Gauge: high-water mark of the fleet front-door queue depth.
        FLEET_FRONT_DEPTH_HIGH_WATER = "fleet.front_depth.high_water",
        /// Counter: replica routes whose tie-break was decided by the
        /// cache-residency probe (rather than the lowest-shard fallback).
        FLEET_REPLICA_CACHE_WINS = "fleet.replica_cache_wins",
        /// Counter: requests the fleet router placed on a shard.
        FLEET_ROUTED = "fleet.routed",
        /// Counter: requests shed at the fleet front door.
        FLEET_SHED = "fleet.shed",
        /// Counter: releases where the age cap forced the oldest group
        /// despite a younger cache-resident group pending.
        POLICY_AGE_CAP_FORCED = "policy.age_cap_forced",
        /// Counter: work-conserving releases the cache-affine policy
        /// redirected to a younger cache-resident group.
        POLICY_CACHE_AFFINE_FIRES = "policy.cache_affine_fires",
        /// Gauge: high-water mark of requests in the system.
        QUEUE_DEPTH_HIGH_WATER = "queue.depth.high_water",
        /// Counter: per-batch reports dropped by the FIFO cap.
        BATCH_REPORTS_DROPPED = "service.batch_reports_dropped",
        /// Counter: batches fired by the scheduler.
        BATCHES_FIRED = "service.batches_fired",
        /// Counter: requests that completed execution.
        SERVICE_COMPLETED = "service.completed",
        /// Counter: faults injected across all shots.
        SIM_FAULTS = "sim.faults_injected",
        /// Counter: gate applications replayed by faulty shots.
        SIM_GATES = "sim.gate_applications",
        /// Counter: shots whose fault plan forced a path replay.
        SIM_REPLAYED = "sim.replayed_shots",
        /// Counter: shots sampled by the simulation engine.
        SIM_SHOTS = "sim.shots",
        /// Histogram: per-request compile ticks.
        STAGE_COMPILE = "stage.compile_ns",
        /// Histogram: per-request execute ticks.
        STAGE_EXECUTE = "stage.execute_ns",
        /// Histogram: per-request queue-wait ticks.
        STAGE_QUEUE_WAIT = "stage.queue_wait_ns",
        /// Histogram: per-request end-to-end latency ticks.
        STAGE_TOTAL = "stage.total_ns",
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn names_are_strictly_sorted() {
            assert!(NAMES.windows(2).all(|w| w[0] < w[1]), "{NAMES:?}");
            assert_eq!(SIM_SHOTS.name(), "sim.shots");
            let names: Vec<&str> = Key::all().map(Key::name).collect();
            assert_eq!(names, NAMES);
        }
    }
}

pub use key::Key;

/// The instrumentation interface threaded through the serving pipeline
/// and the simulation engine.
///
/// Sites call these methods unconditionally on hot paths; with the
/// [`NoopRecorder`] every call monomorphizes to an empty inline body,
/// so disabled telemetry costs nothing. Sites that would build a
/// payload (group keys, span structs) guard on [`Recorder::enabled`]
/// first.
pub trait Recorder {
    /// Whether recording is active. Sites use this to skip payload
    /// construction; the default is `true`.
    fn enabled(&self) -> bool {
        true
    }

    /// Adds `delta` to a counter.
    fn add(&mut self, key: Key, delta: u64);

    /// Raises a high-water gauge to `value` if larger.
    fn gauge_max(&mut self, key: Key, value: u64);

    /// Records a sample into a histogram.
    fn record(&mut self, key: Key, value: u64);

    /// The id that spans recorded here carry for the batch group key
    /// `key`: the same key always gets the same id. Sites intern a key
    /// once and keep its id.
    fn intern_group(&mut self, key: &str) -> u32;

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
    fn add(&mut self, _key: Key, _delta: u64) {}

    #[inline(always)]
    fn gauge_max(&mut self, _key: Key, _value: u64) {}

    #[inline(always)]
    fn record(&mut self, _key: Key, _value: u64) {}

    #[inline(always)]
    fn intern_group(&mut self, _key: &str) -> u32 {
        0
    }

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
    fn add(&mut self, key: Key, delta: u64) {
        self.metrics.add(key, delta);
    }

    fn gauge_max(&mut self, key: Key, value: u64) {
        self.metrics.gauge_max(key, value);
    }

    fn record(&mut self, key: Key, value: u64) {
        self.metrics.record(key, value);
    }

    fn intern_group(&mut self, key: &str) -> u32 {
        self.tracer.intern(key)
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
