//! Event-driven QRAM query serving — the systems layer above the
//! simulator.
//!
//! The MICRO '23 paper argues QRAM must be designed as a *system*: a
//! virtual-QRAM layer paging a large address space through a small
//! physical tree. The original bucket-brigade proposals frame QRAM the
//! same way — a shared memory answering *streams* of addressed queries.
//! This crate is that serving layer for the reproduction's simulator
//! stack, built as a discrete-event pipeline on a **virtual clock** so
//! latency percentiles are honest (queueing delay included) and
//! reproducible (independent of the simulation host):
//!
//! The pipeline is **architecture-polymorphic**: a [`QuerySpec`] wraps
//! a [`qram_core::ArchSpec`] naming any of the five `qram-core`
//! architectures (SQC, fanout, bucket-brigade, select-swap, virtual),
//! and one service instance serves a mixed-architecture request stream
//! through shared batching, caching and cost accounting.
//!
//! * [`QueryRequest`] / [`QuerySpec`] / [`QueryResult`] — the serving
//!   vocabulary: an address with an arrival timestamp, the compilation
//!   profile (architecture spec) that serves it, and the answer
//!   (classical readout, Monte-Carlo fidelity estimate, and a
//!   [`Latency`] breakdown into `queue_wait` / `compile` / `execute` on
//!   the virtual clock);
//! * [`Compiler`] / [`CompiledQuery`] / [`CostEstimate`] — the staged
//!   compilation pipeline `spec → circuit → resources → cost`: every
//!   cache miss produces an artifact carrying the compiled circuit, its
//!   measured [`qram_circuit::resources::ResourceCount`], and the
//!   virtual-time price derived from it;
//! * [`Ticks`] / [`CostModel`] / [`VirtualTimeline`] — virtual time:
//!   one tick is one modeled nanosecond, costs are calibrated per
//!   architecture against measured resources (compile from gate count,
//!   execute from lowered Clifford+T depth), and the timeline models
//!   the device's parallel execution units;
//! * [`Admission`] / [`AdmissionStats`] — non-blocking admission over a
//!   bounded queue: accepted, [shed](Admission::Shed) by back-pressure,
//!   or rejected as structurally invalid;
//! * [`DeadlineBatcher`] / [`QueryBatch`] — the
//!   deadline-aware batching scheduler: a batch fires when it reaches
//!   the batch limit, when its oldest member's deadline slack runs
//!   out, or — work conservation, always on — immediately when the
//!   modeled device has a free execution unit. *Which* pending group a
//!   freed unit serves is policy-driven ([`ReleasePolicy`]): strict
//!   FIFO by default, or cache-affine dispatch preferring the oldest
//!   group whose compiled circuit is cache-resident (zero compile
//!   ticks), bounded by an age cap so no group starves;
//! * [`CircuitCache`] — a bounded LRU of [`CompiledQuery`] artifacts
//!   with full lookup/hit/miss/eviction accounting. Artifacts are
//!   **verified before insertion**: every cache miss runs the
//!   `qram-verify` circuit analyzer (structural checks always; the deep
//!   ancilla-lifecycle + resource-certification pass under
//!   [`ServiceConfig::deep_verify`]), and a rejected artifact is never
//!   cached or served;
//! * [`QramService`] — the engine: `submit`/`drain` for closed-loop
//!   clients, `try_submit_at`/`poll` for open-loop arrival processes,
//!   and an executor that serves runs of same-artifact requests as
//!   lanes of one bit-sliced circuit walk ([`qram_sim::Lanes`]): each
//!   request's readout, ideal run and noisy shots share the pass, with
//!   deterministic per-request seeds — results are **bit-identical for
//!   any worker count**, latency breakdowns included, and equal to the
//!   slab engine's ([`qram_sim::run_shots`]) bit for bit;
//! * [`Workload`] / [`ArrivalProcess`] / [`SpecMix`] — deterministic
//!   traffic generators: address patterns (uniform, zipfian, scan,
//!   Grover), open-loop arrival processes (Poisson, bursty MMPP), and
//!   spec assignment (round-robin or zipf-skewed over circuit shapes,
//!   including mixed-architecture sets).
//!
//! # Example
//!
//! ```
//! use qram_core::Memory;
//! use qram_service::{assign_specs, QramService, QuerySpec, ServiceConfig, Workload};
//!
//! let memory = Memory::from_bits((0..16).map(|i| i % 3 == 0));
//! let config = ServiceConfig::default().with_shots(0).with_batch_limit(4);
//! let mut service = QramService::new(memory, config);
//!
//! // 32 zipfian-addressed requests over two hot circuit shapes.
//! let workload = Workload::Zipfian { address_width: 4, theta: 0.99, seed: 7 };
//! let specs = [QuerySpec::new(2, 2), QuerySpec::new(1, 3)];
//! service.submit_all(assign_specs(&workload, &specs, 32));
//!
//! let report = service.drain();
//! assert_eq!(report.results.len(), 32);
//! assert_eq!(report.cache.misses, 2); // each hot shape compiled once
//! assert!(report.cache.hit_rate() > 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod admission;
mod cache;
mod clock;
mod compiler;
mod executor;
mod request;
mod scheduler;
mod service;
pub mod workload;

pub use admission::{Admission, AdmissionStats, RejectReason};
pub use cache::{CacheStats, CircuitCache};
pub use clock::{CostModel, Ticks, VirtualTimeline};
pub use compiler::{CompiledQuery, Compiler, CostEstimate};
pub use qram_core::ArchSpec;
pub use qram_telemetry::{MetricsRegistry, NoopRecorder, Recorder, SpanTracer, TelemetryRecorder};
pub use qram_verify::{Finding, VerifyError, VerifyLevel};
pub use request::{
    Latency, QueryRequest, QueryResult, QuerySpec, SloClass, SpecOverrideError, TenantId,
};
pub use scheduler::{DeadlineBatcher, QueryBatch, ReleasePolicy};
pub use service::{BatchReport, QramService, ServiceConfig, ServiceReport};
pub use workload::{
    assign_specs, assign_specs_with, mixed_arch_specs, ArrivalProcess, SpecMix, Workload,
};
