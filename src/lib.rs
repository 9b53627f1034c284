//! End-to-end systems architecture for quantum random access memory (QRAM).
//!
//! This crate is the facade of the workspace reproducing the MICRO '23
//! paper *Systems Architecture for Quantum Random Access Memory*
//! (Xu, Hann, Foxman, Girvin, Ding). It re-exports the sub-crates:
//!
//! * [`circuit`] — quantum circuit IR, scheduling and Clifford+T resources.
//! * [`sim`] — Feynman-path simulator for classical-reversible circuits
//!   under Pauli noise.
//! * [`noise`] — noise channels, gate-based Monte-Carlo error models and
//!   synthetic device models.
//! * [`layout`] — 2D grid mapping via H-tree embedding, swap- vs
//!   teleportation-based routing.
//! * [`qec`] — surface-code logical error model and the paper's asymmetric
//!   code-distance prescription.
//! * [`core`] — the QRAM architectures: the paper's *virtual QRAM*
//!   contribution and all evaluated baselines (SQC, fanout, bucket-brigade,
//!   select-swap).
//! * [`plan`] — the offline `(k, m)` capacity planner: sweeps every
//!   legal split of every architecture family through the serving
//!   compiler's pricing pipeline and reports the Pareto frontier over
//!   (compile ticks, execute ticks/shot, qubits) plus the
//!   budget-optimal representative of each family — the planned
//!   replacement for hard-coded `k = 1` comparisons.
//! * [`service`] — the architecture-polymorphic, event-driven
//!   query-serving pipeline on a virtual clock: any `ArchSpec` served
//!   through bounded non-blocking admission with back-pressure,
//!   deadline-aware work-conserving batching, a staged compiler
//!   (`spec → circuit → resources → cost`) behind an LRU cache, a
//!   deterministic lane-run executor with honest
//!   resource-calibrated latency breakdowns, and workload generators
//!   (Poisson/bursty arrivals, zipf-skewed addresses and specs).
//! * [`fleet`] — fleet-scale serving: a deterministic virtual-time
//!   controller over N independent service shards (each with its own
//!   device profile, cache, and cost calibration) behind one front
//!   door. Requests carry tenant and SLO-class tags; placement is
//!   consistent-hash routing with rendezvous replication and
//!   cache-affine tie-breaking; the door drains per-tenant queues
//!   round-robin and sheds SLO-aware (deadline-priority vs
//!   tail-drop). Fleet outputs are bit-identical
//!   across every host-parallelism knob, and a 1-shard fleet
//!   degenerates to the bare service.
//! * [`telemetry`] — deterministic observability: a span tracer keyed
//!   by request id recording virtual-time intervals for every pipeline
//!   stage, a metrics registry of counters / gauges / log-linear
//!   histograms with exact deterministic merges, and the `Recorder`
//!   trait the service is generic over (zero-cost `NoopRecorder` by
//!   default). Trace digests are bit-identical across worker, shot-
//!   thread and path-chunk counts.
//! * [`verify`] — static verification: a circuit analyzer (qubit
//!   bounds, operand overlap, per-family gate-set legality, ancilla
//!   lifecycle, independent resource recertification) run on every
//!   compiled artifact before it may enter the serving cache, and a
//!   source-level determinism lint (wall-clock reads, unseeded RNG,
//!   hash-order iteration) with an audited allowlist. The `verify_all`
//!   binary certifies the whole architecture matrix in CI.
//!
//! # Quickstart
//!
//! ```
//! use qram::core::{Memory, QueryArchitecture, VirtualQram};
//!
//! // An 8-cell classical memory, queried through a virtual QRAM with a
//! // physical tree of 4 leaves (m = 2) and 2 pages (k = 1).
//! let memory = Memory::from_bits([true, false, true, true, false, false, true, false]);
//! let query = VirtualQram::new(1, 2).build(&memory);
//!
//! // The compiled circuit implements Σᵢ αᵢ|i⟩|0⟩ → Σᵢ αᵢ|i⟩|xᵢ⟩ …
//! query.verify(&memory)?;
//! // … and a classical query at address 5 (binary 101) reads memory[5].
//! assert_eq!(query.query_classical(5)?, memory.get(5));
//! # Ok::<(), qram::core::QueryError>(())
//! ```

pub use qram_circuit as circuit;
pub use qram_core as core;
pub use qram_fleet as fleet;
pub use qram_layout as layout;
pub use qram_noise as noise;
pub use qram_plan as plan;
pub use qram_qec as qec;
pub use qram_service as service;
pub use qram_sim as sim;
pub use qram_telemetry as telemetry;
pub use qram_verify as verify;
