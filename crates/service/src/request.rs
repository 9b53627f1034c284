//! The query-serving vocabulary: what a client asks for and what it gets
//! back.

use qram_core::{ArchSpec, DataEncoding, Optimizations, QueryArchitecture};
use qram_sim::FidelityEstimate;

use crate::Ticks;

/// The compilation profile of a query — everything that determines which
/// compiled circuit can serve it.
///
/// A spec is an [`ArchSpec`] (architecture family + parameters): the
/// service is **architecture-polymorphic**, serving any of the five
/// implementations in `qram-core` through one pipeline. Two requests are
/// *batch-compatible* exactly when their specs are equal: the scheduler
/// groups the admission queue by spec and the compiled
/// [`crate::CompiledQuery`] is shared (and cached) per spec. The
/// *address* is deliberately not part of the spec — one circuit serves
/// every address of its memory.
///
/// ```
/// use qram_core::ArchSpec;
/// use qram_service::QuerySpec;
/// // The migration shim: `new(k, m)` still names the virtual QRAM…
/// let spec = QuerySpec::new(1, 2);
/// assert_eq!(spec.address_width(), 3);
/// assert_eq!(spec.architecture().name(), "virtual(k=1,m=2,ALL)");
/// // …while any architecture is one constructor away.
/// let bb = QuerySpec::of(ArchSpec::BucketBrigade { k: 1, m: 2 });
/// assert_eq!(bb.architecture().name(), "sqc+bb(k=1,m=2)");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QuerySpec {
    /// The architecture (family + parameters) compiling this spec.
    pub arch: ArchSpec,
}

impl QuerySpec {
    /// A spec for the `(k, m)` virtual QRAM with all optimizations and
    /// bit encoding.
    ///
    /// This is the pre-`ArchSpec` constructor, kept as a thin
    /// `Virtual`-defaulting shim so existing callers keep compiling;
    /// new code naming a non-default architecture uses
    /// [`QuerySpec::of`].
    pub fn new(k: usize, m: usize) -> Self {
        QuerySpec::of(ArchSpec::virtual_all(k, m))
    }

    /// A spec for an explicit architecture.
    pub fn of(arch: ArchSpec) -> Self {
        QuerySpec { arch }
    }

    /// Overrides the optimization set, failing on any architecture
    /// without optimization switches (everything but the virtual QRAM).
    pub fn try_with_optimizations(
        mut self,
        opts: Optimizations,
    ) -> Result<Self, SpecOverrideError> {
        match &mut self.arch {
            ArchSpec::Virtual { opts: slot, .. } => *slot = opts,
            other => {
                return Err(SpecOverrideError {
                    family: other.family(),
                    switch: "optimization",
                })
            }
        }
        Ok(self)
    }

    /// Overrides the data encoding, failing on any architecture without
    /// encoding switches (everything but the virtual QRAM).
    pub fn try_with_encoding(mut self, encoding: DataEncoding) -> Result<Self, SpecOverrideError> {
        match &mut self.arch {
            ArchSpec::Virtual { encoding: slot, .. } => *slot = encoding,
            other => {
                return Err(SpecOverrideError {
                    family: other.family(),
                    switch: "data-encoding",
                })
            }
        }
        Ok(self)
    }

    /// Total address width `n` the spec serves.
    pub fn address_width(&self) -> usize {
        self.arch.address_width()
    }

    /// The architecture this spec compiles under.
    pub fn architecture(&self) -> Box<dyn QueryArchitecture> {
        self.arch.instantiate()
    }
}

impl From<ArchSpec> for QuerySpec {
    fn from(arch: ArchSpec) -> Self {
        QuerySpec::of(arch)
    }
}

/// A spec-builder override applied to an architecture that has no such
/// switch — returned by [`QuerySpec::try_with_optimizations`] and
/// [`QuerySpec::try_with_encoding`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpecOverrideError {
    /// Family tag of the architecture that rejected the override.
    pub family: &'static str,
    /// Which switch was overridden (`"optimization"`/`"data-encoding"`).
    pub switch: &'static str,
}

impl std::fmt::Display for SpecOverrideError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} has no {} switches", self.family, self.switch)
    }
}

impl std::error::Error for SpecOverrideError {}

/// The client (algorithm/user) a request is served on behalf of.
///
/// Tenants exist for the *fleet* front door: per-tenant fair queueing
/// and per-tenant accounting. A bare [`crate::QramService`] ignores the
/// field entirely — it prices and schedules requests identically for
/// every tenant, which is what makes a 1-shard fleet bit-identical to a
/// bare service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TenantId(pub u32);

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tenant{}", self.0)
    }
}

/// The service-level-objective class a request is admitted under.
///
/// The class never changes *how* a request executes — only what the
/// fleet front door does under overload: deadline-priority shedding
/// drops [`Batch`](SloClass::Batch) work first, then
/// [`BestEffort`](SloClass::BestEffort), and keeps
/// [`Interactive`](SloClass::Interactive) requests (most-urgent-deadline
/// first) until nothing else is left to drop.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum SloClass {
    /// Latency-sensitive traffic with a per-request deadline (ticks
    /// after arrival by which the answer should complete).
    Interactive {
        /// Relative completion deadline on the virtual clock.
        deadline: Ticks,
    },
    /// Throughput traffic: first to go under overload.
    Batch,
    /// No objective stated — kept ahead of batch, shed before
    /// interactive. The default class.
    #[default]
    BestEffort,
}

impl SloClass {
    /// Stable label used in reports and JSON exports.
    pub fn label(&self) -> &'static str {
        match self {
            SloClass::Interactive { .. } => "interactive",
            SloClass::Batch => "batch",
            SloClass::BestEffort => "best_effort",
        }
    }

    /// Retention rank under deadline-priority shedding: lower ranks are
    /// shed first (`Batch` < `BestEffort` < `Interactive`).
    pub fn shed_rank(&self) -> u8 {
        match self {
            SloClass::Batch => 0,
            SloClass::BestEffort => 1,
            SloClass::Interactive { .. } => 2,
        }
    }

    /// The relative deadline, when the class carries one.
    pub fn deadline(&self) -> Option<Ticks> {
        match self {
            SloClass::Interactive { deadline } => Some(*deadline),
            _ => None,
        }
    }
}

/// One admitted query: a memory address to read through a [`QuerySpec`],
/// stamped with its arrival instant on the virtual clock.
///
/// The `id` is assigned by the service at admission (monotonic per
/// service) and doubles as the request's deterministic seed component:
/// the executor derives the request's fault-sampling stream purely from
/// `(service seed, id)`, which is what makes batched results bit-identical
/// for any worker count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryRequest {
    /// Service-assigned request id (admission order).
    pub id: u64,
    /// The memory address to read.
    pub address: u64,
    /// The compilation profile serving this request.
    pub spec: QuerySpec,
    /// Arrival instant on the virtual clock; latency is
    /// measured from here.
    pub arrival: Ticks,
    /// The client the request is served on behalf of (fleet fair
    /// queueing and accounting; ignored by a bare service).
    pub tenant: TenantId,
    /// The SLO class the request was admitted under (fleet shedding
    /// policy; ignored by a bare service).
    pub slo: SloClass,
}

/// The virtual-clock latency breakdown of one served request.
///
/// All three components are measured on the service's discrete-event
/// clock ([`Ticks`] = virtual ns) so they are deterministic — percentiles
/// computed from them are a property of the *workload and cost model*,
/// never of the simulation host. The parts partition the request's whole
/// life: [`total`](Latency::total) is exactly `completed − arrival`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Latency {
    /// Ticks spent waiting — in the admission queue until the batch
    /// fired, plus stalled behind earlier work for a free execution unit.
    pub queue_wait: Ticks,
    /// Ticks spent compiling the batch's circuit (0 on a cache hit —
    /// the whole point of the compiled-circuit cache).
    pub compile: Ticks,
    /// Ticks executing the query on its execution unit.
    pub execute: Ticks,
}

impl Latency {
    /// End-to-end latency: `queue_wait + compile + execute`.
    pub fn total(&self) -> Ticks {
        self.queue_wait + self.compile + self.execute
    }
}

/// The served answer to one [`QueryRequest`].
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// The request this answers.
    pub id: u64,
    /// The address that was read.
    pub address: u64,
    /// The compilation profile that served the request (what per-
    /// architecture report breakdowns group on).
    pub spec: QuerySpec,
    /// The classical readout `x_address` (the bus bit of a noise-free
    /// classical-address query).
    pub value: bool,
    /// Monte-Carlo estimate of the query fidelity under the service's
    /// noise model, reduced to the address + bus registers. Empty
    /// (`shots == 0`) when the service runs noiseless.
    pub fidelity: FidelityEstimate,
    /// Arrival instant on the virtual clock (copied from the request).
    pub arrival: Ticks,
    /// Completion instant on the virtual clock
    /// (`arrival + latency.total()`).
    pub completed: Ticks,
    /// Where the request's virtual time went.
    pub latency: Latency,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_builders_compose() {
        let spec = QuerySpec::new(2, 3)
            .try_with_optimizations(Optimizations::OPT2)
            .unwrap()
            .try_with_encoding(DataEncoding::FusedBit)
            .unwrap();
        assert_eq!(spec.address_width(), 5);
        assert_eq!(
            spec.arch,
            ArchSpec::Virtual {
                k: 2,
                m: 3,
                opts: Optimizations::OPT2,
                encoding: DataEncoding::FusedBit,
            }
        );
        assert_eq!(spec.architecture().name(), "virtual(k=2,m=3,OPT2,fused)");
    }

    #[test]
    fn shim_defaults_to_the_fully_optimized_virtual_qram() {
        assert_eq!(QuerySpec::new(1, 2).arch, ArchSpec::virtual_all(1, 2));
        assert_eq!(
            QuerySpec::from(ArchSpec::Sqc { n: 3 }),
            QuerySpec::of(ArchSpec::Sqc { n: 3 })
        );
    }

    #[test]
    fn non_virtual_specs_reject_optimization_overrides() {
        let err = QuerySpec::of(ArchSpec::Sqc { n: 3 })
            .try_with_optimizations(Optimizations::RAW)
            .unwrap_err();
        assert_eq!(err.family, "sqc");
        assert_eq!(err.to_string(), "sqc has no optimization switches");
    }

    #[test]
    fn non_virtual_specs_reject_encoding_overrides() {
        let err = QuerySpec::of(ArchSpec::Fanout { m: 3 })
            .try_with_encoding(DataEncoding::DualRail)
            .unwrap_err();
        assert_eq!(err.family, "fanout");
        assert_eq!(err.to_string(), "fanout has no data-encoding switches");
    }

    #[test]
    fn fallible_overrides_succeed_on_virtual_specs() {
        // The fallible override applies the switch to the virtual spec
        // and leaves every other field as it was.
        let spec = QuerySpec::new(1, 2)
            .try_with_optimizations(Optimizations::OPT1)
            .unwrap();
        assert_eq!(
            spec.arch,
            ArchSpec::Virtual {
                k: 1,
                m: 2,
                opts: Optimizations::OPT1,
                encoding: DataEncoding::Bit,
            }
        );
    }

    #[test]
    fn slo_classes_shed_batch_first_and_default_to_best_effort() {
        assert!(SloClass::Batch.shed_rank() < SloClass::BestEffort.shed_rank());
        assert!(
            SloClass::BestEffort.shed_rank() < SloClass::Interactive { deadline: 1 }.shed_rank()
        );
        assert_eq!(SloClass::default(), SloClass::BestEffort);
        assert_eq!(SloClass::Interactive { deadline: 5 }.deadline(), Some(5));
        assert_eq!(SloClass::Batch.deadline(), None);
        assert_eq!(SloClass::Interactive { deadline: 5 }.label(), "interactive");
        assert_eq!(TenantId::default(), TenantId(0));
        assert_eq!(TenantId(3).to_string(), "tenant3");
    }

    #[test]
    fn latency_parts_partition_the_total() {
        let latency = Latency {
            queue_wait: 300,
            compile: 50,
            execute: 120,
        };
        assert_eq!(latency.total(), 470);
        assert_eq!(Latency::default().total(), 0);
    }

    #[test]
    fn specs_hash_on_the_whole_arch_spec() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(QuerySpec::new(1, 2));
        set.insert(QuerySpec::new(2, 1));
        set.insert(
            QuerySpec::new(1, 2)
                .try_with_optimizations(Optimizations::RAW)
                .unwrap(),
        );
        set.insert(
            QuerySpec::new(1, 2)
                .try_with_encoding(DataEncoding::DualRail)
                .unwrap(),
        );
        set.insert(QuerySpec::of(ArchSpec::BucketBrigade { k: 1, m: 2 }));
        set.insert(QuerySpec::of(ArchSpec::SelectSwap { k: 1, m: 2 }));
        set.insert(QuerySpec::new(1, 2)); // duplicate
        assert_eq!(set.len(), 6);
    }
}
