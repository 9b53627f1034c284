//! The staged query compiler: `spec → circuit → resources → cost`.
//!
//! Compilation used to be a single opaque `architecture().build()` call
//! buried in the cache-miss path; this module makes it an explicit
//! pipeline whose stages are individually inspectable:
//!
//! 1. **instantiate + build** — the [`QuerySpec`]'s [`qram_core::
//!    ArchSpec`] is instantiated and compiles the served memory into a
//!    [`QueryCircuit`] (any of the five architecture families);
//! 2. **price** — the built circuit is measured into a
//!    [`ResourceCount`] (gate counts, Clifford+T depths). This equals
//!    what the architecture's `resources` hook reports — the hook's
//!    contract (pinned by test in `qram-core`) is to agree with the
//!    measured circuit — so capacity planning through the hook and
//!    serving through this pipeline price identically;
//! 3. **estimate** — the [`CostModel`] converts those resources into
//!    the virtual-time [`CostEstimate`] the scheduler charges.
//!
//! [`Compiler::try_compile`], the serving path, runs the structural
//! verifier between stages 1 and 2: pricing walks the gate list by
//! qubit index, so only a circuit whose gates name its own qubits is
//! priced.
//!
//! The output is a [`CompiledQuery`] — the artifact the circuit cache
//! stores and batches execute against. Because the cost estimate is
//! derived from the *measured resources of the compiled circuit*,
//! virtual latencies differ across architectures exactly as the paper's
//! Table 2 depth columns say they should, rather than through flat
//! per-gate coefficients.
//!
//! [`ResourceCount`]: qram_circuit::resources::ResourceCount

use qram_circuit::resources::ResourceCount;
use qram_core::{Memory, QueryCircuit};
use qram_verify::{verify_query, verify_structure, VerifyError, VerifyLevel};

use crate::{CostModel, QuerySpec, Ticks};

/// The virtual-time price of serving one spec, derived from its
/// compiled circuit's measured resources.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostEstimate {
    /// Ticks to compile the circuit (charged once per cache miss;
    /// gate-count-calibrated).
    pub compile: Ticks,
    /// Ticks to execute one request (charged per batched request;
    /// lowered-depth-calibrated, includes the fixed dispatch overhead).
    pub execute: Ticks,
}

/// One fully compiled spec: the circuit, its measured resources, and
/// the virtual-time cost the scheduler charges for it. This is what the
/// [`crate::CircuitCache`] stores, `Arc`-shared with in-flight batches.
#[derive(Debug, Clone)]
pub struct CompiledQuery {
    /// The spec this artifact serves.
    pub spec: QuerySpec,
    /// The compiled query circuit.
    pub circuit: QueryCircuit,
    /// Fault-tolerant resource count of the circuit (stage 2 output).
    pub resources: ResourceCount,
    /// Virtual-time cost estimate (stage 3 output).
    pub cost: CostEstimate,
}

/// The staged compiler: a [`CostModel`] plus the shot count requests
/// are served under (execution cost scales with shots).
///
/// ```
/// use qram_core::{ArchSpec, Memory};
/// use qram_service::{Compiler, CostModel, QuerySpec};
///
/// let memory = Memory::from_bits((0..8).map(|i| i % 2 == 0));
/// let compiler = Compiler::new(CostModel::default(), 4);
/// let sqc = compiler.compile(QuerySpec::of(ArchSpec::Sqc { n: 3 }), &memory);
/// let bb = compiler.compile(QuerySpec::of(ArchSpec::BucketBrigade { k: 1, m: 2 }), &memory);
/// // Costs are calibrated per architecture from measured resources.
/// assert_ne!(sqc.cost, bb.cost);
/// assert_eq!(sqc.cost.compile, CostModel::default().compile_cost(&sqc.resources));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Compiler {
    cost: CostModel,
    shots: usize,
}

impl Compiler {
    /// A compiler estimating under `cost` for `shots`-shot requests.
    pub fn new(cost: CostModel, shots: usize) -> Self {
        Compiler { cost, shots }
    }

    /// Runs the full pipeline for `spec` over `memory`.
    ///
    /// # Panics
    ///
    /// Panics if `spec`'s address width disagrees with the memory's
    /// (the architecture constructors and builders validate).
    pub fn compile(&self, spec: QuerySpec, memory: &Memory) -> CompiledQuery {
        self.price(spec, spec.arch.instantiate().build(memory))
    }

    /// Runs the full pipeline for `spec` over `memory` under the
    /// `qram-verify` circuit analyzer at `level`. The structural checks
    /// run on the built circuit before it is priced, so a malformed
    /// circuit comes back as their findings; the deep passes then check
    /// the priced artifact. The serving path compiles through this, so
    /// a circuit that fails static verification never reaches the
    /// [`crate::CircuitCache`] or a worker.
    ///
    /// # Panics
    ///
    /// Panics under the same width-mismatch conditions as
    /// [`compile`](Compiler::compile).
    pub fn try_compile(
        &self,
        spec: QuerySpec,
        memory: &Memory,
        level: VerifyLevel,
    ) -> Result<CompiledQuery, VerifyError> {
        let circuit = spec.arch.instantiate().build(memory);
        self.checked_price(spec, circuit, level)
    }

    /// Stages 2–3 of [`try_compile`](Compiler::try_compile) on a built
    /// `circuit`: structural checks, pricing, then the deep passes if
    /// `level` asks for them.
    fn checked_price(
        &self,
        spec: QuerySpec,
        circuit: QueryCircuit,
        level: VerifyLevel,
    ) -> Result<CompiledQuery, VerifyError> {
        let family = spec.arch.family();
        verify_structure(family, circuit.circuit())?;
        let compiled = self.price(spec, circuit);
        if level == VerifyLevel::Deep {
            verify_query(family, &compiled.circuit, &compiled.resources, level)?;
        }
        Ok(compiled)
    }

    /// Stages 2–3: measures `circuit` and estimates its cost.
    fn price(&self, spec: QuerySpec, circuit: QueryCircuit) -> CompiledQuery {
        let resources = circuit.resources();
        let cost = self.estimate(&resources);
        CompiledQuery {
            spec,
            circuit,
            resources,
            cost,
        }
    }

    /// Stage 3 alone: prices a measured [`ResourceCount`] (exposed so
    /// capacity planning can estimate without building circuits twice).
    pub fn estimate(&self, resources: &ResourceCount) -> CostEstimate {
        CostEstimate {
            compile: self.cost.compile_cost(resources),
            execute: self.cost.execute_cost(resources, self.shots),
        }
    }

    /// The telemetry label of a verification level — what the compile
    /// span records about a cache-miss compile.
    pub fn verify_tag(level: VerifyLevel) -> qram_telemetry::VerifyTag {
        match level {
            VerifyLevel::Deep => qram_telemetry::VerifyTag::Deep,
            VerifyLevel::Structural => qram_telemetry::VerifyTag::Structural,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qram_circuit::{Circuit, Gate, Qubit, QubitAllocator};
    use qram_verify::Finding;

    fn memory() -> Memory {
        Memory::from_bits((0..8).map(|i| i % 3 == 0))
    }

    /// A 2-qubit query circuit (one address qubit and the bus) holding
    /// `gate`; `Circuit::push` checks the gate only in debug builds.
    fn two_qubit_query(gate: Gate) -> QueryCircuit {
        let mut alloc = QubitAllocator::new();
        let address = alloc.register("address", 1);
        let bus = alloc.register("bus", 1);
        let mut circuit = Circuit::new(2);
        circuit.push(gate);
        QueryCircuit::new(circuit, address, bus, alloc)
    }

    #[test]
    fn structural_findings_come_back_before_pricing() {
        let compiler = Compiler::new(CostModel::default(), 1);
        let spec = QuerySpec::of(qram_core::ArchSpec::Sqc { n: 1 });
        let query = two_qubit_query(Gate::cx(Qubit(0), Qubit(1)));
        for level in [VerifyLevel::Structural, VerifyLevel::Deep] {
            let err = compiler
                .checked_price(spec, query.clone(), level)
                .unwrap_err();
            assert!(
                matches!(err.findings[..], [Finding::IllegalGate { .. }]),
                "{err}"
            );
        }
    }

    /// Release builds let a malformed gate into a circuit; the compiler
    /// must return the verifier's finding rather than panic in pricing.
    #[cfg(not(debug_assertions))]
    #[test]
    fn an_out_of_range_gate_is_a_finding_not_a_pricing_panic() {
        let compiler = Compiler::new(CostModel::default(), 1);
        let spec = QuerySpec::of(qram_core::ArchSpec::Fanout { m: 1 });
        let query = two_qubit_query(Gate::cx(Qubit(0), Qubit(5)));
        let err = compiler
            .checked_price(spec, query, VerifyLevel::Structural)
            .unwrap_err();
        assert!(
            matches!(
                err.findings[..],
                [Finding::QubitOutOfRange {
                    qubit: 5,
                    num_qubits: 2,
                    ..
                }]
            ),
            "{err}"
        );
    }

    #[test]
    fn pipeline_stages_agree_with_direct_calls() {
        let cost_model = CostModel::default();
        let compiler = Compiler::new(cost_model, 2);
        for spec in crate::mixed_arch_specs(3) {
            let compiled = compiler.compile(spec, &memory());
            assert_eq!(compiled.spec, spec);
            // Stage 2: the stored resources are the circuit's.
            assert_eq!(compiled.resources, compiled.circuit.resources());
            // Stage 3: estimates derive from those resources.
            assert_eq!(
                compiled.cost.compile,
                cost_model.compile_cost(&compiled.resources)
            );
            assert_eq!(
                compiled.cost.execute,
                cost_model.execute_cost(&compiled.resources, 2)
            );
            // The artifact serves its memory correctly.
            compiled.circuit.verify(&memory()).unwrap();
        }
    }

    #[test]
    fn architectures_price_differently_at_equal_width() {
        let compiler = Compiler::new(CostModel::default(), 1);
        let costs: Vec<CostEstimate> = crate::mixed_arch_specs(3)
            .into_iter()
            .map(|spec| compiler.compile(spec, &memory()).cost)
            .collect();
        // At n = 3 every family compiles a structurally different
        // circuit; no two cost estimates coincide.
        for (i, a) in costs.iter().enumerate() {
            for b in &costs[i + 1..] {
                assert_ne!(a, b, "{costs:?}");
            }
        }
    }

    #[test]
    fn shots_scale_execute_but_not_compile() {
        let spec = QuerySpec::new(1, 2);
        let few = Compiler::new(CostModel::default(), 1).compile(spec, &memory());
        let many = Compiler::new(CostModel::default(), 8).compile(spec, &memory());
        assert_eq!(few.cost.compile, many.cost.compile);
        assert!(many.cost.execute > few.cost.execute);
    }
}
