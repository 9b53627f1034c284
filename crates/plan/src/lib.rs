//! Offline `(k, m)` capacity planning over the staged query compiler.
//!
//! The serving layer compares architectures, but until now every hybrid
//! family entered the comparison hard-coded at `k = 1` — one arbitrary
//! point of each family's `(k, m)` split space. This crate makes the
//! split a *planned* quantity: for an address width `n` and a physical
//! qubit budget, it sweeps **every legal split of every family**
//! through the same `spec → circuit → resources → cost` pipeline the
//! service prices batches with, and reports
//!
//! * the full [`survey`] — one [`PlanPoint`] per candidate, carrying
//!   the measured qubit footprint and the virtual-time compile /
//!   execute prices;
//! * the [`pareto_frontier`] — the non-dominated candidates over
//!   `(compile ticks, execute ticks/shot, qubits)`, i.e. every
//!   configuration a rational deployment could pick;
//! * [`planned_families`] — the budget-optimal representative of each
//!   family, replacing legacy `k = 1` hard-codings wherever a fair
//!   cross-family comparison is wanted (e.g. `serve_bench --arch mix`).
//!
//! Planning prices through the [`QueryArchitecture::resources`] hook
//! (pinned by test to agree exactly with the measured resources of the
//! built circuit) and [`Compiler::estimate`], so a planned point costs
//! exactly what serving it will charge. Everything here is a pure
//! function of `(n, budget, cost model, shots)` — same inputs, same
//! frontier, same [JSON report](frontier_json) bytes, same digest — on
//! any host.
//!
//! [`QueryArchitecture::resources`]: qram_core::QueryArchitecture::resources

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use qram_core::{ArchSpec, Memory};
use qram_service::{Compiler, CostModel, Ticks};
use qram_telemetry::{fnv1a_64, Json};

/// Schema identifier stamped into every [`frontier_json`] report.
pub const FRONTIER_SCHEMA: &str = "qram-plan/frontier/v1";

/// A qubit budget meaning "unconstrained" (serialized as `0` in
/// reports, matching the bench CLI convention).
pub const UNLIMITED_BUDGET: usize = usize::MAX;

/// One priced candidate configuration: an architecture spec and what it
/// costs on the three planning axes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanPoint {
    /// The candidate architecture (family + `(k, m)` split).
    pub spec: ArchSpec,
    /// Measured qubit footprint (`ResourceCount::num_qubits` of the
    /// circuit the spec compiles) — what the budget constrains.
    pub qubits: usize,
    /// Virtual ticks to compile the circuit (charged per cache miss).
    pub compile: Ticks,
    /// Virtual ticks to execute one request (per batched request).
    pub execute: Ticks,
}

impl PlanPoint {
    /// Whether `self` dominates `other`: no worse on every axis and
    /// strictly better on at least one.
    pub fn dominates(&self, other: &PlanPoint) -> bool {
        let no_worse = self.compile <= other.compile
            && self.execute <= other.execute
            && self.qubits <= other.qubits;
        let strictly_better = self.compile < other.compile
            || self.execute < other.execute
            || self.qubits < other.qubits;
        no_worse && strictly_better
    }
}

/// The canonical planning memory at width `n`: the same deterministic
/// `i % 3 == 0` bit pattern the workspace's tests and benches serve.
///
/// Resource counts (and therefore prices) depend only on the memory's
/// *width*, never its contents, for every architecture in `qram-core` —
/// any width-`n` memory would plan identically; this one is fixed so
/// report digests are stable byte-for-byte.
pub fn planning_memory(n: usize) -> Memory {
    Memory::from_bits((0..1u64 << n).map(|i| i % 3 == 0))
}

/// Prices every legal candidate at width `n` (see
/// [`ArchSpec::family_candidates`]) under `cost` for `shots`-shot
/// requests, in the candidates' canonical deterministic order.
///
/// # Panics
///
/// Panics if `n < 2` (candidate enumeration needs at least one legal
/// hybrid split).
pub fn survey(n: usize, cost: CostModel, shots: usize) -> Vec<PlanPoint> {
    let memory = planning_memory(n);
    let compiler = Compiler::new(cost, shots);
    ArchSpec::family_candidates(n)
        .into_iter()
        .map(|spec| {
            let resources = spec.instantiate().resources(&memory);
            let estimate = compiler.estimate(&resources);
            PlanPoint {
                spec,
                qubits: resources.num_qubits,
                compile: estimate.compile,
                execute: estimate.execute,
            }
        })
        .collect()
}

/// The non-dominated subset of `points` over
/// `(compile, execute, qubits)`, preserving input order.
///
/// Ties are kept: two points equal on all three axes dominate neither,
/// so both survive — the frontier is a deterministic function of the
/// input sequence.
pub fn pareto_frontier(points: &[PlanPoint]) -> Vec<PlanPoint> {
    points
        .iter()
        .filter(|candidate| !points.iter().any(|other| other.dominates(candidate)))
        .copied()
        .collect()
}

/// The budget-optimal representative of each architecture family at
/// width `n` under the default [`CostModel`] and single-shot pricing —
/// the planned replacement for hard-coded `k = 1` comparison sets.
///
/// Families whose *cheapest-in-qubits* candidate still exceeds
/// `qubit_budget` are dropped (the returned set may be empty under a
/// starvation budget). Within a family the representative minimizes
/// `(execute, compile, qubits)` lexicographically among the fitting
/// candidates, breaking remaining ties toward the smallest `k`.
/// Families appear in their canonical order: SQC, fanout,
/// bucket-brigade, select-swap, virtual.
///
/// Pass [`UNLIMITED_BUDGET`] (or any budget at least as large as every
/// candidate) to plan unconstrained.
///
/// # Panics
///
/// Panics if `n < 2`, like [`survey`].
pub fn planned_families(n: usize, qubit_budget: usize) -> Vec<ArchSpec> {
    planned_families_with(n, qubit_budget, CostModel::default(), 1)
}

/// [`planned_families`] under an explicit cost model and shot count.
///
/// # Panics
///
/// Panics if `n < 2`, like [`survey`].
pub fn planned_families_with(
    n: usize,
    qubit_budget: usize,
    cost: CostModel,
    shots: usize,
) -> Vec<ArchSpec> {
    let points = survey(n, cost, shots);
    // Candidate order is family-major, so walking the distinct family
    // tags of the survey preserves the canonical family order.
    let mut families: Vec<&'static str> = Vec::new();
    for point in &points {
        if !families.contains(&point.spec.family()) {
            families.push(point.spec.family());
        }
    }
    families
        .into_iter()
        .filter_map(|family| {
            points
                .iter()
                .filter(|p| p.spec.family() == family && p.qubits <= qubit_budget)
                // `min_by_key` keeps the *first* of equals, i.e. the
                // smallest k of the ascending candidate sweep.
                .min_by_key(|p| (p.execute, p.compile, p.qubits))
                .map(|p| p.spec)
        })
        .collect()
}

/// FNV-1a digest of a point sequence — the determinism fingerprint
/// stamped into [`frontier_json`] and compared by the planner's CI
/// smoke run.
pub fn frontier_digest(points: &[PlanPoint]) -> u64 {
    let mut canonical = String::new();
    for point in points {
        canonical.push_str(&format!(
            "{}|{}|{}|{};",
            point.spec.name(),
            point.qubits,
            point.compile,
            point.execute
        ));
    }
    fnv1a_64(canonical.into_bytes())
}

/// Builds a full planning report as a deterministic JSON value: the
/// survey size, the Pareto frontier, the [`planned_families`] pick under
/// `qubit_budget`, and the frontier's FNV-1a digest.
///
/// `qubit_budget == UNLIMITED_BUDGET` serializes as `0`, matching the
/// bench CLI's "0 means unlimited" convention.
///
/// # Panics
///
/// Panics if `n < 2`, like [`survey`].
pub fn frontier_json(n: usize, qubit_budget: usize, cost: CostModel, shots: usize) -> Json {
    let points = survey(n, cost, shots);
    let frontier = pareto_frontier(&points);
    let planned = planned_families_with(n, qubit_budget, cost, shots);
    let planned = planned.iter().map(|spec| spec.name().into()).collect();
    let digest = format!("{:016x}", frontier_digest(&frontier));
    let budget = if qubit_budget == UNLIMITED_BUDGET {
        0
    } else {
        qubit_budget
    };
    let rows = frontier.iter().map(|point| {
        Json::object([
            ("arch", point.spec.name().into()),
            ("family", point.spec.family().into()),
            ("qubits", point.qubits.into()),
            ("compile_ticks", point.compile.into()),
            ("execute_ticks", point.execute.into()),
        ])
    });
    Json::object([
        ("schema", FRONTIER_SCHEMA.into()),
        ("address_width", n.into()),
        ("qubit_budget", budget.into()),
        ("shots", shots.into()),
        ("candidates", points.len().into()),
        ("frontier", Json::Array(rows.collect())),
        ("planned", Json::Array(planned)),
        ("frontier_digest", digest.into()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use qram_service::{QuerySpec, VerifyLevel};

    #[test]
    fn survey_prices_every_candidate_in_canonical_order() {
        let points = survey(4, CostModel::default(), 1);
        let candidates = ArchSpec::family_candidates(4);
        assert_eq!(points.len(), candidates.len());
        for (point, spec) in points.iter().zip(&candidates) {
            assert_eq!(point.spec, *spec);
            assert!(point.qubits > 0);
            assert!(point.compile > 0);
            assert!(point.execute > 0);
        }
    }

    #[test]
    fn planning_prices_agree_with_the_serving_compiler() {
        // The resources hook contract: a planned point costs exactly
        // what a full serving-path compile of the same spec charges.
        let compiler = Compiler::new(CostModel::default(), 3);
        for point in survey(3, CostModel::default(), 3) {
            let compiled = compiler.compile(QuerySpec::of(point.spec), &planning_memory(3));
            assert_eq!(point.qubits, compiled.resources.num_qubits);
            assert_eq!(point.compile, compiled.cost.compile);
            assert_eq!(point.execute, compiled.cost.execute);
        }
    }

    #[test]
    fn frontier_is_mutually_non_dominated_and_covers_the_dropped() {
        let points = survey(5, CostModel::default(), 1);
        let frontier = pareto_frontier(&points);
        assert!(!frontier.is_empty());
        assert!(frontier.len() <= points.len());
        for a in &frontier {
            for b in &frontier {
                assert!(!a.dominates(b), "{a:?} dominates frontier member {b:?}");
            }
        }
        for dropped in points.iter().filter(|p| !frontier.contains(p)) {
            assert!(
                frontier.iter().any(|f| f.dominates(dropped)),
                "dropped point {dropped:?} is dominated by no frontier member"
            );
        }
    }

    #[test]
    fn unlimited_budget_plans_one_representative_per_family() {
        let planned = planned_families(4, UNLIMITED_BUDGET);
        let families: Vec<&str> = planned.iter().map(|s| s.family()).collect();
        assert_eq!(
            families,
            ["sqc", "fanout", "bucket_brigade", "select_swap", "virtual"]
        );
        for spec in &planned {
            assert_eq!(spec.address_width(), 4);
        }
    }

    #[test]
    fn budget_drops_families_that_cannot_fit() {
        let points = survey(4, CostModel::default(), 1);
        // Budget exactly at the smallest footprint: at least one family
        // survives, and every planned point respects the budget.
        let min_qubits = points.iter().map(|p| p.qubits).min().unwrap();
        let planned = planned_families(4, min_qubits);
        assert!(!planned.is_empty());
        assert!(
            planned.len() < 5,
            "a width-4 sweep spans > {min_qubits} qubits"
        );
        let memory = planning_memory(4);
        for spec in &planned {
            let footprint = spec.instantiate().resources(&memory).num_qubits;
            assert!(footprint <= min_qubits);
        }
        // A starvation budget drops everything rather than panicking.
        assert!(planned_families(4, 1).is_empty());
    }

    #[test]
    fn planned_representatives_are_family_optimal_in_execute() {
        let points = survey(4, CostModel::default(), 1);
        for spec in planned_families(4, UNLIMITED_BUDGET) {
            let chosen = points.iter().find(|p| p.spec == spec).unwrap();
            let best_execute = points
                .iter()
                .filter(|p| p.spec.family() == spec.family())
                .map(|p| p.execute)
                .min()
                .unwrap();
            assert_eq!(chosen.execute, best_execute);
        }
    }

    #[test]
    fn reports_are_bit_identical_across_runs() {
        let a = frontier_json(4, 128, CostModel::default(), 2).pretty();
        let b = frontier_json(4, 128, CostModel::default(), 2).pretty();
        assert_eq!(a, b);
        let report = Json::parse(&a).unwrap();
        let text = |key: &str| report.get(key).and_then(Json::as_str);
        assert_eq!(text("schema"), Some(FRONTIER_SCHEMA));
        let frontier = pareto_frontier(&survey(4, CostModel::default(), 2));
        let digest = format!("{:016x}", frontier_digest(&frontier));
        assert_eq!(text("frontier_digest"), Some(digest.as_str()));
        let Some(Json::Array(rows)) = report.get("frontier") else {
            panic!("the report has no frontier array")
        };
        assert_eq!(rows.len(), frontier.len());
    }

    #[test]
    fn frontier_points_deep_verify_with_zero_findings() {
        // Every configuration the planner can recommend must survive
        // the full qram-verify analyzer (structural + deep passes).
        let compiler = Compiler::new(CostModel::default(), 1);
        let memory = planning_memory(3);
        for point in pareto_frontier(&survey(3, CostModel::default(), 1)) {
            compiler
                .try_compile(QuerySpec::of(point.spec), &memory, VerifyLevel::Deep)
                .unwrap_or_else(|e| panic!("{} failed deep verification: {e}", point.spec.name()));
        }
    }

    #[test]
    #[should_panic(expected = "n >= 2")]
    fn planning_rejects_widths_without_a_split() {
        let _ = survey(1, CostModel::default(), 1);
    }
}
