//! Shared harness code for the table/figure regeneration binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper's evaluation (see DESIGN.md §3 for the experiment index):
//!
//! | binary | artifact |
//! |---|---|
//! | `table1` | Table 1 — optimization breakdown |
//! | `table2` | Table 2 — architecture resource comparison |
//! | `fig8`   | Fig. 8 — 2D mapping overhead, swap vs teleportation |
//! | `fig9`   | Fig. 9 — fidelity vs architecture under X/Z noise |
//! | `fig10`  | Fig. 10 — fidelity vs error-reduction factor |
//! | `fig11`  | Fig. 11 — fidelity over the (m, k) grid |
//! | `fig12`  | Fig. 12 / App. A — synthetic IBMQ device models |
//! | `qec_table` | Eq. 7 — asymmetric surface-code prescription |
//!
//! Binaries print tab-separated rows to stdout so results can be piped
//! into a plotting tool. The flag set is shared (see [`RunOptions`]):
//! `--full` switches from the quick default sweep to the paper-scale one,
//! `--shots N` overrides the shot count, `--seed N` the master RNG seed,
//! and `--threads N` the shot-engine worker count (results are
//! bit-identical for any thread count). `--help` prints the usage; a bad
//! flag prints the error and the usage and exits with code 2. Each
//! Monte-Carlo shot of a superposition input runs as one bit-sliced lane
//! pass with one lane per path (see [`qram_sim::run_shots`]).
//!
//! A ninth binary, `bench_report`, is not an experiment: it condenses
//! `cargo bench` JSON results into `BENCH_2.json` and applies the CI
//! regression gates (see [`report`]).

pub mod cli;
pub mod report;

pub use cli::RunOptions;

use qram_core::{Memory, QueryArchitecture};
use qram_noise::{ErrorReductionFactor, FaultSampler, NoiseModel};
use qram_sim::{
    monte_carlo_fidelity_with, monte_carlo_reduced_fidelity_with, FidelityEstimate, ShotConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Which fidelity notion an experiment uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FidelityKind {
    /// Full-state overlap `|⟨ψ_ideal|ψ_shot⟩|²` (paper Sec. 5 definition).
    Full,
    /// Reduced to the address + bus registers (traces out the tree) —
    /// the notion under which bucket brigade resists generic noise.
    Reduced,
}

/// Runs the Monte-Carlo fidelity experiment for one architecture on one
/// memory under one noise model.
///
/// `config` carries the shot count, the master seed (consumed by the
/// fault sampler: every shot's fault pattern is a pure function of
/// `(seed, shot)`) and the worker-thread count (a pure throughput knob —
/// the estimate is bit-identical for any value).
///
/// # Panics
///
/// Panics if the simulation rejects the circuit (cannot happen for the
/// generators in this workspace).
pub fn architecture_fidelity(
    arch: &dyn QueryArchitecture,
    memory: &Memory,
    model: NoiseModel,
    kind: FidelityKind,
    config: ShotConfig,
) -> FidelityEstimate {
    let query = arch.build(memory);
    let input = query.input_state(None);
    let sampler = FaultSampler::new(query.circuit(), model, config.seed);
    let sample = |shot| sampler.sample_shot(shot);
    match kind {
        FidelityKind::Full => {
            monte_carlo_fidelity_with(query.circuit().gates(), &input, &config, sample)
                .expect("generated circuits are always simulable")
        }
        FidelityKind::Reduced => monte_carlo_reduced_fidelity_with(
            query.circuit().gates(),
            &input,
            &query.output_qubits(),
            &config,
            sample,
        )
        .expect("generated circuits are always simulable"),
    }
}

/// A deterministic pseudo-random memory for experiment reproducibility.
pub fn experiment_memory(address_width: usize, seed: u64) -> Memory {
    Memory::random(address_width, &mut StdRng::seed_from_u64(seed))
}

/// The εr sweep of Figs. 10 and 12 (log-spaced over 0.1 … 1000).
pub fn default_er_sweep(full: bool) -> Vec<ErrorReductionFactor> {
    if full {
        ErrorReductionFactor::sweep(-1, 3, 2)
    } else {
        ErrorReductionFactor::sweep(-1, 3, 1)
    }
}

/// Prints a tab-separated row.
pub fn print_row(cells: &[String]) {
    println!("{}", cells.join("\t"));
}

#[cfg(test)]
mod tests {
    use super::*;
    use qram_core::VirtualQram;
    use qram_noise::PauliChannel;

    #[test]
    fn noiseless_fidelity_is_one() {
        let memory = experiment_memory(2, 1);
        let est = architecture_fidelity(
            &VirtualQram::new(0, 2),
            &memory,
            NoiseModel::noiseless(),
            FidelityKind::Full,
            ShotConfig::new(8).with_seed(7),
        );
        assert!((est.mean - 1.0).abs() < 1e-12);
    }

    #[test]
    fn noisy_fidelity_is_below_one_and_reduced_is_at_least_full() {
        let memory = experiment_memory(3, 2);
        let model = NoiseModel::per_gate(PauliChannel::depolarizing(0.01));
        let config = ShotConfig::new(64).with_seed(3);
        let full = architecture_fidelity(
            &VirtualQram::new(0, 3),
            &memory,
            model,
            FidelityKind::Full,
            config,
        );
        let reduced = architecture_fidelity(
            &VirtualQram::new(0, 3),
            &memory,
            model,
            FidelityKind::Reduced,
            config,
        );
        assert!(full.mean < 1.0);
        // Tracing out ancillas can only help (same seed → same plans).
        assert!(reduced.mean >= full.mean - 1e-9);
    }

    #[test]
    fn estimates_are_identical_across_thread_counts() {
        // The ISSUE-level determinism pin: threads is a pure throughput
        // knob; the estimate is bit-identical for any value.
        let memory = experiment_memory(3, 5);
        let model = NoiseModel::per_gate(PauliChannel::depolarizing(5e-3));
        let run = |threads| {
            architecture_fidelity(
                &VirtualQram::new(1, 2),
                &memory,
                model,
                FidelityKind::Full,
                ShotConfig::new(96).with_seed(11).with_threads(threads),
            )
        };
        let serial = run(1);
        assert_eq!(serial, run(4));
        assert_eq!(serial, run(3));
    }

    #[test]
    fn sweep_sizes() {
        assert_eq!(default_er_sweep(false).len(), 5);
        assert_eq!(default_er_sweep(true).len(), 9);
    }
}
