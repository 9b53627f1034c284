//! Monte-Carlo shot harness (paper Sec. 6.3).
//!
//! One *shot* = one sampled Pauli fault pattern; the noisy circuit runs as
//! a pure trajectory and its overlap with the ideal output is the shot's
//! query fidelity `|⟨ψ_ideal|ψ_shot⟩|²`. Averaging over shots estimates the
//! channel fidelity — exact in expectation for Pauli channels, which is why
//! the paper's simulator can quote fidelities without density matrices.

use qram_circuit::Gate;

use crate::{run_shots, FaultPlan, PathState, ShotConfig, SimError};

/// A Monte-Carlo fidelity estimate: mean over shots with a standard error.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FidelityEstimate {
    /// Mean fidelity over the shots.
    pub mean: f64,
    /// Standard error of the mean (`σ/√shots`); 0 for a single shot.
    pub std_error: f64,
    /// Number of shots taken.
    pub shots: usize,
}

impl FidelityEstimate {
    /// Folds a sequence of per-shot fidelities into an estimate.
    pub fn from_samples(samples: &[f64]) -> FidelityEstimate {
        let shots = samples.len();
        if shots == 0 {
            return FidelityEstimate {
                mean: 0.0,
                std_error: 0.0,
                shots: 0,
            };
        }
        let mean = samples.iter().sum::<f64>() / shots as f64;
        let var = if shots > 1 {
            samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / (shots - 1) as f64
        } else {
            0.0
        };
        FidelityEstimate {
            mean,
            std_error: (var / shots as f64).sqrt(),
            shots,
        }
    }
}

impl std::fmt::Display for FidelityEstimate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.4} ± {:.4} ({} shots)",
            self.mean, self.std_error, self.shots
        )
    }
}

/// Estimates the query fidelity of `gates` on `input` under a noise process
/// described by `sample_plan`, which is called once per shot with the shot
/// index and must return that shot's fault pattern (a pure function of the
/// index — samplers derive an independent RNG stream per shot).
///
/// The ideal output is computed once (fault-free run); each shot replays
/// the circuit under its sampled plan and contributes
/// `|⟨ψ_ideal|ψ_shot⟩|²`. Shots run on the sharded parallel engine with
/// automatic thread count; results are bit-identical for any thread count
/// (see [`run_shots`]). Call [`run_shots`] to set the
/// [`ShotConfig`] (shot count and worker threads) explicitly.
///
/// # Errors
///
/// Propagates the first simulation error from the ideal run or any shot.
///
/// ```
/// use qram_circuit::{Circuit, Gate, Qubit};
/// use qram_sim::{monte_carlo_fidelity, FaultPlan, PathState};
///
/// # fn main() -> Result<(), qram_sim::SimError> {
/// let mut c = Circuit::new(2);
/// c.push(Gate::cx(Qubit(0), Qubit(1)));
/// let input = PathState::uniform_over(2, &[Qubit(0)]);
/// // Noise-free sampler: fidelity is exactly 1.
/// let est = monte_carlo_fidelity(c.gates(), &input, 16, |_| FaultPlan::new())?;
/// assert!((est.mean - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn monte_carlo_fidelity(
    gates: &[Gate],
    input: &PathState,
    shots: usize,
    sample_plan: impl Fn(u64) -> FaultPlan + Sync,
) -> Result<FidelityEstimate, SimError> {
    run_shots(gates, input, None, &ShotConfig::new(shots), &sample_plan)
}

/// Like [`monte_carlo_fidelity`], but each shot's fidelity is computed on
/// the reduced state over `keep` (typically the address and bus registers),
/// tracing out the QRAM tree — the fidelity notion under which
/// bucket-brigade QRAM is resilient to generic noise.
///
/// # Errors
///
/// Propagates the first simulation error from the ideal run or any shot.
pub fn monte_carlo_reduced_fidelity(
    gates: &[Gate],
    input: &PathState,
    keep: &[qram_circuit::Qubit],
    shots: usize,
    sample_plan: impl Fn(u64) -> FaultPlan + Sync,
) -> Result<FidelityEstimate, SimError> {
    run_shots(
        gates,
        input,
        Some(keep),
        &ShotConfig::new(shots),
        &sample_plan,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Fault, Pauli};
    use qram_circuit::{Circuit, Qubit};

    #[test]
    fn estimate_statistics() {
        let est = FidelityEstimate::from_samples(&[1.0, 0.0, 1.0, 0.0]);
        assert!((est.mean - 0.5).abs() < 1e-12);
        assert!(est.std_error > 0.0);
        assert_eq!(est.shots, 4);

        let empty = FidelityEstimate::from_samples(&[]);
        assert_eq!(empty.shots, 0);

        let single = FidelityEstimate::from_samples(&[0.7]);
        assert_eq!(single.std_error, 0.0);
    }

    #[test]
    fn deterministic_x_fault_kills_fidelity() {
        // X on the single qubit of an empty circuit: ⟨0|1⟩ = 0.
        let c = Circuit::new(1);
        let input = PathState::computational_basis(1);
        let est = monte_carlo_fidelity(c.gates(), &input, 8, |_| {
            [Fault::new(0, Qubit(0), Pauli::X)].into_iter().collect()
        })
        .unwrap();
        assert!(est.mean < 1e-12);
    }

    #[test]
    fn alternating_faults_average() {
        let c = Circuit::new(1);
        let input = PathState::computational_basis(1);
        let est = monte_carlo_fidelity(c.gates(), &input, 10, |shot| {
            if shot % 2 == 0 {
                FaultPlan::new()
            } else {
                [Fault::new(0, Qubit(0), Pauli::X)].into_iter().collect()
            }
        })
        .unwrap();
        assert!((est.mean - 0.5).abs() < 1e-12);
    }

    #[test]
    fn display_mentions_shots() {
        let est = FidelityEstimate::from_samples(&[1.0, 1.0]);
        assert!(est.to_string().contains("2 shots"));
    }
}
