//! Feynman-path simulation of QRAM circuits (paper Sec. 6.2).
//!
//! QRAM circuits are built from a small, fixed set of *classical
//! reversible* gates (`X`, `CX`, `CCX`, `MCX`, `SWAP`, `CSWAP`, and their
//! classically-controlled variants). None of these gates maps a single
//! computational basis state to a superposition, so a quantum state that
//! starts as a superposition of `A` basis states ("paths") remains a
//! superposition of exactly `A` basis states for the whole circuit — the
//! storage cost is constant in circuit depth and *independent of qubit
//! count*. Pauli errors preserve the property too: `X` permutes basis
//! states, `Z` flips signs, `Y` does both (with a phase `±i`).
//!
//! This is the insight that lets the paper simulate noisy QRAM circuits
//! with hundreds of qubits in megabytes of memory, and this crate is a
//! general-purpose Rust implementation of that simulator: arbitrary input
//! superpositions, arbitrary memory contents, arbitrary Pauli fault
//! patterns.
//!
//! * [`BitString`] — a packed basis state.
//! * [`Amplitude`] — a complex amplitude.
//! * [`PathState`] — a sparse superposition stored as a flat slab:
//!   contiguous packed-bit and amplitude arrays, one entry per path.
//! * [`run`] / [`run_with_faults`] — circuit execution with optional
//!   Pauli fault injection at arbitrary circuit locations, on the slab:
//!   the reference implementation.
//! * [`Lanes`] — many *single-path* trajectories of one circuit walked
//!   together, bit-sliced 64 to a machine word. Each lane ends in exactly
//!   the basis state and phase [`run_with_faults`] gives it. A lane is a
//!   served classical address, one of its noisy replays, or one path of a
//!   superposition input.
//! * [`monte_carlo_fidelity`] / [`run_shots`] — the paper's shot harness:
//!   average `|⟨ψ_ideal|ψ_shot⟩|²` over sampled fault patterns. Shots are
//!   sharded over threads ([`ShotConfig`]), and each shot is one lane
//!   pass with one lane per input path, read back into a [`PathState`];
//!   estimates equal the slab's bit for bit, for any thread count.
//!
//! # Example
//!
//! ```
//! use qram_circuit::{Circuit, Gate, Qubit};
//! use qram_sim::{PathState, run};
//!
//! // CX copies a classical bit.
//! let mut c = Circuit::new(2);
//! c.push(Gate::cx(Qubit(0), Qubit(1)));
//!
//! let mut state = PathState::computational_basis(2);
//! state.apply_x(Qubit(0)); // prepare qubit 0 in |1⟩
//! run(c.gates(), &mut state).unwrap();
//! assert_eq!(state.num_paths(), 1);
//! assert!(state.probability_of_one(Qubit(1)) > 0.999);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod amplitude;
mod bitstring;
mod engine;
mod executor;
mod lanes;
mod shots;
mod state;

pub use amplitude::Amplitude;
pub use bitstring::BitString;
pub use engine::{run_shots, run_shots_stats, ShotConfig, ShotStats};
pub use executor::{run, run_with_faults, Fault, FaultPlan, Pauli};
pub use lanes::Lanes;
pub use shots::{
    monte_carlo_fidelity, monte_carlo_fidelity_with, monte_carlo_reduced_fidelity,
    monte_carlo_reduced_fidelity_with, FidelityEstimate,
};
pub use state::{PathBits, PathState};

/// Errors produced by the path simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The circuit contains a gate outside the classical-reversible family
    /// (e.g. `H`), which the Feynman-path method cannot simulate.
    NonReversibleGate {
        /// Mnemonic of the offending gate.
        gate: &'static str,
    },
    /// A gate or fault references a qubit beyond the state's qubit count.
    QubitOutOfRange {
        /// Index of the offending qubit.
        index: usize,
        /// Number of qubits in the state.
        num_qubits: usize,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::NonReversibleGate { gate } => {
                write!(
                    f,
                    "gate `{gate}` is outside the classical-reversible family"
                )
            }
            SimError::QubitOutOfRange { index, num_qubits } => {
                write!(f, "qubit {index} out of range for {num_qubits}-qubit state")
            }
        }
    }
}

impl std::error::Error for SimError {}
