//! Quantum circuit intermediate representation for QRAM architectures.
//!
//! This crate is the substrate every other crate in the workspace builds on.
//! It deliberately restricts its gate set to the family used by quantum
//! random access memory (QRAM) circuits — classical reversible gates
//! (`X`, `CX`, `CCX`, `MCX`, `SWAP`, `CSWAP`), Pauli gates, and
//! classically-controlled gates — because that restriction is what makes
//! QRAM circuits efficiently simulable by the Feynman-path method
//! (see the `qram-sim` crate) and is the gate family of the MICRO '23 paper
//! *Systems Architecture for Quantum Random Access Memory*.
//!
//! The crate provides:
//!
//! * [`Qubit`], [`Register`] and [`QubitAllocator`] — structured qubit
//!   identity management.
//! * [`Gate`] and [`Control`] — the gate algebra, including negative
//!   ("0-controlled") controls.
//! * [`Circuit`] — an ordered gate list with a builder-style API.
//! * [`schedule::Schedule`] — greedy as-soon-as-possible layering used for
//!   depth accounting; barriers model *unpipelined* schedules so the
//!   paper's pipelining optimization (Sec. 3.2.3) can be toggled.
//!   [`schedule::layer_gates`] is the one ASAP walk behind it, the
//!   resource count and the fault sampler's qubit-per-step trials.
//! * [`resources::ResourceCount`] — gate census and Clifford+T cost model
//!   (T-count, T-depth, Clifford depth) via standard decompositions.
//! * [`decompose`] — lowering of multi-controlled gates to Clifford+T.
//!
//! # Example
//!
//! ```
//! use qram_circuit::{Circuit, Gate, Qubit};
//!
//! let mut c = Circuit::new(3);
//! c.push(Gate::x(Qubit(0)));
//! c.push(Gate::cx(Qubit(0), Qubit(1)));
//! c.push(Gate::ccx(Qubit(0), Qubit(1), Qubit(2)));
//! assert_eq!(c.len(), 3);
//! assert_eq!(c.schedule().depth(), 3); // serial chain on shared qubits
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod circuit;
mod gate;
mod qubit;

pub mod decompose;
pub mod resources;
pub mod schedule;

pub use circuit::{Circuit, CircuitStats};
pub use gate::{Control, Gate};
pub use qubit::{Qubit, QubitAllocator, Register};

/// Errors produced when constructing or validating circuits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CircuitError {
    /// A gate references a qubit index not allocated in the circuit.
    QubitOutOfRange {
        /// The offending qubit.
        qubit: Qubit,
        /// Number of qubits in the circuit.
        num_qubits: usize,
    },
    /// A gate uses the same qubit twice (e.g. `CX q0, q0`).
    DuplicateQubit {
        /// The duplicated qubit.
        qubit: Qubit,
    },
}

impl std::fmt::Display for CircuitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CircuitError::QubitOutOfRange { qubit, num_qubits } => write!(
                f,
                "qubit {} out of range for circuit with {} qubits",
                qubit.index(),
                num_qubits
            ),
            CircuitError::DuplicateQubit { qubit } => {
                write!(
                    f,
                    "qubit {} used more than once in a single gate",
                    qubit.index()
                )
            }
        }
    }
}

impl std::error::Error for CircuitError {}
