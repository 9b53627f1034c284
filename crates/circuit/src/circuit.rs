//! The [`Circuit`] container: an ordered list of gates over a fixed qubit
//! count, with validation, census and inversion utilities.

use std::collections::BTreeMap;

use crate::resources::ResourceCount;
use crate::schedule::Schedule;
use crate::{CircuitError, Gate, Qubit};

/// An ordered quantum circuit over `num_qubits` qubits.
///
/// Gates execute in push order; depth is derived by [`Circuit::schedule`].
/// All gates in the QRAM family are self-inverse, so [`Circuit::inverted`]
/// (gates replayed in reverse) is the exact uncomputation of the circuit —
/// the property Algorithm 1 of the paper relies on for its uncompute stages.
///
/// ```
/// use qram_circuit::{Circuit, Gate, Qubit};
/// let mut c = Circuit::new(2);
/// c.push(Gate::x(Qubit(0)));
/// c.push(Gate::cx(Qubit(0), Qubit(1)));
/// let inv = c.inverted();
/// assert_eq!(inv.gates()[0], Gate::cx(Qubit(0), Qubit(1)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Circuit {
    num_qubits: usize,
    gates: Vec<Gate>,
}

impl Circuit {
    /// Creates an empty circuit over `num_qubits` qubits.
    pub fn new(num_qubits: usize) -> Self {
        Circuit {
            num_qubits,
            gates: Vec::new(),
        }
    }

    /// Creates an empty circuit with gate-list capacity reserved.
    pub fn with_capacity(num_qubits: usize, capacity: usize) -> Self {
        Circuit {
            num_qubits,
            gates: Vec::with_capacity(capacity),
        }
    }

    /// Number of qubits the circuit acts on.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Appends a gate.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the gate references qubits outside the
    /// circuit or repeats a qubit; use [`Circuit::try_push`] for validated
    /// insertion in release builds.
    pub fn push(&mut self, gate: Gate) {
        debug_assert!(self.validate_gate(&gate).is_ok(), "invalid gate: {gate}");
        self.gates.push(gate);
    }

    /// Appends a gate after validating it.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::QubitOutOfRange`] if the gate touches a qubit
    /// beyond `num_qubits`, or [`CircuitError::DuplicateQubit`] if the gate
    /// repeats a qubit.
    pub fn try_push(&mut self, gate: Gate) -> Result<(), CircuitError> {
        self.validate_gate(&gate)?;
        self.gates.push(gate);
        Ok(())
    }

    /// Appends a scheduling barrier (see [`Gate::Barrier`]).
    pub fn barrier(&mut self) {
        self.gates.push(Gate::Barrier);
    }

    /// Appends all gates of `other` (which must act on a compatible qubit
    /// count).
    ///
    /// # Panics
    ///
    /// Panics if `other` uses more qubits than this circuit has.
    pub fn extend(&mut self, other: &Circuit) {
        assert!(
            other.num_qubits <= self.num_qubits,
            "cannot extend a {}-qubit circuit with a {}-qubit circuit",
            self.num_qubits,
            other.num_qubits
        );
        self.gates.extend(other.gates.iter().cloned());
    }

    /// The gates in execution order.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Number of gates, excluding barriers.
    pub fn len(&self) -> usize {
        self.gates.iter().filter(|g| !g.is_barrier()).count()
    }

    /// Whether the circuit contains no physical gates.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over physical gates (barriers skipped).
    pub fn iter(&self) -> impl Iterator<Item = &Gate> {
        self.gates.iter().filter(|g| !g.is_barrier())
    }

    /// The exact inverse circuit: gates replayed in reverse order.
    ///
    /// Valid because every gate in the QRAM family is self-inverse.
    pub fn inverted(&self) -> Circuit {
        let gates = self.gates.iter().rev().cloned().collect();
        Circuit {
            num_qubits: self.num_qubits,
            gates,
        }
    }

    /// Greedy ASAP schedule of the circuit (see [`Schedule`]).
    pub fn schedule(&self) -> Schedule {
        Schedule::asap(self)
    }

    /// Census of gate mnemonics → counts (barriers excluded).
    pub fn gate_census(&self) -> BTreeMap<&'static str, usize> {
        let mut census = BTreeMap::new();
        for g in self.iter() {
            *census.entry(g.name()).or_insert(0) += 1;
        }
        census
    }

    /// Summary statistics (gate count, depth, census, ...), from one
    /// layering walk.
    ///
    /// # Panics
    ///
    /// Panics if a gate names a qubit outside the circuit.
    pub fn stats(&self) -> CircuitStats {
        let counted = ResourceCount::of(self);
        CircuitStats {
            num_qubits: self.num_qubits,
            num_gates: counted.num_gates,
            depth: counted.depth,
            census: counted
                .census
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        }
    }

    /// Validates every gate; returns the first error found.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Circuit::try_push`], applied to the whole list.
    pub fn validate(&self) -> Result<(), CircuitError> {
        for g in &self.gates {
            self.validate_gate(g)?;
        }
        Ok(())
    }

    fn validate_gate(&self, gate: &Gate) -> Result<(), CircuitError> {
        let qs = gate.qubits();
        for &q in &qs {
            if q.index() >= self.num_qubits {
                return Err(CircuitError::QubitOutOfRange {
                    qubit: q,
                    num_qubits: self.num_qubits,
                });
            }
        }
        let mut sorted: Vec<Qubit> = qs.clone();
        sorted.sort_unstable();
        for w in sorted.windows(2) {
            if w[0] == w[1] {
                return Err(CircuitError::DuplicateQubit { qubit: w[0] });
            }
        }
        Ok(())
    }
}

impl std::fmt::Display for Circuit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "circuit[{} qubits, {} gates]",
            self.num_qubits,
            self.len()
        )?;
        for g in &self.gates {
            writeln!(f, "  {g}")?;
        }
        Ok(())
    }
}

/// Summary statistics of a circuit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CircuitStats {
    /// Number of qubits.
    pub num_qubits: usize,
    /// Number of physical gates.
    pub num_gates: usize,
    /// ASAP depth.
    pub depth: usize,
    /// Mnemonic → count census.
    pub census: BTreeMap<String, usize>,
}

impl std::fmt::Display for CircuitStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} qubits, {} gates, depth {}",
            self.num_qubits, self.num_gates, self.depth
        )?;
        for (name, count) in &self.census {
            write!(f, ", {name}×{count}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_census() {
        let mut c = Circuit::new(3);
        c.push(Gate::x(Qubit(0)));
        c.push(Gate::cx(Qubit(0), Qubit(1)));
        c.push(Gate::cx(Qubit(1), Qubit(2)));
        c.barrier();
        c.push(Gate::ccx(Qubit(0), Qubit(1), Qubit(2)));
        assert_eq!(c.len(), 4);
        let census = c.gate_census();
        assert_eq!(census["cx"], 2);
        assert_eq!(census["x"], 1);
        assert_eq!(census["ccx"], 1);
        assert!(!census.contains_key("barrier"));
    }

    #[test]
    fn inverted_reverses_gates() {
        let mut c = Circuit::new(2);
        c.push(Gate::x(Qubit(0)));
        c.push(Gate::swap(Qubit(0), Qubit(1)));
        let inv = c.inverted();
        assert_eq!(inv.gates()[0], Gate::swap(Qubit(0), Qubit(1)));
        assert_eq!(inv.gates()[1], Gate::x(Qubit(0)));
    }

    #[test]
    fn try_push_rejects_out_of_range() {
        let mut c = Circuit::new(2);
        let err = c.try_push(Gate::x(Qubit(5))).unwrap_err();
        assert!(matches!(err, CircuitError::QubitOutOfRange { .. }));
    }

    #[test]
    fn try_push_rejects_duplicate_qubits() {
        let mut c = Circuit::new(2);
        let err = c.try_push(Gate::cx(Qubit(1), Qubit(1))).unwrap_err();
        assert!(matches!(err, CircuitError::DuplicateQubit { .. }));
    }

    #[test]
    fn extend_concatenates() {
        let mut a = Circuit::new(2);
        a.push(Gate::x(Qubit(0)));
        let mut b = Circuit::new(2);
        b.push(Gate::x(Qubit(1)));
        a.extend(&b);
        assert_eq!(a.len(), 2);
    }

    #[test]
    #[should_panic(expected = "cannot extend")]
    fn extend_rejects_wider_circuit() {
        let mut a = Circuit::new(1);
        let b = Circuit::new(2);
        a.extend(&b);
    }

    #[test]
    fn stats_display_nonempty() {
        let mut c = Circuit::new(1);
        c.push(Gate::x(Qubit(0)));
        let s = c.stats().to_string();
        assert!(s.contains("1 qubits"));
        assert!(s.contains("x×1"));
    }

    #[test]
    fn validate_whole_circuit() {
        let mut c = Circuit::new(3);
        c.push(Gate::ccx(Qubit(0), Qubit(1), Qubit(2)));
        assert!(c.validate().is_ok());
    }
}
