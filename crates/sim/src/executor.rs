//! Circuit execution over path states, with Pauli fault injection.
//!
//! A *fault* is a Pauli error attached to a circuit location: either before
//! any gate executes (`gate_index == 0`) or immediately **after** the gate
//! at `gate_index − 1`. A [`FaultPlan`] is the complete fault pattern of one
//! Monte-Carlo shot; running the same circuit under different plans gives
//! the trajectory samples the paper averages in its fidelity plots
//! (Sec. 6.3).
//!
//! This slab executor is the reference implementation: the shot engine
//! runs the same plans as [`crate::Lanes`] passes and must agree with it
//! bit for bit.

use qram_circuit::{Control, Gate, Qubit};

use crate::state::PathBits;
use crate::{PathState, SimError};

/// A single-qubit Pauli error.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pauli {
    /// Bit flip.
    X,
    /// Bit and phase flip.
    Y,
    /// Phase flip.
    Z,
}

impl Pauli {
    /// All three Paulis, in `X, Y, Z` order.
    pub const ALL: [Pauli; 3] = [Pauli::X, Pauli::Y, Pauli::Z];

    /// Applies this Pauli to `qubit` of `state`.
    pub fn apply(self, state: &mut PathState, qubit: Qubit) {
        match self {
            Pauli::X => state.apply_x(qubit),
            Pauli::Y => state.apply_y(qubit),
            Pauli::Z => state.apply_z(qubit),
        }
    }
}

impl std::fmt::Display for Pauli {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Pauli::X => write!(f, "X"),
            Pauli::Y => write!(f, "Y"),
            Pauli::Z => write!(f, "Z"),
        }
    }
}

/// A Pauli error at a circuit location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fault {
    /// The fault fires after `gate_index` gates have executed
    /// (0 = before the first gate).
    pub gate_index: usize,
    /// The afflicted qubit.
    pub qubit: Qubit,
    /// Which Pauli error occurs.
    pub pauli: Pauli,
}

impl Fault {
    /// Convenience constructor.
    pub fn new(gate_index: usize, qubit: Qubit, pauli: Pauli) -> Self {
        Fault {
            gate_index,
            qubit,
            pauli,
        }
    }
}

/// The complete fault pattern of one noisy shot: a list of [`Fault`]s,
/// sorted by location at execution time.
///
/// ```
/// use qram_sim::{Fault, FaultPlan, Pauli};
/// use qram_circuit::Qubit;
///
/// let mut plan = FaultPlan::new();
/// plan.push(Fault::new(2, Qubit(0), Pauli::Z));
/// assert_eq!(plan.len(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty (noise-free) plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a fault.
    pub fn push(&mut self, fault: Fault) {
        self.faults.push(fault);
    }

    /// Removes every fault, keeping the buffer for the next shot.
    pub fn clear(&mut self) {
        self.faults.clear();
    }

    /// Number of faults in the plan.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the plan has no faults.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The faults in insertion order.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Whether some fault flips a bit: an `X` or a `Y`. Without one, a
    /// plan changes only phases, and the run ends in the ideal's bits.
    pub fn flips_bits(&self) -> bool {
        self.faults.iter().any(|f| f.pauli != Pauli::Z)
    }

    /// The faults grouped by `gate_index`, sorted ascending.
    fn sorted(&self) -> Vec<Fault> {
        let mut sorted = self.faults.clone();
        sorted.sort_by_key(|f| f.gate_index);
        sorted
    }
}

impl FromIterator<Fault> for FaultPlan {
    fn from_iter<I: IntoIterator<Item = Fault>>(iter: I) -> Self {
        FaultPlan {
            faults: iter.into_iter().collect(),
        }
    }
}

impl Extend<Fault> for FaultPlan {
    fn extend<I: IntoIterator<Item = Fault>>(&mut self, iter: I) {
        self.faults.extend(iter);
    }
}

/// Runs `gates` over `state` without noise.
///
/// # Errors
///
/// Returns [`SimError::NonReversibleGate`] on `H` and
/// [`SimError::QubitOutOfRange`] if any gate references a qubit past the
/// state's qubit count.
pub fn run(gates: &[Gate], state: &mut PathState) -> Result<(), SimError> {
    run_with_faults(gates, state, &FaultPlan::new())
}

/// Runs `gates` over `state`, injecting the faults of `plan` at their
/// locations (fault at `gate_index = i` fires after `i` gates executed).
///
/// Barriers are scheduling pseudo-gates: they occupy a gate index (so fault
/// locations stay aligned with generator output) but perform no action.
///
/// # Errors
///
/// Same conditions as [`run`].
pub fn run_with_faults(
    gates: &[Gate],
    state: &mut PathState,
    plan: &FaultPlan,
) -> Result<(), SimError> {
    let faults = plan.sorted();
    let num_qubits = state.num_qubits();
    let mut next = 0;
    // Fires every fault located at or before `idx` that has not fired.
    let mut fire = |idx: usize, state: &mut PathState| -> Result<(), SimError> {
        while let Some(f) = faults.get(next).filter(|f| f.gate_index <= idx) {
            if f.qubit.index() >= num_qubits {
                return Err(SimError::QubitOutOfRange {
                    index: f.qubit.index(),
                    num_qubits,
                });
            }
            f.pauli.apply(state, f.qubit);
            next += 1;
        }
        Ok(())
    };
    for (i, gate) in gates.iter().enumerate() {
        fire(i, state)?;
        apply_gate(gate, state)?;
    }
    fire(gates.len(), state)
}

/// Fails with [`SimError::QubitOutOfRange`] on the first operand (in
/// [`Gate::for_each_qubit`] order) past `num_qubits`.
fn check_bounds(gate: &Gate, num_qubits: usize) -> Result<(), SimError> {
    let mut first_bad = None;
    gate.for_each_qubit(|q| {
        if first_bad.is_none() && q.index() >= num_qubits {
            first_bad = Some(q.index());
        }
    });
    match first_bad {
        None => Ok(()),
        Some(index) => Err(SimError::QubitOutOfRange { index, num_qubits }),
    }
}

/// Applies one gate to the slab.
///
/// # Errors
///
/// Returns [`SimError::NonReversibleGate`] for `H`,
/// [`SimError::QubitOutOfRange`] for bad qubit indices (bounds are
/// checked before family legality).
fn apply_gate(gate: &Gate, state: &mut PathState) -> Result<(), SimError> {
    check_bounds(gate, state.num_qubits())?;
    #[inline]
    fn ctrl_active(bits: &PathBits<'_>, c: &Control) -> bool {
        bits.get(c.qubit.index()) == c.value
    }
    match gate {
        Gate::Barrier => {}
        Gate::H(_) => return Err(SimError::NonReversibleGate { gate: "h" }),
        Gate::X(q) | Gate::ClX(q) => state.apply_x(*q),
        Gate::Y(q) => state.apply_y(*q),
        Gate::Z(q) => state.apply_z(*q),
        Gate::Cx { control, target } | Gate::ClCx { control, target } => {
            let (c, t) = (*control, target.index());
            state.permute_in_place(|bits| {
                if ctrl_active(bits, &c) {
                    bits.flip(t);
                }
            });
        }
        Gate::Ccx { controls, target } => {
            let (cs, t) = (*controls, target.index());
            state.permute_in_place(|bits| {
                if ctrl_active(bits, &cs[0]) && ctrl_active(bits, &cs[1]) {
                    bits.flip(t);
                }
            });
        }
        Gate::Mcx { controls, target } => {
            let (cs, t) = (controls.as_slice(), target.index());
            state.permute_in_place(|bits| {
                if cs.iter().all(|c| ctrl_active(bits, c)) {
                    bits.flip(t);
                }
            });
        }
        Gate::Swap(a, b) | Gate::ClSwap(a, b) => {
            let (a, b) = (a.index(), b.index());
            state.permute_in_place(|bits| bits.swap_bits(a, b));
        }
        Gate::Cswap { control, a, b } => {
            let (c, a, b) = (*control, a.index(), b.index());
            state.permute_in_place(|bits| {
                if ctrl_active(bits, &c) {
                    bits.swap_bits(a, b);
                }
            });
        }
    }
    Ok(())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use qram_circuit::Circuit;

    fn basis(value: u64, n: usize) -> PathState {
        PathState::basis_state(crate::BitString::from_u64(value, n))
    }

    #[test]
    fn cx_truth_table() {
        for (input, expected) in [(0b00, 0b00), (0b01, 0b11), (0b10, 0b10), (0b11, 0b01)] {
            // qubit 0 is the low bit of `input`.
            let mut s = basis(input, 2);
            run(&[Gate::cx(Qubit(0), Qubit(1))], &mut s).unwrap();
            let want = basis(expected, 2);
            assert!(
                (s.fidelity(&want) - 1.0).abs() < 1e-12,
                "input {input:#04b}"
            );
        }
    }

    #[test]
    fn zero_controlled_cx_fires_on_zero() {
        let mut s = basis(0b00, 2);
        run(&[Gate::cx0(Qubit(0), Qubit(1))], &mut s).unwrap();
        assert!((s.fidelity(&basis(0b10, 2)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ccx_truth_table() {
        for input in 0u64..8 {
            let mut s = basis(input, 3);
            run(&[Gate::ccx(Qubit(0), Qubit(1), Qubit(2))], &mut s).unwrap();
            let expected = if input & 0b11 == 0b11 {
                input ^ 0b100
            } else {
                input
            };
            assert!(
                (s.fidelity(&basis(expected, 3)) - 1.0).abs() < 1e-12,
                "input {input:#05b}"
            );
        }
    }

    #[test]
    fn cswap_routes_conditionally() {
        // control = qubit 0; swap qubits 1,2.
        for input in 0u64..8 {
            let mut s = basis(input, 3);
            run(&[Gate::cswap(Qubit(0), Qubit(1), Qubit(2))], &mut s).unwrap();
            let expected = if input & 1 == 1 {
                let b1 = (input >> 1) & 1;
                let b2 = (input >> 2) & 1;
                (input & 1) | (b2 << 1) | (b1 << 2)
            } else {
                input
            };
            assert!(
                (s.fidelity(&basis(expected, 3)) - 1.0).abs() < 1e-12,
                "input {input:#05b}"
            );
        }
    }

    #[test]
    fn mcx_pattern_selects_one_address() {
        // 2-bit address register (MSB = q0), target = q2. The pattern gate
        // for address 0b10 must flip the target only for that branch.
        let addr = [Qubit(0), Qubit(1)];
        let gate = Gate::mcx_pattern(&addr, 0b10, Qubit(2));
        let mut s = PathState::uniform_over(3, &addr);
        run(&[gate], &mut s).unwrap();
        for (bits, _) in s.iter() {
            let a = bits.read_msb_first(&[0, 1]);
            let t = bits.get(2);
            assert_eq!(t, a == 0b10, "address {a:#04b}");
        }
    }

    #[test]
    fn h_is_rejected() {
        let mut s = PathState::computational_basis(1);
        let err = run(&[Gate::H(Qubit(0))], &mut s).unwrap_err();
        assert_eq!(err, SimError::NonReversibleGate { gate: "h" });
    }

    #[test]
    fn out_of_range_qubit_is_rejected() {
        let mut s = PathState::computational_basis(1);
        let err = run(&[Gate::x(Qubit(3))], &mut s).unwrap_err();
        assert!(matches!(err, SimError::QubitOutOfRange { index: 3, .. }));
    }

    #[test]
    fn faults_fire_at_their_location() {
        // X fault before the CX control changes the CX outcome; after, it
        // does not.
        let gates = [Gate::cx(Qubit(0), Qubit(1))];

        let mut before = PathState::computational_basis(2);
        let plan: FaultPlan = [Fault::new(0, Qubit(0), Pauli::X)].into_iter().collect();
        run_with_faults(&gates, &mut before, &plan).unwrap();
        // Fault flips control to 1 → CX fires → |11⟩.
        assert!((before.fidelity(&basis(0b11, 2)) - 1.0).abs() < 1e-12);

        let mut after = PathState::computational_basis(2);
        let plan: FaultPlan = [Fault::new(1, Qubit(0), Pauli::X)].into_iter().collect();
        run_with_faults(&gates, &mut after, &plan).unwrap();
        // CX saw control 0 → only the fault's flip remains → |01⟩... i.e. bit0 = 1.
        assert!((after.fidelity(&basis(0b01, 2)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn z_fault_on_zero_branch_is_harmless() {
        // Z on a qubit in |0⟩ is the identity: fidelity stays 1.
        let gates = [Gate::cx(Qubit(0), Qubit(1))];
        let mut ideal = PathState::computational_basis(2);
        run(&gates, &mut ideal).unwrap();

        let mut noisy = PathState::computational_basis(2);
        let plan: FaultPlan = [Fault::new(0, Qubit(1), Pauli::Z)].into_iter().collect();
        run_with_faults(&gates, &mut noisy, &plan).unwrap();
        assert!((noisy.fidelity(&ideal) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn barrier_is_inert_but_occupies_an_index() {
        let mut c = Circuit::new(1);
        c.barrier();
        c.push(Gate::x(Qubit(0)));
        // A fault at index 1 fires after the barrier, before the X.
        let plan: FaultPlan = [Fault::new(1, Qubit(0), Pauli::X)].into_iter().collect();
        let mut s = PathState::computational_basis(1);
        run_with_faults(c.gates(), &mut s, &plan).unwrap();
        // X fault + X gate = identity.
        assert!((s.fidelity(&PathState::computational_basis(1)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn path_count_is_preserved_by_reversible_gates() {
        let addr = [Qubit(0), Qubit(1), Qubit(2)];
        let mut s = PathState::uniform_over(5, &addr);
        let gates = [
            Gate::cx(Qubit(0), Qubit(3)),
            Gate::ccx(Qubit(1), Qubit(2), Qubit(4)),
            Gate::cswap(Qubit(0), Qubit(3), Qubit(4)),
            Gate::swap(Qubit(3), Qubit(4)),
            Gate::x(Qubit(3)),
        ];
        run(&gates, &mut s).unwrap();
        assert_eq!(s.num_paths(), 8);
        assert!((s.norm_sqr() - 1.0).abs() < 1e-12);
    }

    /// A lane pass of `input` under `plan`, one lane per path, read back
    /// into a state.
    fn lane_run(
        gates: &[Gate],
        input: &PathState,
        plan: &FaultPlan,
    ) -> Result<PathState, SimError> {
        let mut lanes = crate::Lanes::default();
        lanes.load_paths(input);
        lanes.add_block_faults(0, plan);
        lanes.run(gates)?;
        let mut out = PathState::zero_vector(input.num_qubits());
        lanes.block(0).store_paths(input, &mut out);
        Ok(out)
    }

    /// Every path's bits and amplitude bits, in slab order.
    fn exact(state: &PathState) -> Vec<(crate::BitString, u64, u64)> {
        state
            .iter()
            .map(|(bits, a)| (bits, a.re.to_bits(), a.im.to_bits()))
            .collect()
    }

    /// `paths` paths over an 8-bit register of a 70-qubit state (two
    /// words per path), with complex, negative and signed-zero
    /// amplitudes. A lane pass puts 64 paths in one word, so 130 paths
    /// make three chunks.
    pub(crate) fn wide_input(paths: usize) -> PathState {
        let amps: Vec<_> = (0..paths)
            .map(|p| match p % 3 {
                0 => crate::Amplitude::new(-0.0, 0.25),
                1 => crate::Amplitude::new(-0.5, -0.0),
                _ => crate::Amplitude::new(0.125, p as f64),
            })
            .collect();
        let register: Vec<Qubit> = (0..8).map(Qubit).collect();
        PathState::superposition_over(70, &register, &amps)
    }

    /// Gates on both words of the wide state. Qubit 67 stays `|0⟩` and
    /// qubit 69 ends `|1⟩` on every path.
    pub(crate) fn wide_gates() -> Vec<Gate> {
        vec![
            Gate::cx(Qubit(0), Qubit(66)),
            Gate::ccx(Qubit(1), Qubit(2), Qubit(68)),
            Gate::cswap(Qubit(66), Qubit(3), Qubit(68)),
            Gate::y(Qubit(69)),
            Gate::swap(Qubit(4), Qubit(65)),
            Gate::z(Qubit(5)),
            Gate::x(Qubit(6)),
        ]
    }

    /// The lane pass, 64 paths to a word chunk, matches the serial slab
    /// run bit for bit, in slab order, on inputs of one to three chunks.
    /// Every `Y` flips the parity of every path's power of `i`, so the
    /// plans cover both parities: with an odd count, powers 1 and 3
    /// occur; with an even one, 0 and 2.
    #[test]
    fn chunked_run_matches_serial_bit_for_bit() {
        let gates = wide_gates();
        let mut plan: FaultPlan = [
            Fault::new(1, Qubit(2), Pauli::Y),
            Fault::new(3, Qubit(68), Pauli::Z),
            Fault::new(3, Qubit(68), Pauli::X),
            Fault::new(7, Qubit(0), Pauli::Y),
        ]
        .into_iter()
        .collect();
        for _parity in 0..2 {
            for paths in [1usize, 63, 64, 65, 130] {
                let input = wide_input(paths);
                let mut serial = input.clone();
                run_with_faults(&gates, &mut serial, &plan).unwrap();
                let lanes = lane_run(&gates, &input, &plan).unwrap();
                assert_eq!(exact(&lanes), exact(&serial), "paths={paths}");
            }
            plan.push(Fault::new(0, Qubit(67), Pauli::Y));
        }
    }

    #[test]
    fn chunked_error_semantics_match_serial() {
        let input = wide_input(130);
        // (gates, plan) cases that each fail at a different point of the
        // serial execution order.
        let h_gate = vec![Gate::cx(Qubit(0), Qubit(1)), Gate::H(Qubit(2))];
        let bad_gate = vec![Gate::x(Qubit(70))];
        let bad_fault_gates = vec![Gate::cx(Qubit(0), Qubit(1))];
        let bad_fault: FaultPlan = [Fault::new(1, Qubit(90), Pauli::X)].into_iter().collect();
        let cases: Vec<(&[Gate], FaultPlan)> = vec![
            (&h_gate, FaultPlan::new()),
            (&bad_gate, FaultPlan::new()),
            (&bad_fault_gates, bad_fault),
        ];
        for (gates, plan) in cases {
            let mut serial = input.clone();
            let serial_err = run_with_faults(gates, &mut serial, &plan).unwrap_err();
            assert_eq!(lane_run(gates, &input, &plan).unwrap_err(), serial_err);
        }
    }

    #[test]
    fn faults_past_circuit_end_never_fire_nor_validate() {
        // A fault located beyond the final fire point (gate_index >
        // gates.len()) is dead: neither the slab nor a lane pass
        // validates it.
        let gates = [Gate::x(Qubit(0))];
        let plan: FaultPlan = [Fault::new(2, Qubit(40), Pauli::X)].into_iter().collect();
        let mut serial = PathState::computational_basis(1);
        run_with_faults(&gates, &mut serial, &plan).unwrap();
        let input = PathState::uniform_over(1, &[Qubit(0)]);
        lane_run(&gates, &input, &plan).unwrap();
    }

    #[test]
    fn run_chunked_noiseless_matches_run() {
        let gates = wide_gates();
        let input = wide_input(130);
        let mut serial = input.clone();
        run(&gates, &mut serial).unwrap();
        let lanes = lane_run(&gates, &input, &FaultPlan::new()).unwrap();
        assert_eq!(exact(&lanes), exact(&serial));
    }

    #[test]
    fn uncompute_by_inversion_restores_input() {
        let mut c = Circuit::new(4);
        c.push(Gate::cx(Qubit(0), Qubit(2)));
        c.push(Gate::cswap(Qubit(1), Qubit(2), Qubit(3)));
        c.push(Gate::ccx(Qubit(0), Qubit(1), Qubit(3)));

        let input = PathState::uniform_over(4, &[Qubit(0), Qubit(1)]);
        let mut s = input.clone();
        run(c.gates(), &mut s).unwrap();
        run(c.inverted().gates(), &mut s).unwrap();
        assert!((s.fidelity(&input) - 1.0).abs() < 1e-12);
    }
}
