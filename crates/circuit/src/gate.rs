//! The QRAM gate algebra.

use crate::Qubit;

/// A (possibly negated) quantum control.
///
/// `value = true` is an ordinary control (the gate fires when the control
/// qubit is |1⟩); `value = false` is a "0-control" (fires on |0⟩), drawn as
/// an open circle in circuit diagrams. The paper's background section calls
/// the latter a `0-CX` gate.
///
/// ```
/// use qram_circuit::{Control, Qubit};
/// let c = Control::on(Qubit(2));
/// assert!(c.value);
/// let n = Control::off(Qubit(2));
/// assert!(!n.value);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Control {
    /// The controlling qubit.
    pub qubit: Qubit,
    /// Required control state: `true` fires on |1⟩, `false` on |0⟩.
    pub value: bool,
}

impl Control {
    /// An ordinary (|1⟩-firing) control on `qubit`.
    pub fn on(qubit: Qubit) -> Self {
        Control { qubit, value: true }
    }

    /// A negated (|0⟩-firing) control on `qubit`.
    pub fn off(qubit: Qubit) -> Self {
        Control {
            qubit,
            value: false,
        }
    }
}

/// A gate from the QRAM gate family.
///
/// All gates in this family map computational basis states to computational
/// basis states (up to phase for `Y`/`Z`), which is the property that makes
/// Feynman-path simulation of QRAM circuits efficient (paper Sec. 6.2).
/// `H` is included only for teleportation bookkeeping in the layout crate
/// and is rejected by the path simulator.
///
/// Every gate in the family is self-inverse, so a circuit is uncomputed by
/// replaying its gates in reverse order (see [`crate::Circuit::inverted`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Gate {
    /// Pauli X (bit flip).
    X(Qubit),
    /// Pauli Y (bit flip and phase flip, `Y = iXZ`).
    Y(Qubit),
    /// Pauli Z (phase flip).
    Z(Qubit),
    /// Hadamard. Only used for teleportation cost accounting; not simulable
    /// by the path simulator.
    H(Qubit),
    /// Controlled X with one (possibly negated) control.
    Cx {
        /// The control.
        control: Control,
        /// The target qubit.
        target: Qubit,
    },
    /// Toffoli (doubly-controlled X) with possibly negated controls.
    Ccx {
        /// The two controls.
        controls: [Control; 2],
        /// The target qubit.
        target: Qubit,
    },
    /// Multi-controlled X with an arbitrary number of controls.
    ///
    /// `Mcx` with zero controls acts as a plain `X`; with one or two
    /// controls it is equivalent to `Cx`/`Ccx` (kept distinct so that
    /// generators can express the paper's MCX unit explicitly).
    Mcx {
        /// The controls (any mix of polarities).
        controls: Vec<Control>,
        /// The target qubit.
        target: Qubit,
    },
    /// Unconditional SWAP of two qubits.
    Swap(Qubit, Qubit),
    /// Controlled SWAP (Fredkin) — the quantum-router workhorse.
    Cswap {
        /// The control.
        control: Control,
        /// First swapped qubit.
        a: Qubit,
        /// Second swapped qubit.
        b: Qubit,
    },
    /// Classically-controlled X: an `X` that is emitted because a classical
    /// memory bit is 1. Tagged distinctly so resource counting can report
    /// the paper's "classically controlled gates" row (Table 1). Gates whose
    /// classical bit is 0 are simply not emitted.
    ClX(Qubit),
    /// Classically-controlled CX — the paper's `Classical-CX[xᵢ, ·]` data
    /// write (Algorithm 1): a quantum CX (typically from a leaf flag onto a
    /// data rail) that is emitted only when the classical memory bit is 1.
    ClCx {
        /// The quantum control (a flag/presence qubit).
        control: Control,
        /// The target qubit.
        target: Qubit,
    },
    /// Classically-controlled SWAP on a dual-rail data node (Fig. 5d).
    ClSwap(Qubit, Qubit),
    /// Scheduling barrier: forces every gate after it into a later layer.
    /// Used to model *unpipelined* address loading (pipelining off,
    /// Sec. 3.2.3). Occupies no qubits and costs no gates.
    Barrier,
}

impl Gate {
    /// Convenience constructor: Pauli X.
    pub fn x(q: Qubit) -> Self {
        Gate::X(q)
    }

    /// Convenience constructor: Pauli Y.
    pub fn y(q: Qubit) -> Self {
        Gate::Y(q)
    }

    /// Convenience constructor: Pauli Z.
    pub fn z(q: Qubit) -> Self {
        Gate::Z(q)
    }

    /// Convenience constructor: CX with an ordinary control.
    pub fn cx(control: Qubit, target: Qubit) -> Self {
        Gate::Cx {
            control: Control::on(control),
            target,
        }
    }

    /// Convenience constructor: CX firing when the control is |0⟩ ("0-CX").
    pub fn cx0(control: Qubit, target: Qubit) -> Self {
        Gate::Cx {
            control: Control::off(control),
            target,
        }
    }

    /// Convenience constructor: Toffoli with ordinary controls.
    pub fn ccx(c1: Qubit, c2: Qubit, target: Qubit) -> Self {
        Gate::Ccx {
            controls: [Control::on(c1), Control::on(c2)],
            target,
        }
    }

    /// Convenience constructor: MCX with ordinary controls.
    pub fn mcx(controls: impl IntoIterator<Item = Qubit>, target: Qubit) -> Self {
        Gate::Mcx {
            controls: controls.into_iter().map(Control::on).collect(),
            target,
        }
    }

    /// Convenience constructor: MCX whose control pattern is the binary
    /// expansion of `pattern` over `controls` (most significant bit first).
    /// This is the paper's "one MCX per memory address" SQC unit: the gate
    /// fires exactly when the control register holds `pattern`.
    pub fn mcx_pattern(controls: &[Qubit], pattern: u64, target: Qubit) -> Self {
        let n = controls.len();
        let controls = controls
            .iter()
            .enumerate()
            .map(|(i, &q)| Control {
                qubit: q,
                value: (pattern >> (n - 1 - i)) & 1 == 1,
            })
            .collect();
        Gate::Mcx { controls, target }
    }

    /// Convenience constructor: SWAP.
    pub fn swap(a: Qubit, b: Qubit) -> Self {
        Gate::Swap(a, b)
    }

    /// Convenience constructor: CSWAP with an ordinary control.
    pub fn cswap(control: Qubit, a: Qubit, b: Qubit) -> Self {
        Gate::Cswap {
            control: Control::on(control),
            a,
            b,
        }
    }

    /// Convenience constructor: CSWAP firing when the control is |0⟩.
    pub fn cswap0(control: Qubit, a: Qubit, b: Qubit) -> Self {
        Gate::Cswap {
            control: Control::off(control),
            a,
            b,
        }
    }

    /// Convenience constructor: classically-controlled CX (the data-write
    /// gate of Algorithm 1, emitted only when the classical bit is 1).
    pub fn clcx(control: Qubit, target: Qubit) -> Self {
        Gate::ClCx {
            control: Control::on(control),
            target,
        }
    }

    /// Visits every qubit the gate touches without allocating: controls
    /// first, then targets. This is the one definition of a gate's
    /// operand order; fault samplers' trial tables are laid out in it.
    pub fn for_each_qubit(&self, mut f: impl FnMut(Qubit)) {
        match self {
            Gate::X(q) | Gate::Y(q) | Gate::Z(q) | Gate::H(q) | Gate::ClX(q) => f(*q),
            Gate::Cx { control, target } | Gate::ClCx { control, target } => {
                f(control.qubit);
                f(*target);
            }
            Gate::Ccx { controls, target } => {
                f(controls[0].qubit);
                f(controls[1].qubit);
                f(*target);
            }
            Gate::Mcx { controls, target } => {
                controls.iter().for_each(|c| f(c.qubit));
                f(*target);
            }
            Gate::Swap(a, b) | Gate::ClSwap(a, b) => {
                f(*a);
                f(*b);
            }
            Gate::Cswap { control, a, b } => {
                f(control.qubit);
                f(*a);
                f(*b);
            }
            Gate::Barrier => {}
        }
    }

    /// Every qubit the gate touches, in [`Gate::for_each_qubit`] order
    /// (controls first, then targets).
    pub fn qubits(&self) -> Vec<Qubit> {
        let mut qs = Vec::with_capacity(self.arity());
        self.for_each_qubit(|q| qs.push(q));
        qs
    }

    /// Number of qubits the gate touches.
    pub fn arity(&self) -> usize {
        match self {
            Gate::X(_) | Gate::Y(_) | Gate::Z(_) | Gate::H(_) | Gate::ClX(_) => 1,
            Gate::Cx { .. } | Gate::ClCx { .. } | Gate::Swap(..) | Gate::ClSwap(..) => 2,
            Gate::Ccx { .. } | Gate::Cswap { .. } => 3,
            Gate::Mcx { controls, .. } => controls.len() + 1,
            Gate::Barrier => 0,
        }
    }

    /// Whether this gate is tagged as classically controlled (paper Table 1
    /// counts these separately).
    pub fn is_classically_controlled(&self) -> bool {
        matches!(self, Gate::ClX(_) | Gate::ClCx { .. } | Gate::ClSwap(..))
    }

    /// Whether this is a scheduling barrier rather than a physical gate.
    pub fn is_barrier(&self) -> bool {
        matches!(self, Gate::Barrier)
    }

    /// The mnemonic of each gate kind, indexed by [`Gate::kind`]: the one
    /// kind table behind fixed-array gate censuses and gate-set bitmasks.
    /// [`Gate::name`] spells the same mnemonics out on its own, so the
    /// resource certifier, which counts by name, does not share it.
    pub const KIND_NAMES: [&'static str; 13] = [
        "x", "y", "z", "h", "cx", "ccx", "mcx", "swap", "cswap", "clx", "clcx", "clswap", "barrier",
    ];

    /// The gate's kind: its variant as an index into [`Gate::KIND_NAMES`].
    pub fn kind(&self) -> usize {
        match self {
            Gate::X(_) => 0,
            Gate::Y(_) => 1,
            Gate::Z(_) => 2,
            Gate::H(_) => 3,
            Gate::Cx { .. } => 4,
            Gate::Ccx { .. } => 5,
            Gate::Mcx { .. } => 6,
            Gate::Swap(..) => 7,
            Gate::Cswap { .. } => 8,
            Gate::ClX(_) => 9,
            Gate::ClCx { .. } => 10,
            Gate::ClSwap(..) => 11,
            Gate::Barrier => 12,
        }
    }

    /// Short mnemonic used in debug dumps and gate censuses.
    pub fn name(&self) -> &'static str {
        match self {
            Gate::X(_) => "x",
            Gate::Y(_) => "y",
            Gate::Z(_) => "z",
            Gate::H(_) => "h",
            Gate::Cx { .. } => "cx",
            Gate::Ccx { .. } => "ccx",
            Gate::Mcx { .. } => "mcx",
            Gate::Swap(..) => "swap",
            Gate::Cswap { .. } => "cswap",
            Gate::ClX(_) => "clx",
            Gate::ClCx { .. } => "clcx",
            Gate::ClSwap(..) => "clswap",
            Gate::Barrier => "barrier",
        }
    }
}

impl std::fmt::Display for Gate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fn ctrl(f: &mut std::fmt::Formatter<'_>, c: &Control) -> std::fmt::Result {
            if c.value {
                write!(f, "{}", c.qubit)
            } else {
                write!(f, "!{}", c.qubit)
            }
        }
        match self {
            Gate::X(q) => write!(f, "x {q}"),
            Gate::Y(q) => write!(f, "y {q}"),
            Gate::Z(q) => write!(f, "z {q}"),
            Gate::H(q) => write!(f, "h {q}"),
            Gate::ClX(q) => write!(f, "clx {q}"),
            Gate::ClCx { control, target } => {
                write!(f, "clcx ")?;
                ctrl(f, control)?;
                write!(f, ", {target}")
            }
            Gate::ClSwap(a, b) => write!(f, "clswap {a}, {b}"),
            Gate::Swap(a, b) => write!(f, "swap {a}, {b}"),
            Gate::Cx { control, target } => {
                write!(f, "cx ")?;
                ctrl(f, control)?;
                write!(f, ", {target}")
            }
            Gate::Ccx { controls, target } => {
                write!(f, "ccx ")?;
                ctrl(f, &controls[0])?;
                write!(f, ", ")?;
                ctrl(f, &controls[1])?;
                write!(f, ", {target}")
            }
            Gate::Mcx { controls, target } => {
                write!(f, "mcx ")?;
                for c in controls {
                    ctrl(f, c)?;
                    write!(f, ", ")?;
                }
                write!(f, "{target}")
            }
            Gate::Cswap { control, a, b } => {
                write!(f, "cswap ")?;
                ctrl(f, control)?;
                write!(f, ", {a}, {b}")
            }
            Gate::Barrier => write!(f, "barrier"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qubits_and_arity_agree() {
        let gates = vec![
            Gate::x(Qubit(0)),
            Gate::cx(Qubit(0), Qubit(1)),
            Gate::ccx(Qubit(0), Qubit(1), Qubit(2)),
            Gate::mcx([Qubit(0), Qubit(1), Qubit(2)], Qubit(3)),
            Gate::swap(Qubit(0), Qubit(1)),
            Gate::cswap(Qubit(0), Qubit(1), Qubit(2)),
            Gate::ClX(Qubit(0)),
            Gate::ClSwap(Qubit(0), Qubit(1)),
        ];
        for g in gates {
            assert_eq!(g.qubits().len(), g.arity(), "gate {g}");
        }
    }

    #[test]
    fn mcx_pattern_sets_polarities_msb_first() {
        let qs = [Qubit(0), Qubit(1), Qubit(2)];
        // pattern 0b101: q0 fires on 1, q1 on 0, q2 on 1.
        let g = Gate::mcx_pattern(&qs, 0b101, Qubit(3));
        if let Gate::Mcx { controls, .. } = &g {
            assert_eq!(controls[0], Control::on(Qubit(0)));
            assert_eq!(controls[1], Control::off(Qubit(1)));
            assert_eq!(controls[2], Control::on(Qubit(2)));
        } else {
            panic!("expected MCX");
        }
    }

    #[test]
    fn classically_controlled_tagging() {
        assert!(Gate::ClX(Qubit(0)).is_classically_controlled());
        assert!(Gate::ClSwap(Qubit(0), Qubit(1)).is_classically_controlled());
        assert!(!Gate::x(Qubit(0)).is_classically_controlled());
    }

    #[test]
    fn barrier_has_no_support() {
        assert!(Gate::Barrier.qubits().is_empty());
        assert!(Gate::Barrier.is_barrier());
        assert_eq!(Gate::Barrier.arity(), 0);
    }

    /// One gate of every variant, in kind order, with its mnemonic: the
    /// kind table must agree with `Gate::name` slot by slot.
    #[test]
    fn kind_table_pins_every_mnemonic() {
        let (a, b, c) = (Qubit(0), Qubit(1), Qubit(2));
        let every = [
            (Gate::x(a), "x"),
            (Gate::y(a), "y"),
            (Gate::z(a), "z"),
            (Gate::H(a), "h"),
            (Gate::cx(a, b), "cx"),
            (Gate::ccx(a, b, c), "ccx"),
            (Gate::mcx([a, b], c), "mcx"),
            (Gate::swap(a, b), "swap"),
            (Gate::cswap(a, b, c), "cswap"),
            (Gate::ClX(a), "clx"),
            (Gate::clcx(a, b), "clcx"),
            (Gate::ClSwap(a, b), "clswap"),
            (Gate::Barrier, "barrier"),
        ];
        assert_eq!(every.len(), Gate::KIND_NAMES.len());
        for (kind, (gate, name)) in every.iter().enumerate() {
            assert_eq!(gate.kind(), kind, "{gate}");
            assert_eq!(gate.name(), *name, "{gate}");
            assert_eq!(Gate::KIND_NAMES[kind], *name, "{gate}");
        }
    }

    #[test]
    fn display_formats() {
        assert_eq!(Gate::cx0(Qubit(1), Qubit(2)).to_string(), "cx !q1, q2");
        assert_eq!(
            Gate::cswap(Qubit(0), Qubit(1), Qubit(2)).to_string(),
            "cswap q0, q1, q2"
        );
    }
}
