//! Clifford+T resource estimation (Table 1 / Table 2 substrate).
//!
//! The paper compares QRAM architectures by qubit count, circuit depth,
//! T count, T depth and Clifford depth (Sec. 7.1). This module prices each
//! high-level gate with the standard fault-tolerant decompositions:
//!
//! * `CCX` (Toffoli): T-count 7, T-depth 3 (Amy–Maslov–Mosca matroid
//!   partitioning), Clifford+T depth 10.
//! * `CSWAP` (Fredkin): `CX · CCX · CX`, depth 12, T-depth 3, T-count 7 —
//!   the constants quoted in Sec. 2.2.1 of the paper.
//! * `MCX` with `c ≥ 3` controls: V-chain over `c − 2` clean ancillae,
//!   `2c − 3` Toffolis.
//! * Everything else (Pauli, `H`, `CX`, `SWAP`, classically-controlled
//!   gates) is Clifford with zero T cost.
//!
//! Depth-like quantities are computed as *weighted critical paths* over the
//! qubit-conflict DAG, in the same walk that ASAP-schedules the circuit
//! ([`crate::schedule::layer_gates`]): each gate contributes its
//! decomposition depth instead of 1. The [`crate::decompose`] module
//! provides an exact lowering that tests use to validate these
//! closed-form weights.

use std::collections::BTreeMap;

use crate::schedule::layer_gates;
use crate::{Circuit, Gate};

/// Fault-tolerant price of a single gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GateCost {
    /// Number of T/T† gates in the decomposition.
    pub t_count: usize,
    /// T-layer depth of the decomposition.
    pub t_depth: usize,
    /// Total Clifford+T depth of the decomposition.
    pub full_depth: usize,
    /// Clifford-only layer depth (`full_depth − t_depth`).
    pub clifford_depth: usize,
    /// Clean ancillae demanded by the decomposition.
    pub ancillas: usize,
}

/// Prices `gate` under the decompositions listed in the module docs.
pub fn cost_of(gate: &Gate) -> GateCost {
    fn clifford(depth: usize) -> GateCost {
        GateCost {
            t_count: 0,
            t_depth: 0,
            full_depth: depth,
            clifford_depth: depth,
            ancillas: 0,
        }
    }
    match gate {
        Gate::Barrier => GateCost::default(),
        Gate::X(_) | Gate::Y(_) | Gate::Z(_) | Gate::H(_) | Gate::ClX(_) => clifford(1),
        Gate::Cx { .. } | Gate::ClCx { .. } => clifford(1),
        // SWAP = 3 CX.
        Gate::Swap(..) | Gate::ClSwap(..) => clifford(3),
        Gate::Ccx { .. } => GateCost {
            t_count: 7,
            t_depth: 3,
            full_depth: 10,
            clifford_depth: 7,
            ancillas: 0,
        },
        // CSWAP = CX · CCX · CX (depth 12, T-depth 3; paper Sec. 2.2.1).
        Gate::Cswap { .. } => GateCost {
            t_count: 7,
            t_depth: 3,
            full_depth: 12,
            clifford_depth: 9,
            ancillas: 0,
        },
        Gate::Mcx { controls, .. } => match controls.len() {
            0 => clifford(1),
            1 => clifford(1),
            2 => GateCost {
                t_count: 7,
                t_depth: 3,
                full_depth: 10,
                clifford_depth: 7,
                ancillas: 0,
            },
            c => {
                // V-chain: 2c−3 Toffolis over c−2 clean ancillae; compute
                // and uncompute halves serialize, so depths scale with the
                // Toffoli count.
                let toffolis = 2 * c - 3;
                GateCost {
                    t_count: 7 * toffolis,
                    t_depth: 3 * toffolis,
                    full_depth: 10 * toffolis,
                    clifford_depth: 7 * toffolis,
                    ancillas: c - 2,
                }
            }
        },
    }
}

/// Aggregate fault-tolerant resource count of a circuit.
///
/// ```
/// use qram_circuit::{Circuit, Gate, Qubit};
/// use qram_circuit::resources::ResourceCount;
///
/// let mut c = Circuit::new(3);
/// c.push(Gate::cswap(Qubit(0), Qubit(1), Qubit(2)));
/// let r = ResourceCount::of(&c);
/// assert_eq!(r.t_count, 7);
/// assert_eq!(r.t_depth, 3);
/// assert_eq!(r.lowered_depth, 12);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ResourceCount {
    /// Qubits of the circuit (ancillae demanded by MCX lowering are
    /// reported separately in [`ResourceCount::mcx_ancillas`]).
    pub num_qubits: usize,
    /// Physical gate count at QRAM-gate granularity.
    pub num_gates: usize,
    /// ASAP depth at QRAM-gate granularity (each gate = 1 layer).
    pub depth: usize,
    /// Total T/T† gates after lowering.
    pub t_count: usize,
    /// T-depth: weighted critical path with per-gate T-depth weights.
    pub t_depth: usize,
    /// Clifford depth: weighted critical path with per-gate Clifford-layer
    /// weights.
    pub clifford_depth: usize,
    /// Full Clifford+T depth: weighted critical path with per-gate
    /// decomposition depth weights.
    pub lowered_depth: usize,
    /// Number of classically-controlled gates (`ClX`/`ClSwap`) — Table 1's
    /// last row.
    pub classically_controlled: usize,
    /// Maximum clean-ancilla demand of any single MCX in the circuit.
    pub mcx_ancillas: usize,
    /// Gate census by mnemonic.
    pub census: BTreeMap<&'static str, usize>,
}

impl ResourceCount {
    /// Prices `circuit` (see module docs for the cost model).
    ///
    /// # Panics
    ///
    /// Panics where [`layer_gates`] returns an error or panics: a gate
    /// naming a qubit outside the circuit, or a circuit too deep for its
    /// 32-bit ready times.
    pub fn of(circuit: &Circuit) -> ResourceCount {
        layer_gates(circuit.num_qubits(), circuit.gates(), |_, _, _| {})
            .unwrap_or_else(|e| panic!("cannot price an invalid circuit: {e}"))
    }
}

impl std::fmt::Display for ResourceCount {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "qubits={} gates={} depth={} T-count={} T-depth={} Clifford-depth={} cl-ctrl={}",
            self.num_qubits,
            self.num_gates,
            self.depth,
            self.t_count,
            self.t_depth,
            self.clifford_depth,
            self.classically_controlled
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Qubit;

    #[test]
    fn clifford_gates_cost_no_t() {
        for g in [
            Gate::x(Qubit(0)),
            Gate::cx(Qubit(0), Qubit(1)),
            Gate::swap(Qubit(0), Qubit(1)),
            Gate::ClX(Qubit(0)),
        ] {
            let c = cost_of(&g);
            assert_eq!(c.t_count, 0, "{g}");
            assert_eq!(c.t_depth, 0, "{g}");
        }
    }

    #[test]
    fn toffoli_and_fredkin_match_paper_constants() {
        let ccx = cost_of(&Gate::ccx(Qubit(0), Qubit(1), Qubit(2)));
        assert_eq!((ccx.t_count, ccx.t_depth), (7, 3));
        let cswap = cost_of(&Gate::cswap(Qubit(0), Qubit(1), Qubit(2)));
        assert_eq!((cswap.t_count, cswap.t_depth, cswap.full_depth), (7, 3, 12));
    }

    #[test]
    fn mcx_scales_linearly_in_controls() {
        let qs: Vec<Qubit> = (0..6).map(Qubit).collect();
        let g = Gate::mcx(qs.clone(), Qubit(6));
        let c = cost_of(&g);
        // 6 controls → 2·6−3 = 9 Toffolis.
        assert_eq!(c.t_count, 63);
        assert_eq!(c.ancillas, 4);
        let small = Gate::mcx([Qubit(0)], Qubit(1));
        assert_eq!(cost_of(&small).t_count, 0); // 1 control = CX
    }

    #[test]
    fn t_depth_uses_critical_path_not_sum() {
        // Two Toffolis on disjoint qubits: T-depth 3, not 6.
        let mut c = Circuit::new(6);
        c.push(Gate::ccx(Qubit(0), Qubit(1), Qubit(2)));
        c.push(Gate::ccx(Qubit(3), Qubit(4), Qubit(5)));
        let r = ResourceCount::of(&c);
        assert_eq!(r.t_depth, 3);
        assert_eq!(r.t_count, 14);
        assert_eq!(r.depth, 1);

        // Chained on shared qubits: depths add.
        let mut c2 = Circuit::new(4);
        c2.push(Gate::ccx(Qubit(0), Qubit(1), Qubit(2)));
        c2.push(Gate::ccx(Qubit(1), Qubit(2), Qubit(3)));
        let r2 = ResourceCount::of(&c2);
        assert_eq!(r2.t_depth, 6);
        assert_eq!(r2.depth, 2);
    }

    #[test]
    fn classically_controlled_census() {
        let mut c = Circuit::new(2);
        c.push(Gate::ClX(Qubit(0)));
        c.push(Gate::ClSwap(Qubit(0), Qubit(1)));
        c.push(Gate::x(Qubit(0)));
        let r = ResourceCount::of(&c);
        assert_eq!(r.classically_controlled, 2);
        assert_eq!(r.census["clx"], 1);
        assert_eq!(r.census["clswap"], 1);
    }

    #[test]
    fn barrier_advances_all_floors() {
        let mut c = Circuit::new(2);
        c.push(Gate::x(Qubit(0)));
        c.barrier();
        c.push(Gate::x(Qubit(1)));
        let r = ResourceCount::of(&c);
        // Disjoint qubits, but the barrier forces serialization.
        assert_eq!(r.depth, 2);
        assert_eq!(r.lowered_depth, 2);
    }

    #[test]
    fn display_mentions_all_metrics() {
        let mut c = Circuit::new(3);
        c.push(Gate::ccx(Qubit(0), Qubit(1), Qubit(2)));
        let s = ResourceCount::of(&c).to_string();
        assert!(s.contains("T-count=7"));
        assert!(s.contains("T-depth=3"));
    }
}
