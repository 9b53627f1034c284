//! Greedy as-soon-as-possible (ASAP) scheduling of circuits into layers.
//!
//! Depth accounting is central to the paper's claims: pipelined address
//! loading is `O(m)` deep while the naive schedule is `O(m²)` (Sec. 3.2.3),
//! and the select-swap baseline pays a quadratic depth penalty because its
//! swap network cannot pipeline (Sec. 7.1). The ASAP scheduler extracts
//! exactly this parallelism: two gates share a layer iff their qubit
//! supports are disjoint and no earlier gate forces an ordering.
//!
//! [`Gate::Barrier`] forces all subsequent gates into strictly later layers,
//! which is how generators model deliberately *unpipelined* circuits.
//!
//! [`layer_gates`] is the one ASAP recurrence over [`Gate`]: it yields
//! every gate's layer and prices the circuit in the same walk, and
//! [`Schedule::asap`], [`ResourceCount::of`] and the fault sampler's
//! qubit-per-step trial table all derive from it.

use crate::resources::{cost_of, ResourceCount};
use crate::{Circuit, CircuitError, Gate};

/// One ASAP layering walk over a raw gate list on `num_qubits` qubits.
///
/// Calls `on_gate(index, gate, layer)` once per physical gate, in list
/// order, where `index` is the gate's position in `gates` (barriers
/// count) and `layer` its ASAP layer: the first layer after every
/// earlier gate sharing one of its qubits and after every gate before
/// the last barrier. Returns the circuit's [`ResourceCount`], whose
/// depths are critical paths of the same recurrence with each gate
/// weighing 1, its T-depth, its Clifford depth or its full Clifford+T
/// depth ([`cost_of`]). The walk allocates only its per-qubit ready
/// times; operands are visited with [`Gate::for_each_qubit`].
///
/// # Errors
///
/// [`CircuitError::QubitOutOfRange`] at the first gate naming a qubit
/// `≥ num_qubits`, which gets no callback. A gate that repeats a qubit
/// is walked as if it named it once.
///
/// # Panics
///
/// Panics if the gates' full Clifford+T depths sum past `u32::MAX`:
/// ready times are 32-bit, so that four of them compare as one vector.
///
/// ```
/// use qram_circuit::schedule::layer_gates;
/// use qram_circuit::{Gate, Qubit};
/// let gates = [
///     Gate::cx(Qubit(0), Qubit(1)),
///     Gate::x(Qubit(2)),
///     Gate::Barrier,
///     Gate::x(Qubit(2)),
/// ];
/// let mut layers = Vec::new();
/// let r = layer_gates(3, &gates, |i, _, layer| layers.push((i, layer))).unwrap();
/// assert_eq!(layers, [(0, 0), (1, 0), (3, 1)]);
/// assert_eq!((r.num_gates, r.depth), (3, 2));
/// assert!(layer_gates(2, &[Gate::cx(Qubit(0), Qubit(5))], |_, _, _| {}).is_err());
/// ```
pub fn layer_gates(
    num_qubits: usize,
    gates: &[Gate],
    mut on_gate: impl FnMut(usize, &Gate, usize),
) -> Result<ResourceCount, CircuitError> {
    // Per qubit, when it is next free: [unit layer, T, Clifford, full].
    // Every per-gate weight is at most the gate's full depth, so no time
    // exceeds the sum of full depths, which is checked after the walk.
    let mut ready = vec![[0u32; 4]; num_qubits];
    let mut total_weight = 0usize;
    // Running maximum of every gate's end; a barrier floors all later
    // gates there.
    let mut high = [0u32; 4];
    let mut floor = [0u32; 4];
    let mut census = [0usize; Gate::KIND_NAMES.len()];
    let (mut t_count, mut classically_controlled, mut mcx_ancillas) = (0, 0, 0);
    for (index, gate) in gates.iter().enumerate() {
        if gate.is_barrier() {
            floor = high;
            continue;
        }
        let mut start = floor;
        let mut stray = None;
        gate.for_each_qubit(|q| match ready.get(q.index()) {
            Some(r) => {
                for (s, r) in start.iter_mut().zip(r) {
                    *s = (*s).max(*r);
                }
            }
            None => stray = stray.or(Some(q)),
        });
        if let Some(qubit) = stray {
            return Err(CircuitError::QubitOutOfRange { qubit, num_qubits });
        }
        let cost = cost_of(gate);
        total_weight += cost.full_depth;
        let end = [
            start[0] + 1,
            start[1] + cost.t_depth as u32,
            start[2] + cost.clifford_depth as u32,
            start[3] + cost.full_depth as u32,
        ];
        gate.for_each_qubit(|q| ready[q.index()] = end);
        for (h, e) in high.iter_mut().zip(end) {
            *h = (*h).max(e);
        }
        census[gate.kind()] += 1;
        t_count += cost.t_count;
        classically_controlled += usize::from(gate.is_classically_controlled());
        mcx_ancillas = mcx_ancillas.max(cost.ancillas);
        on_gate(index, gate, start[0] as usize);
    }
    assert!(
        u32::try_from(total_weight).is_ok(),
        "circuit too deep to layer: full depths sum to {total_weight}"
    );
    let [depth, t_depth, clifford_depth, lowered_depth] = high.map(|h| h as usize);
    Ok(ResourceCount {
        num_qubits,
        num_gates: census.iter().sum(),
        depth,
        t_count,
        t_depth,
        clifford_depth,
        lowered_depth,
        classically_controlled,
        mcx_ancillas,
        census: Gate::KIND_NAMES
            .into_iter()
            .zip(census)
            .filter(|&(_, count)| count > 0)
            .collect(),
    })
}

/// The result of ASAP-scheduling a circuit: an assignment of every physical
/// gate to a layer (a.k.a. moment), where all gates in a layer act on
/// disjoint qubits.
///
/// ```
/// use qram_circuit::{Circuit, Gate, Qubit};
/// let mut c = Circuit::new(4);
/// c.push(Gate::cx(Qubit(0), Qubit(1)));
/// c.push(Gate::cx(Qubit(2), Qubit(3))); // disjoint — same layer
/// c.push(Gate::cx(Qubit(1), Qubit(2))); // overlaps both — next layer
/// let s = c.schedule();
/// assert_eq!(s.depth(), 2);
/// assert_eq!(s.layers()[0].len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    layers: Vec<Vec<Gate>>,
    num_qubits: usize,
}

impl Schedule {
    /// Schedules `circuit` greedily: each gate lands in the earliest layer
    /// after every other gate that shares one of its qubits (and after any
    /// barrier seen so far).
    ///
    /// # Panics
    ///
    /// Panics where [`layer_gates`] returns an error or panics: a gate
    /// naming a qubit outside the circuit, or a circuit too deep for its
    /// 32-bit ready times.
    pub fn asap(circuit: &Circuit) -> Schedule {
        let num_qubits = circuit.num_qubits();
        let mut layers: Vec<Vec<Gate>> = Vec::new();
        layer_gates(num_qubits, circuit.gates(), |_, gate, layer| {
            if layer >= layers.len() {
                layers.resize_with(layer + 1, Vec::new);
            }
            layers[layer].push(gate.clone());
        })
        .unwrap_or_else(|e| panic!("cannot schedule an invalid circuit: {e}"));
        Schedule { layers, num_qubits }
    }

    /// Number of layers — the circuit depth.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// The layers, in execution order; each layer's gates act on disjoint
    /// qubits.
    pub fn layers(&self) -> &[Vec<Gate>] {
        &self.layers
    }

    /// Number of qubits of the underlying circuit.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Total number of scheduled gates.
    pub fn num_gates(&self) -> usize {
        self.layers.iter().map(Vec::len).sum()
    }

    /// The widest layer (maximum gate-level parallelism).
    pub fn max_parallelism(&self) -> usize {
        self.layers.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Verifies the disjoint-support invariant of every layer.
    /// Used by tests and debug assertions.
    pub fn is_valid(&self) -> bool {
        for layer in &self.layers {
            let mut seen = vec![false; self.num_qubits];
            for gate in layer {
                for q in gate.qubits() {
                    if seen[q.index()] {
                        return false;
                    }
                    seen[q.index()] = true;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Qubit;

    #[test]
    fn disjoint_gates_share_a_layer() {
        let mut c = Circuit::new(4);
        c.push(Gate::x(Qubit(0)));
        c.push(Gate::x(Qubit(1)));
        c.push(Gate::x(Qubit(2)));
        c.push(Gate::x(Qubit(3)));
        let s = c.schedule();
        assert_eq!(s.depth(), 1);
        assert_eq!(s.max_parallelism(), 4);
        assert!(s.is_valid());
    }

    #[test]
    fn chained_gates_serialize() {
        let mut c = Circuit::new(3);
        c.push(Gate::cx(Qubit(0), Qubit(1)));
        c.push(Gate::cx(Qubit(1), Qubit(2)));
        c.push(Gate::cx(Qubit(2), Qubit(0)));
        let s = c.schedule();
        assert_eq!(s.depth(), 3);
        assert!(s.is_valid());
    }

    #[test]
    fn barrier_forces_new_layer() {
        let mut c = Circuit::new(2);
        c.push(Gate::x(Qubit(0)));
        c.barrier();
        c.push(Gate::x(Qubit(1))); // disjoint, but barrier splits layers
        let s = c.schedule();
        assert_eq!(s.depth(), 2);

        let mut c2 = Circuit::new(2);
        c2.push(Gate::x(Qubit(0)));
        c2.push(Gate::x(Qubit(1)));
        assert_eq!(c2.schedule().depth(), 1);
    }

    #[test]
    fn pipelining_pattern_depth_is_linear() {
        // Model of pipelined address loading: m "balls" each descending m
        // levels of a ladder of qubits, launched one step apart. With ASAP
        // scheduling the total depth is O(m), not O(m²).
        let m = 8usize;
        // ladder qubits 0..=m; ball i occupies rung j via swap(j, j+1).
        let mut c = Circuit::new(m + 1);
        for _ball in 0..m {
            for rung in 0..m {
                c.push(Gate::swap(Qubit(rung as u32), Qubit(rung as u32 + 1)));
            }
        }
        let s = c.schedule();
        // Swaps on rung pairs (j, j+1) conflict with neighbors, so the
        // pipeline advances every 2 layers: depth ≈ 2m + (m-1) ≪ m².
        assert!(s.depth() < m * m, "depth {} not sub-quadratic", s.depth());
        assert!(s.depth() >= 2 * m - 1);
        assert!(s.is_valid());
    }

    #[test]
    fn empty_circuit_depth_zero() {
        let c = Circuit::new(3);
        assert_eq!(c.schedule().depth(), 0);
        assert_eq!(c.schedule().num_gates(), 0);
    }

    #[test]
    fn layering_rejects_out_of_range_qubits_without_panicking() {
        // cx q0, q5 on 2 qubits: the walk stops at the gate, no callback.
        let gates = [Gate::x(Qubit(0)), Gate::cx(Qubit(0), Qubit(5))];
        let mut seen = Vec::new();
        let err = layer_gates(2, &gates, |i, _, _| seen.push(i)).unwrap_err();
        assert_eq!(
            err,
            CircuitError::QubitOutOfRange {
                qubit: Qubit(5),
                num_qubits: 2
            }
        );
        assert_eq!(seen, [0]);
    }

    #[test]
    fn barriers_floor_every_metric_at_the_running_maximum() {
        // Leading, back-to-back and trailing barriers around a Toffoli
        // and a disjoint X: the X still starts after the Toffoli.
        let gates = [
            Gate::Barrier,
            Gate::ccx(Qubit(0), Qubit(1), Qubit(2)),
            Gate::Barrier,
            Gate::Barrier,
            Gate::x(Qubit(3)),
            Gate::Barrier,
        ];
        let mut layers = Vec::new();
        let r = layer_gates(4, &gates, |i, _, layer| layers.push((i, layer))).unwrap();
        assert_eq!(layers, [(1, 0), (4, 1)]);
        assert_eq!((r.depth, r.t_depth, r.lowered_depth), (2, 3, 11));
        assert_eq!(r.clifford_depth, 8);
    }

    #[test]
    fn num_gates_matches_circuit() {
        let mut c = Circuit::new(3);
        c.push(Gate::ccx(Qubit(0), Qubit(1), Qubit(2)));
        c.barrier();
        c.push(Gate::x(Qubit(0)));
        assert_eq!(c.schedule().num_gates(), 2);
    }
}
