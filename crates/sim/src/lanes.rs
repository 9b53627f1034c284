//! Bit-sliced lanes: many single-path trajectories of one circuit, walked
//! together one machine word at a time.
//!
//! A classical basis input stays a single path through every gate of the
//! QRAM family (Sec. 6.2), and so does every Pauli-faulted replay of it.
//! Such a trajectory needs no amplitude slab: its state is one bit per
//! qubit plus a power of `i`. [`Lanes`] stores `L` of them *qubit-major*
//! — qubit `q`'s bits for all lanes sit in `⌈L/64⌉` consecutive `u64`
//! words, lane `l` at bit `l % 64` of word `l / 64` — so each gate is a
//! handful of word operations covering 64 trajectories at once:
//!
//! * `CX`: `t ^= c ^ pol`, where `pol` is all ones for a 0-control;
//! * `CCX` / `MCX`: `t ^= (a ^ pa) & (b ^ pb) & …`;
//! * `CSWAP`: `d = (a ^ b) & (c ^ pol); a ^= d; b ^= d`;
//! * `Z`, `Y`: phase updates on two more word rows that hold each lane's
//!   power of `i` in binary (`k = lo + 2·hi`).
//!
//! Lanes differ only in their input bits and their faults. A fault is a
//! lane-masked Pauli fired at its gate index, exactly where
//! [`crate::run_with_faults`] fires it, so every lane ends in the basis
//! state and phase the slab engine gives that lane's input and plan
//! (pinned by this module's tests and by `tests/property_based.rs`).
//!
//! No gate splits a path, so a superposition input is a fixed set of
//! lanes too: the shot engine runs each of its shots as one pass with
//! one lane per input path, the shot's faults scheduled once for every
//! lane. For the full overlap it reads the pass back into a
//! [`PathState`]; the reduced fidelity reads the rows where they lie.

use qram_circuit::{Control, Gate, Qubit};

use crate::{Amplitude, FaultPlan, PathState, Pauli, SimError};

/// One scheduled fault: of one lane, or of every lane of the pass.
#[derive(Debug, Clone, Copy)]
struct LaneFault {
    /// The fault's gate index (saturated at `u32::MAX`) in the high
    /// half, its scheduling position in the low half. Sorted by key, the
    /// schedule runs in (gate index, scheduling order), which keeps each
    /// lane's plan order at one index.
    key: u64,
    /// The faulted lane; `None` faults every lane.
    lane: Option<u32>,
    qubit: Qubit,
    pauli: Pauli,
}

/// A bit-sliced batch of single-path trajectories of one circuit.
///
/// Every lane starts in `|0…0⟩` with phase `i⁰`. Callers set each lane's
/// input bits, schedule each lane's faults, then [`run`](Lanes::run) the
/// gates once for all lanes. The buffers are kept across
/// [`reset`](Lanes::reset)s, so one `Lanes` serves any number of passes
/// without reallocating once it has grown.
///
/// ```
/// use qram_circuit::{Gate, Qubit};
/// use qram_sim::{Fault, FaultPlan, Lanes, Pauli};
///
/// // Three lanes of a CX: input |10⟩, input |00⟩, and input |00⟩ with
/// // an X fault on the control before the gate.
/// let mut lanes = Lanes::new(2, 3);
/// lanes.set(0, Qubit(0), true);
/// let plan: FaultPlan = [Fault::new(0, Qubit(0), Pauli::X)].into_iter().collect();
/// lanes.add_faults(2, &plan);
/// lanes.run(&[Gate::cx(Qubit(0), Qubit(1))]).unwrap();
/// assert!(lanes.get(0, Qubit(1)));
/// assert!(!lanes.get(1, Qubit(1)));
/// assert!(lanes.get(2, Qubit(1)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Lanes {
    num_qubits: usize,
    lanes: usize,
    /// `u64` words per qubit row: `⌈lanes / 64⌉`.
    words: usize,
    /// Qubit-major bits: qubit `q`, lane `l` is bit `l % 64` of
    /// `bits[q · words + l / 64]`.
    bits: Vec<u64>,
    /// Low bit of each lane's power of `i`.
    phase_lo: Vec<u64>,
    /// High bit of each lane's power of `i`.
    phase_hi: Vec<u64>,
    /// Faults scheduled for the next [`Lanes::run`].
    faults: Vec<LaneFault>,
}

impl Lanes {
    /// `lanes` trajectories over `num_qubits` qubits, all in `|0…0⟩`.
    pub fn new(num_qubits: usize, lanes: usize) -> Self {
        let mut state = Lanes::default();
        state.reset(num_qubits, lanes);
        state
    }

    /// Re-shapes to `lanes` trajectories over `num_qubits` qubits, all in
    /// `|0…0⟩` with phase `i⁰` and no faults scheduled, reusing the
    /// buffers.
    pub fn reset(&mut self, num_qubits: usize, lanes: usize) {
        self.num_qubits = num_qubits;
        self.lanes = lanes;
        self.words = lanes.div_ceil(64);
        self.bits.clear();
        self.bits.resize(num_qubits * self.words, 0);
        self.phase_lo.clear();
        self.phase_lo.resize(self.words, 0);
        self.phase_hi.clear();
        self.phase_hi.resize(self.words, 0);
        self.faults.clear();
    }

    /// The words of `qubit`'s row: lane `l` is bit `l % 64` of word
    /// `l / 64`. Bits past the last lane belong to no lane; mask them
    /// off.
    ///
    /// # Panics
    ///
    /// Panics if `qubit` is out of range.
    pub fn row(&self, qubit: Qubit) -> &[u64] {
        let q = qubit.index();
        &self.bits[q * self.words..(q + 1) * self.words]
    }

    /// Sets `qubit` of `lane` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `lane` or `qubit` is out of range.
    pub fn set(&mut self, lane: usize, qubit: Qubit, value: bool) {
        let (word, mask) = self.locate(lane, qubit);
        if value {
            self.bits[word] |= mask;
        } else {
            self.bits[word] &= !mask;
        }
    }

    /// Reads `qubit` of `lane`.
    ///
    /// # Panics
    ///
    /// Panics if `lane` or `qubit` is out of range.
    pub fn get(&self, lane: usize, qubit: Qubit) -> bool {
        let (word, mask) = self.locate(lane, qubit);
        self.bits[word] & mask != 0
    }

    /// The power `k ∈ 0..4` of `lane`'s amplitude `iᵏ`.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn phase(&self, lane: usize) -> u8 {
        assert!(lane < self.lanes, "lane {lane} out of range");
        let (word, shift) = (lane / 64, lane % 64);
        let lo = (self.phase_lo[word] >> shift) & 1;
        let hi = (self.phase_hi[word] >> shift) & 1;
        (lo | hi << 1) as u8
    }

    /// Schedules `plan`'s faults on `lane` for the next
    /// [`run`](Lanes::run). Fault qubits are checked when a fault fires,
    /// as in [`crate::run_with_faults`], so a fault past the circuit's
    /// end is never validated.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn add_faults(&mut self, lane: usize, plan: &FaultPlan) {
        assert!(lane < self.lanes, "lane {lane} out of range");
        let lane = u32::try_from(lane).expect("under 2^32 lanes");
        self.schedule(Some(lane), plan);
    }

    /// Schedules `plan`'s faults on `lane`, or on every lane when `lane`
    /// is `None`: one entry per fault either way.
    fn schedule(&mut self, lane: Option<u32>, plan: &FaultPlan) {
        for f in plan.faults() {
            let position = u32::try_from(self.faults.len()).expect("under 2^32 faults per run");
            let index = f.gate_index.min(u32::MAX as usize) as u64;
            self.faults.push(LaneFault {
                key: index << 32 | u64::from(position),
                lane,
                qubit: f.qubit,
                pauli: f.pauli,
            });
        }
    }

    /// Runs `gates` under `plan` on every path of `input`, one lane per
    /// path in slab order, and writes the result to `out`: the same
    /// paths, in the same order, with the bits and amplitudes
    /// [`crate::run_with_faults`] gives `input` under `plan`, bit for
    /// bit.
    ///
    /// # Errors
    ///
    /// As [`Lanes::run`]; `out` is then unspecified.
    pub(crate) fn run_paths(
        &mut self,
        gates: &[Gate],
        input: &PathState,
        plan: &FaultPlan,
        out: &mut PathState,
    ) -> Result<(), SimError> {
        self.walk_paths(gates, input, plan)?;
        self.store_paths(input, out);
        Ok(())
    }

    /// Runs `gates` under `plan` on every path of `input`, one lane per
    /// path in slab order, and leaves the result in the lanes. The input
    /// is transposed in a word at a time, visiting only the set bits of
    /// each 64-bit word, and the shot's plan is scheduled once for the
    /// whole pass.
    ///
    /// # Errors
    ///
    /// As [`Lanes::run`].
    pub(crate) fn walk_paths(
        &mut self,
        gates: &[Gate],
        input: &PathState,
        plan: &FaultPlan,
    ) -> Result<(), SimError> {
        let paths = input.num_paths();
        self.reset(input.num_qubits(), paths);
        let words = self.words;
        for p in 0..paths {
            let (w, lane_bit) = (p / 64, 1u64 << (p % 64));
            for (j, &word) in input.path_words(p).iter().enumerate() {
                let mut rest = word;
                while rest != 0 {
                    let q = j * 64 + rest.trailing_zeros() as usize;
                    self.bits[q * words + w] |= lane_bit;
                    rest &= rest - 1;
                }
            }
        }
        // The shot's plan applies to every path: one schedule entry per
        // fault, fired on whole words.
        self.schedule(None, plan);
        self.run(gates)
    }

    /// Transposes a [`walk_paths`](Lanes::walk_paths) pass over `input`
    /// back into `out`, a word at a time, each amplitude through
    /// [`amplitude`](Lanes::amplitude).
    pub(crate) fn store_paths(&self, input: &PathState, out: &mut PathState) {
        let (num_qubits, paths, words) = (self.num_qubits, self.lanes, self.words);
        let (slab, amps) = out.reset_paths(num_qubits, paths);
        let stride = num_qubits.div_ceil(64);
        for q in 0..num_qubits {
            let (j, qubit_bit) = (q / 64, 1u64 << (q % 64));
            for (w, &word) in self.bits[q * words..(q + 1) * words].iter().enumerate() {
                // Bits past the last lane belong to no path.
                let mut rest = word & lane_mask(paths, w);
                while rest != 0 {
                    let p = w * 64 + rest.trailing_zeros() as usize;
                    slab[p * stride + j] |= qubit_bit;
                    rest &= rest - 1;
                }
            }
        }
        for (p, (amp, &a)) in amps.iter_mut().zip(input.amplitudes()).enumerate() {
            *amp = self.amplitude(p, a);
        }
    }

    /// `lane`'s amplitude for an input amplitude `a`: `a · iᵏ`, applied
    /// with the slab's own maps (`−`, [`crate::Amplitude::mul_i`],
    /// [`crate::Amplitude::mul_neg_i`]). Each is an exact signed
    /// permutation of `(re, im)` and they compose as powers of `i`, so
    /// the slab's per-gate sequence and this single map agree in every
    /// bit, signed zeros included.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub(crate) fn amplitude(&self, lane: usize, a: Amplitude) -> Amplitude {
        match self.phase(lane) {
            0 => a,
            1 => a.mul_i(),
            2 => -a,
            _ => a.mul_neg_i(),
        }
    }

    /// The number of lanes.
    pub(crate) fn len(&self) -> usize {
        self.lanes
    }

    /// Every qubit's row, in qubit order.
    ///
    /// # Panics
    ///
    /// Panics if there are no lanes.
    pub(crate) fn rows(&self) -> std::slice::ChunksExact<'_, u64> {
        self.bits.chunks_exact(self.words)
    }

    /// Walks `gates` once over every lane, firing the scheduled faults:
    /// a fault at index `i` fires before gate `i`, one at `gates.len()`
    /// after the last gate, and one past the end never. Faults sharing a
    /// gate index fire in scheduling order. Barriers occupy an index and
    /// do nothing. The schedule is empty afterwards, whatever the
    /// outcome.
    ///
    /// # Errors
    ///
    /// The first error in execution order, with the slab's check order:
    /// [`SimError::QubitOutOfRange`] for a firing fault or a gate operand
    /// past the qubit count (operands checked before the gate family),
    /// then [`SimError::NonReversibleGate`] for `H`. On error the lanes
    /// hold a partial run.
    pub fn run(&mut self, gates: &[Gate]) -> Result<(), SimError> {
        // A saturated key index (a fault at u32::MAX or later) then lies
        // past the end, where it never fires.
        assert!(
            gates.len() < u32::MAX as usize,
            "circuit too long for lanes"
        );
        // The keys are distinct, so the unstable sort is deterministic,
        // and it needs no scratch.
        self.faults.sort_unstable_by_key(|f| f.key);
        let result = self.walk(gates);
        self.faults.clear();
        result
    }

    /// Applies the gates between consecutive fault indices in one
    /// stretch, so the per-gate loop never looks at the schedule.
    fn walk(&mut self, gates: &[Gate]) -> Result<(), SimError> {
        let end = gates.len();
        let (mut next, mut at) = (0, 0);
        loop {
            let stop = self
                .faults
                .get(next)
                .map_or(end, |f| ((f.key >> 32) as usize).min(end));
            for gate in &gates[at..stop] {
                self.apply(gate)?;
            }
            next = self.fire(next, stop)?;
            if stop == end {
                return Ok(());
            }
            at = stop;
        }
    }

    /// Fires the scheduled faults from `next` on that sit at `index`;
    /// returns the next unfired one.
    fn fire(&mut self, mut next: usize, index: usize) -> Result<usize, SimError> {
        while let Some(&f) = self.faults.get(next) {
            if f.key >> 32 > index as u64 {
                break;
            }
            if f.qubit.index() >= self.num_qubits {
                return Err(SimError::QubitOutOfRange {
                    index: f.qubit.index(),
                    num_qubits: self.num_qubits,
                });
            }
            let (range, mask) = match f.lane {
                Some(lane) => {
                    let w = lane as usize / 64;
                    (w..w + 1, 1u64 << (lane % 64))
                }
                None => (0..self.words, !0),
            };
            // One update for all three Paulis: X flips the bit; Z adds 2
            // to the power of i where the bit is set; Y = iXZ adds 1 on
            // |0⟩ and 3 on |1⟩, then flips.
            let (x, y, z) = match f.pauli {
                Pauli::X => (mask, 0, 0),
                Pauli::Y => (mask, mask, 0),
                Pauli::Z => (0, 0, mask),
            };
            let row = f.qubit.index() * self.words;
            for w in range {
                let bit = self.bits[row + w] & (y | z);
                self.phase_hi[w] ^= bit ^ (self.phase_lo[w] & y);
                self.phase_lo[w] ^= y;
                self.bits[row + w] ^= x;
            }
            next += 1;
        }
        Ok(next)
    }

    /// Applies one gate to every lane. Operands are bounds-checked in
    /// [`Gate::for_each_qubit`] order before the gate acts, as on the
    /// slab.
    fn apply(&mut self, gate: &Gate) -> Result<(), SimError> {
        let (n, num_qubits) = (self.words, self.num_qubits);
        // The first word of a qubit's row.
        let row = |q: Qubit| {
            if q.index() < num_qubits {
                Ok(q.index() * n)
            } else {
                Err(SimError::QubitOutOfRange {
                    index: q.index(),
                    num_qubits,
                })
            }
        };
        // A control's row and polarity mask (all ones fires on |0⟩).
        let ctrl = |c: &Control| Ok((row(c.qubit)?, if c.value { 0 } else { !0u64 }));
        let bits = &mut self.bits;
        match gate {
            Gate::Barrier => {}
            Gate::H(q) => {
                row(*q)?;
                return Err(SimError::NonReversibleGate { gate: "h" });
            }
            Gate::X(q) | Gate::ClX(q) => {
                let t = row(*q)?;
                for x in &mut bits[t..t + n] {
                    *x = !*x;
                }
            }
            Gate::Y(q) => {
                let t = row(*q)?;
                for w in 0..n {
                    let b = bits[t + w];
                    self.phase_hi[w] ^= self.phase_lo[w] ^ b;
                    self.phase_lo[w] = !self.phase_lo[w];
                    bits[t + w] = !b;
                }
            }
            Gate::Z(q) => {
                let t = row(*q)?;
                for w in 0..n {
                    self.phase_hi[w] ^= bits[t + w];
                }
            }
            Gate::Cx { control, target } | Gate::ClCx { control, target } => {
                let (c, pc) = ctrl(control)?;
                let t = row(*target)?;
                for w in 0..n {
                    bits[t + w] ^= bits[c + w] ^ pc;
                }
            }
            Gate::Ccx { controls, target } => {
                let (a, pa) = ctrl(&controls[0])?;
                let (b, pb) = ctrl(&controls[1])?;
                let t = row(*target)?;
                for w in 0..n {
                    bits[t + w] ^= (bits[a + w] ^ pa) & (bits[b + w] ^ pb);
                }
            }
            Gate::Mcx { controls, target } => {
                for c in controls {
                    row(c.qubit)?;
                }
                let t = row(*target)?;
                for w in 0..n {
                    let fire = controls.iter().fold(!0u64, |acc, c| {
                        let pc = if c.value { 0 } else { !0u64 };
                        acc & (bits[c.qubit.index() * n + w] ^ pc)
                    });
                    bits[t + w] ^= fire;
                }
            }
            Gate::Swap(a, b) | Gate::ClSwap(a, b) => {
                let (a, b) = (row(*a)?, row(*b)?);
                for w in 0..n {
                    bits.swap(a + w, b + w);
                }
            }
            Gate::Cswap { control, a, b } => {
                let (c, pc) = ctrl(control)?;
                let (a, b) = (row(*a)?, row(*b)?);
                for w in 0..n {
                    let d = (bits[a + w] ^ bits[b + w]) & (bits[c + w] ^ pc);
                    bits[a + w] ^= d;
                    bits[b + w] ^= d;
                }
            }
        }
        Ok(())
    }

    /// The word index and bit mask of (`lane`, `qubit`).
    fn locate(&self, lane: usize, qubit: Qubit) -> (usize, u64) {
        assert!(lane < self.lanes, "lane {lane} out of range");
        assert!(
            qubit.index() < self.num_qubits,
            "qubit {} out of range for {} qubits",
            qubit.index(),
            self.num_qubits
        );
        (qubit.index() * self.words + lane / 64, 1u64 << (lane % 64))
    }
}

/// The bits of word `w` that hold one of `lanes` lanes.
pub(crate) fn lane_mask(lanes: usize, w: usize) -> u64 {
    match lanes - w * 64 {
        n if n >= 64 => !0,
        n => (1u64 << n) - 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_with_faults, Amplitude, BitString, Fault};

    fn lane_bits(lanes: &Lanes, lane: usize, num_qubits: usize) -> BitString {
        BitString::from_bits((0..num_qubits).map(|q| lanes.get(lane, Qubit(q as u32))))
    }

    /// The power of `i` of a unit amplitude.
    fn power_of_i(a: Amplitude) -> u8 {
        match (a.re, a.im) {
            (re, im) if re == 1.0 && im == 0.0 => 0,
            (re, im) if re == 0.0 && im == 1.0 => 1,
            (re, im) if re == -1.0 && im == 0.0 => 2,
            (re, im) if re == 0.0 && im == -1.0 => 3,
            _ => panic!("{a:?} is not a power of i"),
        }
    }

    /// Runs each `(input, plan)` pair on the slab and all of them as
    /// lanes of one pass, and checks every lane against its slab run.
    fn assert_lanes_match_slab(gates: &[Gate], num_qubits: usize, cases: &[(u64, FaultPlan)]) {
        let mut lanes = Lanes::new(num_qubits, cases.len());
        for (lane, (input, plan)) in cases.iter().enumerate() {
            for q in 0..num_qubits {
                lanes.set(lane, Qubit(q as u32), input >> q & 1 == 1);
            }
            lanes.add_faults(lane, plan);
        }
        lanes.run(gates).unwrap();
        for (lane, (input, plan)) in cases.iter().enumerate() {
            let mut slab = PathState::basis_state(BitString::from_u64(*input, num_qubits));
            run_with_faults(gates, &mut slab, plan).unwrap();
            let paths: Vec<_> = slab.iter().collect();
            assert_eq!(paths.len(), 1);
            assert_eq!(
                lane_bits(&lanes, lane, num_qubits),
                paths[0].0,
                "lane {lane} bits"
            );
            assert_eq!(
                lanes.phase(lane),
                power_of_i(paths[0].1),
                "lane {lane} phase"
            );
        }
    }

    fn mixed_circuit() -> Vec<Gate> {
        vec![
            Gate::cx(Qubit(0), Qubit(3)),
            Gate::Barrier,
            Gate::ccx(Qubit(1), Qubit(2), Qubit(4)),
            Gate::cswap0(Qubit(0), Qubit(3), Qubit(4)),
            Gate::y(Qubit(2)),
            Gate::swap(Qubit(3), Qubit(4)),
            Gate::mcx_pattern(&[Qubit(0), Qubit(1), Qubit(2)], 0b101, Qubit(3)),
            Gate::z(Qubit(3)),
            Gate::cx0(Qubit(4), Qubit(1)),
            Gate::ClSwap(Qubit(1), Qubit(2)),
            Gate::Mcx {
                controls: Vec::new(),
                target: Qubit(0),
            },
        ]
    }

    fn plan(faults: &[(usize, u32, Pauli)]) -> FaultPlan {
        faults
            .iter()
            .map(|&(i, q, p)| Fault::new(i, Qubit(q), p))
            .collect()
    }

    #[test]
    fn every_input_matches_the_slab_without_faults() {
        let cases: Vec<_> = (0..32).map(|input| (input, FaultPlan::new())).collect();
        assert_lanes_match_slab(&mixed_circuit(), 5, &cases);
    }

    #[test]
    fn faulted_lanes_match_the_slab() {
        let gates = mixed_circuit();
        let end = gates.len();
        let plans = [
            FaultPlan::new(),
            plan(&[(0, 0, Pauli::X)]),
            plan(&[(end, 3, Pauli::Y), (end, 3, Pauli::Z)]),
            // Repeated X and Z on one qubit at one index: XZ and ZX
            // differ by a sign, so the plan order must survive.
            plan(&[(4, 2, Pauli::X), (4, 2, Pauli::Z)]),
            plan(&[(4, 2, Pauli::Z), (4, 2, Pauli::X), (4, 2, Pauli::Y)]),
            // Past the end: never fires, never validated.
            plan(&[(end + 1, 40, Pauli::X), (2, 1, Pauli::Y)]),
            // Unsorted plan: fires in index order.
            plan(&[(7, 4, Pauli::Y), (1, 0, Pauli::Y), (7, 4, Pauli::X)]),
        ];
        let cases: Vec<_> = (0..32u64)
            .flat_map(|input| plans.iter().map(move |p| (input, p.clone())))
            .collect();
        assert!(cases.len() > 64, "spans several words");
        assert_lanes_match_slab(&gates, 5, &cases);
    }

    #[test]
    fn errors_match_the_slab() {
        let bad_gate = [Gate::x(Qubit(7))];
        let h_gate = [Gate::cx(Qubit(0), Qubit(1)), Gate::H(Qubit(2))];
        let ok = [Gate::cx(Qubit(0), Qubit(1))];
        let bad_fault = plan(&[(1, 9, Pauli::X)]);
        let cases: [(&[Gate], FaultPlan); 3] = [
            (&bad_gate, FaultPlan::new()),
            (&h_gate, FaultPlan::new()),
            (&ok, bad_fault),
        ];
        for (gates, plan) in cases {
            let mut slab = PathState::computational_basis(3);
            let want = run_with_faults(gates, &mut slab, &plan).unwrap_err();
            let mut lanes = Lanes::new(3, 2);
            lanes.add_faults(1, &plan);
            assert_eq!(lanes.run(gates).unwrap_err(), want);
        }
        // An H with an out-of-range operand reports the bound first.
        let mut lanes = Lanes::new(3, 1);
        assert!(matches!(
            lanes.run(&[Gate::H(Qubit(5))]),
            Err(SimError::QubitOutOfRange { index: 5, .. })
        ));
    }

    #[test]
    fn the_first_error_in_execution_order_wins() {
        // Lane 1's bad fault fires before gate 1; lane 0's bad fault would
        // fire only after it.
        let gates = [Gate::x(Qubit(0)), Gate::x(Qubit(1))];
        let mut lanes = Lanes::new(2, 2);
        lanes.add_faults(0, &plan(&[(2, 8, Pauli::X)]));
        lanes.add_faults(1, &plan(&[(1, 6, Pauli::Z)]));
        assert_eq!(
            lanes.run(&gates),
            Err(SimError::QubitOutOfRange {
                index: 6,
                num_qubits: 2
            })
        );
    }

    #[test]
    fn reset_clears_bits_phases_and_faults() {
        let mut lanes = Lanes::new(3, 70);
        lanes.set(69, Qubit(2), true);
        lanes.add_faults(0, &plan(&[(0, 1, Pauli::Y)]));
        lanes.reset(3, 5);
        lanes.run(&[]).unwrap();
        assert!((0..5).all(|l| lanes.phase(l) == 0 && !lanes.get(l, Qubit(1))));
        assert_eq!(lanes.row(Qubit(2)), &[0]);
    }

    #[test]
    fn a_mismatching_single_path_reduces_to_negative_zero() {
        // Lane readout relies on this: a single noisy path whose kept bits
        // differ from the ideal path's has no group to sum, and an empty
        // f64 sum is −0.0, not +0.0.
        let ideal = PathState::basis_state(BitString::from_u64(0b01, 2));
        let noisy = PathState::basis_state(BitString::from_u64(0b11, 2));
        let f = ideal.reduced_fidelity(&noisy, &[Qubit(1)]);
        assert_eq!(f.to_bits(), (-0.0f64).to_bits());
        // A matching one sums one unit-modulus group to exactly 1.0.
        let mut phased = ideal.clone();
        phased.apply_y(Qubit(1));
        phased.apply_y(Qubit(1));
        phased.apply_z(Qubit(0));
        let f = ideal.reduced_fidelity(&phased, &[Qubit(0), Qubit(1)]);
        assert_eq!(f.to_bits(), 1.0f64.to_bits());
    }
}
