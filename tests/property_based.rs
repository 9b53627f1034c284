//! Property-based tests (proptest) over the whole stack: simulator
//! invariants, query correctness across random shapes and data, lazy
//! swapping's XOR-delta algebra, and resource-formula agreement.
//!
//! Determinism: cases are capped at 64 per property via
//! `ProptestConfig::with_cases` (CI further caps with `PROPTEST_CASES`),
//! the case RNG is seeded from `PROPTEST_RNG_SEED` (default 0), and
//! every `StdRng` inside a property derives from an explicit
//! `seed_from_u64` on a strategy-drawn seed — so tier-1 runs are
//! reproducible end to end.

use proptest::prelude::*;
use qram::circuit::{Circuit, Gate, Qubit};
use qram::core::{
    DataEncoding, Memory, Optimizations, QueryArchitecture, VirtualQram, VirtualQramModel,
};
use qram::sim::{run, PathState};

/// A random classical-reversible gate over `n ≥ 3` qubits.
fn arb_gate(n: usize) -> impl Strategy<Value = Gate> {
    let q = move || 0..n as u32;
    prop_oneof![
        q().prop_map(|a| Gate::x(Qubit(a))),
        q().prop_map(|a| Gate::y(Qubit(a))),
        q().prop_map(|a| Gate::z(Qubit(a))),
        (q(), q())
            .prop_filter("distinct", |(a, b)| a != b)
            .prop_map(|(a, b)| Gate::cx(Qubit(a), Qubit(b))),
        (q(), q())
            .prop_filter("distinct", |(a, b)| a != b)
            .prop_map(|(a, b)| Gate::swap(Qubit(a), Qubit(b))),
        (q(), q(), q())
            .prop_filter("distinct", |(a, b, c)| a != b && b != c && a != c)
            .prop_map(|(a, b, c)| Gate::ccx(Qubit(a), Qubit(b), Qubit(c))),
        (q(), q(), q())
            .prop_filter("distinct", |(a, b, c)| a != b && b != c && a != c)
            .prop_map(|(a, b, c)| Gate::cswap(Qubit(a), Qubit(b), Qubit(c))),
    ]
}

fn arb_circuit(n: usize, max_gates: usize) -> impl Strategy<Value = Circuit> {
    prop::collection::vec(arb_gate(n), 0..max_gates).prop_map(move |gates| {
        let mut c = Circuit::new(n);
        for g in gates {
            c.push(g);
        }
        c
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Norm and path count are invariant under any reversible circuit.
    #[test]
    fn reversible_circuits_preserve_norm_and_paths(
        circuit in arb_circuit(6, 40),
        addr_bits in 1usize..4,
    ) {
        let register: Vec<Qubit> = (0..addr_bits as u32).map(Qubit).collect();
        let mut state = PathState::uniform_over(6, &register);
        let paths_before = state.num_paths();
        run(circuit.gates(), &mut state).unwrap();
        prop_assert_eq!(state.num_paths(), paths_before);
        prop_assert!((state.norm_sqr() - 1.0).abs() < 1e-9);
    }

    /// Running a circuit then its inverse is the identity.
    #[test]
    fn inverse_circuits_uncompute(circuit in arb_circuit(6, 40)) {
        let register: Vec<Qubit> = (0..3).map(Qubit).collect();
        let input = PathState::uniform_over(6, &register);
        let mut state = input.clone();
        run(circuit.gates(), &mut state).unwrap();
        run(circuit.inverted().gates(), &mut state).unwrap();
        prop_assert!((state.fidelity(&input) - 1.0).abs() < 1e-9);
    }

    /// ASAP schedules are valid and never longer than the gate count.
    #[test]
    fn schedules_are_valid_and_bounded(circuit in arb_circuit(6, 40)) {
        let schedule = circuit.schedule();
        prop_assert!(schedule.is_valid());
        prop_assert!(schedule.depth() <= circuit.len());
        prop_assert_eq!(schedule.num_gates(), circuit.len());
    }

    /// The virtual QRAM answers correctly for every (k, m, data, address)
    /// — the full Eq. 2 contract on random instances.
    #[test]
    fn virtual_qram_queries_correctly(
        k in 0usize..3,
        m in 1usize..4,
        seed in 0u64..1000,
        recycle in any::<bool>(),
        lazy in any::<bool>(),
        pipeline in any::<bool>(),
        dual_rail in any::<bool>(),
    ) {
        use rand::{rngs::StdRng, SeedableRng};
        let memory = Memory::random(k + m, &mut StdRng::seed_from_u64(seed));
        let opts = Optimizations {
            recycle_qubits: recycle,
            lazy_swapping: lazy,
            pipeline_address: pipeline,
        };
        let encoding = if dual_rail { DataEncoding::DualRail } else { DataEncoding::Bit };
        let arch = VirtualQram::new(k, m).with_optimizations(opts).with_encoding(encoding);
        let query = arch.build(&memory);
        prop_assert!(query.verify(&memory).is_ok(), "{}", arch.name());
    }

    /// The closed-form resource model matches the generated circuit for
    /// arbitrary shapes, data and optimization sets.
    #[test]
    fn resource_formulas_hold(
        k in 0usize..4,
        m in 1usize..5,
        seed in 0u64..1000,
        lazy in any::<bool>(),
        recycle in any::<bool>(),
    ) {
        use rand::{rngs::StdRng, SeedableRng};
        let memory = Memory::random(k + m, &mut StdRng::seed_from_u64(seed));
        let opts = Optimizations {
            recycle_qubits: recycle,
            lazy_swapping: lazy,
            pipeline_address: true,
        };
        let query = VirtualQram::new(k, m).with_optimizations(opts).build(&memory);
        let model = VirtualQramModel::new(k, m, opts);
        prop_assert_eq!(query.num_qubits(), model.qubits());
        prop_assert_eq!(
            query.resources().classically_controlled,
            model.classically_controlled(&memory)
        );
        let census = query.circuit().gate_census();
        prop_assert_eq!(census.get("cswap").copied().unwrap_or(0), model.cswap_count());
    }

    /// Lazy swapping's algebra: first page, then XOR deltas, reconstructs
    /// every page prefix (the invariant that makes OPT2 sound).
    #[test]
    fn xor_delta_chain_reconstructs_pages(
        m in 1usize..5,
        k in 1usize..4,
        seed in 0u64..1000,
    ) {
        use rand::{rngs::StdRng, SeedableRng};
        let memory = Memory::random(k + m, &mut StdRng::seed_from_u64(seed));
        let mut acc: Vec<bool> = memory.page(m, 0).to_vec();
        for p in 0..memory.num_pages(m) - 1 {
            let delta = memory.page_delta(m, p);
            for (a, d) in acc.iter_mut().zip(delta) {
                *a = *a != d;
            }
            prop_assert_eq!(acc.as_slice(), memory.page(m, p + 1));
        }
    }

    /// Reduced fidelity is within [0, 1], ≥ full fidelity when the
    /// reference has clean ancillas, and = 1 for the noiseless run. The
    /// clean reference is built by computing and uncomputing the random
    /// circuit (ancillas provably return to |0⟩), then injecting noise
    /// only into the noisy copy.
    #[test]
    fn reduced_fidelity_is_well_behaved(
        circuit in arb_circuit(5, 25),
        noise_qubit in 0u32..5,
    ) {
        let register: Vec<Qubit> = (0..2).map(Qubit).collect();
        let ideal = PathState::uniform_over(5, &register);

        // Noisy copy: compute, suffer one Z mid-flight, uncompute.
        let mut noisy = ideal.clone();
        run(circuit.gates(), &mut noisy).unwrap();
        noisy.apply_z(Qubit(noise_qubit));
        run(circuit.inverted().gates(), &mut noisy).unwrap();

        let keep = [Qubit(0), Qubit(1)];
        let full = ideal.fidelity(&noisy);
        let reduced = ideal.reduced_fidelity(&noisy, &keep);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&reduced), "reduced = {reduced}");
        prop_assert!(reduced >= full - 1e-9);
        prop_assert!((ideal.reduced_fidelity(&ideal, &keep) - 1.0).abs() < 1e-9);
    }
}

/// Slab-equivalence suite: the arena-backed `PathState` and its executor
/// pinned against a naive reference interpreter — **exactly**, amplitude
/// bit for amplitude bit.
mod slab_equivalence {
    use super::*;
    use qram::circuit::Control;
    use qram::sim::{run_with_faults, Amplitude, Fault, FaultPlan, Pauli};
    use std::collections::BTreeMap;

    /// The reference model: an ordered map from bit vectors to amplitudes,
    /// updated per gate with the same scalar operations the slab executor
    /// performs per path — so agreement must be exact, not approximate.
    type RefState = BTreeMap<Vec<bool>, Amplitude>;

    fn ref_from(state: &PathState) -> RefState {
        state
            .iter()
            .map(|(bits, amp)| (bits.iter().collect(), amp))
            .collect()
    }

    fn ctrl(bits: &[bool], c: &Control) -> bool {
        bits[c.qubit.index()] == c.value
    }

    /// Applies one classical-reversible gate (the `arb_gate` family) or
    /// Pauli to every reference path.
    fn ref_apply(gate: &Gate, state: &mut RefState) {
        let old = std::mem::take(state);
        for (mut bits, mut amp) in old {
            match gate {
                Gate::X(q) => bits[q.index()] = !bits[q.index()],
                Gate::Y(q) => {
                    let was_one = bits[q.index()];
                    bits[q.index()] = !was_one;
                    amp = if was_one {
                        amp.mul_neg_i()
                    } else {
                        amp.mul_i()
                    };
                }
                Gate::Z(q) => {
                    if bits[q.index()] {
                        amp = -amp;
                    }
                }
                Gate::Cx { control, target } => {
                    if ctrl(&bits, control) {
                        bits[target.index()] = !bits[target.index()];
                    }
                }
                Gate::Ccx { controls, target } => {
                    if ctrl(&bits, &controls[0]) && ctrl(&bits, &controls[1]) {
                        bits[target.index()] = !bits[target.index()];
                    }
                }
                Gate::Swap(a, b) => bits.swap(a.index(), b.index()),
                Gate::Cswap { control, a, b } => {
                    if ctrl(&bits, control) {
                        bits.swap(a.index(), b.index());
                    }
                }
                other => panic!("reference model does not cover {other:?}"),
            }
            assert!(state.insert(bits, amp).is_none(), "paths merged");
        }
    }

    fn ref_pauli(pauli: Pauli, qubit: usize, state: &mut RefState) {
        let gate = match pauli {
            Pauli::X => Gate::x(Qubit(qubit as u32)),
            Pauli::Y => Gate::y(Qubit(qubit as u32)),
            Pauli::Z => Gate::z(Qubit(qubit as u32)),
        };
        ref_apply(&gate, state);
    }

    /// Serial reference run with fault injection, mirroring
    /// `run_with_faults`' fire-before-gate ordering.
    fn ref_run(gates: &[Gate], plan: &[Fault], state: &mut RefState) {
        let mut faults = plan.to_vec();
        faults.sort_by_key(|f| f.gate_index);
        let mut next = 0usize;
        let fire = |idx: usize, next: &mut usize, state: &mut RefState| {
            while *next < faults.len() && faults[*next].gate_index <= idx {
                ref_pauli(faults[*next].pauli, faults[*next].qubit.index(), state);
                *next += 1;
            }
        };
        for (i, gate) in gates.iter().enumerate() {
            fire(i, &mut next, state);
            ref_apply(gate, state);
        }
        fire(gates.len(), &mut next, state);
    }

    /// Exact (bit-identical) equality between a slab state and the
    /// reference map.
    fn assert_exact_match(state: &PathState, reference: &RefState) {
        assert_eq!(state.num_paths(), reference.len());
        for (bits, amp) in state.iter() {
            let key: Vec<bool> = bits.iter().collect();
            let expected = reference.get(&key).expect("path missing from reference");
            assert!(
                amp.re == expected.re && amp.im == expected.im,
                "amplitude mismatch at {bits}: {amp} != {expected}"
            );
        }
    }

    /// A random fault plan over `n` qubits and circuit length `len`.
    fn arb_plan(n: usize, len: usize) -> impl Strategy<Value = Vec<Fault>> {
        prop::collection::vec(
            (0..len + 1, 0..n as u32, 0usize..3).prop_map(|(idx, q, p)| {
                Fault::new(idx, Qubit(q), [Pauli::X, Pauli::Y, Pauli::Z][p])
            }),
            0..6,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random gate sequences on random initial superpositions produce
        /// amplitude maps identical to the naive interpreter.
        #[test]
        fn slab_matches_reference(
            circuit in arb_circuit(6, 30),
            plan in arb_plan(6, 30),
            addr_bits in 1usize..4,
        ) {
            let register: Vec<Qubit> = (0..addr_bits as u32).map(Qubit).collect();
            let input = PathState::uniform_over(6, &register);
            let fault_plan: FaultPlan = plan.iter().copied().collect();

            let mut reference = ref_from(&input);
            ref_run(circuit.gates(), &plan, &mut reference);

            let mut serial = input.clone();
            run_with_faults(circuit.gates(), &mut serial, &fault_plan).unwrap();
            assert_exact_match(&serial, &reference);
        }

        /// The allocation-reusing `clone_from` reset is indistinguishable
        /// from a fresh clone, across shrinking and growing resets.
        #[test]
        fn clone_from_scratch_reuse_is_exact(
            circuit in arb_circuit(6, 20),
            first_bits in 1usize..4,
            second_bits in 1usize..4,
        ) {
            let big: Vec<Qubit> = (0..first_bits as u32).map(Qubit).collect();
            let small: Vec<Qubit> = (0..second_bits as u32).map(Qubit).collect();
            let mut scratch = PathState::zero_vector(6);
            // First reset (possibly growing), mutate, then second reset
            // (possibly shrinking) — the buffer history must not leak.
            scratch.clone_from(&PathState::uniform_over(6, &big));
            run(circuit.gates(), &mut scratch).unwrap();
            let source = PathState::uniform_over(6, &small);
            scratch.clone_from(&source);
            let a: Vec<_> = scratch.iter().collect();
            let b: Vec<_> = source.iter().collect();
            prop_assert_eq!(a, b);
        }

        /// `permute_paths` under genuinely injective maps (random
        /// reversible circuits compiled to bit permutations) preserves
        /// path count and norm on the slab — and the debug-mode
        /// injectivity check stays quiet.
        #[test]
        fn permute_paths_injectivity_on_slab(
            circuit in arb_circuit(6, 20),
            addr_bits in 1usize..4,
        ) {
            let register: Vec<Qubit> = (0..addr_bits as u32).map(Qubit).collect();
            let mut state = PathState::uniform_over(6, &register);
            let paths = state.num_paths();
            let norm = state.norm_sqr();
            // X/CX/CCX/SWAP/CSWAP subfamily as a pure bit permutation.
            for gate in circuit.gates() {
                match gate {
                    Gate::X(q) => {
                        let t = q.index();
                        state.permute_paths(|bits| bits.flip(t));
                    }
                    Gate::Cx { control, target } => {
                        let (c, t) = (*control, target.index());
                        state.permute_paths(|bits| {
                            if bits.get(c.qubit.index()) == c.value {
                                bits.flip(t);
                            }
                        });
                    }
                    Gate::Swap(a, b) => {
                        let (a, b) = (a.index(), b.index());
                        state.permute_paths(|bits| bits.swap_bits(a, b));
                    }
                    _ => {}
                }
            }
            prop_assert_eq!(state.num_paths(), paths);
            prop_assert!((state.norm_sqr() - norm).abs() < 1e-12);
        }
    }
}

/// Lane-engine differential suite: each lane of one bit-sliced pass must
/// end in exactly the basis state and power of `i` that the slab's
/// `run_with_faults` gives that lane's input and fault plan, in passes of
/// up to 64 lanes and of more.
mod lane_equivalence {
    use super::*;
    use qram::sim::{
        run_with_faults, Amplitude, BitString, Fault, FaultPlan, Lanes, Pauli, SimError,
    };

    const N: usize = 6;
    /// Circuit length: fixed, so plans can aim at its end.
    const LEN: usize = 30;

    /// `arb_gate`'s family plus barriers, 0-controls and MCX patterns.
    fn arb_lane_gate() -> impl Strategy<Value = Gate> {
        let q = || 0..N as u32;
        prop_oneof![
            arb_gate(N),
            (0..1u32).prop_map(|_| Gate::Barrier),
            (q(), q())
                .prop_filter("distinct", |(a, b)| a != b)
                .prop_map(|(a, b)| Gate::cx0(Qubit(a), Qubit(b))),
            (q(), q(), q())
                .prop_filter("distinct", |(a, b, c)| a != b && b != c && a != c)
                .prop_map(|(c, a, b)| Gate::cswap0(Qubit(c), Qubit(a), Qubit(b))),
            (0u64..8, 3..N as u32).prop_map(|(pattern, t)| {
                Gate::mcx_pattern(&[Qubit(0), Qubit(1), Qubit(2)], pattern, Qubit(t))
            }),
        ]
    }

    fn arb_lane_circuit() -> impl Strategy<Value = Vec<Gate>> {
        prop::collection::vec(arb_lane_gate(), LEN..LEN + 1)
    }

    fn pauli(p: usize) -> Pauli {
        [Pauli::X, Pauli::Y, Pauli::Z][p]
    }

    /// One lane: a basis input and a fault plan. Random faults land
    /// anywhere up to two past the end; each plan also carries one edge
    /// case: a fault at index 0, one at the end, one past the end on a
    /// qubit that does not exist (never fired, never validated), or X,
    /// Z and a third Pauli on one qubit at one index (XZ and ZX differ
    /// by a sign).
    fn arb_lane() -> impl Strategy<Value = (u64, FaultPlan)> {
        let fault = (0..LEN + 3, 0..N as u32, 0usize..3)
            .prop_map(|(i, q, p)| Fault::new(i, Qubit(q), pauli(p)));
        let edge = (0usize..4, 0..N as u32, 0..LEN + 1, 0usize..3).prop_map(|(kind, q, i, p)| {
            let q = Qubit(q);
            match kind {
                0 => vec![Fault::new(0, q, pauli(p))],
                1 => vec![Fault::new(LEN, q, pauli(p))],
                2 => vec![Fault::new(LEN + 1 + i, Qubit(N as u32 + 7), pauli(p))],
                _ => vec![
                    Fault::new(i, q, Pauli::X),
                    Fault::new(i, q, Pauli::Z),
                    Fault::new(i, q, pauli(p)),
                ],
            }
        });
        (0..1u64 << N, prop::collection::vec(fault, 0..5), edge).prop_map(
            |(input, mut faults, edge)| {
                faults.extend(edge);
                (input, faults.into_iter().collect())
            },
        )
    }

    /// The power of `i` of a slab amplitude that must be one.
    fn power_of_i(a: Amplitude) -> u8 {
        match (a.re, a.im) {
            (re, im) if re == 1.0 && im == 0.0 => 0,
            (re, im) if re == 0.0 && im == 1.0 => 1,
            (re, im) if re == -1.0 && im == 0.0 => 2,
            (re, im) if re == 0.0 && im == -1.0 => 3,
            _ => panic!("{a:?} is not a power of i"),
        }
    }

    fn slab_run(gates: &[Gate], input: u64, plan: &FaultPlan) -> Result<PathState, SimError> {
        let mut state = PathState::basis_state(BitString::from_u64(input, N));
        run_with_faults(gates, &mut state, plan).map(|()| state)
    }

    fn lanes_for(lanes: &[(u64, FaultPlan)]) -> Lanes {
        let mut pass = Lanes::new(N, lanes.len());
        for (lane, (input, plan)) in lanes.iter().enumerate() {
            for q in 0..N {
                pass.set(lane, Qubit(q as u32), input >> q & 1 == 1);
            }
            pass.add_faults(lane, plan);
        }
        pass
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every lane's bits and phase equal its own slab run.
        #[test]
        fn lanes_match_the_slab_lane_by_lane(
            gates in arb_lane_circuit(),
            lanes in prop::collection::vec(arb_lane(), 65..100),
        ) {
            for count in [40, lanes.len()] {
                let mut pass = lanes_for(&lanes[..count]);
                pass.run(&gates).unwrap();
                for (lane, (input, plan)) in lanes[..count].iter().enumerate() {
                    let slab = slab_run(&gates, *input, plan).unwrap();
                    let paths: Vec<_> = slab.iter().collect();
                    prop_assert_eq!(paths.len(), 1);
                    let bits = BitString::from_bits((0..N).map(|q| pass.get(lane, Qubit(q as u32))));
                    prop_assert_eq!(bits, paths[0].0.clone());
                    prop_assert_eq!(pass.phase(lane), power_of_i(paths[0].1));
                }
            }
        }

        /// A bad gate and one lane's out-of-range fault: the pass fails
        /// with the error the faulted lane's slab run reports first.
        #[test]
        fn lane_errors_match_the_slab(
            gates in arb_lane_circuit(),
            lanes in prop::collection::vec(arb_lane(), 1..70),
            at in 0..LEN + 1,
            hadamard in 0usize..2,
            fault_at in 0..LEN + 2,
            pick in 0usize..70,
        ) {
            let bad = if hadamard == 1 { Gate::H(Qubit(0)) } else { Gate::x(Qubit(N as u32 + 2)) };
            let mut gates = gates;
            gates.insert(at, bad);
            let mut lanes = lanes;
            let pick = pick % lanes.len();
            lanes[pick].1.push(Fault::new(fault_at, Qubit(N as u32), Pauli::Z));
            let want = slab_run(&gates, lanes[pick].0, &lanes[pick].1).unwrap_err();
            prop_assert_eq!(lanes_for(&lanes).run(&gates).unwrap_err(), want);
        }
    }
}

/// Shot-engine differential suite: `run_shots_stats`, which runs every
/// shot as one lane pass over the input's paths, pinned against the slab
/// reference loop — per shot `run_with_faults`, then `fidelity` or
/// `reduced_fidelity`, then `FidelityEstimate::from_samples` — bit for
/// bit, at 1 and 3 threads, errors included.
///
/// A fidelity cannot see every amplitude error: each `Y` flips the
/// parity of every path's power of `i`, so conjugating every phase
/// multiplies each overlap by one common sign. The sim crate's unit
/// tests compare the pass's states themselves, which catches that.
mod shot_engine_equivalence {
    use super::*;
    use qram::core::BucketBrigadeQram;
    use qram::sim::{
        run_shots_stats, run_with_faults, Amplitude, BitString, Fault, FaultPlan, FidelityEstimate,
        Pauli, ShotConfig, ShotStats, SimError,
    };

    type Outcome = Result<(FidelityEstimate, ShotStats), SimError>;

    const PAULIS: [Pauli; 3] = [Pauli::X, Pauli::Y, Pauli::Z];
    /// Amplitude components: negative, signed-zero and inexact values.
    const PARTS: [f64; 6] = [0.5, -0.25, -0.0, 0.0, 0.3, -1.1];

    fn arb_amplitude() -> impl Strategy<Value = Amplitude> {
        (0..PARTS.len(), 0..PARTS.len()).prop_map(|(re, im)| Amplitude::new(PARTS[re], PARTS[im]))
    }

    /// A state over `n` qubits built from 1–16 random paths (duplicates
    /// merge, and an all-zero amplitude is pruned). Above 64 qubits a
    /// path spans two words.
    fn arb_state(n: usize) -> impl Strategy<Value = PathState> {
        let path = (any::<u64>(), any::<u64>(), arb_amplitude());
        prop::collection::vec(path, 1..17).prop_map(move |paths| {
            PathState::from_parts(
                n,
                paths.into_iter().map(|(lo, hi, amp)| {
                    let bit = |q: usize| if q < 64 { lo >> q } else { hi >> (q - 64) } & 1 == 1;
                    (BitString::from_bits((0..n).map(bit)), amp)
                }),
            )
        })
    }

    /// One plan per shot (1–11 shots), with faults up to past the end of
    /// a circuit of at most `len` gates.
    fn arb_plans(n: usize, len: usize) -> impl Strategy<Value = Vec<FaultPlan>> {
        let fault = (0..len + 2, 0..n as u32, 0usize..3)
            .prop_map(|(i, q, p)| Fault::new(i, Qubit(q), PAULIS[p]));
        prop::collection::vec(prop::collection::vec(fault, 0..4), 1..12)
            .prop_map(|plans| plans.into_iter().map(FaultPlan::from_iter).collect())
    }

    /// The slab reference loop, with the shot engine's counters and its
    /// rule that a shot with an empty plan samples 1.
    fn slab_loop(
        gates: &[Gate],
        input: &PathState,
        keep: Option<&[Qubit]>,
        plans: &[FaultPlan],
    ) -> Outcome {
        let mut ideal = input.clone();
        run(gates, &mut ideal)?;
        let mut stats = ShotStats::default();
        let mut samples = Vec::new();
        for plan in plans {
            stats.shots += 1;
            if plan.is_empty() {
                samples.push(1.0);
                continue;
            }
            stats.replayed += 1;
            stats.faults += plan.len() as u64;
            stats.gate_applications += gates.len() as u64;
            let mut noisy = input.clone();
            run_with_faults(gates, &mut noisy, plan)?;
            samples.push(match keep {
                None => ideal.fidelity(&noisy),
                Some(keep) => ideal.reduced_fidelity(&noisy, keep),
            });
        }
        Ok((FidelityEstimate::from_samples(&samples), stats))
    }

    fn bits(outcome: &Outcome) -> Result<(u64, u64, usize, ShotStats), SimError> {
        outcome
            .clone()
            .map(|(e, stats)| (e.mean.to_bits(), e.std_error.to_bits(), e.shots, stats))
    }

    /// `run_shots_stats` at 1 and 3 threads equals the slab loop.
    fn assert_engine_matches_slab(
        gates: &[Gate],
        input: &PathState,
        keep: Option<&[Qubit]>,
        plans: &[FaultPlan],
    ) {
        let want = bits(&slab_loop(gates, input, keep, plans));
        for threads in [1, 3] {
            let config = ShotConfig::new(plans.len()).with_threads(threads);
            let got = run_shots_stats(gates, input, keep, &config, &|shot| {
                plans[shot as usize].clone()
            });
            assert_eq!(bits(&got), want, "threads={threads}");
        }
    }

    /// A query circuit's input with the given per-address amplitudes,
    /// its gates and its address and bus qubits.
    fn query_case(
        arch: &dyn QueryArchitecture,
        data: u64,
        amps: &[Amplitude],
    ) -> (Circuit, PathState, Vec<Qubit>) {
        let memory = Memory::from_bits((0..8).map(|i| data >> i & 1 == 1));
        let query = arch.build(&memory);
        let input = query.input_state(Some(amps));
        (query.circuit().clone(), input, query.output_qubits())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random circuits on random states, full and reduced over every
        /// qubit, over one word of qubits and over two.
        #[test]
        fn engine_matches_the_slab_loop_on_random_states(
            narrow in (arb_circuit(6, 30), arb_state(6), arb_plans(6, 30)),
            wide in (arb_circuit(70, 30), arb_state(70), arb_plans(70, 30)),
        ) {
            for (circuit, input, plans) in [narrow, wide] {
                let all: Vec<Qubit> = (0..circuit.num_qubits() as u32).map(Qubit).collect();
                assert_engine_matches_slab(circuit.gates(), &input, None, &plans);
                assert_engine_matches_slab(circuit.gates(), &input, Some(&all), &plans);
            }
        }

        /// Real query circuits, whose ancillas end clean, reduced to the
        /// address and bus.
        #[test]
        fn engine_matches_the_slab_loop_on_query_circuits(
            data in 0u64..256,
            amps in prop::collection::vec(arb_amplitude(), 8..9),
            virtual_plans in arb_plans(40, 300),
            bb_plans in arb_plans(40, 300),
        ) {
            let archs: [(Box<dyn QueryArchitecture>, _); 2] = [
                (Box::new(VirtualQram::new(0, 3)), virtual_plans),
                (Box::new(BucketBrigadeQram::new(0, 3)), bb_plans),
            ];
            for (arch, plans) in archs {
                let (circuit, input, keep) = query_case(arch.as_ref(), data, &amps);
                let n = circuit.num_qubits();
                // Re-aim the faults at this circuit's qubits and length.
                let plans: Vec<FaultPlan> = plans
                    .iter()
                    .map(|p| {
                        p.faults()
                            .iter()
                            .map(|f| {
                                let at = f.gate_index * circuit.gates().len() / 300;
                                Fault::new(at, Qubit(f.qubit.0 % n as u32), f.pauli)
                            })
                            .collect()
                    })
                    .collect();
                assert_engine_matches_slab(circuit.gates(), &input, Some(&keep), &plans);
            }
        }

        /// An `H`, an out-of-range operand, an out-of-range fault qubit
        /// and a bad fault past the end (never fired, never validated):
        /// the engine reports what the slab loop reports.
        #[test]
        fn engine_errors_match_the_slab_loop(
            case in (arb_circuit(6, 30), arb_state(6), arb_plans(6, 30)),
            at in 0usize..31,
            kind in 0usize..4,
            shot in 0usize..11,
        ) {
            let (circuit, input, mut plans) = case;
            let mut gates = circuit.gates().to_vec();
            let at = at.min(gates.len());
            let shot = shot % plans.len();
            let len = gates.len();
            match kind {
                0 => gates.insert(at, Gate::H(Qubit(2))),
                1 => gates.insert(at, Gate::cx(Qubit(1), Qubit(9))),
                // Every shot from `shot` on fails, each on its own
                // qubit: the error must be the first failing shot's.
                2 => {
                    for (s, plan) in plans.iter_mut().enumerate().skip(shot) {
                        plan.push(Fault::new(at, Qubit(6 + s as u32), Pauli::Y));
                    }
                }
                _ => plans[shot].push(Fault::new(len + 1, Qubit(40), Pauli::X)),
            }
            assert_engine_matches_slab(&gates, &input, None, &plans);
        }
    }
}

/// H-tree embeddings validate as topological minors for every width, and
/// the routing overhead ordering holds throughout.
#[test]
fn htree_and_routing_invariants() {
    use qram::layout::{swap_extra_depth, teleport_extra_depth, HTreeEmbedding};
    for m in 1..=9 {
        let e = HTreeEmbedding::new(m);
        e.validate().unwrap_or_else(|err| panic!("m={m}: {err}"));
        let census = e.role_census();
        assert_eq!(census.routers, (1 << m) - 1);
        assert_eq!(census.data, 1 << m);
        assert!(swap_extra_depth(&e) >= teleport_extra_depth(&e), "m={m}");
    }
}
