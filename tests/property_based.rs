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

/// Slab-equivalence suite: the arena-backed `PathState` pinned against a
/// naive reference interpreter, and the path-parallel executor pinned
/// against the serial one — **exactly**, amplitude bit for amplitude bit,
/// for any chunk count.
mod slab_equivalence {
    use super::*;
    use qram::circuit::Control;
    use qram::sim::{run_with_faults, run_with_faults_chunked, Amplitude, Fault, FaultPlan, Pauli};
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
        /// amplitude maps identical to the naive interpreter — for the
        /// serial executor and for every chunk count.
        #[test]
        fn slab_matches_reference_for_any_chunk_count(
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

            for chunks in [2usize, 3, 5, 16] {
                let mut chunked = input.clone();
                run_with_faults_chunked(circuit.gates(), &mut chunked, &fault_plan, chunks)
                    .unwrap();
                // Chunking must preserve slab order too, not just the set.
                let a: Vec<_> = chunked.iter().collect();
                let b: Vec<_> = serial.iter().collect();
                prop_assert_eq!(a, b, "chunks={}", chunks);
            }
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
