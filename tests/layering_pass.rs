//! Differential suite for the ASAP layering pass
//! (`qram::circuit::schedule::layer_gates`). The `ResourceCount` it
//! prices must equal the certifier's independent `qram_verify::recount`
//! field by field, census included; the schedule and the qubit-per-step
//! trial table derived from it must equal the per-consumer recurrences
//! the pass replaced, kept here as references.
//!
//! Inputs: every `(k, m)` candidate of every family at n = 2..=8 on two
//! memory images, the virtual QRAM's optimization sets × encodings with
//! address pipelining on and off (unpipelined loading is the generators'
//! only barrier source), and random gate lists with leading, trailing
//! and back-to-back barriers, mixed-polarity `Mcx` with 0–6 controls and
//! every other gate kind.

use proptest::prelude::*;
use qram::circuit::resources::ResourceCount;
use qram::circuit::{Circuit, Control, Gate, Qubit};
use qram::core::{ArchSpec, DataEncoding, Memory, Optimizations};
use qram::noise::{FaultSampler, NoiseModel, PauliChannel};
use qram::verify::recount;

/// The recurrence `Schedule::asap` ran before the pass.
fn reference_layers(circuit: &Circuit) -> Vec<Vec<Gate>> {
    let mut busy = vec![0usize; circuit.num_qubits()];
    let mut floor = 0usize;
    let mut layers: Vec<Vec<Gate>> = Vec::new();
    for gate in circuit.gates() {
        if gate.is_barrier() {
            floor = layers.len();
            continue;
        }
        let qs = gate.qubits();
        let layer = qs
            .iter()
            .map(|q| busy[q.index()])
            .max()
            .unwrap_or(floor)
            .max(floor);
        if layer >= layers.len() {
            layers.resize_with(layer + 1, Vec::new);
        }
        layers[layer].push(gate.clone());
        for q in qs {
            busy[q.index()] = layer + 1;
        }
    }
    layers
}

/// The recurrence the fault sampler built its qubit-per-step trial table
/// with before the pass: one trial per (qubit, layer), placed after the
/// qubit's last gate at a layer ≤ the trial's.
fn reference_trial_table(circuit: &Circuit) -> Vec<(usize, Qubit)> {
    let num_qubits = circuit.num_qubits();
    let mut busy = vec![0usize; num_qubits];
    let mut floor = 0usize;
    let mut depth = 0usize;
    let mut events: Vec<Vec<(usize, usize)>> = vec![Vec::new(); num_qubits];
    for (i, gate) in circuit.gates().iter().enumerate() {
        if gate.is_barrier() {
            floor = depth;
            continue;
        }
        let mut layer = floor;
        gate.for_each_qubit(|q| layer = layer.max(busy[q.index()]));
        gate.for_each_qubit(|q| {
            busy[q.index()] = layer + 1;
            events[q.index()].push((layer, i + 1));
        });
        depth = depth.max(layer + 1);
    }
    let mut locations = Vec::with_capacity(num_qubits * depth);
    for (q, evs) in events.iter().enumerate() {
        let mut cursor = 0usize;
        let mut placement = 0usize;
        for layer in 0..depth {
            while cursor < evs.len() && evs[cursor].0 <= layer {
                placement = evs[cursor].1;
                cursor += 1;
            }
            locations.push((placement, Qubit(q as u32)));
        }
    }
    locations
}

/// The sampler's qubit-per-step trial table, read through a channel that
/// fires at every trial: the shot's plan lists every trial in order.
fn trial_table(circuit: &Circuit) -> Vec<(usize, Qubit)> {
    let model = NoiseModel::qubit_per_step(PauliChannel::bit_flip(1.0));
    FaultSampler::new(circuit, model, 0)
        .sample_shot(0)
        .faults()
        .iter()
        .map(|f| (f.gate_index, f.qubit))
        .collect()
}

fn assert_pass_matches(circuit: &Circuit, what: &str, with_trials: bool) {
    assert_eq!(ResourceCount::of(circuit), recount(circuit), "{what}");
    assert_eq!(
        circuit.schedule().layers(),
        reference_layers(circuit),
        "{what}"
    );
    if with_trials {
        assert_eq!(
            trial_table(circuit),
            reference_trial_table(circuit),
            "{what}"
        );
    }
}

fn memories(n: usize) -> [Memory; 2] {
    let cells = 1usize << n;
    [
        Memory::from_bits((0..cells).map(|i| i % 3 == 0)),
        Memory::from_bits((0..cells).map(|i| (i * 7) % 13 == 1)),
    ]
}

#[test]
fn pass_matches_recount_on_every_candidate_up_to_width_8() {
    for n in 2..=8 {
        for spec in ArchSpec::family_candidates(n) {
            let arch = spec.instantiate();
            for memory in memories(n) {
                let query = arch.build(&memory);
                // The trial table grows as qubits × depth; n ≤ 5 keeps
                // the unoptimized test build quick.
                assert_pass_matches(query.circuit(), &spec.name(), n <= 5);
            }
        }
    }
}

#[test]
fn pass_matches_recount_with_pipelining_on_and_off() {
    let encodings = [
        DataEncoding::Bit,
        DataEncoding::DualRail,
        DataEncoding::FusedBit,
    ];
    for (k, m) in [(1, 2), (2, 2), (1, 3)] {
        for flags in 0..8u8 {
            let opts = Optimizations {
                recycle_qubits: flags & 1 != 0,
                lazy_swapping: flags & 2 != 0,
                pipeline_address: flags & 4 != 0,
            };
            for encoding in encodings {
                let spec = ArchSpec::Virtual {
                    k,
                    m,
                    opts,
                    encoding,
                };
                for memory in memories(k + m) {
                    let query = spec.instantiate().build(&memory);
                    let circuit = query.circuit();
                    let barriers = circuit.gates().iter().any(Gate::is_barrier);
                    assert_eq!(barriers, !opts.pipeline_address, "{}", spec.name());
                    assert_pass_matches(circuit, &spec.name(), true);
                }
            }
        }
    }
}

const N: usize = 8;

/// The first `len` entries of a permutation of the `N` qubits drawn from
/// `seed`: distinct operands for one gate.
fn distinct_qubits(seed: u64, len: usize) -> Vec<Qubit> {
    let mut qs: Vec<u32> = (0..N as u32).collect();
    let mut s = seed;
    for i in 0..len {
        s = s
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        qs.swap(i, i + (s >> 33) as usize % (N - i));
    }
    qs[..len].iter().map(|&q| Qubit(q)).collect()
}

/// Every gate kind with random operands and control polarities; `Mcx`
/// (0–6 controls) and barriers are drawn more often than the rest.
fn arb_gate() -> impl Strategy<Value = Gate> {
    (0usize..18, 0usize..7, any::<u64>(), any::<u64>()).prop_map(|(kind, width, seed, polarity)| {
        let q = distinct_qubits(seed, 7);
        let ctrl = |i: usize| Control {
            qubit: q[i],
            value: polarity >> i & 1 == 1,
        };
        match kind {
            0 => Gate::X(q[0]),
            1 => Gate::Y(q[0]),
            2 => Gate::Z(q[0]),
            3 => Gate::H(q[0]),
            4 => Gate::Cx {
                control: ctrl(0),
                target: q[1],
            },
            5 => Gate::Ccx {
                controls: [ctrl(0), ctrl(1)],
                target: q[2],
            },
            6 => Gate::Swap(q[0], q[1]),
            7 => Gate::Cswap {
                control: ctrl(0),
                a: q[1],
                b: q[2],
            },
            8 => Gate::ClX(q[0]),
            9 => Gate::ClCx {
                control: ctrl(0),
                target: q[1],
            },
            10 => Gate::ClSwap(q[0], q[1]),
            11..=14 => Gate::Mcx {
                controls: (0..width).map(ctrl).collect(),
                target: q[width],
            },
            _ => Gate::Barrier,
        }
    })
}

/// Random gate lists between 0–2 leading and 0–2 trailing barriers.
fn arb_circuit() -> impl Strategy<Value = Circuit> {
    (
        0usize..3,
        prop::collection::vec(arb_gate(), 0..48),
        0usize..3,
    )
        .prop_map(|(leading, body, trailing)| {
            let mut c = Circuit::new(N);
            (0..leading).for_each(|_| c.barrier());
            body.into_iter().for_each(|g| c.push(g));
            (0..trailing).for_each(|_| c.barrier());
            c
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Resources, schedule and trial table agree with the references on
    /// random gate lists.
    #[test]
    fn pass_matches_the_references_on_random_gate_lists(circuit in arb_circuit()) {
        prop_assert_eq!(ResourceCount::of(&circuit), recount(&circuit));
        prop_assert_eq!(circuit.schedule().layers(), &reference_layers(&circuit)[..]);
        prop_assert_eq!(trial_table(&circuit), reference_trial_table(&circuit));
    }
}
