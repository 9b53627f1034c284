//! Monte-Carlo fault sampling: noise model × circuit → per-shot fault
//! plans.
//!
//! The trial table stores each trial's gate index as a `u32`, so a
//! uniform trial is 8 bytes (index and qubit), and the random reads of
//! geometric skipping touch half the memory a `usize` index would. Each
//! placement builds the 32-bit table directly. A circuit of `2³² − 1` or
//! more gates, which [`qram_sim::Lanes::run`] refuses too, panics at
//! build. [`FaultSampler::sample_shot_into`] samples into a caller's
//! [`FaultPlan`], so a consumer that samples many shots reuses one
//! buffer per plan.

use qram_circuit::schedule::layer_gates;
use qram_circuit::{Circuit, Qubit};
use qram_sim::{Fault, FaultPlan};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{DeviceModel, ErrorReductionFactor, NoiseModel, NoisePlacement, PauliChannel};

/// Samples the fault pattern of one Monte-Carlo shot for a fixed circuit
/// under a noise model.
///
/// The sampler precomputes every *error opportunity* ("trial") of the
/// model — one per (qubit, layer) for [`NoisePlacement::QubitPerStep`],
/// one per (gate, support qubit) for [`NoisePlacement::PerGate`], one per
/// qubit for [`NoisePlacement::PerQubitOnce`] — and draws a geometric skip
/// sequence over the trials, so sampling cost per shot is proportional to
/// the *number of faults*, not the number of opportunities. At the paper's
/// `ε = 10⁻³` this is a ~1000× speedup over trial-by-trial sampling.
///
/// Sampling is **per shot**: [`FaultSampler::sample_shot`] takes `&self`
/// and the shot index, and derives an independent, decorrelated RNG stream
/// for that shot from the master seed. A shot's fault pattern is therefore
/// a pure function of `(seed, shot)` — the contract the sharded parallel
/// shot engine in `qram-sim` relies on for bit-identical estimates across
/// thread counts.
///
/// ```
/// use qram_circuit::{Circuit, Gate, Qubit};
/// use qram_noise::{FaultSampler, NoiseModel, PauliChannel};
///
/// let mut c = Circuit::new(2);
/// c.push(Gate::cx(Qubit(0), Qubit(1)));
/// let model = NoiseModel::per_gate(PauliChannel::depolarizing(0.5));
/// let s = FaultSampler::new(&c, model, 3);
/// let plan = s.sample_shot(0);
/// assert!(plan.len() <= 2); // at most one fault per support qubit
/// assert_eq!(plan, s.sample_shot(0)); // pure in (seed, shot)
/// ```
#[derive(Debug, Clone)]
pub struct FaultSampler {
    trials: Trials,
    seed: u64,
}

/// Each trial's gate index (as [`Fault::gate_index`]) is a `u32`; see
/// [`check_gate_count`].
#[derive(Debug, Clone)]
enum Trials {
    /// All trials share one channel; geometric skipping applies.
    Uniform {
        channel: PauliChannel,
        locations: Vec<(u32, Qubit)>,
    },
    /// Heterogeneous channels (device models); sampled trial by trial.
    PerTrial {
        entries: Vec<(u32, Qubit, PauliChannel)>,
    },
}

/// Derives the RNG seed of one consumer's stream from a master seed and
/// a stream index: a SplitMix64-style avalanche over the pair, so
/// neighbouring indices get decorrelated streams and the assignment is
/// independent of any sharding. Used for per-shot streams here and for
/// per-request streams in `qram-service` — one definition of the
/// decorrelation scheme for the whole workspace.
pub fn derive_stream_seed(master: u64, stream: u64) -> u64 {
    let mut z = master ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultSampler {
    /// Builds a sampler for `circuit` under a uniform noise `model`, with
    /// all shot streams derived from the master `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the circuit has `2³² − 1` or more gates, or (for
    /// qubit-per-step placement) a gate names a qubit outside it.
    pub fn new(circuit: &Circuit, model: NoiseModel, seed: u64) -> Self {
        check_gate_count(circuit.len());
        let locations = match model.placement {
            NoisePlacement::PerGate => per_gate_locations(circuit),
            NoisePlacement::QubitPerStep => qubit_per_step_locations(circuit),
            NoisePlacement::PerQubitOnce => (0..circuit.num_qubits())
                .map(|q| (0, Qubit(q as u32)))
                .collect(),
        };
        FaultSampler {
            trials: Trials::Uniform {
                channel: model.channel,
                locations,
            },
            seed,
        }
    }

    /// Builds a per-gate sampler whose channel strength depends on gate
    /// arity, as specified by `device`, with rates scaled down by `er`.
    ///
    /// # Panics
    ///
    /// Panics if the circuit has `2³² − 1` or more gates.
    pub fn for_device(
        circuit: &Circuit,
        device: &DeviceModel,
        er: ErrorReductionFactor,
        seed: u64,
    ) -> Self {
        check_gate_count(circuit.len());
        let scale = 1.0 / er.0;
        let mut entries = Vec::with_capacity(support_size(circuit));
        for (after, gate) in (1..).zip(circuit.gates()) {
            if gate.is_barrier() {
                continue;
            }
            let channel = device.channel_for_arity(gate.arity()).scaled(scale);
            gate.for_each_qubit(|q| entries.push((after, q, channel)));
        }
        FaultSampler {
            trials: Trials::PerTrial { entries },
            seed,
        }
    }

    /// Number of error opportunities per shot.
    pub fn num_trials(&self) -> usize {
        match &self.trials {
            Trials::Uniform { locations, .. } => locations.len(),
            Trials::PerTrial { entries } => entries.len(),
        }
    }

    /// The master seed all shot streams derive from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Draws the fault pattern of shot `shot` — deterministic in
    /// `(seed, shot)` and callable concurrently from any thread.
    pub fn sample_shot(&self, shot: u64) -> FaultPlan {
        self.sample_shot_from(self.seed, shot)
    }

    /// Like [`FaultSampler::sample_shot`], but deriving the shot's
    /// stream from an explicit `master` seed instead of the sampler's
    /// own — many consumers (e.g. one per served request in
    /// `qram-service`) can share one precomputed trial table without
    /// cloning or rebuilding the sampler.
    pub fn sample_shot_from(&self, master: u64, shot: u64) -> FaultPlan {
        let mut plan = FaultPlan::new();
        self.sample_shot_into(master, shot, &mut plan);
        plan
    }

    /// [`FaultSampler::sample_shot_from`] into `plan`: clears it, then
    /// draws the same stream into it, so a caller sampling many shots
    /// keeps one buffer per plan.
    pub fn sample_shot_into(&self, master: u64, shot: u64, plan: &mut FaultPlan) {
        plan.clear();
        let mut rng = StdRng::seed_from_u64(derive_stream_seed(master, shot));
        match &self.trials {
            Trials::Uniform { channel, locations } => {
                let p = channel.total();
                if p <= 0.0 {
                    return;
                }
                if p >= 1.0 {
                    for &(idx, q) in locations {
                        if let Some(pauli) = channel.sample(&mut rng) {
                            plan.push(Fault::new(idx as usize, q, pauli));
                        }
                    }
                    return;
                }
                // Geometric skipping: the gap to the next erroring trial is
                // ⌊ln(1−U)/ln(1−p)⌋.
                let log1mp = (1.0 - p).ln();
                let mut t = 0usize;
                loop {
                    let u: f64 = rng.random();
                    let gap = ((1.0 - u).ln() / log1mp).floor();
                    if !gap.is_finite() || gap >= (locations.len() - t) as f64 {
                        break;
                    }
                    t += gap as usize;
                    let (idx, q) = locations[t];
                    plan.push(Fault::new(
                        idx as usize,
                        q,
                        conditional_pauli(channel, &mut rng),
                    ));
                    t += 1;
                    if t >= locations.len() {
                        break;
                    }
                }
            }
            Trials::PerTrial { entries } => {
                for &(idx, q, channel) in entries {
                    if let Some(pauli) = channel.sample(&mut rng) {
                        plan.push(Fault::new(idx as usize, q, pauli));
                    }
                }
            }
        }
    }
}

/// Checks that a circuit of `gates` gates has 32-bit trial indices: every
/// index `0..=gates` is a `u32` below `u32::MAX`, the range
/// [`qram_sim::Lanes::run`] fires in.
///
/// # Panics
///
/// Panics if `gates` is `2³² − 1` or more.
fn check_gate_count(gates: usize) {
    assert!(
        gates < u32::MAX as usize,
        "cannot sample a circuit of {gates} gates: trial indices are 32-bit"
    );
}

/// Samples which Pauli struck, conditioned on *some* error striking.
fn conditional_pauli<R: Rng + ?Sized>(channel: &PauliChannel, rng: &mut R) -> qram_sim::Pauli {
    use qram_sim::Pauli;
    let total = channel.total();
    let u: f64 = rng.random::<f64>() * total;
    if u < channel.px {
        Pauli::X
    } else if u < channel.px + channel.py {
        Pauli::Y
    } else {
        Pauli::Z
    }
}

/// Total gate support: the per-gate trial count (a barrier touches no
/// qubit, so it adds nothing).
fn support_size(circuit: &Circuit) -> usize {
    circuit.gates().iter().map(|g| g.arity()).sum()
}

/// One trial per (gate, support qubit); faults strike after the gate.
/// The caller has checked the length with [`check_gate_count`].
fn per_gate_locations(circuit: &Circuit) -> Vec<(u32, Qubit)> {
    let mut locations = Vec::with_capacity(support_size(circuit));
    for (after, gate) in (1..).zip(circuit.gates()) {
        gate.for_each_qubit(|q| locations.push((after, q)));
    }
    locations
}

/// One trial per (qubit, schedule layer). An error on qubit `q` at layer
/// `l` is placed after the last gate on `q` scheduled at a layer ≤ `l`
/// (before the first gate if none) — Pauli errors commute freely across
/// idle wire segments, so this placement is trajectory-exact. The caller
/// has checked the length with [`check_gate_count`].
///
/// # Panics
///
/// Panics if a gate names a qubit outside the circuit.
fn qubit_per_step_locations(circuit: &Circuit) -> Vec<(u32, Qubit)> {
    let gates = circuit.gates();
    // (gate index, layer), both under the 32-bit bound checked at build.
    let mut gate_layers: Vec<(u32, u32)> = Vec::with_capacity(gates.len());
    let depth = layer_gates(circuit.num_qubits(), gates, |i, _, layer| {
        gate_layers.push((i as u32, layer as u32));
    })
    .unwrap_or_else(|e| panic!("cannot sample an invalid circuit: {e}"))
    .depth;
    if depth == 0 {
        return Vec::new();
    }
    // Trial q·depth + l is placed after the gate on q at layer l (a
    // qubit's gates sit at distinct layers); a layer without one keeps
    // the placement of the layer before it, and 0 is before every gate.
    let mut locations: Vec<(u32, Qubit)> = (0..circuit.num_qubits() as u32)
        .flat_map(|q| std::iter::repeat_n((0, Qubit(q)), depth))
        .collect();
    for (i, layer) in gate_layers {
        gates[i as usize]
            .for_each_qubit(|q| locations[q.index() * depth + layer as usize].0 = i + 1);
    }
    for row in locations.chunks_exact_mut(depth) {
        let mut placement = 0;
        for (at, _) in row {
            if *at != 0 {
                placement = *at;
            }
            *at = placement;
        }
    }
    locations
}

#[cfg(test)]
mod tests {
    use super::*;
    use qram_circuit::Gate;

    fn chain_circuit() -> Circuit {
        let mut c = Circuit::new(3);
        c.push(Gate::cx(Qubit(0), Qubit(1)));
        c.push(Gate::cx(Qubit(1), Qubit(2)));
        c
    }

    #[test]
    fn per_gate_trial_count_is_total_support() {
        let c = chain_circuit();
        let s = FaultSampler::new(&c, NoiseModel::per_gate(PauliChannel::phase_flip(0.1)), 0);
        assert_eq!(s.num_trials(), 4); // two 2-qubit gates
    }

    #[test]
    fn qubit_per_step_trial_count_is_qubits_times_depth() {
        let c = chain_circuit(); // depth 2, 3 qubits
        let s = FaultSampler::new(
            &c,
            NoiseModel::qubit_per_step(PauliChannel::phase_flip(0.1)),
            0,
        );
        assert_eq!(s.num_trials(), 6);
    }

    #[test]
    fn per_qubit_once_places_faults_at_start() {
        let c = chain_circuit();
        let s = FaultSampler::new(
            &c,
            NoiseModel::per_qubit_once(PauliChannel::bit_flip(1.0)),
            0,
        );
        let plan = s.sample_shot(0);
        assert_eq!(plan.len(), 3);
        assert!(plan.faults().iter().all(|f| f.gate_index == 0));
    }

    #[test]
    fn noiseless_model_samples_empty_plans() {
        let c = chain_circuit();
        let s = FaultSampler::new(&c, NoiseModel::noiseless(), 0);
        for shot in 0..10 {
            assert!(s.sample_shot(shot).is_empty());
        }
    }

    #[test]
    fn geometric_skipping_matches_expected_rate() {
        let mut c = Circuit::new(8);
        for _ in 0..50 {
            for q in 0..8 {
                c.push(Gate::x(Qubit(q)));
            }
        }
        let p = 0.01;
        let s = FaultSampler::new(&c, NoiseModel::per_gate(PauliChannel::depolarizing(p)), 11);
        let trials = s.num_trials() as f64;
        let shots = 500u64;
        let total: usize = (0..shots).map(|shot| s.sample_shot(shot).len()).sum();
        let mean = total as f64 / shots as f64;
        let expected = trials * p;
        assert!(
            (mean - expected).abs() < 0.15 * expected,
            "mean {mean} vs expected {expected}"
        );
    }

    #[test]
    fn certain_error_rate_hits_every_trial() {
        let c = chain_circuit();
        let s = FaultSampler::new(&c, NoiseModel::per_gate(PauliChannel::bit_flip(1.0)), 5);
        assert_eq!(s.sample_shot(0).len(), 4);
    }

    #[test]
    fn shots_are_pure_and_decorrelated() {
        let c = chain_circuit();
        let s = FaultSampler::new(&c, NoiseModel::per_gate(PauliChannel::depolarizing(0.4)), 7);
        // Pure: re-sampling the same shot gives the same plan.
        for shot in 0..20 {
            assert_eq!(s.sample_shot(shot), s.sample_shot(shot));
        }
        // Decorrelated: across many shots the plans are not all equal.
        let first = s.sample_shot(0);
        assert!((1..100).any(|shot| s.sample_shot(shot) != first));
        // Different master seeds give different shot streams.
        let other = FaultSampler::new(&c, NoiseModel::per_gate(PauliChannel::depolarizing(0.4)), 8);
        assert!((0..100).any(|shot| s.sample_shot(shot) != other.sample_shot(shot)));
    }

    #[test]
    fn qubit_per_step_placement_respects_gate_order() {
        // Qubit 1 is touched by gate 0 (layer 0) and gate 1 (layer 1).
        // An error at layer 0 must land at gate_index 1 (between the CXs).
        let c = chain_circuit();
        let locations = qubit_per_step_locations(&c);
        // locations are grouped by qubit, then layer.
        let q1: Vec<_> = locations.iter().filter(|(_, q)| q.index() == 1).collect();
        assert_eq!(q1.len(), 2);
        assert_eq!(q1[0].0, 1); // after gate 0
        assert_eq!(q1[1].0, 2); // after gate 1

        // Qubit 0 is only touched at layer 0.
        let q0: Vec<_> = locations.iter().filter(|(_, q)| q.index() == 0).collect();
        assert_eq!(q0[0].0, 1);
        assert_eq!(q0[1].0, 1); // idles at layer 1; error stays after gate 0
    }

    /// The trial tables of a small circuit, pinned: 8-byte uniform
    /// trials, indices as `Fault::gate_index` reads them.
    #[test]
    fn trial_tables_are_pinned() {
        assert_eq!(std::mem::size_of::<(u32, Qubit)>(), 8);
        let mut c = chain_circuit();
        c.push(Gate::Barrier);
        c.push(Gate::x(Qubit(0)));
        let table = |model: NoiseModel| match FaultSampler::new(&c, model, 0).trials {
            Trials::Uniform { locations, .. } => locations,
            Trials::PerTrial { .. } => unreachable!("uniform model"),
        };
        let channel = PauliChannel::depolarizing(0.1);
        let q = Qubit;
        assert_eq!(
            table(NoiseModel::per_gate(channel)),
            [(1, q(0)), (1, q(1)), (2, q(1)), (2, q(2)), (4, q(0))]
        );
        // Layers: CX(0,1) at 0, CX(1,2) at 1, X(0) at 2 (after the barrier).
        assert_eq!(
            table(NoiseModel::qubit_per_step(channel)),
            [
                (1, q(0)),
                (1, q(0)),
                (4, q(0)),
                (1, q(1)),
                (2, q(1)),
                (2, q(1)),
                (0, q(2)),
                (2, q(2)),
                (2, q(2)),
            ]
        );
        assert_eq!(
            table(NoiseModel::per_qubit_once(channel)),
            [(0, q(0)), (0, q(1)), (0, q(2))]
        );
        let device = crate::ibm_perth();
        let s = FaultSampler::for_device(&c, &device, ErrorReductionFactor(1.0), 0);
        let Trials::PerTrial { entries } = s.trials else {
            unreachable!("device model")
        };
        let located: Vec<_> = entries.iter().map(|&(i, q, _)| (i, q)).collect();
        assert_eq!(
            located,
            [(1, q(0)), (1, q(1)), (2, q(1)), (2, q(2)), (4, q(0))]
        );
        assert_eq!(entries[4].2, device.channel_for_arity(1));
        assert_eq!(entries[0].2, device.channel_for_arity(2));
    }

    /// Sampling into a buffer that held a longer plan gives the plan
    /// `sample_shot_from` gives, for every placement and the device model.
    #[test]
    fn sampling_into_a_used_plan_equals_a_fresh_one() {
        let mut c = Circuit::new(4);
        for i in 0..40u32 {
            c.push(Gate::cx(Qubit(i % 4), Qubit((i + 1) % 4)));
            c.push(Gate::x(Qubit(i % 3)));
        }
        let channel = PauliChannel::depolarizing(0.2);
        let samplers = [
            FaultSampler::new(&c, NoiseModel::per_gate(channel), 3),
            FaultSampler::new(&c, NoiseModel::qubit_per_step(channel), 3),
            FaultSampler::new(&c, NoiseModel::per_qubit_once(channel), 3),
            FaultSampler::for_device(&c, &crate::ibm_perth(), ErrorReductionFactor(0.05), 3),
        ];
        for (k, s) in samplers.iter().enumerate() {
            let long: FaultPlan = (0..500)
                .map(|i| Fault::new(i, Qubit(9), qram_sim::Pauli::Y))
                .collect();
            let mut plan = long.clone();
            for shot in 0..40 {
                let want = s.sample_shot_from(17, shot);
                s.sample_shot_into(17, shot, &mut plan);
                assert_eq!(plan, want, "sampler {k} shot {shot}");
                if shot % 2 == 0 {
                    plan = long.clone();
                }
            }
            assert!(
                (0..40).any(|shot| !s.sample_shot_from(17, shot).is_empty()),
                "sampler {k} draws faults"
            );
        }
    }

    #[test]
    #[should_panic(expected = "trial indices are 32-bit")]
    fn a_circuit_of_2_pow_32_minus_1_gates_panics_at_build() {
        check_gate_count(u32::MAX as usize - 1);
        check_gate_count(u32::MAX as usize);
    }

    #[test]
    fn device_sampler_uses_arity_dependent_channels() {
        let mut c = Circuit::new(2);
        c.push(Gate::x(Qubit(0)));
        c.push(Gate::cx(Qubit(0), Qubit(1)));
        let device = crate::ibm_perth();
        let s = FaultSampler::for_device(&c, &device, ErrorReductionFactor(1.0), 1);
        assert_eq!(s.num_trials(), 3);
        let _ = s.sample_shot(0); // must not panic
    }
}
