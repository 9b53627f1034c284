//! Sharded, deterministic parallel Monte-Carlo shot engine: threads
//! across *shots*, and within a shard bit-sliced [`Lanes`] walks that
//! each serve many shots.
//!
//! The engine splits a run of `shots` trajectories into contiguous
//! *shards*, one per thread, and runs them as the jobs of the crate's one
//! worker loop ([`run_jobs`]), the calling thread taking one. Determinism
//! across thread counts is structural, not accidental:
//!
//! * the sampler contract is `Fn(shot) -> FaultPlan`: every shot's fault
//!   pattern is a pure function of the shot index (samplers derive an
//!   independent RNG stream per shot), so the pattern a shot receives
//!   cannot depend on which shard runs it;
//! * every shot writes its fidelity into `samples[shot]`, and the final
//!   [`FidelityEstimate`] folds that vector in index order — the same
//!   floating-point reduction regardless of sharding.
//!
//! Together these make the estimate **bit-identical** for any thread
//! count, which is what lets `--threads` be a pure throughput knob in the
//! reproduction binaries.
//!
//! No gate of the QRAM family splits a path (Sec. 6.2), so a
//! superposition input is a fixed set of lanes, one per path. Each call
//! transposes the input into a row image once, walks a copy of it for
//! the ideal output, and hands both to its shards. A shard samples its
//! shots in order and sends each replayed shot (one with a non-empty
//! plan) one of two ways:
//!
//! * **All-`Z` shots are not walked.** A `Z` flips no bit, and every gate
//!   is classical-reversible or Pauli, so such a shot ends in the ideal's
//!   bits with each lane's power of `i` moved by `2·s`, where `s` is the
//!   parity of the ideal's bits at the shot's fault locations. The shard
//!   keeps only the shot's firing faults, as taps. One sign walk per
//!   window of up to [`WINDOW_SHOTS`] shots walks the ideal with every
//!   tap merged in gate order, and at each tap XORs the ideal's row of
//!   that qubit into that shot's sign row (the Pauli-frame idea of Stim:
//!   Gidney, Quantum 5, 497, 2021).
//! * **Every other shot joins a multi-shot pass.** A pass holds up to
//!   [`PASS_WORDS`] lane words: one block of `⌈paths / 64⌉` words per
//!   shot, each a copy of the image, with each shot's faults masked to
//!   its block. One walk serves every shot of the pass. A pass runs once
//!   it is full, and a window's last partial pass at the window's end.
//!
//! Each shot's block is then reduced on its own, and every sample equals
//! the slab's bit for bit:
//!
//! * the fidelity reduced to `keep` reads the block's rows in place (the
//!   `reduce` module), after one sweep of the pass's rows for all its
//!   blocks; an all-`Z` shot reads no row, only the ideal's phases and
//!   its sign row. The reduction's reference depends only on
//!   the ideal output and `keep`: one call builds it once, and its shards
//!   share it read-only. Its first use stays at each shard's first
//!   replayed shot, so its panics fire where the slab reduction would
//!   first run;
//! * the full overlap transposes a walked block back into a
//!   [`PathState`] in input path order and calls the unchanged
//!   [`PathState::fidelity`]. For an all-`Z` shot the ideal and noisy
//!   bits coincide path by path, so it sums `conj(ideal) · amp` in path
//!   order from [`Amplitude::ZERO`], as that overlap does.
//!
//! Errors. The ideal walk checks every gate first. A shard then returns
//! the error of its first shot whose plan fires a fault on an
//! out-of-range qubit: the fault with the smallest (gate index, plan
//! position), found as the shot is sampled. A fault past the end never
//! fires and is never checked. When a replayed shot precedes the erroring
//! one, the reference's panic fires first. Across shards the lowest
//! shard's error wins (results merge in shard order), and a shard's
//! panic is re-raised with its own payload, so it reads the same at any
//! thread count.
//!
//! Each worker keeps one [`Lanes`] buffer for its sign walks and passes,
//! one reduction scratch, one output [`PathState`], and its window's
//! taps and sign rows, across the shards it takes. A shard starts by
//! dropping any taps an erroring shard before it left behind.

use std::sync::OnceLock;

use qram_circuit::{Gate, Qubit};

use crate::lanes::{order_by_index, SignTap};
use crate::reduce::{KeptReference, LaneReduction};
use crate::{
    resolve_workers, run_jobs, Amplitude, FaultPlan, FidelityEstimate, Lanes, PathState, SimError,
};

/// Shots per sign walk: a window's all-`Z` shots wait for its sign walk
/// as taps, so a window bounds the taps held at any shot count.
const WINDOW_SHOTS: usize = 1024;

/// Lane words of a multi-shot pass: 8 shots of 256 paths, or 1 shot of
/// 2,048 or more.
const PASS_WORDS: usize = 32;

/// Configuration of one Monte-Carlo fidelity run.
///
/// `seed` is not consumed by the engine itself — shot randomness lives in
/// the sampler closure — but rides along so one value can be threaded
/// from a CLI flag through sampler construction and into the engine
/// (see `qram-bench`).
///
/// ```
/// use qram_sim::ShotConfig;
/// let config = ShotConfig::new(1024).with_seed(7).with_threads(4);
/// assert_eq!(config.shots, 1024);
/// assert_eq!(config.resolved_threads(), 4);
/// // threads = 0 resolves to the machine's available parallelism.
/// assert!(ShotConfig::new(8).resolved_threads() >= 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShotConfig {
    /// Number of Monte-Carlo shots.
    pub shots: usize,
    /// Master RNG seed for the fault sampler (not used by the engine).
    pub seed: u64,
    /// Worker threads across shots; `0` means auto (available cores).
    pub threads: usize,
    /// Unread: the engine runs each shot as one lane pass, and nothing
    /// splits a shot's paths any more. The field remains only because
    /// the host benchmark's offline-noisy slab re-run builds a
    /// `ShotConfig` by struct literal; it is deleted together with that
    /// re-run.
    pub path_chunks: usize,
}

impl ShotConfig {
    /// The default master seed (the paper's venue year).
    pub const DEFAULT_SEED: u64 = 2023;

    /// A config with the default seed and automatic thread count.
    pub fn new(shots: usize) -> Self {
        ShotConfig {
            shots,
            seed: Self::DEFAULT_SEED,
            threads: 0,
            path_chunks: 1,
        }
    }

    /// A single-threaded config (the serial reference path).
    pub fn serial(shots: usize) -> Self {
        ShotConfig::new(shots).with_threads(1)
    }

    /// Overrides the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the thread count (`0` = auto).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The effective worker count: `threads`, or — when `threads == 0` —
    /// the machine's available parallelism.
    pub fn resolved_threads(&self) -> usize {
        resolve_workers(self.threads)
    }
}

impl Default for ShotConfig {
    fn default() -> Self {
        ShotConfig::new(0)
    }
}

/// Work counters accumulated by a shot run, summed over all shards.
///
/// Every field is **knob-invariant**: fault plans are pure functions of
/// the shot index, so which shots replay (and how many faults/gates
/// they touch) cannot depend on the thread count — the stats, like the
/// estimate, are bit-identical for any thread count. Being plain `u64`
/// sums, shard-local stats merge exactly in any order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShotStats {
    /// Shots sampled.
    pub shots: u64,
    /// Shots whose fault plan was non-empty and replayed the circuit.
    pub replayed: u64,
    /// Total faults injected across all replayed shots.
    pub faults: u64,
    /// Gate applications performed by replayed shots
    /// (`replayed shots × circuit length`).
    pub gate_applications: u64,
}

impl ShotStats {
    /// Counts one sampled shot whose plan is `plan` on a circuit of
    /// `gates`. These are model counts, not host work: every non-empty
    /// plan counts as replayed, even one whose faults are all `Z` or all
    /// lie past the end, with all of its faults injected and every gate
    /// (barriers included) applied, whether or not a lane walks it.
    pub fn count(&mut self, plan: &FaultPlan, gates: &[Gate]) {
        self.shots += 1;
        if !plan.is_empty() {
            self.replayed += 1;
            self.faults += plan.len() as u64;
            self.gate_applications += gates.len() as u64;
        }
    }

    /// Adds another shard's counters into this one.
    pub fn merge_from(&mut self, other: &ShotStats) {
        self.shots += other.shots;
        self.replayed += other.replayed;
        self.faults += other.faults;
        self.gate_applications += other.gate_applications;
    }

    /// Feeds the counters into a telemetry [`Recorder`].
    ///
    /// [`Recorder`]: qram_telemetry::Recorder
    pub fn record_into(&self, recorder: &mut impl qram_telemetry::Recorder) {
        recorder.add(qram_telemetry::key::SIM_SHOTS, self.shots);
        recorder.add(qram_telemetry::key::SIM_REPLAYED, self.replayed);
        recorder.add(qram_telemetry::key::SIM_FAULTS, self.faults);
        recorder.add(qram_telemetry::key::SIM_GATES, self.gate_applications);
    }
}

/// Runs `config.shots` noisy trajectories of `gates` on `input` and
/// estimates the fidelity against the noise-free run — over the full
/// state, or reduced to `keep` when given (see
/// [`PathState::reduced_fidelity`]).
///
/// `sample_plan` is called exactly once per shot with the shot index and
/// must return that shot's fault pattern; it must be a pure function of
/// the index (up to its own captured seed) for the determinism guarantee
/// to hold. Shots whose plan is empty short-circuit to fidelity 1 without
/// replaying the circuit.
///
/// A shard's shots share [`Lanes`] walks: all-`Z` shots one sign walk,
/// every other shot a multi-shot pass (see the module docs). The
/// estimate is bit-identical for every thread count: shot sharding only
/// re-partitions which thread runs a shot.
///
/// # Errors
///
/// Propagates the first simulation error from the ideal run or any shot
/// (by lowest shard; all shards run to completion or error independently).
pub fn run_shots(
    gates: &[Gate],
    input: &PathState,
    keep: Option<&[Qubit]>,
    config: &ShotConfig,
    sample_plan: &(impl Fn(u64) -> FaultPlan + Sync),
) -> Result<FidelityEstimate, SimError> {
    run_shots_stats(gates, input, keep, config, sample_plan).map(|(estimate, _)| estimate)
}

/// [`run_shots`] with per-shard work counters: returns the estimate
/// together with the [`ShotStats`] summed over all shards (in shard
/// order, though `u64` addition makes the order immaterial).
///
/// The stats are bit-identical across thread counts for the same reason
/// the estimate is — see [`ShotStats`].
///
/// # Errors
///
/// Same contract as [`run_shots`].
pub fn run_shots_stats(
    gates: &[Gate],
    input: &PathState,
    keep: Option<&[Qubit]>,
    config: &ShotConfig,
    sample_plan: &(impl Fn(u64) -> FaultPlan + Sync),
) -> Result<(FidelityEstimate, ShotStats), SimError> {
    let call = Call::new(gates, input, keep)?;
    let shots = config.shots;
    if shots == 0 {
        return Ok((FidelityEstimate::from_samples(&[]), ShotStats::default()));
    }
    // Contiguous sharding: shard `i` owns shots [i·chunk, (i+1)·chunk).
    // Shot indices are global, so the shard boundaries never influence
    // which plan a shot receives.
    let threads = config.resolved_threads().min(shots);
    let chunk = shots.div_ceil(threads);
    let mut samples = vec![0.0f64; shots];
    let mut results = vec![Ok(ShotStats::default()); shots.div_ceil(chunk)];
    let shards = samples
        .chunks_mut(chunk)
        .zip(&mut results)
        .enumerate()
        .map(|(i, (out, result))| ((i * chunk) as u64, out, result))
        .collect();
    run_jobs(
        threads,
        shards,
        |shard: &mut Shard, (first, out, result)| {
            *result = run_shard(shard, &call, first, out, sample_plan);
        },
    );
    // Merged in shard order, so the lowest shard's error wins.
    let mut stats = ShotStats::default();
    for result in results {
        stats.merge_from(&result?);
    }
    Ok((FidelityEstimate::from_samples(&samples), stats))
}

/// What every shard of one call reads.
struct Call<'a> {
    gates: &'a [Gate],
    input: &'a PathState,
    /// The input's paths as lane rows, one lane per path.
    image: Lanes,
    ideal: PathState,
    keep: Option<&'a [Qubit]>,
    /// The reduction's reference, built by the first shard to reach a
    /// replayed shot.
    reference: OnceLock<KeptReference>,
}

impl<'a> Call<'a> {
    /// Transposes `input` into its row image once and walks a copy of it
    /// for the ideal output, which checks every gate.
    fn new(
        gates: &'a [Gate],
        input: &'a PathState,
        keep: Option<&'a [Qubit]>,
    ) -> Result<Self, SimError> {
        let mut image = Lanes::default();
        image.load_paths(input);
        let mut lanes = image.clone();
        lanes.run(gates)?;
        let mut ideal = PathState::zero_vector(input.num_qubits());
        lanes.block(0).store_paths(input, &mut ideal);
        Ok(Call {
            gates,
            input,
            image,
            ideal,
            keep,
            reference: OnceLock::new(),
        })
    }

    /// The reduction's reference when the fidelity is reduced, built at
    /// its first use.
    ///
    /// # Panics
    ///
    /// As [`KeptReference::new`].
    fn reference(&self) -> Option<&KeptReference> {
        let keep = self.keep?;
        Some(
            self.reference
                .get_or_init(|| KeptReference::new(&self.ideal, keep)),
        )
    }
}

/// Runs one shard's contiguous shot range, from `first_shot`, on
/// `shard`'s buffers, writing fidelities into `out`.
///
/// It samples the shots in order and settles empty plans and errors. A
/// shot that has any `X` or `Y` fault waits for a multi-shot pass, which
/// runs once it is full. An all-`Z` shot leaves only its firing faults,
/// as taps of the window's sign walk, which runs with the window's last
/// partial pass at the window's end. Every sample is bit-identical to
/// the slab engine's.
fn run_shard(
    shard: &mut Shard,
    call: &Call<'_>,
    first_shot: u64,
    out: &mut [f64],
    sample_plan: &(impl Fn(u64) -> FaultPlan + Sync),
) -> Result<ShotStats, SimError> {
    // The worker's previous shard may have ended in an error, with its
    // window's taps still held.
    shard.taps.clear();
    let (end, num_qubits) = (call.gates.len(), call.input.num_qubits());
    let per_pass = (PASS_WORDS / call.input.num_paths().div_ceil(64).max(1)).max(1);
    let mut stats = ShotStats::default();
    // The places in the window of the sign walk's shots, in sign row
    // order, and the shots waiting for the next pass, with their plans.
    let (mut signed, mut walked): (Vec<usize>, Vec<(usize, FaultPlan)>) = (Vec::new(), Vec::new());
    for (window, out) in out.chunks_mut(WINDOW_SHOTS).enumerate() {
        let first = first_shot + (window * WINDOW_SHOTS) as u64;
        for i in 0..out.len() {
            let plan = sample_plan(first + i as u64);
            stats.count(&plan, call.gates);
            if plan.is_empty() {
                // Fault-free shot: fidelity is exactly 1; skip the replay.
                out[i] = 1.0;
                continue;
            }
            if let Some(error) = plan_error(&plan, end, num_qubits) {
                return Err(error);
            }
            if stats.replayed == 1 {
                // The reference is first used here, where the slab
                // reduction first ran, so its panics fire at this shot.
                call.reference();
            }
            if !plan.flips_bits() {
                // All `Z`: its faults past the end never fire.
                let slot = u32::try_from(signed.len()).expect("a window of shots");
                let firing = plan.faults().iter().filter(|f| f.gate_index <= end);
                shard.taps.extend(firing.map(|f| SignTap {
                    index:
                        u32::try_from(f.gate_index).expect("the ideal walk took under 2^32 gates"),
                    qubit: f.qubit,
                    slot,
                }));
                signed.push(i);
            } else {
                walked.push((i, plan));
                if walked.len() == per_pass {
                    shard.pass(call, &walked, out)?;
                    walked.clear();
                }
            }
        }
        shard.pass(call, &walked, out)?;
        shard.sign_walk(call, &signed, out)?;
        walked.clear();
        signed.clear();
    }
    Ok(stats)
}

/// The error the walk of `plan` stops at, the gates being good: its first
/// firing fault, in (gate index, plan position) order, on a qubit past
/// `num_qubits`. A fault past `end` never fires, so it is never checked.
fn plan_error(plan: &FaultPlan, end: usize, num_qubits: usize) -> Option<SimError> {
    plan.faults()
        .iter()
        .filter(|f| f.gate_index <= end && f.qubit.index() >= num_qubits)
        .min_by_key(|f| f.gate_index)
        .map(|f| SimError::QubitOutOfRange {
            index: f.qubit.index(),
            num_qubits,
        })
}

/// A worker's buffers, reused across its windows and the shards it
/// takes.
struct Shard {
    /// The lane buffer of every sign walk and pass.
    lanes: Lanes,
    reduction: LaneReduction,
    /// The full overlap's noisy state.
    noisy: PathState,
    /// The window's sign walk taps, the buffer they are ordered through,
    /// and the window's sign rows.
    taps: Vec<SignTap>,
    spare_taps: Vec<SignTap>,
    signs: Vec<u64>,
}

impl Default for Shard {
    fn default() -> Self {
        Shard {
            lanes: Lanes::default(),
            reduction: LaneReduction::default(),
            noisy: PathState::zero_vector(0),
            taps: Vec::new(),
            spare_taps: Vec::new(),
            signs: Vec::new(),
        }
    }
}

impl Shard {
    /// Runs the window's sign walk, whose sign rows hold the all-`Z`
    /// shots at `places` of `out` in order, and writes each one's
    /// fidelity there.
    fn sign_walk(
        &mut self,
        call: &Call<'_>,
        places: &[usize],
        out: &mut [f64],
    ) -> Result<(), SimError> {
        if places.is_empty() {
            return Ok(());
        }
        order_by_index(
            &mut self.taps,
            &mut self.spare_taps,
            call.gates.len(),
            |tap| tap.index,
        );
        self.lanes.load_blocks(&call.image, 1);
        let words = call.input.num_paths().div_ceil(64);
        self.signs.clear();
        self.signs.resize(places.len() * words, 0);
        let walked = self
            .lanes
            .walk_signs(call.gates, &self.taps, &mut self.signs);
        self.taps.clear();
        walked?;
        let (reference, amps) = (call.reference(), call.input.amplitudes());
        for (slot, &i) in places.iter().enumerate() {
            let block = self
                .lanes
                .signed(&self.signs[slot * words..(slot + 1) * words]);
            out[i] = match reference {
                Some(reference) => self.reduction.phase_fidelity(reference, block, amps),
                None => {
                    // PathState::fidelity's sum, each noisy path found
                    // at its ideal path's place.
                    let mut overlap = Amplitude::ZERO;
                    for (p, (ideal, &a)) in call.ideal.amplitudes().iter().zip(amps).enumerate() {
                        overlap += ideal.conj() * block.amplitude(p, a);
                    }
                    overlap.norm_sqr()
                }
            };
        }
        Ok(())
    }

    /// Runs `shots` as one multi-shot pass, one block per shot, and
    /// writes each one's fidelity into `out`.
    fn pass(
        &mut self,
        call: &Call<'_>,
        shots: &[(usize, FaultPlan)],
        out: &mut [f64],
    ) -> Result<(), SimError> {
        if shots.is_empty() {
            return Ok(());
        }
        self.lanes.load_blocks(&call.image, shots.len());
        for (block, (_, plan)) in shots.iter().enumerate() {
            self.lanes.add_block_faults(block, plan);
        }
        self.lanes.run(call.gates)?;
        let (reference, amps) = (call.reference(), call.input.amplitudes());
        if let Some(reference) = reference {
            self.reduction.sweep(reference, &self.lanes, shots.len());
        }
        for (block, &(i, _)) in shots.iter().enumerate() {
            out[i] = match reference {
                Some(reference) => self.reduction.fidelity(reference, &self.lanes, block, amps),
                None => {
                    self.lanes
                        .block(block)
                        .store_paths(call.input, &mut self.noisy);
                    call.ideal.fidelity(&self.noisy)
                }
            };
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::tests::{wide_gates, wide_input};
    use crate::{Fault, Pauli};
    use qram_circuit::{Circuit, Qubit};

    /// A cheap deterministic per-shot sampler: X-faults qubit 0 on shots
    /// whose mixed index hashes odd, Z-faults every third shot.
    fn pseudo_random_plan(shot: u64) -> FaultPlan {
        let mut plan = FaultPlan::new();
        let h = shot.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        if h % 2 == 1 {
            plan.push(Fault::new(0, Qubit(0), Pauli::X));
        }
        if shot.is_multiple_of(3) {
            plan.push(Fault::new(1, Qubit(1), Pauli::Z));
        }
        plan
    }

    fn test_circuit() -> (Circuit, PathState) {
        let mut c = Circuit::new(3);
        c.push(qram_circuit::Gate::cx(Qubit(0), Qubit(1)));
        c.push(qram_circuit::Gate::cx(Qubit(1), Qubit(2)));
        let input = PathState::uniform_over(3, &[Qubit(0)]);
        (c, input)
    }

    /// X, Y and Z faults at every index, some on qubits 67 and 69, which
    /// the reduced tests trace out; every fourth shot stays clean.
    fn wide_plan(shot: u64) -> FaultPlan {
        let pauli = [Pauli::X, Pauli::Y, Pauli::Z];
        (0..shot % 4)
            .map(|k| {
                let h = (shot * 7 + k * 3) as usize;
                Fault::new(h % 8, Qubit([0, 3, 66, 67, 69][h % 5]), pauli[h % 3])
            })
            .collect()
    }

    /// The slab reference loop: per shot `run_with_faults`, then the
    /// reduction, then [`FidelityEstimate::from_samples`]. A shot with an
    /// empty plan samples 1, as in the engine.
    fn slab_estimate(
        gates: &[qram_circuit::Gate],
        input: &PathState,
        keep: Option<&[Qubit]>,
        shots: u64,
        plan: impl Fn(u64) -> FaultPlan,
    ) -> FidelityEstimate {
        let mut ideal = input.clone();
        crate::run(gates, &mut ideal).unwrap();
        let samples: Vec<f64> = (0..shots)
            .map(|shot| {
                let plan = plan(shot);
                if plan.is_empty() {
                    return 1.0;
                }
                let mut noisy = input.clone();
                crate::run_with_faults(gates, &mut noisy, &plan).unwrap();
                match keep {
                    None => ideal.fidelity(&noisy),
                    Some(keep) => ideal.reduced_fidelity(&noisy, keep),
                }
            })
            .collect();
        FidelityEstimate::from_samples(&samples)
    }

    fn bits(e: &FidelityEstimate) -> (u64, u64, usize) {
        (e.mean.to_bits(), e.std_error.to_bits(), e.shots)
    }

    #[test]
    fn identical_estimates_across_thread_counts() {
        let (c, input) = test_circuit();
        let mut estimates = Vec::new();
        for threads in [1usize, 2, 3, 4, 7] {
            let config = ShotConfig::new(64).with_threads(threads);
            let est = run_shots(c.gates(), &input, None, &config, &pseudo_random_plan).unwrap();
            estimates.push(est);
        }
        for est in &estimates[1..] {
            // Bit-identical, not approximately equal.
            assert_eq!(est, &estimates[0]);
        }
    }

    #[test]
    fn reduced_estimates_identical_across_thread_counts() {
        // Compute–uncompute via the ancilla (qubit 2) so the ideal output
        // leaves it clean — reduced fidelity needs a clean reference.
        let mut c = Circuit::new(3);
        c.push(qram_circuit::Gate::cx(Qubit(0), Qubit(2)));
        c.push(qram_circuit::Gate::cx(Qubit(2), Qubit(1)));
        c.push(qram_circuit::Gate::cx(Qubit(0), Qubit(2)));
        let input = PathState::uniform_over(3, &[Qubit(0)]);
        let keep = [Qubit(0), Qubit(1)];
        let one = run_shots(
            c.gates(),
            &input,
            Some(&keep),
            &ShotConfig::serial(48),
            &pseudo_random_plan,
        )
        .unwrap();
        let four = run_shots(
            c.gates(),
            &input,
            Some(&keep),
            &ShotConfig::new(48).with_threads(4),
            &pseudo_random_plan,
        )
        .unwrap();
        assert_eq!(one, four);
    }

    /// Every (thread count, lane-word chunk count) pair gives the slab
    /// reference's estimate bit for bit. A pass puts 64 paths in a word,
    /// so 1, 64, 65 and 130 paths make one, one full, two and three.
    #[test]
    fn identical_estimates_across_thread_and_chunk_matrix() {
        let gates = wide_gates();
        for paths in [1usize, 64, 65, 130] {
            let input = wide_input(paths);
            let reference = slab_estimate(&gates, &input, None, 40, wide_plan);
            for threads in [1usize, 2, 4] {
                let config = ShotConfig::new(40).with_threads(threads);
                let est = run_shots(&gates, &input, None, &config, &wide_plan).unwrap();
                let at = format!("threads={threads} paths={paths}");
                assert_eq!(bits(&est), bits(&reference), "{at}");
            }
        }
    }

    /// The reduced estimate over one to three lane-word chunks equals the
    /// slab reference's bit for bit; qubits 67 and 69 are traced out.
    #[test]
    fn reduced_estimates_identical_across_chunk_counts() {
        let gates = wide_gates();
        let keep: Vec<Qubit> = (0..70)
            .filter(|q| ![67, 69].contains(q))
            .map(Qubit)
            .collect();
        for paths in [1usize, 64, 65, 130] {
            let input = wide_input(paths);
            let reference = slab_estimate(&gates, &input, Some(&keep), 40, wide_plan);
            let config = ShotConfig::new(40).with_threads(2);
            let est = run_shots(&gates, &input, Some(&keep), &config, &wide_plan).unwrap();
            assert_eq!(bits(&est), bits(&reference), "paths={paths}");
        }
    }

    #[test]
    fn auto_resolution_never_oversubscribes() {
        // Auto fills the machine and no more; a pinned count is kept.
        let cores = resolve_workers(0);
        assert_eq!(ShotConfig::new(8).resolved_threads(), cores);
        assert_eq!(ShotConfig::new(8).with_threads(3).resolved_threads(), 3);
    }

    /// A bad fault fails the pass over a three-chunk input on any shard,
    /// and a bad gate fails the ideal pass first.
    #[test]
    fn errors_propagate_from_chunked_shots() {
        let input = wide_input(130);
        let bad_plan =
            |_: u64| -> FaultPlan { [Fault::new(3, Qubit(80), Pauli::X)].into_iter().collect() };
        let config = ShotConfig::new(8).with_threads(2);
        let mut gates = wide_gates();
        let err = run_shots(&gates, &input, None, &config, &bad_plan).unwrap_err();
        let (index, num_qubits) = (80, 70);
        assert_eq!(err, SimError::QubitOutOfRange { index, num_qubits });
        gates.push(qram_circuit::Gate::H(Qubit(1)));
        let err = run_shots(&gates, &input, None, &config, &bad_plan).unwrap_err();
        assert_eq!(err, SimError::NonReversibleGate { gate: "h" });
    }

    /// A shard that ended in an error serves its next shots as a fresh
    /// one does. Shot 0 leaves two `Z` taps on set bits, and shot 1 then
    /// errors before the window's sign walk runs; a stale tap would flip
    /// signs of the next shard's first all-`Z` shot.
    #[test]
    fn a_shard_after_an_error_serves_like_a_fresh_one() {
        let gates = wide_gates();
        let input = wide_input(130);
        let plan = |shot: u64| -> FaultPlan {
            let faults = match shot {
                0 => vec![
                    Fault::new(2, Qubit(66), Pauli::Z),
                    Fault::new(0, Qubit(1), Pauli::Z),
                ],
                1 => vec![Fault::new(3, Qubit(99), Pauli::X)],
                _ => vec![Fault::new(
                    shot as usize % 8,
                    Qubit(shot as u32 % 5),
                    Pauli::Z,
                )],
            };
            faults.into_iter().collect()
        };
        let kept: Vec<Qubit> = (0..70)
            .filter(|q| ![67, 69].contains(q))
            .map(Qubit)
            .collect();
        for keep in [None, Some(kept.as_slice())] {
            let call = Call::new(&gates, &input, keep).unwrap();
            let mut used = Shard::default();
            let err = run_shard(&mut used, &call, 0, &mut [0.0; 2], &plan);
            let (index, num_qubits) = (99, 70);
            assert_eq!(err, Err(SimError::QubitOutOfRange { index, num_qubits }));
            let (mut again, mut fresh) = ([0.0; 8], [0.0; 8]);
            let stats = run_shard(&mut used, &call, 2, &mut again, &plan).unwrap();
            let want = run_shard(&mut Shard::default(), &call, 2, &mut fresh, &plan).unwrap();
            assert_eq!(stats, want);
            assert_eq!(again.map(f64::to_bits), fresh.map(f64::to_bits));
        }
    }

    /// Shot `s` faults qubit `40 + s`, so every shard fails on its own
    /// qubit; the lowest shard's error wins at any thread count.
    #[test]
    fn the_lowest_shards_error_wins() {
        let (c, input) = test_circuit();
        let plan = |shot: u64| -> FaultPlan {
            [Fault::new(0, Qubit(40 + shot as u32), Pauli::X)]
                .into_iter()
                .collect()
        };
        for threads in [1, 2, 4] {
            let config = ShotConfig::new(16).with_threads(threads);
            let err = run_shots_stats(c.gates(), &input, None, &config, &plan).unwrap_err();
            let (index, num_qubits) = (40, 3);
            assert_eq!(
                err,
                SimError::QubitOutOfRange { index, num_qubits },
                "threads={threads}"
            );
        }
    }

    #[test]
    fn zero_shots_yields_empty_estimate() {
        let (c, input) = test_circuit();
        let est = run_shots(
            c.gates(),
            &input,
            None,
            &ShotConfig::new(0),
            &pseudo_random_plan,
        )
        .unwrap();
        assert_eq!(est.shots, 0);
    }

    #[test]
    fn more_threads_than_shots_is_fine() {
        let (c, input) = test_circuit();
        let est = run_shots(
            c.gates(),
            &input,
            None,
            &ShotConfig::new(3).with_threads(16),
            &pseudo_random_plan,
        )
        .unwrap();
        assert_eq!(est.shots, 3);
    }

    #[test]
    fn errors_propagate_from_worker_shards() {
        let (c, input) = test_circuit();
        // Fault on a qubit beyond the state: every noisy shot errors.
        let bad_plan =
            |_: u64| -> FaultPlan { [Fault::new(0, Qubit(40), Pauli::X)].into_iter().collect() };
        let err = run_shots(
            c.gates(),
            &input,
            None,
            &ShotConfig::new(16).with_threads(4),
            &bad_plan,
        )
        .unwrap_err();
        assert!(matches!(err, SimError::QubitOutOfRange { .. }));
    }

    #[test]
    fn shot_stats_identical_across_thread_and_chunk_matrix() {
        let gates = wide_gates();
        let serial = ShotConfig::serial(64);
        let (_, reference) =
            run_shots_stats(&gates, &wide_input(1), None, &serial, &wide_plan).unwrap();
        assert_eq!(reference.shots, 64);
        assert_eq!(reference.replayed, 48);
        assert!(reference.faults >= reference.replayed);
        assert_eq!(reference.gate_applications, 48 * gates.len() as u64);
        // The counters count shots, not paths or lane words.
        for paths in [1usize, 65, 130] {
            for threads in [2usize, 4, 7] {
                let config = ShotConfig::new(64).with_threads(threads);
                let (_, stats) =
                    run_shots_stats(&gates, &wide_input(paths), None, &config, &wide_plan).unwrap();
                assert_eq!(stats, reference, "threads={threads} paths={paths}");
            }
        }
    }

    #[test]
    fn recorded_run_feeds_counters() {
        let (c, input) = test_circuit();
        let mut recorder = qram_telemetry::TelemetryRecorder::new();
        let config = ShotConfig::new(32).with_threads(2);
        let (est, stats) =
            run_shots_stats(c.gates(), &input, None, &config, &pseudo_random_plan).unwrap();
        stats.record_into(&mut recorder);
        assert_eq!(est.shots, 32);
        let metrics = recorder.metrics();
        assert_eq!(metrics.counter(qram_telemetry::key::SIM_SHOTS), 32);
        assert!(metrics.counter(qram_telemetry::key::SIM_REPLAYED) > 0);
        assert!(
            metrics.counter(qram_telemetry::key::SIM_FAULTS)
                >= metrics.counter(qram_telemetry::key::SIM_REPLAYED)
        );
    }

    /// A panic payload's message.
    fn message(payload: &(dyn std::any::Any + Send)) -> &str {
        payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("")
    }

    /// A CX that entangles the traced-out qubit 1 with the kept qubit 0,
    /// so the reduced reference is ill-defined.
    fn entangled_case() -> (Circuit, PathState, [Qubit; 1]) {
        let mut c = Circuit::new(2);
        c.push(qram_circuit::Gate::cx(Qubit(0), Qubit(1)));
        (c, PathState::uniform_over(2, &[Qubit(0)]), [Qubit(0)])
    }

    /// The reduced reference is checked where the slab reduction first
    /// ran, at the first replayed shot: a traced-out qubit entangled
    /// with a kept one goes unnoticed while no shot replays, and panics
    /// once one does, here an all-`Z` shot that no lane walks. The panic
    /// reads the same at 1, 2 and 3 threads.
    #[test]
    #[should_panic(expected = "reference state has entangled non-kept qubits")]
    fn an_entangled_reference_panics_at_the_first_replayed_shot() {
        let (c, input, keep) = entangled_case();
        let clean = run_shots(
            c.gates(),
            &input,
            Some(&keep),
            &ShotConfig::serial(4),
            &|_| FaultPlan::new(),
        );
        assert_eq!(clean.unwrap().mean, 1.0);
        let z: FaultPlan = [Fault::new(0, Qubit(0), Pauli::Z)].into_iter().collect();
        let run = |threads| {
            let config = ShotConfig::new(4).with_threads(threads);
            run_shots(c.gates(), &input, Some(&keep), &config, &|_| z.clone())
        };
        for threads in [1, 2] {
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(threads)))
                .expect_err("an entangled reference panics");
            let want = "reference state has entangled non-kept qubits";
            assert_eq!(message(payload.as_ref()), want, "threads={threads}");
        }
        let _ = run(3);
    }

    /// A replayed shot before the first erroring one builds the reference,
    /// so its panic wins over the error.
    #[test]
    #[should_panic(expected = "reference state has entangled non-kept qubits")]
    fn a_replayed_shot_before_the_error_panics_first() {
        let (c, input, keep) = entangled_case();
        let plan = |shot: u64| -> FaultPlan {
            let fault = match shot {
                0 => Fault::new(1, Qubit(1), Pauli::X),
                _ => Fault::new(0, Qubit(9), Pauli::Z),
            };
            [fault].into_iter().collect()
        };
        let _ = run_shots(
            c.gates(),
            &input,
            Some(&keep),
            &ShotConfig::serial(3),
            &plan,
        );
    }

    /// An erroring first replayed shot returns its error before the
    /// reference is built: the fault with the smallest gate index, and
    /// at one index the first in plan order.
    #[test]
    fn an_erroring_first_replayed_shot_returns_before_the_reference() {
        let (c, input, keep) = entangled_case();
        let plan = |shot: u64| -> FaultPlan {
            match shot {
                0 => FaultPlan::new(),
                _ => [
                    Fault::new(1, Qubit(7), Pauli::X),
                    Fault::new(0, Qubit(5), Pauli::Z),
                    Fault::new(0, Qubit(6), Pauli::X),
                ]
                .into_iter()
                .collect(),
            }
        };
        let err = run_shots(
            c.gates(),
            &input,
            Some(&keep),
            &ShotConfig::serial(3),
            &plan,
        );
        let (index, num_qubits) = (5, 2);
        assert_eq!(err, Err(SimError::QubitOutOfRange { index, num_qubits }));
    }

    /// Checks one plan, repeated over `shots` shots, against the slab
    /// loop: both overlaps, 1, 65 and 130 paths, 1 and 3 threads.
    fn assert_plan_matches_slab(plan: &FaultPlan, shots: u64) {
        let gates = wide_gates();
        let keep: Vec<Qubit> = (0..70)
            .filter(|q| ![67, 69].contains(q))
            .map(Qubit)
            .collect();
        for paths in [1usize, 65, 130] {
            let input = wide_input(paths);
            for keep in [None, Some(keep.as_slice())] {
                let reference = slab_estimate(&gates, &input, keep, shots, |_| plan.clone());
                for threads in [1, 3] {
                    let config = ShotConfig::new(shots as usize).with_threads(threads);
                    let (est, stats) =
                        run_shots_stats(&gates, &input, keep, &config, &|_| plan.clone()).unwrap();
                    let at = format!("paths={paths} threads={threads} reduced={}", keep.is_some());
                    assert_eq!(bits(&est), bits(&reference), "{at}");
                    assert_eq!(stats.replayed, shots, "{at}");
                    assert_eq!(stats.faults, shots * plan.len() as u64, "{at}");
                    assert_eq!(stats.gate_applications, shots * gates.len() as u64, "{at}");
                }
            }
        }
    }

    /// An all-`Z` shot whose faults all lie past the end, one on a qubit
    /// that does not exist: nothing fires or is checked, yet the shot
    /// counts as replayed with every gate applied.
    #[test]
    fn an_all_z_shot_past_the_end_is_replayed_and_unchanged() {
        let end = wide_gates().len();
        let plan: FaultPlan = [
            Fault::new(end + 1, Qubit(3), Pauli::Z),
            Fault::new(end + 4, Qubit(99), Pauli::Z),
        ]
        .into_iter()
        .collect();
        assert_plan_matches_slab(&plan, 5);
    }

    /// `Z·Z` on one qubit at one location cancels in the sign row.
    #[test]
    fn z_z_at_one_location_cancels() {
        let plan: FaultPlan = [
            Fault::new(2, Qubit(66), Pauli::Z),
            Fault::new(2, Qubit(66), Pauli::Z),
            Fault::new(4, Qubit(1), Pauli::Z),
        ]
        .into_iter()
        .collect();
        assert_plan_matches_slab(&plan, 4);
    }

    /// A `Z` at `gates.len()` taps the final row, after the last gate.
    #[test]
    fn a_z_fault_at_the_end_taps_the_final_row() {
        let end = wide_gates().len();
        // Qubit 6 is flipped by the last gate, qubit 66 set on some paths.
        let plan: FaultPlan = [
            Fault::new(end, Qubit(6), Pauli::Z),
            Fault::new(end, Qubit(66), Pauli::Z),
        ]
        .into_iter()
        .collect();
        assert_plan_matches_slab(&plan, 3);
    }

    /// A 0-path input (every amplitude pruned): the passes and the sign
    /// walk have no lane, every sample is the slab's empty overlap, and
    /// a firing out-of-range fault still errors.
    #[test]
    fn a_zero_path_input_samples_the_empty_overlap() {
        let gates = wide_gates();
        let input = PathState::zero_vector(70);
        let keep: Vec<Qubit> = (0..60).map(Qubit).collect();
        for keep in [None, Some(keep.as_slice())] {
            let reference = slab_estimate(&gates, &input, keep, 40, wide_plan);
            for threads in [1, 3] {
                let config = ShotConfig::new(40).with_threads(threads);
                let est = run_shots(&gates, &input, keep, &config, &wide_plan).unwrap();
                assert_eq!(bits(&est), bits(&reference), "threads={threads}");
            }
        }
        let bad =
            |_: u64| -> FaultPlan { [Fault::new(1, Qubit(70), Pauli::Z)].into_iter().collect() };
        let err = run_shots(&gates, &input, None, &ShotConfig::serial(2), &bad);
        let (index, num_qubits) = (70, 70);
        assert_eq!(err, Err(SimError::QubitOutOfRange { index, num_qubits }));
    }

    /// More shots than a window, with every kind of plan, at two paths
    /// per word count: several windows, passes and sign walks, each
    /// sample the slab's.
    #[test]
    fn windows_passes_and_sign_walks_match_the_slab() {
        let gates = wide_gates();
        let shots = WINDOW_SHOTS as u64 + 70;
        let plan = |shot: u64| -> FaultPlan {
            let mut plan = wide_plan(shot);
            if shot % 5 < 2 {
                // All-Z shots, some of them past the end.
                plan = plan
                    .faults()
                    .iter()
                    .map(|f| Fault::new(f.gate_index + (shot % 2) as usize * 8, f.qubit, Pauli::Z))
                    .collect();
            }
            plan
        };
        for paths in [64usize, 130] {
            let input = wide_input(paths);
            let reference = slab_estimate(&gates, &input, None, shots, plan);
            let config = ShotConfig::new(shots as usize).with_threads(1);
            let est = run_shots(&gates, &input, None, &config, &plan).unwrap();
            assert_eq!(bits(&est), bits(&reference), "paths={paths}");
        }
    }

    #[test]
    fn serial_config_constructor() {
        let config = ShotConfig::serial(10);
        assert_eq!(config.threads, 1);
        assert_eq!(config.resolved_threads(), 1);
        assert_eq!(config.seed, ShotConfig::DEFAULT_SEED);
    }
}
