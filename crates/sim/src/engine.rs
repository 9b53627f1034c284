//! Sharded, deterministic parallel Monte-Carlo shot engine: threads
//! across *shots*, and within a shot one bit-sliced [`Lanes`] pass with
//! one lane per input path.
//!
//! The engine splits a run of `shots` trajectories into per-thread
//! *shards* executed under [`std::thread::scope`] — no work stealing, no
//! external dependencies. Determinism across thread counts is structural,
//! not accidental:
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
//! superposition input is a fixed set of lanes. The ideal run and every
//! replayed shot are one lane pass each: the input's paths are
//! transposed into lanes, the shot's plan is scheduled once for the
//! whole pass, and the final lanes are transposed back into a
//! [`PathState`] in input path order. Every bit and amplitude equals what
//! the slab's [`crate::run_with_faults`] gives, so the unchanged
//! [`PathState::fidelity`] and [`PathState::reduced_fidelity`]
//! reductions give bit-identical samples. The reduced fidelity's
//! reference half (the ideal's kept-bits map) depends only on the ideal
//! output and the kept qubits, so each shard builds it once, at its first
//! replayed shot, and only the per-shot half runs for each shot.
//!
//! Each shard reuses one [`Lanes`] buffer and one output [`PathState`]
//! across its shots.

use std::num::NonZeroUsize;
use std::thread;

use qram_circuit::{Gate, Qubit};

use crate::state::ReducedReference;
use crate::{FaultPlan, FidelityEstimate, Lanes, PathState, SimError};

fn available_cores() -> usize {
    thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

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
        if self.threads > 0 {
            self.threads
        } else {
            available_cores()
        }
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
/// Each shot is one [`Lanes`] pass with one lane per input path (see the
/// module docs). The estimate is bit-identical for every thread count:
/// shot sharding only re-partitions which thread runs a shot.
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
    let mut lanes = Lanes::default();
    let mut ideal = PathState::zero_vector(input.num_qubits());
    lanes.run_paths(gates, input, &FaultPlan::new(), &mut ideal)?;

    let shots = config.shots;
    if shots == 0 {
        return Ok((FidelityEstimate::from_samples(&[]), ShotStats::default()));
    }
    let threads = config.resolved_threads().min(shots).max(1);
    let mut samples = vec![0.0f64; shots];
    let mut stats = ShotStats::default();

    if threads == 1 {
        stats = run_shard(gates, input, &ideal, keep, 0, &mut samples, sample_plan)?;
    } else {
        // Contiguous sharding: shard `i` owns shots [i·chunk, (i+1)·chunk).
        // Shot indices are global, so the shard boundaries never influence
        // which plan a shot receives.
        let chunk = shots.div_ceil(threads);
        let ideal_ref = &ideal;
        let results: Vec<Result<ShotStats, SimError>> = thread::scope(|scope| {
            let handles: Vec<_> = samples
                .chunks_mut(chunk)
                .enumerate()
                .map(|(i, out)| {
                    scope.spawn(move || {
                        run_shard(
                            gates,
                            input,
                            ideal_ref,
                            keep,
                            (i * chunk) as u64,
                            out,
                            sample_plan,
                        )
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shot shard panicked"))
                .collect()
        });
        for result in results {
            stats.merge_from(&result?);
        }
    }
    Ok((FidelityEstimate::from_samples(&samples), stats))
}

/// Runs one shard's contiguous shot range, writing fidelities into `out`.
///
/// Each noisy shot is one lane pass over the input's paths, transposed
/// back into the scratch state; the overlap reduction then runs over
/// that state in path order, so the sample value is bit-identical to
/// the slab engine's.
fn run_shard(
    gates: &[Gate],
    input: &PathState,
    ideal: &PathState,
    keep: Option<&[Qubit]>,
    first_shot: u64,
    out: &mut [f64],
    sample_plan: &(impl Fn(u64) -> FaultPlan + Sync),
) -> Result<ShotStats, SimError> {
    // One lane buffer and one output state per shard, reused per shot.
    let mut lanes = Lanes::default();
    let mut noisy = PathState::zero_vector(input.num_qubits());
    // Built at the shard's first replayed shot, as the reduction it
    // replaces would first run there.
    let mut reference: Option<ReducedReference> = None;
    let mut stats = ShotStats::default();
    for (i, slot) in out.iter_mut().enumerate() {
        let plan = sample_plan(first_shot + i as u64);
        stats.shots += 1;
        if plan.is_empty() {
            // Fault-free shot: fidelity is exactly 1; skip the replay.
            *slot = 1.0;
            continue;
        }
        stats.replayed += 1;
        stats.faults += plan.len() as u64;
        stats.gate_applications += gates.len() as u64;
        lanes.run_paths(gates, input, &plan, &mut noisy)?;
        *slot = match keep {
            None => ideal.fidelity(&noisy),
            Some(keep) => reference
                .get_or_insert_with(|| ReducedReference::new(ideal, keep))
                .fidelity(&noisy),
        };
    }
    Ok(stats)
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
        let cores = super::available_cores();
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

    #[test]
    fn serial_config_constructor() {
        let config = ShotConfig::serial(10);
        assert_eq!(config.threads, 1);
        assert_eq!(config.resolved_threads(), 1);
        assert_eq!(config.seed, ShotConfig::DEFAULT_SEED);
    }
}
