//! The timed window: back-to-back rounds of one workload until the
//! window is used up.
//!
//! A round builds the system under test from the generated inputs (the
//! set-up), serves every input once (the timed operations) and checks
//! the outputs. Rounds repeat identical work, so their spread is host
//! noise alone. Throughput sums the operations and their time over every
//! round but the first, which averages the host's slow and fast phases
//! in proportion; every round's results digest must equal the first
//! round's.

use crate::metrics::Layers;
use crate::stats::{elapsed_ns, ratio};
use crate::trace::Tracer;
use crate::Settings;
use qram::telemetry::host_wall;

/// How a round runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// Untraced: the end-to-end measurement.
    Plain,
    /// Spans recorded around every layer call.
    Traced,
    /// Untraced, with the no-op telemetry recorder in place of the
    /// telemetry recorder the workload serves with.
    Noop,
}

/// What one round measured and checked.
#[derive(Debug, Clone)]
pub struct Round {
    /// Host ns of the round's fastest build of the system under test
    /// (see [`timed_setup`]).
    pub setup_ns: f64,
    /// Operations attempted (every one is timed).
    pub ops: u64,
    /// Host ns the operations took.
    pub op_ns: u64,
    /// Operations of `ops` that failed (rejected, lost, or a wrong
    /// value).
    pub failed: u64,
    /// Digest of every simulated output of the round.
    pub digest: u64,
    /// Failed correctness checks, one message each.
    pub problems: Vec<String>,
}

impl Round {
    /// Operations per host second.
    pub fn ops_per_s(&self) -> f64 {
        ratio(self.ops as f64 * 1e9, self.op_ns as f64)
    }
}

/// Runs rounds until `settings.seconds` have passed, cycling through
/// `passes` (only the first, `Plain`, when untraced), and until every
/// pass ran once after the first round, which warms up and is left out
/// of `ops_per_s` and `setup_s`. `round` returns its measurements and,
/// when it keeps one, its output: the first output gives the notes, and
/// the last traced one is returned for the per-layer metrics.
pub fn run_rounds<S>(
    settings: &Settings,
    passes: &[Pass],
    mut round: impl FnMut(Pass, &mut Tracer) -> (Round, Option<S>),
    notes: impl Fn(&S) -> Vec<String>,
) -> (Outcome, Option<S>) {
    let passes = if settings.trace { passes } else { &passes[..1] };
    let mut tracer = Tracer::new(false);
    let mut first_notes = Vec::new();
    let mut last_traced = None;
    let mut rounds = Vec::new();
    let start = host_wall();
    loop {
        let pass = passes[rounds.len() % passes.len()];
        tracer.set_enabled(pass == Pass::Traced);
        let (done, output) = round(pass, &mut tracer);
        tracer.set_enabled(false);
        if let Some(output) = output {
            if rounds.is_empty() {
                first_notes = notes(&output);
            }
            if pass == Pass::Traced {
                last_traced = Some(output);
            }
        }
        rounds.push((pass, done));
        if rounds.len() > passes.len() && start.elapsed().as_secs_f64() >= settings.seconds {
            break;
        }
    }
    let outcome = Outcome {
        rounds,
        layers: Layers::default(),
        notes: first_notes,
        problems: Vec::new(),
        tracer,
    };
    (outcome, last_traced)
}

/// Host time a round spends building, at least.
const SETUP_WINDOW_NS: u64 = 20_000_000;
/// Samples a round takes of the build time, at least.
const MIN_SETUP_SAMPLES: usize = 3;
/// Builds shorter than this are timed back to back in chunks of this
/// length, each build replacing the previous one, so that a build of
/// microseconds is not dominated by reading the clock.
const SETUP_CHUNK_NS: u64 = 1_000_000;

/// Builds the system under test with `build` for at least
/// [`SETUP_WINDOW_NS`] and [`MIN_SETUP_SAMPLES`] samples. A sample is
/// one build, or a chunk of builds for short ones, timed as host ns per
/// build. Only the first build records spans, so the span log holds one
/// set-up per round. Returns the last build and the fastest sample:
/// identical builds back to back differ only by interference from the
/// host.
pub fn timed_setup<T>(tracer: &mut Tracer, mut build: impl FnMut(&mut Tracer) -> T) -> (T, f64) {
    let traced = tracer.enabled();
    let mut samples = Vec::new();
    let mut spent = 0;
    let mut built = None;
    while samples.len() < MIN_SETUP_SAMPLES || spent < SETUP_WINDOW_NS {
        // The previous sample's build is dropped outside the timing.
        drop(built.take());
        let start = host_wall();
        let mut builds = 0u32;
        loop {
            built = Some(build(tracer));
            tracer.set_enabled(false);
            builds += 1;
            if elapsed_ns(start) >= SETUP_CHUNK_NS {
                break;
            }
        }
        let ns = elapsed_ns(start);
        spent += ns;
        samples.push(ns as f64 / f64::from(builds));
    }
    tracer.set_enabled(traced);
    let fastest = samples.iter().copied().fold(f64::INFINITY, f64::min);
    (built.expect("at least one build"), fastest)
}

/// Everything one workload run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Every round, in order.
    pub rounds: Vec<(Pass, Round)>,
    /// Per-layer metrics (traced runs only).
    pub layers: Layers,
    /// Modeled (virtual-clock) statistics and other context, one line
    /// each.
    pub notes: Vec<String>,
    /// Failed checks found outside the rounds (e.g. while re-timing).
    pub problems: Vec<String>,
    /// The span log.
    pub tracer: Tracer,
}

impl Outcome {
    /// Operations per host second over the rounds of `pass`: summed
    /// operations over summed operation time. The run's first round
    /// warms caches and the allocator and is left out.
    pub fn ops_per_s(&self, pass: Pass) -> f64 {
        let (ops, ns) = self
            .rounds
            .iter()
            .skip(1)
            .filter(|(p, _)| *p == pass)
            .fold((0u64, 0u64), |(ops, ns), (_, r)| {
                (ops + r.ops, ns + r.op_ns)
            });
        ratio(ops as f64 * 1e9, ns as f64)
    }

    /// Set-up seconds: the fastest set-up sample (see [`timed_setup`]) of
    /// the untraced rounds after the first. The host runs set-up up to
    /// twice as slowly in its slow phases, which can last a whole series
    /// of runs; the fastest of the run's many builds stays near the
    /// build's own cost as long as some of them fall in a fast moment.
    pub fn setup_s(&self) -> f64 {
        self.rounds
            .iter()
            .skip(1)
            .filter(|(p, _)| *p == Pass::Plain)
            .map(|(_, r)| r.setup_ns / 1e9)
            .fold(f64::INFINITY, f64::min)
    }

    /// Operations attempted over every round.
    pub fn attempted(&self) -> u64 {
        self.rounds.iter().map(|(_, r)| r.ops).sum()
    }

    /// Operations failed over every round.
    pub fn failed(&self) -> u64 {
        self.rounds.iter().map(|(_, r)| r.failed).sum()
    }

    /// The first round's results digest.
    pub fn digest(&self) -> u64 {
        self.rounds.first().map_or(0, |(_, r)| r.digest)
    }

    /// Every failed check: per round, the digest repeat check, and the
    /// outcome's own.
    pub fn problems(&self) -> Vec<String> {
        let mut problems: Vec<String> = Vec::new();
        for (i, (_, round)) in self.rounds.iter().enumerate() {
            problems.extend(round.problems.iter().map(|p| format!("round {i}: {p}")));
            if round.digest != self.digest() {
                problems.push(format!(
                    "round {i}: results digest {:016x} differs from round 0's {:016x} on the same inputs",
                    round.digest,
                    self.digest()
                ));
            }
        }
        problems.extend(self.problems.iter().cloned());
        problems
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(setup_ns: f64, ops: u64, op_ns: u64) -> Round {
        Round {
            setup_ns,
            ops,
            op_ns,
            failed: 0,
            digest: 0,
            problems: Vec::new(),
        }
    }

    #[test]
    fn end_to_end_metrics_skip_the_warm_up_and_other_passes() {
        let outcome = Outcome {
            rounds: vec![
                (Pass::Plain, round(1e3, 10, 1_000_000_000)),
                (Pass::Traced, round(2e3, 10, 1)),
                (Pass::Plain, round(5e3, 30, 2_000_000_000)),
                (Pass::Plain, round(4e3, 10, 2_000_000_000)),
            ],
            layers: Layers::default(),
            notes: Vec::new(),
            problems: Vec::new(),
            tracer: Tracer::new(false),
        };
        assert_eq!(outcome.ops_per_s(Pass::Plain), 10.0);
        assert_eq!(outcome.setup_s(), 4e-6);
        assert_eq!(outcome.attempted(), 60);
    }
}
